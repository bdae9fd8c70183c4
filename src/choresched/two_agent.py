"""Constructive EF1+maximal solvers for two agents under monotone valuations.

The strategy: build a sequence of maximal schedules that starts at some
schedule and ends at its bundle swap, where consecutive schedules differ by
at most one addition and one removal per bundle ("adjacent").  Agent 0 cannot
envy in both endpoints, so its envy status flips somewhere along the
sequence, and one of the four schedules around the flip (the two steps and
their swaps) must be EF1.  Sequence construction never consults valuations;
only the final selection step does.

Agent 0 is the "red" bundle (R) and agent 1 the "blue" bundle (B) in the
trace output; N marks an unassigned chore.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import ne
from typing import Optional, Sequence

from .checkers import check_ef1, is_maximal
from .core import (
    Chore,
    ConflictGraph,
    InputError,
    Instance,
    InternalInvariantError,
    Schedule,
    build_conflict_graph,
    is_feasible,
    order_by_finish,
    path_component_order,
)

RED, BLUE = 0, 1


@dataclass(frozen=True)
class ScheduleSequence:
    """An ordered list of schedules over one instance, with per-step phase tags."""

    steps: tuple[Schedule, ...]
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.steps) != len(self.tags):
            raise InputError("one tag per step required")
        if not self.steps:
            raise InputError("a sequence has at least one step")

    def __len__(self) -> int:
        return len(self.steps)

    def trace_lines(self) -> list[str]:
        """One line per step: chore colors (R/B/N, in chore id order) plus the tag."""
        letters = {RED: "R", BLUE: "B", None: "N"}
        return [
            "".join(letters[a] for a in step.assignment) + " " + tag
            for step, tag in zip(self.steps, self.tags)
        ]


def adjacent(x: Schedule, y: Schedule) -> bool:
    """True iff each bundle of y differs from x's by <= 1 addition and <= 1 removal."""
    if x.n_agents != 2 or y.n_agents != 2:
        raise InputError("adjacency is defined for two-agent schedules")
    if x.m != y.m:
        raise InputError("schedules cover different chore sets")
    for agent in (RED, BLUE):
        xb, yb = x.bundle(agent), y.bundle(agent)
        if len(yb - xb) > 1 or len(xb - yb) > 1:
            return False
    return True


class _StepChecker:
    """Bug trap for a two-agent schedule sequence, fed one step at a time.

    The first step is checked in full with is_feasible and is_maximal.  Each
    later step is checked only through its delta, the chores whose agent
    differs from the step before, which has already passed:

    - feasible: every changed chore that is assigned is free of overlaps in
      its new bundle.  Two overlapping chores in one bundle that both kept
      their agent would have made the previous step infeasible.
    - maximal (when required): every unassigned chore in the closed
      neighbourhood of the delta is blocked in both bundles.  Any other
      unassigned chore was unassigned before and none of its neighbours
      changed, so the previous, maximal step already blocked it in both.
    - adjacent: each bundle gains at most one changed chore and loses at most
      one, which is the adjacent() test itself restricted to the chores
      where the two steps can differ.

    So a step fails here exactly when the full check of it (and of the pair
    it forms with the previous step) fails.  A failed step is not recorded;
    the next step is still checked against the last step that passed.
    """

    def __init__(self, graph: ConflictGraph, require_maximal: bool):
        self.graph = graph
        self.require_maximal = require_maximal
        self.previous: Optional[Schedule] = None
        self.masks = (0, 0)

    def failure(self, step: Schedule) -> Optional[str]:
        """None if the step passes (it then becomes the previous step), else
        which check it fails: "infeasible", "not maximal" or "not adjacent"."""
        graph = self.graph
        if self.previous is None:
            if not is_feasible(step, graph):
                return "infeasible"
            if self.require_maximal and not is_maximal(step, graph):
                return "not maximal"
            self.previous = step
            self.masks = (step.bundle_mask(RED), step.bundle_mask(BLUE))
            return None
        if step.m != graph.m:
            raise InputError(f"schedule covers {step.m} chores, graph has {graph.m}")
        if step.n_agents != 2 or self.previous.n_agents != 2:
            raise InputError("adjacency is defined for two-agent schedules")
        nbr = graph.neighbor_masks
        old = self.previous.assignment
        new = step.assignment
        changed = list(compress(range(graph.m), map(ne, old, new)))
        masks = list(self.masks)
        added = [0, 0]
        removed = [0, 0]
        for c in changed:
            if old[c] is not None:
                masks[old[c]] &= ~(1 << c)
                removed[old[c]] += 1
            if new[c] is not None:
                masks[new[c]] |= 1 << c
                added[new[c]] += 1
        for c in changed:
            if new[c] is not None and nbr[c] & masks[new[c]]:
                return "infeasible"
        if self.require_maximal:
            red, blue = masks
            region = 0
            for c in changed:
                region |= nbr[c] | 1 << c
            region &= ~(red | blue)
            while region:
                low = region & -region
                u = low.bit_length() - 1
                if not (nbr[u] & red and nbr[u] & blue):
                    return "not maximal"
                region ^= low
        if max(added) > 1 or max(removed) > 1:
            return "not adjacent"
        self.previous = step
        self.masks = (masks[RED], masks[BLUE])
        return None


def _require_two_agents(instance: Instance) -> None:
    if instance.n != 2:
        raise InputError(f"this construction needs exactly two agents, got {instance.n}")


# ---------------------------------------------------------------------------
# Path graphs: the alternating-color shift sequence.
# ---------------------------------------------------------------------------


def _component_path_steps(path: list[int]) -> list[dict[int, Optional[int]]]:
    """The shift sequence for one path component, as chore->color maps.

    Step 1 colors the path alternately starting with red; step i (for
    2 <= i <= m-1) swaps the colors of everything before position i, keeps
    the alternation after it, and leaves the chore at position i unassigned;
    the last step is the full color swap.  A single chore degenerates to
    [ {c: R}, {c: B} ].
    """

    def step(gap: int) -> dict[int, Optional[int]]:
        # The chore at position gap is unassigned; those before it are swapped.
        status: dict[int, Optional[int]] = {}
        for h, c in enumerate(path):
            color = RED if h % 2 == 0 else BLUE
            status[c] = None if h == gap else (1 - color if h < gap else color)
        return status

    return [step(gap) for gap in [-1, *range(1, len(path) - 1), len(path)]]


def path_sequence(instance: Instance) -> ScheduleSequence:
    """The maximal-schedule sequence for a path-shaped conflict graph.

    Every step is maximal, consecutive steps are adjacent, and the endpoints
    are bundle swaps of each other.  A disjoint union of path components is
    handled by running the per-component sequences one after another inside a
    single global sequence, so the swap property still holds globally.
    Non-path graphs are rejected.

    It is a construction of its own, not a call to interval_sequence_ef1:
    on a connected path the two sequences agree step for step, but on a
    disjoint union of paths this one finishes each component's run before
    starting the next, so its steps and trace differ there.
    """
    _require_two_agents(instance)
    graph = instance.graph()
    chores = instance.chores
    rank = {c: pos for pos, c in enumerate(order_by_finish(chores))}
    comps = sorted(graph.components(), key=lambda comp: min(rank[c] for c in comp))
    paths = [path_component_order(graph, chores, comp) for comp in comps]
    per_comp = [_component_path_steps(path) for path in paths]

    builder = _SequenceBuilder(graph, "path_sequence")
    status: dict[int, Optional[int]] = {}
    for comp_steps in per_comp:
        status.update(comp_steps[0])
    builder.emit(status, "initial")
    for comp_steps in per_comp:
        for local in comp_steps[1:]:
            status.update(local)
            builder.emit(status, "path-shift")
    return builder.sequence()


# ---------------------------------------------------------------------------
# Interval graphs: marking, the EF2 shift sequence, and the three-phase
# EF1 construction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChoreClassification:
    """Static chore classification shared by the interval constructions.

    Chores are scanned in increasing finish order (ties by id).  A chore is
    unmarked iff it overlaps two or more earlier-finishing marked chores;
    bucket i collects the unmarked chores whose finish falls between marked
    chores number i and i+1 (1-based).  Marked chores alternate red/blue in
    the source coloring; the target coloring is the swap.
    """

    order: tuple[int, ...]
    rank: dict[int, int]
    marked: tuple[int, ...]
    unmarked: frozenset[int]
    bucket_of: dict[int, int]
    buckets: dict[int, tuple[int, ...]]
    source_color: dict[int, int]
    graph: ConflictGraph

    def target_color(self, chore: int) -> Optional[int]:
        """The chore's color in the swapped endpoint (None for unmarked chores)."""
        src = self.source_color.get(chore)
        return None if src is None else 1 - src


def classify_chores(
    chores: Sequence[Chore], graph: Optional[ConflictGraph] = None
) -> ChoreClassification:
    """Run the marking scan and bucket the unmarked chores."""
    if graph is None:
        graph = build_conflict_graph(chores)
    order = order_by_finish(chores)
    rank = {c: pos for pos, c in enumerate(order)}
    marked: list[int] = []
    marked_mask = 0
    unmarked: set[int] = set()
    bucket_of: dict[int, int] = {}
    for c in order:
        if (graph.neighbor_masks[c] & marked_mask).bit_count() >= 2:
            unmarked.add(c)
            bucket_of[c] = len(marked)
        else:
            marked.append(c)
            marked_mask |= 1 << c
    buckets: dict[int, list[int]] = {}
    for c in order:
        if c in bucket_of:
            buckets.setdefault(bucket_of[c], []).append(c)
    source = {c: (RED if h % 2 == 0 else BLUE) for h, c in enumerate(marked)}
    return ChoreClassification(
        order=order,
        rank=rank,
        marked=tuple(marked),
        unmarked=frozenset(unmarked),
        bucket_of=bucket_of,
        buckets={i: tuple(v) for i, v in buckets.items()},
        source_color=source,
        graph=graph,
    )


def _is_supported(
    chore: int, status: dict[int, Optional[int]], cls: ChoreClassification
) -> bool:
    """Supported-ness of an unassigned chore under the current schedule.

    Condition 1: three or more assigned overlaps with earlier finish.
    Condition 2: the chore sits in bucket i, marked chore i is assigned, and
    the chore also overlaps a later-finishing assigned chore of the opposite
    bundle.  (Inapplicable when marked chore i is unassigned, or for chores
    outside every bucket.)
    Condition 3: two or more assigned overlaps with later finish.
    """
    rank = cls.rank
    earlier = later = 0
    later_by_color = [0, 0]
    for x in cls.graph.neighbors(chore):
        color = status[x]
        if color is None:
            continue
        if rank[x] < rank[chore]:
            earlier += 1
        else:
            later += 1
            later_by_color[color] += 1
    if earlier >= 3:
        return True
    if later >= 2:
        return True
    i = cls.bucket_of.get(chore)
    if i is not None:
        anchor = cls.marked[i - 1]
        anchor_color = status[anchor]
        if anchor_color is not None and later_by_color[1 - anchor_color] > 0:
            return True
    return False


def classify_supported(
    schedule: Schedule, classification: ChoreClassification
) -> dict[int, bool]:
    """Supported flags for every unassigned chore of the schedule."""
    status = {c: schedule.assignment[c] for c in range(schedule.m)}
    return {
        c: _is_supported(c, status, classification)
        for c in range(schedule.m)
        if status[c] is None
    }


def _overlaps_assigned_later(
    chore: int, status: dict[int, Optional[int]], cls: ChoreClassification
) -> bool:
    return any(
        status[x] is not None and cls.rank[x] > cls.rank[chore]
        for x in cls.graph.neighbors(chore)
    )


class _SequenceBuilder:
    """Accumulates steps, asserting feasibility/maximality/adjacency as it
    goes, and that the endpoints are bundle swaps when the sequence is taken."""

    _MESSAGES = {
        "infeasible": "produced an infeasible schedule",
        "not maximal": "produced a non-maximal schedule",
        "not adjacent": "broke adjacency",
    }

    def __init__(self, graph: ConflictGraph, context: str, require_maximal: bool = True):
        self.graph = graph
        self.context = context
        self.checker = _StepChecker(graph, require_maximal)
        self.steps: list[Schedule] = []
        self.tags: list[str] = []

    def emit(self, status: dict[int, Optional[int]], tag: str) -> None:
        step = Schedule(2, tuple(map(status.__getitem__, range(self.graph.m))))
        failure = self.checker.failure(step)
        if failure is not None:
            raise InternalInvariantError(f"{self.context}: {tag} {self._MESSAGES[failure]}")
        self.steps.append(step)
        self.tags.append(tag)

    def sequence(self) -> ScheduleSequence:
        if self.steps[0] != self.steps[-1].swap_agents():
            raise InternalInvariantError(
                f"{self.context}: endpoints are not bundle swaps of each other"
            )
        return ScheduleSequence(steps=tuple(self.steps), tags=tuple(self.tags))


def interval_sequence_ef2(
    instance: Instance,
) -> tuple[ScheduleSequence, tuple[Optional[tuple[int, int]], ...]]:
    """The simpler shift sequence over marked chores only.

    Steps are feasible and adjacent with swapped endpoints, but a middle step
    may be one insertion short of maximal.  Each step comes with a completion
    hint: None if the step is already maximal, else the single (chore, agent)
    insertion after which it is.  Unmarked chores are never assigned.
    """
    _require_two_agents(instance)
    graph = instance.graph()
    cls = classify_chores(instance.chores, graph)
    marked = cls.marked
    k = len(marked)
    builder = _SequenceBuilder(graph, "interval_sequence_ef2", require_maximal=False)

    def base(flip_below: int) -> dict[int, Optional[int]]:
        status: dict[int, Optional[int]] = {c: None for c in range(graph.m)}
        for h, c in enumerate(marked, start=1):
            src = cls.source_color[c]
            status[c] = (1 - src) if h < flip_below else src
        return status

    if k == 0:
        builder.emit({c: None for c in range(graph.m)}, "initial")
    else:
        builder.emit(base(flip_below=1), "initial")
        for i in range(2, k):
            status = base(flip_below=i)
            c_i, c_prev, c_next = marked[i - 1], marked[i - 2], marked[i]
            hits_prev = graph.has_edge(c_i, c_prev)
            hits_next = graph.has_edge(c_i, c_next)
            if hits_prev and hits_next:
                status[c_i] = None
            elif hits_next:
                status[c_i] = status[c_prev]
            else:
                status[c_i] = status[c_next]
            builder.emit(status, "shift")
        builder.emit(base(flip_below=k + 1), "shift")

    seq = builder.sequence()
    hints = tuple(_completion_hint(step, graph, cls.rank) for step in seq.steps)
    return seq, hints


def _completion_hint(
    step: Schedule, graph: ConflictGraph, rank: dict[int, int]
) -> Optional[tuple[int, int]]:
    """The single insertion that makes a near-maximal schedule maximal.

    Returns None when the step is already maximal.  Among the insertable
    chores (there can be several, mutually conflicting) the earliest finisher
    dominates: after inserting it nothing else fits.  That the result is
    maximal is asserted, since the construction guarantees it.
    """
    bundle_masks = [step.bundle_mask(a) for a in (RED, BLUE)]
    insertable = [
        (c, agent)
        for c, a in enumerate(step.assignment)
        if a is None
        for agent in (RED, BLUE)
        if not graph.neighbor_masks[c] & bundle_masks[agent]
    ]
    if not insertable:
        return None
    chore, agent = min(insertable, key=lambda ca: (rank[ca[0]], ca[1]))
    completed = step.assign(chore, agent)
    if not is_maximal(completed, graph):
        raise InternalInvariantError(
            "near-maximal step needed more than one insertion to become maximal"
        )
    return chore, agent


def interval_sequence_ef1(instance: Instance) -> ScheduleSequence:
    """The three-phase sequence of maximal schedules for interval graphs.

    Phase 1 colors the marked chores alternately (red first).  Phase 2 scans
    the unmarked-chore buckets right to left and, while some unassigned chore
    in the bucket is unsupported, applies one of five reassignment cases so
    that every unassigned chore ends up overlapped by enough assigned chores
    to stay blocked later.  Phase 3 then walks left to right giving each
    untargeted chore its target (swap) color, adjusting the immediately next
    untargeted chore to keep the schedule feasible.  Every emitted step is
    feasible and maximal, consecutive steps are adjacent, and the endpoints
    are bundle swaps.
    """
    _require_two_agents(instance)
    graph = instance.graph()
    cls = classify_chores(instance.chores, graph)
    marked = cls.marked
    builder = _SequenceBuilder(graph, "interval_sequence_ef1")

    status: dict[int, Optional[int]] = {c: None for c in range(graph.m)}
    for c in marked:
        status[c] = cls.source_color[c]
    builder.emit(status, "initial")
    if not marked:
        return builder.sequence()

    # Phase 2: support every unassigned chore, bucket by bucket, right to left.
    for i in range(len(marked), 1, -1):
        bucket = cls.buckets.get(i, ())
        if not bucket:
            continue
        rounds = 0
        while True:
            unsupported = [
                u for u in bucket if status[u] is None and not _is_supported(u, status, cls)
            ]
            if not unsupported:
                break
            rounds += 1
            if rounds > len(bucket) + 2:
                raise InternalInvariantError(
                    f"interval_sequence_ef1: bucket {i} did not stabilize"
                )
            u_star = max(unsupported, key=lambda u: cls.rank[u])
            c_i, c_prev = marked[i - 1], marked[i - 2]
            c_prev2 = marked[i - 3] if i >= 3 else None
            if status[c_i] is None or status[c_prev] is None:
                raise InternalInvariantError(
                    f"interval_sequence_ef1: bucket {i} reached with its anchors unassigned"
                )
            if graph.has_edge(c_prev, c_i):
                # (i): the unsupported chore takes the earlier anchor's color
                # and that anchor goes unassigned.
                status[u_star] = status[c_prev]
                status[c_prev] = None
                builder.emit(status, "phase2-case-i")
            elif c_prev2 is None or not graph.has_edge(c_prev2, c_prev):
                # (ii): anchors are isolated from each other; shift colors along.
                status[u_star] = status[c_prev]
                status[c_prev] = status[c_i]
                builder.emit(status, "phase2-case-ii")
            else:
                loose = [u for u in unsupported if not _overlaps_assigned_later(u, status, cls)]
                if loose:
                    # (iii a): a fully loose unsupported chore swaps roles with c_i.
                    u_prime = max(loose, key=lambda u: cls.rank[u])
                    status[u_prime] = status[c_i]
                    status[c_i] = status[c_prev]
                    builder.emit(status, "phase2-case-iiia")
                else:
                    # (iii b): recolor c_i next to its predecessor.
                    status[c_i] = status[c_prev]
                    builder.emit(status, "phase2-case-iiib")
                    # Chores blocked solely by the same-color triple that (iii b)
                    # just created would come loose mid-way through phase 3.
                    anchors = {c_prev2, c_prev, c_i}
                    stranded = [
                        u
                        for u in bucket
                        if status[u] is None
                        and _is_supported(u, status, cls)
                        and {
                            x
                            for x in graph.neighbors(u)
                            if status[x] is not None
                        }
                        == anchors
                    ]
                    if stranded:
                        # (iii c): break the same-color triple those chores see.
                        u_prime = max(stranded, key=lambda u: cls.rank[u])
                        status[u_prime] = status[c_prev2]
                        status[c_prev2] = None
                        builder.emit(status, "phase2-case-iiic")

    target = {c: cls.target_color(c) for c in range(graph.m)}
    _assert_phase2_postconditions(status, target, cls)

    # Phase 3: march every untargeted chore to its target, left to right.
    rounds = 0
    while True:
        untargeted = [c for c in cls.order if status[c] != target[c]]
        if not untargeted:
            break
        rounds += 1
        if rounds > graph.m + 1:
            raise InternalInvariantError("interval_sequence_ef1: phase 3 did not terminate")
        first = untargeted[0]
        status[first] = target[first]
        if len(untargeted) > 1:
            second = untargeted[1]
            prefs: list[Optional[int]] = []
            for option in (target[second], status[second], RED, BLUE):
                if option is not None and option not in prefs:
                    prefs.append(option)
            chosen: Optional[int] = None
            for option in prefs:
                if not any(
                    status[x] == option for x in graph.neighbors(second)
                ):
                    chosen = option
                    break
            status[second] = chosen
        builder.emit(status, "phase3")

    return builder.sequence()


def _assert_phase2_postconditions(
    status: dict[int, Optional[int]],
    target: dict[int, Optional[int]],
    cls: ChoreClassification,
) -> None:
    """Bug trap for the guarantees phase 3 relies on.

    After phase 2, (a) every unassigned chore is supported, and (b) an
    untargeted assigned chore may overlap, among later-finishing chores
    currently holding its target color, only the immediately next untargeted
    chore.
    """
    for c, color in status.items():
        if color is None and not _is_supported(c, status, cls):
            raise InternalInvariantError(
                f"phase 2 ended with unsupported unassigned chore {c}"
            )
    untargeted = [c for c in cls.order if status[c] != target[c]]
    next_untargeted: dict[int, Optional[int]] = {}
    for pos, c in enumerate(untargeted):
        next_untargeted[c] = untargeted[pos + 1] if pos + 1 < len(untargeted) else None
    for c in untargeted:
        if status[c] is None or target[c] is None:
            continue
        for x in cls.graph.neighbors(c):
            if cls.rank[x] > cls.rank[c] and status[x] == target[c]:
                if x != next_untargeted[c]:
                    raise InternalInvariantError(
                        f"phase 2 left chore {c} overlapping {x} of its target color"
                    )


def select_ef1(sequence: ScheduleSequence, instance: Instance) -> Schedule:
    """Pick an EF1+maximal schedule out of a swap-ended adjacent sequence.

    Scans for a consecutive pair where agent 0's envy flips and tests the
    four candidates (the two steps and their bundle swaps); the first one
    passing EF1 wins.  If agent 0 never envies, it is exactly indifferent at
    the endpoints and whichever endpoint agent 1 does not envy is envy-free.
    """
    _require_two_agents(instance)
    graph = instance.graph()
    steps = sequence.steps
    envy0 = [
        instance.value(0, s.bundle(0)) < instance.value(0, s.bundle(1)) for s in steps
    ]
    flip = next((t for t in range(len(steps) - 1) if envy0[t] != envy0[t + 1]), None)
    if flip is not None:
        x, y = steps[flip], steps[flip + 1]
        candidates = [x, y, x.swap_agents(), y.swap_agents()]
    elif any(envy0):
        raise InternalInvariantError(
            "agent 0 envies in every step of a bundle-swapped sequence"
        )
    else:
        first, last = steps[0], steps[-1]
        candidates = [first, first.swap_agents(), last, last.swap_agents()]
    for candidate in candidates:
        if check_ef1(candidate, instance).holds:
            if not is_maximal(candidate, graph):
                raise InternalInvariantError("selected EF1 schedule is not maximal")
            return candidate
    raise InternalInvariantError("none of the four flip candidates is EF1")


def solve_two_agents(instance: Instance) -> Schedule:
    """An EF1 and maximal schedule for two agents on any interval instance.

    Works for arbitrary monotone valuations; the sequence construction is
    valuation-free and only the selection step queries values (polynomially
    many times).
    """
    _require_two_agents(instance)
    return select_ef1(interval_sequence_ef1(instance), instance)
