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
from functools import cached_property
from typing import NoReturn, Optional, Sequence

from .checkers import _efk_holds, is_maximal
from .core import (
    Chore,
    ConflictGraph,
    InputError,
    Instance,
    InternalInvariantError,
    Schedule,
    _bundle_masks,
    _mask_bits,
    build_conflict_graph,
    is_feasible,  # not called here, but perfbench/tracing.py spans two_agent.is_feasible by name
    order_by_finish,
    path_component_order,
)

RED, BLUE = 0, 1
# A chore's sign in agent 0's gap v_0(R) - v_0(B), by its holder.
_SIGN = {RED: 1, BLUE: -1, None: 0}
# One step of a sequence: (chore, new agent) for each chore whose agent changed.
Delta = tuple[tuple[int, Optional[int]], ...]


@dataclass(frozen=True, init=False)
class ScheduleSequence:
    """An ordered list of two-agent schedules over one instance, with per-step phase tags.

    It is stored as its initial schedule plus one delta per later step: the
    (chore, new agent) pairs of the chores whose agent changed, in chore id
    order.  Adjacent steps change at most four chores, so a sequence costs
    O(m + steps) to keep.  steps materializes every schedule on first use.
    ScheduleSequence(steps, tags) derives the deltas from explicit steps and
    keeps those steps.
    """

    initial: Schedule
    deltas: tuple[Delta, ...]
    tags: tuple[str, ...]

    def __init__(self, steps: Sequence[Schedule], tags: Sequence[str]):
        steps = tuple(steps)
        if len(steps) != len(tags):
            raise InputError("one tag per step required")
        if not steps:
            raise InputError("a sequence has at least one step")
        first = steps[0]
        if any(s.n_agents != 2 for s in steps):
            raise InputError("the steps of a sequence must be two-agent schedules")
        if any(s.m != first.m for s in steps):
            raise InputError("the steps of a sequence cover different chores")
        deltas = tuple(
            tuple((c, b) for c, (a, b) in enumerate(zip(x.assignment, y.assignment)) if a != b)
            for x, y in zip(steps, steps[1:])
        )
        self.__dict__.update(initial=first, deltas=deltas, tags=tuple(tags), steps=steps)

    @classmethod
    def _from_deltas(
        cls, initial: Schedule, deltas: Sequence[Delta], tags: Sequence[str]
    ) -> "ScheduleSequence":
        """A sequence whose step t+1 is step t with deltas[t] applied."""
        seq = cls.__new__(cls)
        seq.__dict__.update(initial=initial, deltas=tuple(deltas), tags=tuple(tags))
        return seq

    def _assignments(self):
        """Each step's assignment in turn, as one list updated in place."""
        assignment = list(self.initial.assignment)
        yield assignment
        for delta in self.deltas:
            for c, agent in delta:
                assignment[c] = agent
            yield assignment

    @cached_property
    def steps(self) -> tuple[Schedule, ...]:
        return tuple(Schedule(self.initial.n_agents, tuple(a)) for a in self._assignments())

    def __len__(self) -> int:
        return len(self.tags)

    def _colors(self):
        """Each step's chore colors (R/B/N, in chore id order), one join per step."""
        letters = {RED: "R", BLUE: "B", None: "N"}
        colors = [letters[a] for a in self.initial.assignment]
        yield "".join(colors)
        for delta in self.deltas:
            for c, agent in delta:
                colors[c] = letters[agent]
            yield "".join(colors)

    def trace_lines(self) -> list[str]:
        """One line per step: chore colors (R/B/N, in chore id order) plus the tag."""
        return [colors + " " + tag for colors, tag in zip(self._colors(), self.tags)]


def adjacent(x: Schedule, y: Schedule) -> bool:
    """True iff each bundle of y differs from x's by <= 1 addition and <= 1 removal."""
    if x.n_agents != 2 or y.n_agents != 2:
        raise InputError("adjacency is defined for two-agent schedules")
    if x.m != y.m:
        raise InputError("schedules cover different chore sets")
    for xb, yb in zip(x.bundles(), y.bundles()):
        if len(yb - xb) > 1 or len(xb - yb) > 1:
            return False
    return True


def _require_two_agents(instance: Instance) -> None:
    if instance.n != 2:
        raise InputError(f"this construction needs exactly two agents, got {instance.n}")


# ---------------------------------------------------------------------------
# Path graphs: the alternating-color shift sequence.
# ---------------------------------------------------------------------------


def path_sequence(instance: Instance) -> ScheduleSequence:
    """The maximal-schedule sequence for a path-shaped conflict graph.

    Every step is maximal, consecutive steps are adjacent, and the endpoints
    are bundle swaps of each other.  A disjoint union of path components is
    handled by running the per-component sequences one after another inside a
    single global sequence, so the swap property still holds globally.
    Non-path graphs are rejected.

    Each path starts colored alternately, red first.  Step i (1 <= i <= len-2)
    swaps the chore at position i-1 and leaves position i unassigned; the last
    step swaps the final two.  A single chore degenerates to red, then blue.

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

    status = _Coloring([None] * graph.m)
    for path in paths:
        for h, c in enumerate(path):
            status[c] = h % 2
    builder = _SequenceBuilder(graph, "path_sequence", status)
    for path in paths:
        for i in range(1, len(path) - 1):
            status[path[i - 1]] = i % 2
            status[path[i]] = None
            builder.emit("path-shift")
        for h in range(len(path))[-2:]:
            status[path[h]] = 1 - h % 2
        builder.emit("path-shift")
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
    the source coloring; the target coloring is the swap.  earlier[c] and
    later[c] split chore c's neighbour mask into the chores before and after
    it in that finish order.
    """

    order: tuple[int, ...]
    rank: dict[int, int]
    marked: tuple[int, ...]
    unmarked: frozenset[int]
    bucket_of: dict[int, int]
    buckets: dict[int, tuple[int, ...]]
    source_color: dict[int, int]
    graph: ConflictGraph
    earlier: tuple[int, ...]
    later: tuple[int, ...]

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
    if graph.m != len(chores):
        raise InputError(f"the graph has {graph.m} chores, the chore list {len(chores)}")
    order = order_by_finish(chores)
    nbr = graph.neighbor_masks
    earlier = [0] * graph.m
    later = [0] * graph.m
    seen = 0
    marked: list[int] = []
    marked_mask = 0
    bucket_of: dict[int, int] = {}
    buckets: dict[int, list[int]] = {}
    for c in order:
        earlier[c] = nbr[c] & seen
        later[c] = nbr[c] ^ earlier[c]
        seen |= 1 << c
        if (earlier[c] & marked_mask).bit_count() >= 2:
            bucket_of[c] = len(marked)
            buckets.setdefault(len(marked), []).append(c)
        else:
            marked.append(c)
            marked_mask |= 1 << c
    source = {c: (RED if h % 2 == 0 else BLUE) for h, c in enumerate(marked)}
    return ChoreClassification(
        order=order,
        rank={c: pos for pos, c in enumerate(order)},
        marked=tuple(marked),
        unmarked=frozenset(bucket_of),
        bucket_of=bucket_of,
        buckets={i: tuple(v) for i, v in buckets.items()},
        source_color=source,
        graph=graph,
        earlier=tuple(earlier),
        later=tuple(later),
    )


class _Coloring(list[Optional[int]]):
    """Chore colors (RED, BLUE or None) by chore id, with one bitmask per color.

    Each single-item write that changes a chore's color updates masks, so
    masks[RED] and masks[BLUE] are always the two bundles, and appends the
    chore to log, which _SequenceBuilder.emit takes as the step's delta."""

    def __init__(self, colors: Sequence[Optional[int]]):
        super().__init__(colors)
        self.masks = [0, 0]
        for c, a in enumerate(self):
            if a is not None:
                self.masks[a] |= 1 << c
        self.log: list[int] = []

    def __setitem__(self, chore: int, color: Optional[int]) -> None:
        old = self[chore]
        if old == color:
            return
        if old is not None:
            self.masks[old] &= ~(1 << chore)
        if color is not None:
            self.masks[color] |= 1 << chore
        super().__setitem__(chore, color)
        self.log.append(chore)

    def assigned(self) -> int:
        return self.masks[RED] | self.masks[BLUE]


def _is_supported(chore: int, status: _Coloring, cls: ChoreClassification) -> bool:
    """Supported-ness of an unassigned chore under the current schedule.

    Condition 1: three or more assigned overlaps with earlier finish.
    Condition 2: the chore sits in bucket i, marked chore i is assigned, and
    the chore also overlaps a later-finishing assigned chore of the opposite
    bundle.  (Inapplicable when marked chore i is unassigned, or for chores
    outside every bucket.)
    Condition 3: two or more assigned overlaps with later finish.
    """
    assigned = status.assigned()
    later = cls.later[chore]
    if (cls.earlier[chore] & assigned).bit_count() >= 3 or (later & assigned).bit_count() >= 2:
        return True
    i = cls.bucket_of.get(chore)
    if i is None:
        return False
    anchor_color = status[cls.marked[i - 1]]
    return anchor_color is not None and bool(later & status.masks[1 - anchor_color])


def classify_supported(
    schedule: Schedule, classification: ChoreClassification
) -> dict[int, bool]:
    """Supported flags for every unassigned chore of the schedule."""
    if schedule.n_agents != 2 or schedule.m != classification.graph.m:
        raise InputError("the schedule must be a two-agent schedule of the classified chores")
    status = _Coloring(schedule.assignment)
    return {
        c: _is_supported(c, status, classification)
        for c, color in enumerate(status)
        if color is None
    }


class _SequenceBuilder:
    """Records the states of one _Coloring as step deltas and is the bug trap
    for a two-agent sequence: each step is feasible, maximal when required,
    and adjacent to the one before, and the endpoints are bundle swaps.

    The constructor records the coloring as the "initial" step, takes the
    builder's own bundle masks from the full feasibility check of it, and
    sets insertable, the mask of unassigned chores that still fit a bundle.
    emit makes one loop over the coloring's log: it replays each change onto
    the builder's own assignment and masks, records the changed chores with
    their new colors as the step's delta, ORs their closed neighbourhoods
    into the recheck region and counts each bundle's gains and losses.  It
    then checks the new step only through that delta:

    - feasible: every changed chore that is assigned is free of overlaps in
      its new bundle.  Two overlapping chores in one bundle that both kept
      their agent would have made the previous step infeasible.
    - maximal: insertable is recomputed over its old chores and the region.
      Any other unassigned chore was blocked in both bundles before, and
      none of its neighbours changed.
    - adjacent: no bundle gains or loses more than one chore, which is the
      adjacent() test restricted to the chores where the steps can differ.

    So a step fails here exactly when the full check of it (and of the pair
    it forms with the previous step) fails.  sequence() requires the last
    step to equal the coloring, which proves that no write escaped the log,
    and the first and last steps to be bundle swaps.
    """

    def __init__(
        self, graph: ConflictGraph, context: str, status: _Coloring, require_maximal: bool = True
    ):
        self.graph = graph
        self.context = context
        self.status = status
        self.require_maximal = require_maximal
        self.initial = Schedule(2, tuple(status))
        self.masks = _bundle_masks(self.initial, graph)
        if self.masks is None:
            self._fail("initial produced an infeasible schedule")
        status.log.clear()
        self.assignment = list(status)
        nbr, (red, blue) = graph.neighbor_masks, self.masks
        self.insertable = sum(
            1 << u for u, a in enumerate(status) if a is None and not (nbr[u] & red and nbr[u] & blue)
        )
        if require_maximal and self.insertable:
            self._fail("initial produced a non-maximal schedule")
        self.deltas: list[Delta] = []
        self.tags = ["initial"]

    def _fail(self, what: str) -> NoReturn:
        raise InternalInvariantError(f"{self.context}: {what}")

    def emit(self, tag: str) -> None:
        """Take the coloring's log and record the coloring as the next step."""
        nbr = self.graph.neighbor_masks
        status, assignment, masks = self.status, self.assignment, self.masks
        delta = []
        region = 0
        gained, lost = [0, 0], [0, 0]
        for c in status.log:
            old, new = assignment[c], status[c]
            if old == new:
                continue  # written back within the step, or logged before
            assignment[c] = new
            bit = 1 << c
            if old is not None:
                masks[old] ^= bit
                lost[old] += 1
            if new is not None:
                masks[new] |= bit
                gained[new] += 1
            region |= nbr[c] | bit
            delta.append((c, new))
        status.log.clear()
        delta.sort()
        for c, new in delta:
            if new is not None and nbr[c] & masks[new]:
                self._fail(f"{tag} produced an infeasible schedule")
        red, blue = masks
        region = (region | self.insertable) & ~(red | blue)
        insertable = 0
        while region:
            low = region & -region
            u = low.bit_length() - 1
            if not (nbr[u] & red and nbr[u] & blue):
                insertable |= low
            region ^= low
        self.insertable = insertable
        if self.require_maximal and insertable:
            self._fail(f"{tag} produced a non-maximal schedule")
        if gained[RED] > 1 or gained[BLUE] > 1 or lost[RED] > 1 or lost[BLUE] > 1:
            self._fail(f"{tag} broke adjacency")
        self.deltas.append(tuple(delta))
        self.tags.append(tag)

    def completion_hint(self, rank: dict[int, int]) -> Optional[tuple[int, int]]:
        """The single (chore, agent) insertion that makes the current step
        maximal, or None when insertable is empty.

        The earliest insertable finisher by rank goes to the first agent whose
        bundle it fits.  Every chore outside insertable is blocked in both
        bundles, so the completed step is maximal iff every other insertable
        chore is blocked in both once the hint is in; the construction
        guarantees it, and it is asserted.
        """
        if not self.insertable:
            return None
        nbr = self.graph.neighbor_masks
        chore = min(_mask_bits(self.insertable), key=rank.__getitem__)
        agent = RED if not nbr[chore] & self.masks[RED] else BLUE
        masks = list(self.masks)
        masks[agent] |= 1 << chore
        rest = _mask_bits(self.insertable ^ 1 << chore)
        if not all(nbr[u] & masks[RED] and nbr[u] & masks[BLUE] for u in rest):
            raise InternalInvariantError("near-maximal step needed more than one insertion to become maximal")
        return chore, agent

    def sequence(self) -> ScheduleSequence:
        if self.assignment != self.status:
            self._fail("last step differs from the coloring; a write escaped the step log")
        if [None if a is None else 1 - a for a in self.initial.assignment] != self.assignment:
            self._fail("endpoints are not bundle swaps of each other")
        return ScheduleSequence._from_deltas(self.initial, self.deltas, self.tags)


def interval_sequence_ef2(
    instance: Instance,
) -> tuple[ScheduleSequence, tuple[Optional[tuple[int, int]], ...]]:
    """The simpler shift sequence over marked chores only.

    Steps are feasible and adjacent with swapped endpoints, but a middle step
    may be one insertion short of maximal.  Each step's completion hint is
    read from the builder's insertable set right after the step is recorded:
    None if the step is already maximal, else the single (chore, agent)
    insertion after which it is.  Unmarked chores are never assigned.

    Step i (for 2 <= i < k, with k marked chores) gives marked chore i-1 its
    target color and gives marked chore i no color if it overlaps both marked
    neighbours, else the color of one it does not overlap.  The last step
    gives the final two marked chores their target colors.
    """
    _require_two_agents(instance)
    graph = instance.graph()
    cls = classify_chores(instance.chores, graph)
    marked = cls.marked
    status = _Coloring([cls.source_color.get(c) for c in range(graph.m)])
    builder = _SequenceBuilder(graph, "interval_sequence_ef2", status, require_maximal=False)
    hints = [builder.completion_hint(cls.rank)]
    for i in range(2, len(marked)):
        c_i, c_prev, c_next = marked[i - 1], marked[i - 2], marked[i]
        status[c_prev] = cls.target_color(c_prev)
        hits_next = graph.has_edge(c_i, c_next)
        if hits_next and graph.has_edge(c_i, c_prev):
            status[c_i] = None
        elif hits_next:
            status[c_i] = status[c_prev]
        else:
            status[c_i] = status[c_next]
        builder.emit("shift")
        hints.append(builder.completion_hint(cls.rank))
    if marked:
        for c in marked[-2:]:
            status[c] = cls.target_color(c)
        builder.emit("shift")
        hints.append(builder.completion_hint(cls.rank))
    return builder.sequence(), tuple(hints)


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
    nbr = graph.neighbor_masks
    source = [cls.source_color.get(c) for c in range(graph.m)]
    status = _Coloring(source)
    builder = _SequenceBuilder(graph, "interval_sequence_ef1", status)

    # Phase 2: support every unassigned chore, bucket by bucket, right to left.
    for i in sorted(cls.buckets, reverse=True):
        bucket = cls.buckets[i]
        rounds = 0
        while True:
            unsupported = [
                u for u in bucket if status[u] is None and not _is_supported(u, status, cls)
            ]
            if not unsupported:
                break
            rounds += 1
            if rounds > len(bucket) + 2:
                raise InternalInvariantError(f"interval_sequence_ef1: bucket {i} did not stabilize")
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
                builder.emit("phase2-case-i")
            elif c_prev2 is None or not graph.has_edge(c_prev2, c_prev):
                # (ii): anchors are isolated from each other; shift colors along.
                status[u_star] = status[c_prev]
                status[c_prev] = status[c_i]
                builder.emit("phase2-case-ii")
            else:
                loose = [u for u in unsupported if not cls.later[u] & status.assigned()]
                if loose:
                    # (iii a): a fully loose unsupported chore swaps roles with c_i.
                    u_prime = max(loose, key=lambda u: cls.rank[u])
                    status[u_prime] = status[c_i]
                    status[c_i] = status[c_prev]
                    builder.emit("phase2-case-iiia")
                else:
                    # (iii b): recolor c_i next to its predecessor.
                    status[c_i] = status[c_prev]
                    builder.emit("phase2-case-iiib")
                    # Chores blocked solely by the same-color triple that (iii b)
                    # just created would come loose mid-way through phase 3.
                    anchors = 1 << c_prev2 | 1 << c_prev | 1 << c_i
                    stranded = [
                        u
                        for u in bucket
                        if status[u] is None
                        and nbr[u] & status.assigned() == anchors
                        and _is_supported(u, status, cls)
                    ]
                    if stranded:
                        # (iii c): break the same-color triple those chores see.
                        u_prime = max(stranded, key=lambda u: cls.rank[u])
                        status[u_prime] = status[c_prev2]
                        status[c_prev2] = None
                        builder.emit("phase2-case-iiic")

    target = [None if color is None else 1 - color for color in source]
    untargeted = [c for c in cls.order if status[c] != target[c]]
    _assert_phase2_postconditions(status, untargeted, target, cls)

    # Phase 3: march every untargeted chore to its target, left to right.  Rounds
    # write only the first two untargeted chores, which leave the list on target.
    rounds = 0
    head = 0
    while head < len(untargeted):
        rounds += 1
        if rounds > graph.m + 1:
            raise InternalInvariantError("interval_sequence_ef1: phase 3 did not terminate")
        first = untargeted[head]
        head += 1
        status[first] = target[first]
        if head < len(untargeted):
            # second takes the first of these colors no neighbour holds, or none.
            second = untargeted[head]
            color = None
            for option in (target[second], status[second], RED, BLUE):
                if option is not None and not nbr[second] & status.masks[option]:
                    color = option
                    break
            status[second] = color
            if color == target[second]:
                head += 1
        builder.emit("phase3")

    return builder.sequence()


def _assert_phase2_postconditions(
    status: _Coloring, untargeted: list[int], target: list[Optional[int]], cls: ChoreClassification
) -> None:
    """Bug trap for the guarantees phase 3 relies on.

    After phase 2, (a) every unassigned chore is supported, and (b) an
    untargeted assigned chore may overlap, among later-finishing chores
    currently holding its target color, only the next chore of untargeted
    (the chores off target, in finish order).
    """
    for c, color in enumerate(status):
        if color is None and not _is_supported(c, status, cls):
            raise InternalInvariantError(f"phase 2 ended with unsupported unassigned chore {c}")
    following = [*(1 << u for u in untargeted[1:]), 0]
    for c, next_bit in zip(untargeted, following):
        if status[c] is None or target[c] is None:
            continue
        clash = cls.later[c] & status.masks[target[c]] & ~next_bit
        if clash:
            x = (clash & -clash).bit_length() - 1
            raise InternalInvariantError(f"phase 2 left chore {c} overlapping {x} of its target color")


def select_ef1(sequence: ScheduleSequence, instance: Instance) -> Schedule:
    """Pick an EF1+maximal schedule out of a swap-ended adjacent sequence.

    Walks the sequence's deltas up to the first consecutive pair where agent
    0's envy flips and tests the four candidates (the two steps and their
    bundle swaps); the first one passing EF1 wins.  If agent 0 never envies,
    it is exactly indifferent at the endpoints and whichever endpoint agent 1
    does not envy is envy-free.

    The walk keeps the assignment and agent 0's gap v_0(R) - v_0(B) current
    along the deltas.  An additive profile updates the gap with one
    chore_value query per changed chore, so a step costs O(1); any other
    profile keeps both bundles as sets and makes two value queries per step.
    Only the flip pair, or the endpoints when there is no flip, are built as
    Schedules, and a swapped candidate only once every candidate before it
    has failed EF1.
    """
    _require_two_agents(instance)
    if sequence.initial.m != instance.m:
        raise InputError(f"the sequence covers {sequence.initial.m} chores, the instance {instance.m}")
    graph = instance.graph()
    additive = instance.valuations.is_additive
    first = sequence.initial
    assignment = list(first.assignment)
    red, blue = map(set, first.bundles())
    held = {RED: red, BLUE: blue, None: set()}
    gap = instance.value(0, red) - instance.value(0, blue)
    initial = gap < 0
    undo = None
    for delta in sequence.deltas:
        overwritten = [(c, assignment[c]) for c, _ in delta]
        for c, agent in delta:
            old = assignment[c]
            assignment[c] = agent
            if additive:
                gap += (_SIGN[agent] - _SIGN[old]) * instance.valuations.chore_value(0, c)
            else:
                held[old].discard(c)
                held[agent].add(c)
        if not additive:
            gap = instance.value(0, red) - instance.value(0, blue)
        if (gap < 0) != initial:
            undo = overwritten
            break
    if undo is not None:
        y = Schedule(2, tuple(assignment))
        for c, agent in undo:
            assignment[c] = agent
        x = Schedule(2, tuple(assignment))
        candidates = ((x, False), (y, False), (x, True), (y, True))
    elif initial:
        raise InternalInvariantError("agent 0 envies in every step of a bundle-swapped sequence")
    else:
        last = Schedule(2, tuple(assignment))
        candidates = ((first, False), (first, True), (last, False), (last, True))
    for schedule, swapped in candidates:
        candidate = schedule.swap_agents() if swapped else schedule
        if _efk_holds(candidate, instance, 1):
            if not is_maximal(candidate, graph):
                raise InternalInvariantError("selected EF1 schedule is not maximal")
            return candidate
    raise InternalInvariantError("none of the four flip candidates is EF1")


def solve_two_agents(instance: Instance) -> Schedule:
    """An EF1 and maximal schedule for two agents on any interval instance.

    Works for arbitrary monotone valuations; the sequence construction is
    valuation-free and only the selection step queries values: two per step
    up to agent 0's envy flip, then at most 4 + m per flip candidate, so at
    most 2 * (len(sequence) + 4 * m) queries once m >= 4.
    """
    return select_ef1(interval_sequence_ef1(instance), instance)
