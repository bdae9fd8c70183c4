"""Solvers for any number of agents under restricted valuations.

Two constructions live here:

* A weighted round robin for identical dichotomous valuations on a path
  graph with n >= 4 agents.  Agents are grouped into meta agents (pairs,
  plus one triple when n is odd) that take turns picking the leftmost
  available heavy chore, then the leftmost available light chore.  Dummy
  isolated chores pad every meta agent to the same heavy and light counts,
  the meta bundles are split conflict-free among their members, and the
  dummies are stripped, leaving a complete EF1 schedule.

* A component-wise round robin for identical additive valuations on any
  graph whose connected components have at most n vertices.  For each
  component the burdens so far fix the turn order: the least burdened
  agents go first and each takes the most disliked remaining chore, so
  every chore of the component lands on a distinct agent.  That order is a
  reverse topological order of the envy graph, which identical valuations
  keep acyclic; the graph is checked once, on the final schedule.

envy_graph lives in checkers, beside the envy pass every checker shares.
Each solver's traps take that pass once, from the bundles the solver already
holds, so nothing here calls envy_graph; the name stays importable from here
only because perfbench/tracing.py wraps n_agent.envy_graph, and can go when
that harness spans the shared pass instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from operator import add, sub
from typing import Iterable, Optional, Sequence

from .checkers import _rows_efk_hold, _rows_envy_graph, _value_rows, envy_graph, is_complete
from .core import (
    AdditiveValuations,
    Chore,
    ConflictGraph,
    InputError,
    Instance,
    InternalInvariantError,
    Schedule,
    _path_order,
    is_feasible,
    path_component_order,
)


# ---------------------------------------------------------------------------
# Identical dichotomous valuations on a path graph, n >= 4.
# ---------------------------------------------------------------------------


@dataclass
class MetaAgent:
    """A pair (or the one triple) of agents acting as a single picker."""

    index: int
    members: tuple[int, ...]
    picks: list[int] = field(default_factory=list)
    heavy_dummies: int = 0
    light_dummies: int = 0

    @property
    def is_triple(self) -> bool:
        return len(self.members) == 3


@dataclass
class DichotomousPathSolution:
    """Full bookkeeping of one weighted-round-robin run.

    schedule covers the real chores only; padded_schedule covers the padded
    instance (real chores plus dummy isolated vertices) and is exactly
    envy-free.  dummy_ids are the padded-instance ids of the dummies.
    """

    schedule: Schedule
    padded_instance: Instance
    padded_schedule: Schedule
    dummy_ids: frozenset[int]
    meta_agents: tuple[MetaAgent, ...]
    heavy_value: int
    light_value: int


def _round_up_even(x: int) -> int:
    return x if x % 2 == 0 else x + 1


def solve_identical_dichotomous_path(
    instance: Instance, *, allow_uniform: bool = False
) -> Schedule:
    """A complete and EF1 schedule for identical dichotomous values on a path.

    Requires n >= 4 agents, a path conflict graph, and an identical additive
    profile taking exactly two distinct values H < L <= 0 (heavy and light).
    A profile with a single value is accepted only with allow_uniform=True,
    in which case every chore counts as heavy.
    """
    return dichotomous_path_solution(instance, allow_uniform=allow_uniform).schedule


def dichotomous_path_solution(
    instance: Instance, *, allow_uniform: bool = False
) -> DichotomousPathSolution:
    """solve_identical_dichotomous_path with the padded run exposed."""
    n = instance.n
    if n < 4:
        raise InputError(f"weighted round robin needs at least four agents, got {n}")
    vals = instance.valuations
    if not vals.is_additive:
        raise InputError("weighted round robin needs an additive profile")
    if not vals.is_identical():
        raise InputError("weighted round robin needs identical valuations")
    graph = instance.graph()
    if not graph.is_path:
        raise InputError("weighted round robin needs a path conflict graph")
    metas = _group_meta_agents(n)

    if instance.m == 0:
        empty = Schedule.empty(n, 0)
        return DichotomousPathSolution(
            schedule=empty,
            padded_instance=instance,
            padded_schedule=empty,
            dummy_ids=frozenset(),
            meta_agents=tuple(metas),
            heavy_value=0,
            light_value=0,
        )

    # The rows are identical, so row 0 holds every value of the profile.
    values = sorted(set(vals.table[0]))
    if len(values) == 2:
        heavy_value, light_value = values
    elif len(values) == 1 and allow_uniform:
        heavy_value = light_value = values[0]
    else:
        raise InputError(
            "weighted round robin needs a dichotomous profile (exactly two distinct values)"
        )
    # A uniform profile makes every chore heavy.
    heavy_ids = {c for c, v in enumerate(vals.table[0]) if v == heavy_value}

    # Phase 2: deal heavies then lights along the path to the picking pattern.
    path = path_component_order(graph, instance.chores, list(range(instance.m)))
    heavies = [c for c in path if c in heavy_ids]
    lights = [c for c in path if c not in heavy_ids]
    pattern = _picking_pattern(metas)
    for t, chore in enumerate(heavies):
        metas[pattern[t % len(pattern)]].picks.append(chore)
    offset = len(heavies)  # next slot after the last heavy pick
    for t, chore in enumerate(lights):
        metas[pattern[(offset + t) % len(pattern)]].picks.append(chore)

    # Dummy padding: every pair reaches the same even heavy and light counts,
    # the triple 1.5 times as many of each.
    heavy_counts = {s.index: _kind_counts(s.picks, heavy_ids)[0] for s in metas}
    light_counts = {s.index: len(s.picks) - heavy_counts[s.index] for s in metas}
    pair_target_h = max(
        [heavy_counts[s.index] for s in metas if not s.is_triple], default=0
    )
    pair_target_l = max(
        [light_counts[s.index] for s in metas if not s.is_triple], default=0
    )
    triple = next((s for s in metas if s.is_triple), None)
    if triple is not None:
        pair_target_h = max(pair_target_h, -(-2 * heavy_counts[triple.index] // 3))
        pair_target_l = max(pair_target_l, -(-2 * light_counts[triple.index] // 3))
    pair_target_h = _round_up_even(pair_target_h)
    pair_target_l = _round_up_even(pair_target_l)

    padded_chores = list(instance.chores)
    padded_values = list(vals.table[0])
    dummy_ids: set[int] = set()
    base = max(c.finish for c in instance.chores) + 2

    def add_dummy(value: int) -> int:
        cid = len(padded_chores)
        start = base + 3 * len(dummy_ids)
        padded_chores.append(Chore(id=cid, start=start, finish=start + 1, label="dummy"))
        padded_values.append(value)
        dummy_ids.add(cid)
        return cid

    for meta in metas:
        th = pair_target_h * 3 // 2 if meta.is_triple else pair_target_h
        tl = pair_target_l * 3 // 2 if meta.is_triple else pair_target_l
        meta.heavy_dummies = th - heavy_counts[meta.index]
        meta.light_dummies = tl - light_counts[meta.index]
        if meta.heavy_dummies < 0 or meta.light_dummies < 0:
            raise InternalInvariantError("padding targets fell below the dealt counts")
        for _ in range(meta.heavy_dummies):
            meta.picks.append(add_dummy(heavy_value))
        for _ in range(meta.light_dummies):
            meta.picks.append(add_dummy(light_value))

    # One row object for every agent, checked once.  The dummies take ids m
    # and up, start after every real chore and lie 3 apart, so they are
    # isolated: the padded graph is the real one with a vertex per dummy.
    padded_instance = Instance(
        n=n,
        chores=tuple(padded_chores),
        valuations=AdditiveValuations([tuple(padded_values)] * n),
    )
    padded_graph = graph.with_isolated(len(dummy_ids))
    padded_heavy = set(heavy_ids) | {
        c for c in dummy_ids if padded_values[c] == heavy_value
    }

    # Phase 3: conflict-free equal splits inside each meta agent.
    bundles: list[frozenset[int]] = [frozenset()] * n
    for meta in metas:
        if meta.is_triple:
            parts = split_triple_bundle(meta.picks, padded_graph, padded_heavy, dummy_ids)
        else:
            parts = split_pair_bundle(meta.picks, padded_graph, padded_heavy, dummy_ids)
        for agent, part in zip(meta.members, parts):
            bundles[agent] = part

    # from_bundles rejects a chore in two bundles, so the bundles are the
    # padded schedule's.
    padded_schedule = Schedule.from_bundles(n, len(padded_chores), bundles)
    if not is_complete(padded_schedule) or not is_feasible(padded_schedule, padded_graph):
        raise InternalInvariantError("padded schedule is not a complete feasible schedule")
    per_agent = [_kind_counts(b, padded_heavy) for b in bundles]
    if len(set(per_agent)) != 1:
        raise InternalInvariantError(
            f"padded schedule is not envy-free: per-agent (heavy, light) counts {per_agent}"
        )

    schedule = Schedule(n, padded_schedule.assignment[: instance.m])
    if not is_complete(schedule) or not is_feasible(schedule, graph):
        raise InternalInvariantError("stripped schedule is not a complete feasible schedule")
    real_bundles = schedule.bundles()
    real_counts = [_kind_counts(b, heavy_ids) for b in real_bundles]
    for kind in (0, 1):
        spread = max(rc[kind] for rc in real_counts) - min(rc[kind] for rc in real_counts)
        if spread > 1:
            raise InternalInvariantError(
                f"per-agent {'heavy' if kind == 0 else 'light'} counts differ by {spread}"
            )
    if not _rows_efk_hold(_value_rows(real_bundles, instance), instance, 1):
        raise InternalInvariantError("weighted round robin produced a non-EF1 schedule")
    return DichotomousPathSolution(
        schedule=schedule,
        padded_instance=padded_instance,
        padded_schedule=padded_schedule,
        dummy_ids=frozenset(dummy_ids),
        meta_agents=tuple(metas),
        heavy_value=heavy_value,
        light_value=light_value,
    )


def _group_meta_agents(n: int) -> list[MetaAgent]:
    if n % 2 == 0:
        return [MetaAgent(i, (2 * i, 2 * i + 1)) for i in range(n // 2)]
    metas = [MetaAgent(0, (0, 1, 2))]
    metas += [MetaAgent(i, (2 * i + 1, 2 * i + 2)) for i in range(1, (n - 1) // 2)]
    return metas


def _picking_pattern(metas: Sequence[MetaAgent]) -> list[int]:
    """One round of turns: every meta agent twice, plus the triple once more.

    Pairs therefore pick an even number of chores per round and the triple a
    multiple of three.
    """
    indices = [s.index for s in metas]
    pattern = indices + indices
    if metas[0].is_triple:
        pattern.append(metas[0].index)
    return pattern


def _kind_counts(chores: Iterable[int], heavy_ids: set[int]) -> tuple[int, int]:
    """(heavy, light) counts of a chore collection."""
    chores = list(chores)
    heavy = sum(1 for c in chores if c in heavy_ids)
    return heavy, len(chores) - heavy


def _split_isolated(
    isolated: Iterable[int], heavy_ids: set[int], dummy_ids: frozenset[int] | set[int]
) -> tuple[list[int], ...]:
    """(real heavy, real light, dummy heavy, dummy light) isolated chores, in input order."""
    kinds: list[list[int]] = [[], [], [], []]
    for c in isolated:
        kinds[(c not in heavy_ids) + 2 * (c in dummy_ids)].append(c)
    return tuple(kinds)


def split_pair_bundle(
    picked: Iterable[int],
    graph: ConflictGraph,
    heavy_ids: set[int],
    dummy_ids: frozenset[int] | set[int] = frozenset(),
) -> tuple[frozenset[int], frozenset[int]]:
    """Split a pair meta agent's bundle into two conflict-free equal halves.

    The picked set must induce a disjoint union of heavy-light edges and
    isolated vertices, with an even number of heavies and of lights; both
    halves then get the same heavy and light counts.  Edges are split across
    the halves with the parity construction; isolated chores fill the
    remaining quotas, spreading dummies as evenly as possible (and putting
    the two odd leftover dummies, when both kinds have one, on different
    halves so no agent collects both).
    """
    picked = sorted(set(picked))
    if picked and (picked[0] < 0 or picked[-1] >= graph.m):
        raise InputError(f"within holds chore ids outside 0..{graph.m - 1}")
    # Each chore's neighbours among the picked: none makes it isolated, one
    # that sees only it makes an edge, recorded from its lower end.
    masks = graph.neighbor_masks
    allowed = sum(1 << c for c in picked)
    edges: list[tuple[int, int]] = []
    isolated: list[int] = []
    for c in picked:
        near = masks[c] & allowed
        if not near:
            isolated.append(c)
            continue
        partner = near.bit_length() - 1
        if near != 1 << partner or masks[partner] & allowed != 1 << c:
            comp = next(comp for comp in graph.components(within=picked) if len(comp) > 2)
            raise InternalInvariantError(
                f"pair bundle induces a component of {len(comp)} chores; expected edges and singletons"
            )
        if c < partner:
            edges.append((c, partner))
    for u, v in edges:
        if (u in heavy_ids) == (v in heavy_ids):
            raise InternalInvariantError(
                f"pair bundle edge ({u}, {v}) joins two chores of the same kind"
            )
    total_h, total_l = _kind_counts(picked, heavy_ids)
    if total_h % 2 or total_l % 2:
        raise InternalInvariantError("pair bundle needs even heavy and light counts")

    side_a: set[int] = set()
    side_b: set[int] = set()
    x = len(edges)
    for idx, (u, v) in enumerate(edges):
        heavy_end, light_end = (u, v) if u in heavy_ids else (v, u)
        if idx < x // 2:
            side_a.add(heavy_end)
            side_b.add(light_end)
        else:
            side_b.add(heavy_end)
            side_a.add(light_end)

    real_h, real_l, dummy_h, dummy_l = _split_isolated(isolated, heavy_ids, dummy_ids)
    side_a_h, side_a_l = _kind_counts(side_a, heavy_ids)
    side_b_h, side_b_l = _kind_counts(side_b, heavy_ids)
    quota_a_h, quota_a_l = total_h // 2 - side_a_h, total_l // 2 - side_a_l
    quota_b_h, quota_b_l = total_h // 2 - side_b_h, total_l // 2 - side_b_l
    if min(quota_a_h, quota_b_h, quota_a_l, quota_b_l) < 0:
        raise InternalInvariantError("edge split overshot the per-side quotas")

    # Distribute dummies evenly per kind first (so per-agent heavy and light
    # dummy counts never differ by more than one), then balance the totals:
    # when both kinds have an odd leftover, they land on different halves.
    best = None
    for da in range(max(0, len(dummy_h) - quota_b_h), min(len(dummy_h), quota_a_h) + 1):
        for ea in range(max(0, len(dummy_l) - quota_b_l), min(len(dummy_l), quota_a_l) + 1):
            db, eb = len(dummy_h) - da, len(dummy_l) - ea
            per_kind = max(abs(da - db), abs(ea - eb))
            imbalance = abs((da + ea) - (db + eb))
            key = (per_kind, imbalance, da, ea)
            if best is None or key < best:
                best = key
    if best is None:
        raise InternalInvariantError("no dummy distribution satisfies the quotas")
    _, _, da, ea = best
    db, eb = len(dummy_h) - da, len(dummy_l) - ea
    side_a.update(dummy_h[:da] + real_h[: quota_a_h - da])
    side_b.update(dummy_h[da:] + real_h[quota_a_h - da : quota_a_h - da + quota_b_h - db])
    side_a.update(dummy_l[:ea] + real_l[: quota_a_l - ea])
    side_b.update(dummy_l[ea:] + real_l[quota_a_l - ea : quota_a_l - ea + quota_b_l - eb])

    for side in (side_a, side_b):
        for u, v in edges:
            if u in side and v in side:
                raise InternalInvariantError("edge split left both endpoints on one side")
    if len(side_a) + len(side_b) != len(picked):
        raise InternalInvariantError("pair split lost or duplicated chores")
    return frozenset(side_a), frozenset(side_b)


@lru_cache(maxsize=None)
def _path_colorings(kinds: tuple[bool, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each proper three-coloring of a path whose chores have these kinds
    (True for heavy), in product order, with the (h0, h1, h2, l0, l1, l2)
    counts it adds to the three parts."""
    colorings = []
    for combo in product(range(3), repeat=len(kinds)):
        if all(a != b for a, b in zip(combo, combo[1:])):
            delta = [0] * 6
            for part, heavy in zip(combo, kinds):
                delta[part + (0 if heavy else 3)] += 1
            colorings.append((combo, tuple(delta)))
    return tuple(colorings)


def _balanced_states(h: int, l: int) -> list[tuple[int, ...]]:
    """The (h0, h1, h2, l0, l1, l2) states with h heavy and l light chores in
    all, each kind within one across the three parts: at most nine."""
    def within_one(total: int) -> list[tuple[int, ...]]:
        q = total // 3
        return [t for t in product((q, q + 1), repeat=3) if sum(t) == total]

    return [hs + ls for hs in within_one(h) for ls in within_one(l)]


def split_triple_bundle(
    picked: Iterable[int],
    graph: ConflictGraph,
    heavy_ids: set[int],
    dummy_ids: frozenset[int] | set[int] = frozenset(),
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Split the triple meta agent's bundle into three conflict-free equal parts.

    The picked set must induce a disjoint union of paths with at most four
    vertices, with heavy and light counts both multiples of three.  Paths are
    colored one at a time, keeping every pair of parts within one heavy and
    one light chore of each other, so after each path the parts' counts are
    one of at most nine states.  One pass from the last path back marks the
    states from which the rest can still be placed; one pass forward gives
    each path the first coloring, in product order, that lands on a marked
    state.  Isolated chores then even things out, with dummies filling
    whatever deficits remain.
    """
    picked = sorted(set(picked))
    comps = graph.components(within=picked)
    total_h, total_l = _kind_counts(picked, heavy_ids)
    if total_h % 3 or total_l % 3:
        raise InternalInvariantError("triple bundle needs heavy and light counts divisible by 3")
    target_h, target_l = total_h // 3, total_l // 3

    paths = sorted((c for c in comps if len(c) > 1), key=lambda c: (-len(c), c[0]))
    for comp in paths:
        if len(comp) > 4:
            raise InternalInvariantError(
                f"triple bundle induces a path of {len(comp)} chores; at most 4 expected"
            )
    singles = [c[0] for c in comps if len(c) == 1]
    real_h_iso, real_l_iso, dummy_h, dummy_l = _split_isolated(singles, heavy_ids, dummy_ids)
    orders = [_path_order(graph.neighbor_masks, comp, key=int) for comp in paths]
    if None in orders:
        raise InternalInvariantError("triple bundle component is not a simple path")
    kinds = [tuple(c in heavy_ids for c in order) for order in orders]

    # Dummies fill each part up to (target_h, target_l), so the real chores
    # must land with per-part heavy, light, AND total counts all within one of
    # each other (the total matters: a part one heavy AND one light ahead of
    # another would leave envy that no single removal cures).
    finals = [
        f
        for f in _balanced_states(total_h - len(dummy_h), total_l - len(dummy_l))
        if max(f[p] + f[3 + p] for p in range(3)) - min(f[p] + f[3 + p] for p in range(3)) <= 1
    ]

    def place_isolated(state: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """The real isolated chores each part gets after the paths left it at
        state: the least (xa, xb, ya, yb) that reaches a final state, with xa
        and xb heavies and ya and yb lights on parts 0 and 1, the rest on part 2."""
        fitting = [adds for f in finals if min(adds := tuple(map(sub, f, state))) >= 0]
        return min(fitting, key=lambda a: a[:2] + a[3:5], default=None)

    # alive[i]: the states after i paths from which the rest can be placed.
    h, l = total_h - len(dummy_h) - len(real_h_iso), total_l - len(dummy_l) - len(real_l_iso)
    alive = [set()] * len(kinds) + [{s for s in _balanced_states(h, l) if place_isolated(s)}]
    for i in reversed(range(len(kinds))):
        h, l = h - sum(kinds[i]), l - len(kinds[i]) + sum(kinds[i])
        deltas = [d for _, d in _path_colorings(kinds[i])]
        alive[i] = {
            s
            for s in _balanced_states(h, l)
            if any(tuple(map(add, s, d)) in alive[i + 1] for d in deltas)
        }
    state = (0,) * 6
    if state not in alive[0]:
        raise InternalInvariantError("no balanced conflict-free split of the triple bundle exists")

    parts: list[set[int]] = [set(), set(), set()]
    for order, k, reachable in zip(orders, kinds, alive[1:]):
        for combo, delta in _path_colorings(k):
            trial = tuple(map(add, state, delta))
            if trial in reachable:
                break
        state = trial
        for chore, part in zip(order, combo):
            parts[part].add(chore)
    placement = place_isolated(state)
    h_pool, l_pool = real_h_iso, real_l_iso
    for p in range(3):
        xh, yl = placement[p], placement[3 + p]
        take_h, h_pool = h_pool[:xh], h_pool[xh:]
        take_l, l_pool = l_pool[:yl], l_pool[yl:]
        parts[p].update(take_h + take_l)
        need_h, need_l = target_h - state[p] - xh, target_l - state[3 + p] - yl
        take_h, dummy_h = dummy_h[:need_h], dummy_h[need_h:]
        take_l, dummy_l = dummy_l[:need_l], dummy_l[need_l:]
        parts[p].update(take_h + take_l)
    counts = [_kind_counts(part, heavy_ids) for part in parts]
    if dummy_h or dummy_l or any(c != (target_h, target_l) for c in counts):
        raise InternalInvariantError("triple split missed the equal-count targets")
    return frozenset(parts[0]), frozenset(parts[1]), frozenset(parts[2])


# ---------------------------------------------------------------------------
# Identical valuations, components of size at most n.
# ---------------------------------------------------------------------------


def solve_identical_bounded_components(instance: Instance) -> Schedule:
    """An EF1 and maximal schedule for identical additive valuations when every
    conflict-graph component has at most n vertices.

    Components are processed in order of their smallest chore id.  For each,
    the agents pick in order of their burdens so far, the least burdened
    first (ties by id), each taking its most disliked remaining chore of the
    component.  Under identical valuations agent i envies agent k exactly
    when v(X_i) < v(X_k), so this is a reverse topological order of the
    always-acyclic envy graph; that graph is checked once, at the end.
    Since a component has at most n chores, every chore lands on a distinct
    agent and all bundles stay independent.  Picks need no overlap test:
    each agent takes at most one chore per component, and no chore outside
    a component overlaps one inside it, so every remaining chore fits the
    agent whose turn it is.
    """
    vals = instance.valuations
    if not vals.is_additive:
        raise InputError("bounded-component round robin needs an additive profile")
    if not vals.is_identical():
        raise InputError("bounded-component round robin needs identical valuations")
    graph = instance.graph()
    n = instance.n
    row = vals.table[0]
    assignment: list[Optional[int]] = [None] * instance.m
    burdens = [0] * n
    for comp in graph.components():
        if len(comp) > n:
            raise InputError(
                f"component of chore {comp[0]} has {len(comp)} chores; at most n = {n} allowed"
            )
        # Least burdened first; the sort is stable under reverse, so ties keep id order.
        order = sorted(range(n), key=burdens.__getitem__, reverse=True)
        # Each agent's most disliked remaining chore: the values are the same
        # for every agent, so the picks are the component in (value, id) order.
        for agent, pick in zip(order, sorted(comp, key=lambda c: (row[c], c))):
            assignment[pick] = agent
            burdens[agent] += row[pick]
    schedule = Schedule(n, tuple(assignment))
    if not is_complete(schedule) or not is_feasible(schedule, graph):
        raise InternalInvariantError("component round robin lost completeness or feasibility")
    rows = list(_value_rows(schedule.bundles(), instance))
    utilities = [0] * n
    for i, _, values in rows:
        utilities[i] = values[i]
    if utilities != burdens:
        raise InternalInvariantError("burdens that ordered the turns differ from the bundle values")
    if not _rows_envy_graph(rows, n).is_acyclic():
        raise InternalInvariantError("envy graph has a cycle under identical valuations")
    if not _rows_efk_hold(rows, instance, 1):
        raise InternalInvariantError("component round robin produced a non-EF1 schedule")
    return schedule
