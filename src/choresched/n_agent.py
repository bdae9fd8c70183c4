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
  component the envy graph of the partial schedule (always acyclic under
  identical valuations) fixes the turn order: the least burdened agents go
  first and each takes the most disliked remaining chore, so every chore of
  the component lands on a distinct agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional, Sequence

from .checkers import check_ef1, is_complete
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


@dataclass(frozen=True)
class EnvyGraph:
    """Directed graph with an edge (i, k) whenever agent i envies agent k."""

    n: int
    edges: frozenset[tuple[int, int]]

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except InputError:
            return False

    def topological_order(self) -> tuple[int, ...]:
        """A deterministic topological order (Kahn's algorithm, lowest id first)."""
        indeg = [0] * self.n
        out: dict[int, list[int]] = {i: [] for i in range(self.n)}
        for i, k in sorted(self.edges):
            indeg[k] += 1
            out[i].append(k)
        ready = sorted(i for i in range(self.n) if indeg[i] == 0)
        order: list[int] = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
            ready.sort()
        if len(order) != self.n:
            raise InputError("envy graph contains a cycle")
        return tuple(order)


def envy_graph(schedule: Schedule, instance: Instance) -> EnvyGraph:
    """The envy digraph of a feasible schedule: (i, k) iff v_i(X_i) < v_i(X_k)."""
    if not is_feasible(schedule, instance.graph()):
        raise InputError("envy graph is defined for feasible schedules")
    bundles = schedule.bundles()
    edges = set()
    for i in range(instance.n):
        own = instance.value(i, bundles[i])
        for k in range(instance.n):
            if i != k and own < instance.value(i, bundles[k]):
                edges.add((i, k))
    return EnvyGraph(n=instance.n, edges=frozenset(edges))


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

    dichotomy = vals.dichotomy()
    if dichotomy is not None:
        heavy_value, light_value = dichotomy
    else:
        values = {vals.chore_value(0, c) for c in range(instance.m)}
        if len(values) == 1 and allow_uniform:
            heavy_value = light_value = values.pop()
        else:
            raise InputError(
                "weighted round robin needs a dichotomous profile (exactly two distinct values)"
            )
    # A uniform profile makes every chore heavy.
    heavy_ids = {
        c for c in range(instance.m) if vals.chore_value(0, c) == heavy_value
    }

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

    padded_instance = Instance(
        n=n,
        chores=tuple(padded_chores),
        valuations=AdditiveValuations([tuple(padded_values)] * n),
    )
    padded_graph = padded_instance.graph()
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

    padded_schedule = Schedule.from_bundles(n, len(padded_chores), bundles)
    if not is_complete(padded_schedule) or not is_feasible(padded_schedule, padded_graph):
        raise InternalInvariantError("padded schedule is not a complete feasible schedule")
    per_agent = [_kind_counts(b, padded_heavy) for b in padded_schedule.bundles()]
    if len(set(per_agent)) != 1:
        raise InternalInvariantError(
            f"padded schedule is not envy-free: per-agent (heavy, light) counts {per_agent}"
        )

    schedule = Schedule(n, padded_schedule.assignment[: instance.m])
    if not is_complete(schedule) or not is_feasible(schedule, graph):
        raise InternalInvariantError("stripped schedule is not a complete feasible schedule")
    real_counts = [_kind_counts(b, heavy_ids) for b in schedule.bundles()]
    for kind in (0, 1):
        spread = max(rc[kind] for rc in real_counts) - min(rc[kind] for rc in real_counts)
        if spread > 1:
            raise InternalInvariantError(
                f"per-agent {'heavy' if kind == 0 else 'light'} counts differ by {spread}"
            )
    if not check_ef1(schedule, instance).holds:
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


def _dummy_split_quota(
    dummies: int, quota_a: int, quota_b: int, pool_a_budget: int
) -> range:
    lo = max(0, dummies - quota_b)
    hi = min(dummies, quota_a, pool_a_budget)
    return range(lo, hi + 1)


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
    comps = graph.components(within=picked)
    edges: list[tuple[int, int]] = []
    isolated: list[int] = []
    for comp in comps:
        if len(comp) == 1:
            isolated.append(comp[0])
        elif len(comp) == 2:
            edges.append((comp[0], comp[1]))
        else:
            raise InternalInvariantError(
                f"pair bundle induces a component of {len(comp)} chores; expected edges and singletons"
            )
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

    iso_h = [c for c in isolated if c in heavy_ids]
    iso_l = [c for c in isolated if c not in heavy_ids]
    side_a_h, side_a_l = _kind_counts(side_a, heavy_ids)
    side_b_h, side_b_l = _kind_counts(side_b, heavy_ids)
    quota_a_h, quota_a_l = total_h // 2 - side_a_h, total_l // 2 - side_a_l
    quota_b_h, quota_b_l = total_h // 2 - side_b_h, total_l // 2 - side_b_l
    if min(quota_a_h, quota_b_h, quota_a_l, quota_b_l) < 0:
        raise InternalInvariantError("edge split overshot the per-side quotas")

    dummy_h = [c for c in iso_h if c in dummy_ids]
    real_h = [c for c in iso_h if c not in dummy_ids]
    dummy_l = [c for c in iso_l if c in dummy_ids]
    real_l = [c for c in iso_l if c not in dummy_ids]

    # Distribute dummies evenly per kind first (so per-agent heavy and light
    # dummy counts never differ by more than one), then balance the totals:
    # when both kinds have an odd leftover, they land on different halves.
    best = None
    for da in _dummy_split_quota(len(dummy_h), quota_a_h, quota_b_h, len(dummy_h)):
        if quota_a_h - da > len(real_h) or quota_b_h - (len(dummy_h) - da) > len(real_h):
            continue
        for ea in _dummy_split_quota(len(dummy_l), quota_a_l, quota_b_l, len(dummy_l)):
            if quota_a_l - ea > len(real_l):
                continue
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


def split_triple_bundle(
    picked: Iterable[int],
    graph: ConflictGraph,
    heavy_ids: set[int],
    dummy_ids: frozenset[int] | set[int] = frozenset(),
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Split the triple meta agent's bundle into three conflict-free equal parts.

    The picked set must induce a disjoint union of paths with at most four
    vertices, with heavy and light counts both multiples of three.  Paths are
    assigned component-wise, keeping every pair of parts within one heavy and
    one light chore of each other; isolated chores then even things out, with
    dummies filling whatever deficits remain.
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
    real_h_iso = sorted(c for c in singles if c in heavy_ids and c not in dummy_ids)
    real_l_iso = sorted(c for c in singles if c not in heavy_ids and c not in dummy_ids)
    dummy_h = sorted(c for c in singles if c in heavy_ids and c in dummy_ids)
    dummy_l = sorted(c for c in singles if c not in heavy_ids and c in dummy_ids)
    orders = [_path_order(graph.neighbor_masks, comp, key=int) for comp in paths]
    if None in orders:
        raise InternalInvariantError("triple bundle component is not a simple path")
    combos_per_path = [
        [
            combo
            for combo in product(range(3), repeat=len(order))
            if all(combo[i] != combo[i + 1] for i in range(len(order) - 1))
        ]
        for order in orders
    ]

    # Exact search: dummies fill each part up to (target_h, target_l), so the
    # real chores must land with per-part heavy, light, AND total counts all
    # within one of each other (the total matters: a part one heavy AND one
    # light ahead of another would leave envy that no single removal cures).
    def fits(counts: list[list[int]], final: bool) -> bool:
        hs = [c[0] for c in counts]
        ls = [c[1] for c in counts]
        if max(hs) > target_h or max(ls) > target_l:
            return False
        if max(hs) - min(hs) > 1 or max(ls) - min(ls) > 1:
            return False
        if final:
            totals = [h + l for h, l in counts]
            if max(totals) - min(totals) > 1:
                return False
        return True

    def place_isolated(counts: list[list[int]]) -> Optional[tuple[tuple[int, int], ...]]:
        kh, kl = len(real_h_iso), len(real_l_iso)
        for xa in range(kh + 1):
            for xb in range(kh + 1 - xa):
                xs = (xa, xb, kh - xa - xb)
                for ya in range(kl + 1):
                    for yb in range(kl + 1 - ya):
                        ys = (ya, yb, kl - ya - yb)
                        trial = [
                            [counts[p][0] + xs[p], counts[p][1] + ys[p]]
                            for p in range(3)
                        ]
                        if fits(trial, final=True):
                            return tuple(zip(xs, ys))
        return None

    dead: set[tuple[int, tuple[tuple[int, int], ...]]] = set()
    chosen_combos: list[tuple[int, ...]] = []

    def search(idx: int, counts: list[list[int]]) -> Optional[tuple[tuple[int, int], ...]]:
        state = (idx, tuple(tuple(c) for c in counts))
        if state in dead:
            return None
        if idx == len(paths):
            placement = place_isolated(counts)
            if placement is None:
                dead.add(state)
            return placement
        for combo in combos_per_path[idx]:
            trial = [row[:] for row in counts]
            for pos, part in enumerate(combo):
                trial[part][0 if orders[idx][pos] in heavy_ids else 1] += 1
            if not fits(trial, final=False):
                continue
            chosen_combos.append(combo)
            placement = search(idx + 1, trial)
            if placement is not None:
                return placement
            chosen_combos.pop()
        dead.add(state)
        return None

    placement = search(0, [[0, 0], [0, 0], [0, 0]])
    if placement is None:
        raise InternalInvariantError("no balanced conflict-free split of the triple bundle exists")

    parts: list[set[int]] = [set(), set(), set()]
    counts = [[0, 0] for _ in range(3)]
    for order, combo in zip(orders, chosen_combos):
        for pos, part in enumerate(combo):
            parts[part].add(order[pos])
            counts[part][0 if order[pos] in heavy_ids else 1] += 1
    h_pool, l_pool = list(real_h_iso), list(real_l_iso)
    for p, (xh, yl) in enumerate(placement):
        take_h, h_pool = h_pool[:xh], h_pool[xh:]
        take_l, l_pool = l_pool[:yl], l_pool[yl:]
        parts[p].update(take_h + take_l)
        counts[p][0] += xh
        counts[p][1] += yl
    for p in range(3):
        need_h, need_l = target_h - counts[p][0], target_l - counts[p][1]
        take_h, dummy_h = dummy_h[:need_h], dummy_h[need_h:]
        take_l, dummy_l = dummy_l[:need_l], dummy_l[need_l:]
        parts[p].update(take_h + take_l)
        counts[p][0] += len(take_h)
        counts[p][1] += len(take_l)
    if dummy_h or dummy_l or any(tuple(c) != (target_h, target_l) for c in counts):
        raise InternalInvariantError("triple split missed the equal-count targets")
    return frozenset(parts[0]), frozenset(parts[1]), frozenset(parts[2])


# ---------------------------------------------------------------------------
# Identical valuations, components of size at most n.
# ---------------------------------------------------------------------------


def solve_identical_bounded_components(instance: Instance) -> Schedule:
    """An EF1 and maximal schedule for identical additive valuations when every
    conflict-graph component has at most n vertices."""
    schedule, _ = bounded_components_solution(instance)
    return schedule


def bounded_components_solution(
    instance: Instance,
) -> tuple[Schedule, list[Schedule]]:
    """solve_identical_bounded_components plus every intermediate schedule.

    Components are processed in order of their smallest chore id.  Before
    each component the envy graph of the partial schedule is computed (and
    asserted acyclic, which identical valuations guarantee); the agents then
    pick in reverse topological order, i.e. the currently least burdened
    first, each taking its most disliked remaining chore of the component.
    Since a component has at most n chores, every chore lands on a distinct
    agent and all bundles stay independent.
    """
    vals = instance.valuations
    if not vals.is_additive:
        raise InputError("bounded-component round robin needs an additive profile")
    if not vals.is_identical():
        raise InputError("bounded-component round robin needs identical valuations")
    graph = instance.graph()
    comps = graph.components()
    oversized = [c for c in comps if len(c) > instance.n]
    if oversized:
        raise InputError(
            f"component {oversized[0]} has {len(oversized[0])} chores; at most n = {instance.n} allowed"
        )
    n = instance.n
    assignment: list[Optional[int]] = [None] * instance.m
    bundle_masks = [0] * n
    burdens = [0] * n
    intermediates = [Schedule.empty(n, instance.m)]
    for comp in comps:
        partial = Schedule(n, tuple(assignment))
        graph_now = envy_graph(partial, instance)
        if not graph_now.is_acyclic():
            raise InternalInvariantError("envy graph grew a cycle under identical valuations")
        # Reverse topological order: envy edges point from lower to higher
        # bundle value, so descending value (ties by id) is consistent.
        order = sorted(range(n), key=lambda i: (-burdens[i], i))
        remaining = set(comp)
        for agent in order:
            feasible = [
                c for c in remaining if not graph.neighbor_masks[c] & bundle_masks[agent]
            ]
            if not feasible:
                continue
            pick = min(feasible, key=lambda c: (vals.chore_value(agent, c), c))
            assignment[pick] = agent
            bundle_masks[agent] |= 1 << pick
            burdens[agent] += vals.chore_value(agent, pick)
            remaining.discard(pick)
        if remaining:
            raise InternalInvariantError(
                f"component left chores {sorted(remaining)} unassigned despite fitting agents"
            )
        intermediates.append(Schedule(n, tuple(assignment)))
    schedule = Schedule(n, tuple(assignment))
    if not is_complete(schedule) or not is_feasible(schedule, graph):
        raise InternalInvariantError("component round robin lost completeness or feasibility")
    if not check_ef1(schedule, instance).holds:
        raise InternalInvariantError("component round robin produced a non-EF1 schedule")
    return schedule, intermediates
