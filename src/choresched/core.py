"""Core data model: chores, valuations, instances, conflict graphs, schedules.

Time is modeled as integer instants; a chore occupies the half-open interval
[start, finish).  Two chores conflict exactly when their intervals intersect,
so touching endpoints (finish == start) do NOT conflict.  All values are exact
integers; there is no floating point anywhere in this module.

Everything here is immutable after construction and safe to share across
threads; all operations are pure functions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, Union


class InputError(ValueError):
    """An instance, schedule, or parameter violates a documented precondition."""


class SizeGuardError(InputError):
    """An exhaustive operation would exceed its size guard."""


class InternalInvariantError(RuntimeError):
    """A constructed object violates an invariant the algorithms guarantee.

    Seeing this exception means a bug in this library, not bad input.
    """


@dataclass(frozen=True)
class Chore:
    """A task occupying the half-open time interval [start, finish)."""

    id: int
    start: int
    finish: int
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise InputError(f"chore {self.id}: start must be non-negative")
        if self.finish <= self.start:
            raise InputError(f"chore {self.id}: finish must be greater than start")

    def overlaps(self, other: "Chore") -> bool:
        return max(self.start, other.start) < min(self.finish, other.finish)


class AdditiveValuations:
    """One row of non-positive integer chore values per agent.

    The value of a bundle is the sum of its members' values.
    """

    is_additive = True

    def __init__(self, table: Sequence[Sequence[int]]):
        rows = tuple(tuple(row) for row in table)
        if not rows:
            raise InputError("valuation table needs at least one agent row")
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise InputError(f"valuation row {i} has length {len(row)}, expected {width}")
            for j, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InputError(f"value for agent {i}, chore {j} is not an integer")
                if v > 0:
                    raise InputError(f"value for agent {i}, chore {j} is positive; chores never are")
        self.table = rows

    @property
    def n_agents(self) -> int:
        return len(self.table)

    @property
    def n_chores(self) -> int:
        return len(self.table[0])

    def chore_value(self, agent: int, chore: int) -> int:
        return self.table[agent][chore]

    def value(self, agent: int, bundle: Iterable[int]) -> int:
        row = self.table[agent]
        return sum(row[c] for c in bundle)

    def is_identical(self) -> bool:
        return all(row == self.table[0] for row in self.table)

    def dichotomy(self) -> Optional[tuple[int, int]]:
        """Return (H, L) with H < L <= 0 if exactly two distinct values occur."""
        values = {v for row in self.table for v in row}
        if len(values) != 2:
            return None
        low, high = sorted(values)
        return low, high


class MonotoneValuations:
    """Opaque monotone bundle evaluator mapping (agent, chore-id set) to an int <= 0.

    The empty bundle must evaluate to 0 (enforced here); monotonicity over
    nested bundles is spot-checked by the test suite, not proven.
    """

    is_additive = False

    def __init__(self, n_agents: int, n_chores: int, fn: Callable[[int, frozenset[int]], int]):
        if n_agents < 1:
            raise InputError("need at least one agent")
        self._n_agents = n_agents
        self._n_chores = n_chores
        self._fn = fn
        for i in range(n_agents):
            if fn(i, frozenset()) != 0:
                raise InputError(f"agent {i}: empty bundle must have value 0")

    @property
    def n_agents(self) -> int:
        return self._n_agents

    @property
    def n_chores(self) -> int:
        return self._n_chores

    def value(self, agent: int, bundle: Iterable[int]) -> int:
        return self._fn(agent, frozenset(bundle))


ValuationProfile = Union[AdditiveValuations, MonotoneValuations]


@dataclass(frozen=True)
class ConflictGraph:
    """Undirected overlap graph over chore ids 0..m-1.

    Built from intervals, so it is always an interval graph.  Adjacency is
    stored as one bitmask per vertex: bit j of neighbor_masks[i] is set iff
    chores i and j overlap.
    """

    m: int
    neighbor_masks: tuple[int, ...]
    is_path: bool

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.neighbor_masks[i] >> j & 1)

    def neighbors(self, c: int) -> frozenset[int]:
        return frozenset(_mask_bits(self.neighbor_masks[c]))

    def degree(self, c: int) -> int:
        return self.neighbor_masks[c].bit_count()

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        out = set()
        for i in range(self.m):
            for j in _mask_bits(self.neighbor_masks[i]):
                if j > i:
                    out.add((i, j))
        return frozenset(out)

    def components(self, within: Optional[Iterable[int]] = None) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest member.

        With within, the components of the subgraph induced by those chores.
        """
        members = range(self.m) if within is None else sorted(set(within))
        allowed = sum(1 << c for c in members)
        seen = 0
        comps = []
        for root in members:
            if seen >> root & 1:
                continue
            comp, stack = [], [root]
            seen |= 1 << root
            while stack:
                v = stack.pop()
                comp.append(v)
                fresh = self.neighbor_masks[v] & allowed & ~seen
                seen |= fresh
                stack.extend(_mask_bits(fresh))
            comps.append(sorted(comp))
        return comps


def _mask_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_conflict_graph(chores: Sequence[Chore]) -> ConflictGraph:
    """Build the overlap graph on a chore list.

    An edge {i, j} exists iff [s_i, f_i) and [s_j, f_j) intersect, that is iff
    s_j < f_i and f_j > s_i.  The chores starting before f_i are a prefix of
    the start order, and the chores finishing after s_i a suffix of the
    finish order, so chore i's mask is the AND of one prefix OR-mask and one
    suffix OR-mask, found by binary search.  The cost is two sorts, 2m
    binary searches and O(m) big-integer operations of m bits each, instead
    of testing all m^2/2 pairs.  The empty list yields an empty graph.
    is_path is set iff the graph is a single simple path covering every
    vertex (vacuously true for m <= 1).
    """
    m = len(chores)
    by_start = sorted(range(m), key=lambda i: chores[i].start)
    by_finish = sorted(range(m), key=lambda i: chores[i].finish)
    starts = [chores[i].start for i in by_start]
    finishes = [chores[i].finish for i in by_finish]
    # started[k]: the first k chores in start order; ending[k]: all chores
    # from position k on in finish order.
    started = [0] * (m + 1)
    for k, i in enumerate(by_start):
        started[k + 1] = started[k] | 1 << i
    ending = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        ending[k] = ending[k + 1] | 1 << by_finish[k]
    masks = [
        started[bisect_left(starts, c.finish)]
        & ending[bisect_right(finishes, c.start)]
        & ~(1 << i)
        for i, c in enumerate(chores)
    ]
    return ConflictGraph(m=m, neighbor_masks=tuple(masks), is_path=_is_path(m, masks))


def _is_path(m: int, masks: Sequence[int]) -> bool:
    if m <= 1:
        return True
    degrees = [mask.bit_count() for mask in masks]
    if any(d > 2 for d in degrees) or sum(degrees) != 2 * (m - 1):
        return False
    return _path_order(masks, range(m), key=int) is not None


def _path_order(
    neighbor_masks: Sequence[int], members: Sequence[int], key: Callable[[int], Any]
) -> Optional[list[int]]:
    """The members in order along the simple path they induce, or None.

    The walk starts from the endpoint with the smaller key and must reach
    every member, each through the one neighbour not yet walked.
    """
    allowed = sum(1 << c for c in members)
    ends = [c for c in members if (neighbor_masks[c] & allowed).bit_count() <= 1]
    if len(ends) not in (1, 2):
        return None
    order = [min(ends, key=key)]
    left = allowed ^ 1 << order[0]
    while left:
        step = neighbor_masks[order[-1]] & left
        if step.bit_count() != 1:
            return None
        order.append(step.bit_length() - 1)
        left ^= step
    return order


@dataclass(frozen=True)
class Schedule:
    """A partial assignment of chores to agents.

    assignment[c] is the agent index holding chore c, or None if c is
    unassigned.  Bundles are pairwise disjoint by construction.
    """

    n_agents: int
    assignment: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise InputError("schedule needs at least one agent")
        for c, a in enumerate(self.assignment):
            if a is not None and not 0 <= a < self.n_agents:
                raise InputError(f"chore {c} assigned to unknown agent {a}")

    @classmethod
    def empty(cls, n_agents: int, m: int) -> "Schedule":
        return cls(n_agents, (None,) * m)

    @classmethod
    def from_bundles(cls, n_agents: int, m: int, bundles: Sequence[Iterable[int]]) -> "Schedule":
        if len(bundles) != n_agents:
            raise InputError(f"expected {n_agents} bundles, got {len(bundles)}")
        assignment: list[Optional[int]] = [None] * m
        for agent, bundle in enumerate(bundles):
            for c in bundle:
                if not 0 <= c < m:
                    raise InputError(f"bundle of agent {agent} references unknown chore {c}")
                if assignment[c] is not None:
                    raise InputError(f"chore {c} appears in two bundles")
                assignment[c] = agent
        return cls(n_agents, tuple(assignment))

    @property
    def m(self) -> int:
        return len(self.assignment)

    def bundle(self, agent: int) -> frozenset[int]:
        return frozenset(c for c, a in enumerate(self.assignment) if a == agent)

    def bundles(self) -> tuple[frozenset[int], ...]:
        out: list[set[int]] = [set() for _ in range(self.n_agents)]
        for c, a in enumerate(self.assignment):
            if a is not None:
                out[a].add(c)
        return tuple(frozenset(b) for b in out)

    def bundle_mask(self, agent: int) -> int:
        mask = 0
        for c, a in enumerate(self.assignment):
            if a == agent:
                mask |= 1 << c
        return mask

    def assigned(self) -> frozenset[int]:
        return frozenset(c for c, a in enumerate(self.assignment) if a is not None)

    def unassigned(self) -> frozenset[int]:
        return frozenset(c for c, a in enumerate(self.assignment) if a is None)

    def assign(self, chore: int, agent: Optional[int]) -> "Schedule":
        """Return a copy with one chore reassigned (agent None unassigns)."""
        new = list(self.assignment)
        new[chore] = agent
        return Schedule(self.n_agents, tuple(new))

    def swap_agents(self, a: int = 0, b: int = 1) -> "Schedule":
        """Return a copy with the bundles of agents a and b exchanged."""
        table = {a: b, b: a}
        return Schedule(
            self.n_agents,
            tuple(table.get(x, x) if x is not None else None for x in self.assignment),
        )


@dataclass
class Instance:
    """A chore scheduling problem: agents, timed chores, and a valuation profile."""

    n: int
    chores: tuple[Chore, ...]
    valuations: ValuationProfile

    def __post_init__(self) -> None:
        self.chores = tuple(self.chores)
        if self.n < 1:
            raise InputError("instance needs at least one agent")
        ids = [c.id for c in self.chores]
        if ids != list(range(len(ids))):
            repeated = [i for i, count in Counter(ids).items() if count > 1]
            if repeated:
                raise InputError(f"chore id {repeated[0]} appears more than once")
            raise InputError("chore ids must be dense and sorted: 0..m-1")
        if self.valuations.n_agents != self.n:
            raise InputError(
                f"valuation profile covers {self.valuations.n_agents} agents, instance has {self.n}"
            )
        if self.valuations.n_chores != len(self.chores):
            raise InputError(
                f"valuation profile covers {self.valuations.n_chores} chores, instance has {len(self.chores)}"
            )
        self._graph: Optional[ConflictGraph] = None

    @property
    def m(self) -> int:
        return len(self.chores)

    def graph(self) -> ConflictGraph:
        if self._graph is None:
            self._graph = build_conflict_graph(self.chores)
        return self._graph

    def value(self, agent: int, bundle: Iterable[int]) -> int:
        return self.valuations.value(agent, bundle)


def path_instance(values_per_agent: Sequence[Sequence[int]]) -> Instance:
    """Build an instance whose conflict graph is exactly the path c_0 - c_1 - ... - c_{m-1}.

    Chore j gets the interval [j, j+2), so consecutive chores overlap in one
    time slot and non-consecutive chores are disjoint.  One value row per
    agent; ragged rows are rejected.
    """
    rows = [tuple(row) for row in values_per_agent]
    if not rows:
        raise InputError("need at least one agent row")
    m = len(rows[0])
    if m < 1:
        raise InputError("need at least one chore")
    if any(len(row) != m for row in rows):
        raise InputError("ragged valuation rows")
    chores = tuple(Chore(id=j, start=j, finish=j + 2) for j in range(m))
    return Instance(n=len(rows), chores=chores, valuations=AdditiveValuations(rows))


def order_by_finish(chores: Sequence[Chore]) -> tuple[int, ...]:
    """Chore ids sorted by finish time, ties broken by ascending id.

    The id tie-break plays the role of an infinitesimal perturbation: it fixes
    a strict order deterministically and in exact integer arithmetic.
    """
    return tuple(sorted((c.id for c in chores), key=lambda i: (chores[i].finish, i)))


def path_component_order(
    graph: ConflictGraph, chores: Sequence[Chore], component: Sequence[int]
) -> list[int]:
    """Vertices of a path-shaped component in path order.

    Walks from the endpoint with the smaller (start, finish, id) triple, so
    the orientation follows the timeline left to right.  Raises if the
    component is not a simple path.
    """
    order = _path_order(
        graph.neighbor_masks, component, key=lambda c: (chores[c].start, chores[c].finish, c)
    )
    if order is None:
        raise InputError("component is not a simple path")
    return order


def is_feasible(schedule: Schedule, graph: ConflictGraph) -> bool:
    """True iff no agent's bundle contains two overlapping chores."""
    if schedule.m != graph.m:
        raise InputError(f"schedule covers {schedule.m} chores, graph has {graph.m}")
    bundle_masks = [0] * schedule.n_agents
    for c, a in enumerate(schedule.assignment):
        if a is None:
            continue
        if graph.neighbor_masks[c] & bundle_masks[a]:
            return False
        bundle_masks[a] |= 1 << c
    return True
