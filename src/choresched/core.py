"""Core data model: chores, valuations, instances, conflict graphs, schedules.

Time is modeled as integer instants; a chore occupies the half-open interval
[start, finish).  Two chores conflict exactly when their intervals intersect,
so touching endpoints (finish == start) do NOT conflict.  All values are exact
integers; there is no floating point anywhere in this module.

Everything here is immutable after construction and safe to share across
threads; all operations are pure functions.

Inputs are checked where they enter: by the public constructors here, each
field, and by io, a file's structure.  The solvers derive what they build
rather than check it again: the dichotomous-path solver's padded profile is
one row tuple for every agent, which AdditiveValuations scans once, and its
padded conflict graph is the real masks plus an empty one per isolated dummy.
"""

from __future__ import annotations

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


@dataclass(frozen=True, init=False)
class Chore:
    """A task occupying the half-open time interval [start, finish)."""

    id: int
    start: int
    finish: int
    label: Optional[str] = None

    def __init__(self, id: int, start: int, finish: int, label: Optional[str] = None) -> None:
        # The checks in order, on the arguments: a valid chore makes each
        # comparison once, and an invalid one gets the first failing message.
        if type(id) is not int:
            raise InputError(f"chore {id}: id must be an integer")
        if type(start) is not int:
            raise InputError(f"chore {id}: start must be an integer")
        if type(finish) is not int:
            raise InputError(f"chore {id}: finish must be an integer")
        if label is not None and not isinstance(label, str):
            raise InputError(f"chore {id}: label must be a string or None")
        if start < 0:
            raise InputError(f"chore {id}: start must be non-negative")
        if finish <= start:
            raise InputError(f"chore {id}: finish must be greater than start")
        # As the generated __init__ of a frozen dataclass does.  Writing to
        # self.__dict__ instead would be quicker here but would give every
        # chore a dict of its own: more memory and slower attribute reads.
        set_field = object.__setattr__
        set_field(self, "id", id)
        set_field(self, "start", start)
        set_field(self, "finish", finish)
        set_field(self, "label", label)

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
        # Equal rows share one object, so a row's id names a distinct row.
        distinct: dict[tuple[int, ...], tuple[int, ...]] = {}
        # A row object passed again (tuple(row) is row for a tuple) is not
        # scanned again: by id, the shared row it was checked into.
        checked: dict[int, tuple[int, ...]] = {}
        shared = []
        for i, row in enumerate(rows):
            first = checked.get(id(row))
            if first is not None:
                shared.append(first)
                continue
            if len(row) != width:
                raise InputError(f"valuation row {i} has length {len(row)}, expected {width}")
            # An equal row is valid only if plain ints: False == 0, -1.0 == -1.
            # A row of plain non-positive ints needs no per-value check; any
            # other row is checked value by value, for the first bad one.
            plain = set(map(type, row)) <= {int}
            first = distinct.get(row) if plain else None
            if first is None:
                if not (plain and max(row, default=0) <= 0):
                    for j, v in enumerate(row):
                        if not isinstance(v, int) or isinstance(v, bool):
                            raise InputError(f"value for agent {i}, chore {j} is not an integer")
                        if v > 0:
                            raise InputError(f"value for agent {i}, chore {j} is positive; chores never are")
                first = distinct[row] = row
            checked[id(row)] = first
            shared.append(first)
        self.table = tuple(shared)

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
        first = self.table[0]
        return all(row is first or row == first for row in self.table)

    def dichotomy(self) -> Optional[tuple[int, int]]:
        """Return (H, L) with H < L <= 0 if exactly two distinct values occur."""
        # Each distinct row object is scanned once.
        values = set().union(*{id(row): row for row in self.table}.values())
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
    """Undirected overlap graph over the positions 0..m-1 of a chore list.

    Built from intervals, so it is always an interval graph.  Adjacency is
    stored as one bitmask per vertex: bit j of neighbor_masks[i] is set iff
    the chores at positions i and j overlap (in an Instance, positions are
    ids).  is_path: the graph is one simple path through all m vertices.
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

    def with_isolated(self, count: int) -> "ConflictGraph":
        """This graph with count isolated vertices appended, at m..m+count-1.

        What build_conflict_graph gives for the chore list extended by count
        chores that overlap nothing: an empty mask each, and a path only if
        no vertex was added or there is at most one in all.
        """
        m = self.m + count
        return ConflictGraph(
            m=m,
            neighbor_masks=self.neighbor_masks + (0,) * count,
            is_path=self.is_path if not count else m <= 1,
        )

    def components(self, within: Optional[Iterable[int]] = None) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest member.

        With within, the components of the subgraph induced by those chores.
        """
        members = range(self.m) if within is None else sorted(set(within))
        if members and (members[0] < 0 or members[-1] >= self.m):
            raise InputError(f"within holds chore ids outside 0..{self.m - 1}")
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
    """Build the overlap graph on a chore list by one sweep of its timeline.

    Masks are indexed by list position, whatever the chores' ids: bit j of
    neighbor_masks[i] is set iff s_j < f_i and f_j > s_i.  The sweep visits
    the 2m endpoints in (time, finish before start, list position) order and
    keeps two running masks.  At s_i, finished holds the chores with
    f_j <= s_i; at f_i, started holds those with s_j < f_i, i among them.
    Chore i's mask is started at f_i minus finished at s_i (held only while
    i is active) minus i: one sort and O(m) big-integer operations of m bits
    each, where testing pairs would take m^2/2.  No chores, no vertices.

    is_path is set iff the graph is one simple path through every vertex:
    m <= 1, or else one timeline gap (a start that finds no chore active, as
    the first does) so the graph is connected, every degree at most 2, and
    degrees summing to 2(m - 1), which rules out the triangle.
    """
    m = len(chores)
    events = [(c.start, 1, i) for i, c in enumerate(chores)]
    events += [(c.finish, 0, i) for i, c in enumerate(chores)]
    masks = [0] * m
    started = finished = active = gaps = 0
    for _, is_start, i in sorted(events):
        if is_start:
            gaps += not active
            active += 1
            masks[i] = finished
            started |= 1 << i
        else:
            active -= 1
            # The XOR keeps started's allocation; & ~ copies it at its own
            # length, so no mask holds started's spare high digits.
            masks[i] = (started ^ masks[i]) & ~(1 << i)
            finished |= 1 << i
    is_path = m <= 1 or (
        gaps == 1
        and all(mask.bit_count() <= 2 for mask in masks)
        and sum(mask.bit_count() for mask in masks) == 2 * (m - 1)
    )
    return ConflictGraph(m=m, neighbor_masks=tuple(masks), is_path=is_path)


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
        assignment = tuple(self.assignment)
        object.__setattr__(self, "assignment", assignment)
        n = self.n_agents
        for c, a in enumerate(assignment):
            if a is not None and not (type(a) is int and 0 <= a < n):
                raise InputError(f"chore {c} assigned to unknown agent {a}")

    @classmethod
    def empty(cls, n_agents: int, m: int) -> "Schedule":
        return cls(n_agents, (None,) * m)

    @classmethod
    def from_bundles(cls, n_agents: int, m: int, bundles: Sequence[Iterable[int]]) -> "Schedule":
        if m < 0:
            raise InputError(f"chore count must be non-negative, got {m}")
        if len(bundles) != n_agents:
            raise InputError(f"expected {n_agents} bundles, got {len(bundles)}")
        assignment: list[Optional[int]] = [None] * m
        for agent, bundle in enumerate(bundles):
            for c in bundle:
                if type(c) is not int or not 0 <= c < m:
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
    return _bundle_masks(schedule, graph) is not None


def _bundle_masks(schedule: Schedule, graph: ConflictGraph) -> Optional[list[int]]:
    """One bitmask per agent's bundle, or None if a bundle holds overlapping chores."""
    if schedule.m != graph.m:
        raise InputError(f"schedule covers {schedule.m} chores, graph has {graph.m}")
    bundle_masks = [0] * schedule.n_agents
    for c, a in enumerate(schedule.assignment):
        if a is None:
            continue
        if graph.neighbor_masks[c] & bundle_masks[a]:
            return None
        bundle_masks[a] |= 1 << c
    return bundle_masks
