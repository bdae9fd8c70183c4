"""Output checks written apart from choresched.

Nothing here imports choresched: every verdict is recomputed from the chore
intervals, the valuation table or the benchmark's own valuation function, so
a fault in the library's checkers cannot hide a fault in its solvers.

An assignment is a list with one entry per chore: the agent index, or None
for an unassigned chore.  Intervals are half-open [start, finish) pairs.
Every check returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations


def bundles_of(assignment, n):
    out = [set() for _ in range(n)]
    for c, a in enumerate(assignment):
        if a is not None:
            out[a].add(c)
    return out


def parse_assignment(raw, m, n):
    """Turn a JSON {"chore id": agent or null} map into a list, or raise ValueError."""
    if not isinstance(raw, dict) or sorted(raw, key=int) != [str(c) for c in range(m)]:
        raise ValueError(f"assignment must name chores 0..{m - 1} exactly once")
    out = [raw[str(c)] for c in range(m)]
    for c, a in enumerate(out):
        if a is not None and (type(a) is not int or not 0 <= a < n):
            raise ValueError(f"chore {c} goes to unknown agent {a!r}")
    return out


def _sorted_bundle(bundle, intervals):
    return sorted(intervals[c] for c in bundle)


def feasibility_problems(assignment, intervals, n):
    problems = []
    for a, bundle in enumerate(bundles_of(assignment, n)):
        spans = _sorted_bundle(bundle, intervals)
        for (s1, f1), (s2, f2) in zip(spans, spans[1:]):
            if s2 < f1:
                problems.append(f"agent {a} holds overlapping [{s1},{f1}) and [{s2},{f2})")
    return problems


def maximality_problems(assignment, intervals, n):
    """Unassigned chores that some agent could still take (bundles must be feasible)."""
    lanes = []
    for bundle in bundles_of(assignment, n):
        spans = _sorted_bundle(bundle, intervals)
        lanes.append(([s for s, _ in spans], [f for _, f in spans]))
    problems = []
    for c, a in enumerate(assignment):
        if a is not None:
            continue
        s, f = intervals[c]
        for agent, (starts, finishes) in enumerate(lanes):
            # Disjoint intervals sorted by start are sorted by finish too, so only
            # the last one starting before f can reach past s.
            i = bisect_left(starts, f) - 1
            if i < 0 or finishes[i] <= s:
                problems.append(f"unassigned chore {c} fits agent {agent}")
                break
    return problems


def completeness_problems(assignment):
    missing = [c for c, a in enumerate(assignment) if a is None]
    return [f"chores {missing[:5]} are unassigned"] if missing else []


def ef1_additive_problems(assignment, table):
    """EF1 by the worst-chore rule: removing the envious agent's worst chore must cure envy."""
    n = len(table)
    bundles = bundles_of(assignment, n)
    problems = []
    for i in range(n):
        row = table[i]
        own = sum(row[c] for c in bundles[i])
        for j in range(n):
            if j == i:
                continue
            other = sum(row[c] for c in bundles[j])
            if own < other and own - min(row[c] for c in bundles[i]) < other:
                problems.append(f"agent {i} envies agent {j} beyond one chore")
    return problems


def efx_additive_problems(assignment, table):
    """EFX: removing any chore, even the mildest, from an envious bundle must cure envy."""
    n = len(table)
    bundles = bundles_of(assignment, n)
    problems = []
    for i in range(n):
        row = table[i]
        own = sum(row[c] for c in bundles[i])
        for j in range(n):
            if j == i:
                continue
            other = sum(row[c] for c in bundles[j])
            if own < other and own - max(row[c] for c in bundles[i]) < other:
                problems.append(f"agent {i} envies agent {j} after removing its mildest chore")
    return problems


def ef1_monotone_problems(assignment, value, n):
    """EF1 under a monotone set function value(agent, frozenset) by single removals."""
    bundles = [frozenset(b) for b in bundles_of(assignment, n)]
    problems = []
    for i in range(n):
        own = value(i, bundles[i])
        for j in range(n):
            if j == i:
                continue
            other = value(i, bundles[j])
            if own < other and not any(value(i, bundles[i] - {c}) >= other for c in bundles[i]):
                problems.append(f"agent {i} envies agent {j} beyond one chore")
    return problems


LETTERS = {0: "R", 1: "B", None: "N"}


def trace_problems(steps, intervals):
    """A two-agent trace: (phase, colors, assignment) per step.

    Every step is feasible and maximal, its color string spells its
    assignment, consecutive steps are adjacent (each bundle gains at most one
    chore and loses at most one), and the last step swaps the first's bundles.
    """
    problems = []
    if not steps:
        return ["trace has no steps"]
    previous = None
    for t, (phase, colors, assignment) in enumerate(steps):
        if not isinstance(phase, str) or not phase:
            problems.append(f"step {t} has no phase tag")
        if colors != "".join(LETTERS[a] for a in assignment):
            problems.append(f"step {t} colors do not spell its assignment")
        feasible = feasibility_problems(assignment, intervals, 2)
        problems += [f"step {t}: {p}" for p in feasible]
        if not feasible:
            problems += [f"step {t}: {p}" for p in maximality_problems(assignment, intervals, 2)]
        current = bundles_of(assignment, 2)
        if previous is not None:
            for a in (0, 1):
                if len(current[a] - previous[a]) > 1 or len(previous[a] - current[a]) > 1:
                    problems.append(f"steps {t - 1} -> {t} change agent {a}'s bundle by more than one swap")
        previous = current
    first = bundles_of(steps[0][2], 2)
    if first[0] != previous[1] or first[1] != previous[0]:
        problems.append("last step is not the bundle swap of the first")
    return problems


# ---------------------------------------------------------------------------
# Exhaustive search over maximal schedules, for confirming "none" answers and
# Pareto optimality on small instances.
# ---------------------------------------------------------------------------


def conflict_masks(intervals):
    m = len(intervals)
    masks = [0] * m
    for i, j in combinations(range(m), 2):
        (s1, f1), (s2, f2) = intervals[i], intervals[j]
        if s1 < f2 and s2 < f1:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


def maximal_schedules(intervals, n, complete_only=False):
    """Every feasible and maximal assignment, as tuples, in no promised order.

    Chores are placed in start-time order.  Leaving a chore out is pursued
    only while some later chore could still block it for the agents that
    could take it now; the leaf test decides maximality exactly.
    """
    m = len(intervals)
    masks = conflict_masks(intervals)
    order = sorted(range(m), key=lambda c: (intervals[c][0], c))
    later = [0] * m
    seen = 0
    for c in reversed(order):
        later[c] = seen
        seen |= 1 << c
    assignment = [None] * m
    lanes = [0] * n

    def blocked(c):
        return all(masks[c] & lane for lane in lanes)

    def walk(pos):
        if pos == m:
            if all(a is not None or blocked(c) for c, a in enumerate(assignment)):
                yield tuple(assignment)
            return
        c = order[pos]
        for a in range(n):
            if not masks[c] & lanes[a]:
                assignment[c] = a
                lanes[a] |= 1 << c
                yield from walk(pos + 1)
                lanes[a] &= ~(1 << c)
        assignment[c] = None
        if not complete_only and (masks[c] & later[c] or blocked(c)):
            yield from walk(pos + 1)

    return walk(0)


def utilities(assignment, table):
    n = len(table)
    return tuple(sum(table[i][c] for c, a in enumerate(assignment) if a == i) for i in range(n))


def dominated(u, others):
    return any(
        all(x >= y for x, y in zip(v, u)) and any(x > y for x, y in zip(v, u)) for v in others
    )


def pareto_frontier(utility_vectors):
    """The distinct utility vectors no other vector dominates."""
    front = []
    for u in sorted(set(utility_vectors), key=lambda v: (-sum(v), v)):
        # A vector can only be dominated by one with a larger sum, all of
        # which are already on the frontier or dominated by a member of it.
        if not dominated(u, front):
            front.append(u)
    return front


def witness_problems(criterion, assignment, intervals, table):
    """Problems with an oracle witness for ef1, efx, ef1+po or ef1+complete."""
    n = len(table)
    problems = feasibility_problems(assignment, intervals, n)
    if problems:
        return problems
    problems = maximality_problems(assignment, intervals, n)
    problems += ef1_additive_problems(assignment, table)
    if criterion == "efx":
        problems += efx_additive_problems(assignment, table)
    elif criterion == "ef1+complete":
        problems += completeness_problems(assignment)
    elif criterion == "ef1+po":
        everyone = [utilities(s, table) for s in maximal_schedules(intervals, n)]
        if dominated(utilities(assignment, table), everyone):
            problems.append("witness is Pareto-dominated by another maximal schedule")
    return problems


def none_problems(criterion, intervals, table):
    """Problems with a "no schedule exists" answer, found by exhaustive search."""
    n = len(table)
    if criterion == "ef1+po":
        schedules = list(maximal_schedules(intervals, n))
        front = set(pareto_frontier([utilities(s, table) for s in schedules]))
        candidates = (s for s in schedules if utilities(s, table) in front)
        test = "ef1"
    else:
        candidates = maximal_schedules(intervals, n, complete_only=criterion == "ef1+complete")
        test = criterion
    for s in candidates:
        if not witness_problems(test, s, intervals, table):
            return [f"schedule {list(s)} meets {criterion}, yet the answer was none"]
    return []
