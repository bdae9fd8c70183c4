"""Self-test of verify.py: broken outputs must be rejected, sound ones accepted.

    python3 perfbench/verify_selftest.py

Every benchmark run also calls ``failures()`` and reports itself incorrect if
the checker has gone blind to any of these faults.
"""

from __future__ import annotations

import sys

import verify

# Four chores, two agents.  0 and 1 overlap, 1 and 2 overlap, 3 stands alone.
INTERVALS = [(0, 2), (1, 3), (2, 4), (5, 6)]
TABLE = [[-1, -1, -1, -4], [-1, -1, -1, -4]]
GOOD = [0, 1, 0, 1]  # values -2 vs -5 for both agents: EF1 by removing chore 3
# Maximal steps, each bundle changing by at most one add and one removal, from
# GOOD to its bundle swap.
SOUND_TRACE = ([0, 1, 0, 1], [1, None, 0, 1], [1, 0, 1, 1], [1, 0, 1, 0])


def _trace(*assignments):
    return [("step", "".join(verify.LETTERS[a] for a in s), list(s)) for s in assignments]


def _value(agent, bundle):
    return sum(TABLE[agent][c] for c in bundle)


# (name, problems found in a sound output, problems found in a broken one)
CASES = [
    ("overlap inside one bundle",
     lambda: verify.feasibility_problems(GOOD, INTERVALS, 2),
     lambda: verify.feasibility_problems([0, 0, 1, 1], INTERVALS, 2)),
    ("insertable unassigned chore",
     lambda: verify.maximality_problems(GOOD, INTERVALS, 2),
     lambda: verify.maximality_problems([0, 1, 0, None], INTERVALS, 2)),
    ("non-EF1 split, additive",
     lambda: verify.ef1_additive_problems(GOOD, TABLE),
     lambda: verify.ef1_additive_problems([None, 0, None, 0], [[-1, -4, -1, -4]] * 2)),
    ("non-EF1 split, monotone",
     lambda: verify.ef1_monotone_problems(GOOD, _value, 2),
     lambda: verify.ef1_monotone_problems([None, 0, None, 0], lambda a, b: -4 * len(b), 2)),
    ("incomplete schedule",
     lambda: verify.completeness_problems(GOOD),
     lambda: verify.completeness_problems([0, None, 0, 1])),
    ("trace step changes two chores of one bundle",
     lambda: verify.trace_problems(_trace(*SOUND_TRACE), INTERVALS),
     lambda: verify.trace_problems(_trace([0, 1, 0, 1], [1, 0, 1, 0]), INTERVALS)),
    ("trace endpoints not swapped",
     lambda: verify.trace_problems(_trace(*SOUND_TRACE), INTERVALS),
     lambda: verify.trace_problems(_trace([0, 1, 0, 1], [0, 1, 0, 0], [0, 1, 0, 1]), INTERVALS)),
    ("trace colors disagree with the assignment",
     lambda: verify.trace_problems(_trace(*SOUND_TRACE), INTERVALS),
     lambda: verify.trace_problems(
         [(p, "RNRB" if t == 1 else c, a) for t, (p, c, a) in enumerate(_trace(*SOUND_TRACE))], INTERVALS)),
    ("wrong 'none' answer",
     lambda: verify.none_problems("efx", [(0, 2), (1, 3), (2, 4), (3, 5)], TABLE),
     lambda: verify.none_problems("ef1", INTERVALS, TABLE)),
    ("Pareto-dominated ef1+po witness",
     lambda: verify.witness_problems("ef1+po", [0, 1, 0, 1], [(0, 2), (2, 4), (4, 6), (6, 8)],
                                     [[-1, -1, -1, -1], [-1, -1, -1, -1]]),
     lambda: verify.witness_problems("ef1+po", [1, 0, 1, 0], [(0, 2), (2, 4), (4, 6), (6, 8)],
                                     [[-1, -2, -1, -2], [-2, -1, -2, -1]])),
]


def failures():
    """One message per case the checker gets wrong; empty when all hold."""
    out = []
    for name, sound, broken in CASES:
        if sound():
            out.append(f"verify self-test: sound output rejected ({name}): {sound()}")
        if not broken():
            out.append(f"verify self-test: broken output accepted ({name})")
    return out


if __name__ == "__main__":
    found = failures()
    for line in found:
        print(line)
    print(f"{len(CASES) - len(found)} of {len(CASES)} checker self-test cases hold")
    sys.exit(1 if found else 0)
