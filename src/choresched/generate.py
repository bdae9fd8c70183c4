"""Seeded random instance generators for tests and the command line.

All generators take a random.Random and are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from typing import Optional

from .core import AdditiveValuations, Chore, InputError, Instance, path_instance


def random_interval_instance(
    rng: random.Random,
    n: int,
    m: int,
    vmin: int = -10,
    vmax: int = 0,
    max_len: int = 4,
    window: Optional[int] = None,
) -> Instance:
    """Random intervals in a window of about 2m slots, values in [vmin, vmax]."""
    _check_value_range(vmin, vmax)
    if m < 1:
        raise InputError("need at least one chore")
    window = 2 * m if window is None else window
    chores = []
    for j in range(m):
        start = rng.randint(0, window)
        chores.append(Chore(id=j, start=start, finish=start + rng.randint(1, max_len)))
    table = [[rng.randint(vmin, vmax) for _ in range(m)] for _ in range(n)]
    return Instance(n=n, chores=tuple(chores), valuations=AdditiveValuations(table))


def random_path_instance(
    rng: random.Random, n: int, m: int, vmin: int = -10, vmax: int = 0
) -> Instance:
    """A path conflict graph with independent random values per agent."""
    _check_value_range(vmin, vmax)
    table = [[rng.randint(vmin, vmax) for _ in range(m)] for _ in range(n)]
    return path_instance(table)


def random_dichotomous_path_instance(
    rng: random.Random, n: int, m: int, vmin: int = -10
) -> Instance:
    """A path with identical dichotomous values; both values always occur."""
    if vmin > -2:
        raise InputError("need vmin <= -2 to fit two distinct non-positive values")
    if m < 2:
        raise InputError("need at least two chores for two distinct values")
    light = rng.randint(vmin + 1, 0)
    heavy = rng.randint(vmin, light - 1)
    row = [rng.choice((heavy, light)) for _ in range(m)]
    if len(set(row)) == 1:
        row[-1] = light if row[0] == heavy else heavy
    return path_instance([row] * n)


def random_bounded_components_instance(
    rng: random.Random,
    n: int,
    m: int,
    max_component: Optional[int] = None,
    vmin: int = -10,
    vmax: int = 0,
) -> Instance:
    """Identical values on chunks of intervals, each chunk at most max_component chores.

    Chunks are separated on the timeline, so every conflict-graph component
    stays within one chunk (it may split into smaller components).
    """
    _check_value_range(vmin, vmax)
    if m < 1:
        raise InputError("need at least one chore")
    max_component = n if max_component is None else max_component
    if max_component > n:
        raise InputError(
            f"components of up to {max_component} chores exceed the agent count {n}"
        )
    if max_component < 1:
        raise InputError("need max_component >= 1")
    chores = []
    base = 0
    while len(chores) < m:
        size = min(rng.randint(1, max_component), m - len(chores))
        for _ in range(size):
            start = base + rng.randint(0, size)
            chores.append(
                Chore(id=len(chores), start=start, finish=start + rng.randint(1, 3))
            )
        base += size + 6
    row = [rng.randint(vmin, vmax) for _ in range(m)]
    return Instance(
        n=n, chores=tuple(chores), valuations=AdditiveValuations([row] * n)
    )


def _check_value_range(vmin: int, vmax: int) -> None:
    if vmax > 0:
        raise InputError("chore values are non-positive; need vmax <= 0")
    if vmin > vmax:
        raise InputError("need vmin <= vmax")
