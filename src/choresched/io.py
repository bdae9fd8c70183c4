"""JSON file formats for instances and schedules.

Instance format::

    {"agents": 2,
     "chores": [{"id": 0, "start": 0, "finish": 2, "label": "optional"}, ...],
     "valuations": [[-1, -2], [-3, 0]]}

An alternative `"path": m` key replaces "chores" and generates the intervals
[j, j+2) so the conflict graph is exactly a path.  Only additive profiles are
representable; monotone oracles are an in-library construct.

Schedule format::

    {"assignment": {"0": 1, "1": null, ...}}

where keys are chore ids in plain decimal ("0", "12"; no sign, spaces,
underscores or leading zeros) and null means unassigned.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

from .core import (
    AdditiveValuations,
    Chore,
    InputError,
    Instance,
    Schedule,
    path_instance,
)

PathLike = Union[str, Path]


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    if not instance.valuations.is_additive:
        raise InputError("only additive valuation profiles are serializable")
    chores = []
    for c in instance.chores:
        entry: dict[str, Any] = {"id": c.id, "start": c.start, "finish": c.finish}
        if c.label is not None:
            entry["label"] = c.label
        chores.append(entry)
    return {
        "agents": instance.n,
        "chores": chores,
        "valuations": [list(row) for row in instance.valuations.table],
    }


def _is_int(value: Any) -> bool:
    """True for JSON integers; bool is a subclass of int but not one of them."""
    return isinstance(value, int) and not isinstance(value, bool)


def instance_from_dict(data: Any) -> Instance:
    if not isinstance(data, dict):
        raise InputError("instance file must contain a JSON object")
    if "agents" not in data:
        raise InputError("missing field 'agents'")
    n = data["agents"]
    if not _is_int(n) or n < 1:
        raise InputError("field 'agents' must be a positive integer")
    if "valuations" not in data:
        raise InputError("missing field 'valuations'")
    valuations = data["valuations"]
    if not isinstance(valuations, list) or len(valuations) != n:
        raise InputError(f"field 'valuations' must list one row per agent ({n} rows)")
    if not all(isinstance(row, list) for row in valuations):
        raise InputError("each valuation row must be a list of chore values")
    if "path" in data:
        if "chores" in data:
            raise InputError("give either 'path' or 'chores', not both")
        m = data["path"]
        if not _is_int(m) or m < 1:
            raise InputError("field 'path' must be a positive integer")
        if any(len(row) != m for row in valuations):
            raise InputError(f"each valuation row must have 'path' = {m} entries")
        return path_instance(valuations)
    if "chores" not in data:
        raise InputError("missing field 'chores' (or 'path')")
    if not isinstance(data["chores"], list):
        raise InputError("field 'chores' must be a list of chore objects")
    chores = []
    for idx, entry in enumerate(data["chores"]):
        if not isinstance(entry, dict):
            raise InputError(f"chores[{idx}] must be an object")
        for key in ("id", "start", "finish"):
            if key not in entry:
                raise InputError(f"chores[{idx}] is missing field '{key}'")
            if not _is_int(entry[key]):
                raise InputError(f"chores[{idx}].{key} must be an integer")
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise InputError(f"chores[{idx}].label must be a string or null")
        chores.append(
            Chore(id=entry["id"], start=entry["start"], finish=entry["finish"], label=label)
        )
    return Instance(n=n, chores=tuple(chores), valuations=AdditiveValuations(valuations))


def load_instance(path: PathLike) -> Instance:
    with open(path) as fh:
        data = json.load(fh)
    return instance_from_dict(data)


def save_instance(instance: Instance, path: PathLike) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    return {"assignment": {str(c): a for c, a in enumerate(schedule.assignment)}}


def schedule_from_dict(data: Any, instance: Instance) -> Schedule:
    if not isinstance(data, dict) or "assignment" not in data:
        raise InputError("schedule file must contain an object with an 'assignment' field")
    raw = data["assignment"]
    if not isinstance(raw, dict):
        raise InputError("field 'assignment' must map chore ids to agents (or null)")
    assignment: list[Any] = [None] * instance.m
    for key, value in raw.items():
        # Only the canonical spelling: int() would also read "01", "+1",
        # " 2 " and "1_0", and such an alias would override the real key.
        if not (key.isascii() and key.isdigit() and key == str(int(key))):
            raise InputError(f"assignment key {key!r} is not a chore id")
        chore = int(key)
        if not 0 <= chore < instance.m:
            raise InputError(f"assignment references unknown chore {chore}")
        if value is not None and not _is_int(value):
            raise InputError(f"assignment[{key}] must be an agent index or null")
        assignment[chore] = value
    return Schedule(instance.n, tuple(assignment))


def load_schedule(path: PathLike, instance: Instance) -> Schedule:
    with open(path) as fh:
        data = json.load(fh)
    return schedule_from_dict(data, instance)


def save_schedule(schedule: Schedule, path: PathLike) -> None:
    with open(path, "w") as fh:
        json.dump(schedule_to_dict(schedule), fh, indent=2, sort_keys=True)
        fh.write("\n")
