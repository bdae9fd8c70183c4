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

The readers check the file's structure: JSON types, required fields, keys.
Chore and Schedule judge the field values themselves (integer ids and times,
agent indices in range), and an instance file's error names the chore entry.

Every JSON text the package writes (files and CLI output) is byte for byte
what json.dumps returns with an indent of 2 and sort_keys=True.  It comes from
_dumps, except the two outputs that grow large, which come as one chunk per
list item so that the CLI prints each chunk as it is built: _dumps_sequence
writes the `sequence` trace straight from the step deltas, and
_dumps_schedules writes `enumerate` one schedule at a time.  Three checks
hold the trace to _dumps of the step objects: the golden digest, a reference
test that builds those objects, and CI's json.tool round trip of an
m = 1000 trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, Union

from .core import (
    AdditiveValuations,
    Chore,
    InputError,
    Instance,
    Schedule,
    _require_schedule,
    path_instance,
)
from .two_agent import ScheduleSequence

PathLike = Union[str, Path]

# Value types sent to the C encoder, which writes them as the indenting
# (pure-Python) encoder does.
_FLAT = frozenset((str, int, bool, type(None)))
# A two-agent schedule's agents as json writes them.
_AGENT = {0: "0", 1: "1", None: "null"}


def _dumps(obj: Any, indent: str = "") -> str:
    """json.dumps(obj) with an indent of 2 and sort_keys=True, mostly encoded in C.

    An indent sends json's own encoding to pure Python.  A dict, list or tuple
    whose values all have a type in _FLAT is encoded instead by one call to
    the C encoder, whose item separator carries the newline and the indent.
    Any other container (nested values, subclasses) is walked here one level
    at a time, keys sorted and converted as json does.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    is_dict = isinstance(obj, dict)
    if type(obj) in (dict, list, tuple) and _FLAT.issuperset(
        map(type, obj.values() if is_dict else obj)
    ):
        body = json.dumps(obj, sort_keys=True, separators=(sep, ": "))[1:-1]
    elif is_dict:
        body = sep.join(f"{_key(k)}: {_dumps(v, inner)}" for k, v in sorted(obj.items()))
    else:
        body = sep.join(_dumps(v, inner) for v in obj)
    left, right = "{}" if is_dict else "[]"
    return f"{left}\n{inner}{body}\n{indent}{right}"


def _dumps_last_list(head: str, items: Iterable[str]) -> Iterator[str]:
    """_dumps of an object whose last value is a non-empty list, one chunk per
    item plus a closing chunk.  head is the object's text from "{" to that
    list's key and ": ", and each item its element's text at an indent of four.
    """
    separator = head + "[\n    "
    for item in items:
        yield separator + item
        separator = ",\n    "
    yield "\n  ]\n}"


def _dumps_sequence(sequence: ScheduleSequence) -> Iterator[str]:
    """_dumps of {"steps": [...]}, one {"assignment", "colors", "phase"} object
    per step, written as one chunk per step.

    It is written from the sequence's initial schedule and step deltas.  One
    '"<id>": <agent>' fragment per chore is kept in sorted key order, the
    fragments of the chores in a step's delta are rewritten, and each step's
    assignment is one join of the fragments at the fixed indent.  The colors
    hold only the letters R, B and N, so they need no escaping, and each
    distinct phase tag is encoded once.
    """
    m = sequence.initial.m
    order = sorted(range(m), key=str)
    slot = {c: position for position, c in enumerate(order)}
    keys = [json.dumps(str(c)) + ": " for c in order]
    initial = sequence.initial.assignment
    fragments = [key + _AGENT[initial[c]] for key, c in zip(keys, order)]
    sep = ",\n        "
    # With no chores the fragments join to "", and the assignment reads {}.
    opening = '{\n      "assignment": {' + ("\n        " if m else "")
    colors_key = ("\n      }" if m else "}") + ',\n      "colors": "'
    phases = {tag: '",\n      "phase": ' + json.dumps(tag) + "\n    }" for tag in set(sequence.tags)}

    def steps() -> Iterator[str]:
        for colors, tag, delta in zip(sequence._colors(), sequence.tags, ((),) + sequence.deltas):
            for c, agent in delta:
                position = slot[c]
                fragments[position] = keys[position] + _AGENT[agent]
            yield "".join((opening, sep.join(fragments), colors_key, colors, phases[tag]))

    return _dumps_last_list('{\n  "steps": ', steps())


def _dumps_schedules(schedules: Sequence[Schedule]) -> Iterator[str]:
    """_dumps of {"count": ..., "schedules": [...]} for one or more schedules,
    one chunk per schedule."""
    return _dumps_last_list(
        '{\n  "count": ' + str(len(schedules)) + ',\n  "schedules": ',
        (_dumps(schedule_to_dict(s), "    ") for s in schedules),
    )


def _key(key: Any) -> str:
    """A dict key as json writes it: a str, or a float, bool, None or int as text."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)
    return json.dumps(key)


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
        try:
            chore = Chore(entry["id"], entry["start"], entry["finish"], entry.get("label"))
        except KeyError as exc:
            raise InputError(f"chores[{idx}] is missing field '{exc.args[0]}'") from None
        except InputError as exc:
            raise InputError(f"chores[{idx}]: {exc}") from None
        chores.append(chore)
    return Instance(n=n, chores=tuple(chores), valuations=AdditiveValuations(valuations))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """json object_pairs_hook: a repeated key is an error, not a silent override.

    The pairs are walked only when a key repeats, to name the first one.
    """
    data = dict(pairs)
    if len(data) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise InputError(f"key {key!r} appears more than once in one JSON object")
            seen.add(key)
    return data


def _load_json(path: PathLike) -> Any:
    """The JSON value of a UTF-8 file; bad bytes or too deep a nesting is an InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply to read") from None


def load_instance(path: PathLike) -> Instance:
    return instance_from_dict(_load_json(path))


def save_instance(instance: Instance, path: PathLike) -> None:
    text = _dumps(instance_to_dict(instance)) + "\n"  # before open: a rejection leaves the file
    with open(path, "w") as fh:
        fh.write(text)


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    _require_schedule(schedule)
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
        assignment[chore] = value
    return Schedule(instance.n, tuple(assignment))


def load_schedule(path: PathLike, instance: Instance) -> Schedule:
    return schedule_from_dict(_load_json(path), instance)


def save_schedule(schedule: Schedule, path: PathLike) -> None:
    text = _dumps(schedule_to_dict(schedule)) + "\n"  # before open: a rejection leaves the file
    with open(path, "w") as fh:
        fh.write(text)
