"""Instance and schedule file round-trips, the one JSON writer and the sequence writer."""

import enum
import json
import re
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choresched.core import Chore, InputError, Instance, AdditiveValuations, MonotoneValuations, Schedule
from choresched.generate import random_interval_instance, random_path_instance
from choresched.io import (
    _dumps,
    _dumps_sequence,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from choresched.two_agent import ScheduleSequence, interval_sequence_ef1, path_sequence


def sample_instance():
    chores = (
        Chore(id=0, start=0, finish=2, label="wash"),
        Chore(id=1, start=1, finish=3),
        Chore(id=2, start=4, finish=6),
    )
    return Instance(2, chores, AdditiveValuations([[-1, -2, 0], [-3, -1, -1]]))


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        inst = sample_instance()
        path = tmp_path / "instance.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert instance_to_dict(loaded) == instance_to_dict(inst)

    def test_path_key_generates_intervals(self):
        data = {"agents": 2, "path": 3, "valuations": [[-1, -2, -3], [0, 0, 0]]}
        inst = instance_from_dict(data)
        assert inst.graph().is_path
        assert inst.m == 3

    def test_path_and_chores_conflict(self):
        data = {
            "agents": 1,
            "path": 2,
            "chores": [{"id": 0, "start": 0, "finish": 1}],
            "valuations": [[-1, -1]],
        }
        with pytest.raises(InputError, match="either"):
            instance_from_dict(data)

    def test_field_diagnostics(self):
        with pytest.raises(InputError, match="agents"):
            instance_from_dict({"valuations": []})
        with pytest.raises(InputError, match="valuations"):
            instance_from_dict({"agents": 2})
        with pytest.raises(InputError, match=r"chores\[0\]"):
            instance_from_dict(
                {"agents": 1, "chores": [{"id": 0, "start": 0}], "valuations": [[-1]]}
            )

    @pytest.mark.parametrize(
        "entry,missing",
        [
            ({"start": 0, "finish": 1}, "id"),
            ({"id": 0, "finish": 1}, "start"),
            ({"id": 0, "start": 0}, "finish"),
            ({"id": 0}, "start"),
            ({"id": "x", "finish": 1, "label": 5}, "start"),
        ],
    )
    def test_missing_chore_field_named_before_any_value_check(self, entry, missing):
        data = {"agents": 1, "chores": [{"id": 0, "start": 0, "finish": 1}, entry], "valuations": [[-1, -1]]}
        with pytest.raises(InputError, match=rf"^chores\[1\] is missing field '{missing}'$"):
            instance_from_dict(data)

    def test_bools_are_not_integers(self):
        with pytest.raises(InputError, match="^field 'agents' must be a positive integer$"):
            instance_from_dict({"agents": True, "path": 1, "valuations": [[-1]]})
        with pytest.raises(InputError, match="path"):
            instance_from_dict({"agents": 1, "path": True, "valuations": [[-1]]})
        with pytest.raises(InputError, match=r"chores\[0\]: chore False: id must be an integer"):
            instance_from_dict(
                {
                    "agents": 1,
                    "chores": [{"id": False, "start": 0, "finish": 1}],
                    "valuations": [[-1]],
                }
            )

    def test_labels_preserved(self, tmp_path):
        inst = sample_instance()
        path = tmp_path / "i.json"
        save_instance(inst, path)
        assert load_instance(path).chores[0].label == "wash"

    def test_every_constructible_chore_round_trips(self, tmp_path):
        # A chore the file format would reject on load cannot be built, so
        # save_instance never writes a file that load_instance refuses.
        with pytest.raises(InputError, match="chore 1: label"):
            Chore(id=1, start=1, finish=3, label=5)
        with pytest.raises(InputError, match="chore 1: start"):
            Chore(id=1, start=True, finish=3)
        chores = (Chore(id=0, start=0, finish=2, label=""), Chore(id=1, start=1, finish=3, label="5"))
        inst = Instance(2, chores, AdditiveValuations([[-1, -2], [-3, -1]]))
        path = tmp_path / "i.json"
        save_instance(inst, path)
        assert load_instance(path).chores == chores


@pytest.mark.parametrize(
    "save, rejected, text",
    [
        (
            save_instance,
            Instance(2, (Chore(0, 0, 1),), MonotoneValuations(2, 1, lambda i, b: -len(b))),
            "only additive valuation profiles are serializable",
        ),
        (save_schedule, [0, 1], "schedule must be a Schedule, got [0, 1]"),
    ],
    ids=["monotone-instance", "non-schedule"],
)
def test_a_rejected_save_leaves_the_file_as_it_was(tmp_path, save, rejected, text):
    path = tmp_path / "kept.json"
    path.write_text("previous contents\n")
    with pytest.raises(InputError, match=f"^{re.escape(text)}$"):
        save(rejected, path)
    assert path.read_text() == "previous contents\n"


class TestScheduleFiles:
    def test_round_trip(self, tmp_path):
        inst = sample_instance()
        schedule = Schedule(2, (1, None, 0))
        path = tmp_path / "schedule.json"
        save_schedule(schedule, path)
        assert load_schedule(path, inst) == schedule

    def test_null_means_unassigned(self):
        inst = sample_instance()
        schedule = schedule_from_dict(
            {"assignment": {"0": 1, "1": None, "2": 0}}, inst
        )
        assert schedule.assignment == (1, None, 0)

    def test_unknown_chore_rejected(self):
        inst = sample_instance()
        with pytest.raises(InputError, match="unknown chore"):
            schedule_from_dict({"assignment": {"7": 0}}, inst)

    def test_bool_agent_rejected(self):
        inst = sample_instance()
        with pytest.raises(InputError, match="chore 0 assigned to unknown agent True"):
            schedule_from_dict({"assignment": {"0": True}}, inst)

    def test_dict_shape(self):
        schedule = Schedule(2, (0, None))
        assert schedule_to_dict(schedule) == {"assignment": {"0": 0, "1": None}}

    def test_json_null_round_trip(self, tmp_path):
        path = tmp_path / "s.json"
        save_schedule(Schedule(2, (None, 1)), path)
        raw = json.loads(path.read_text())
        assert raw["assignment"]["0"] is None


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


class Label(str):
    pass


class Row(list):
    pass


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


# Strings mix arbitrary characters with the ones json escapes: quote,
# backslash, controls, a lone surrogate, and non-ASCII ones it writes as \u.
TEXTS = st.text(st.characters() | st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028\ud800é😀'), max_size=6)
INTS = st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
LEAVES = (
    st.none()
    | st.booleans()
    | INTS
    | st.sampled_from(Level)
    | st.floats()
    | TEXTS
    | TEXTS.map(Label)
)
# One key family per dict: json sorts the keys, and str, None and numbers do
# not compare with one another.
NUMBER_KEYS = st.integers() | st.booleans() | st.sampled_from(Level) | st.floats(allow_nan=False)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(children, max_size=3).map(Row)
        | st.dictionaries(TEXTS, children, max_size=5)
        | st.dictionaries(TEXTS.map(Label), children, max_size=3)
        | st.dictionaries(NUMBER_KEYS, children, max_size=5)
        | st.dictionaries(st.none(), children, max_size=1)
    ),
    max_leaves=30,
)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    @example({})
    @example([])
    @example(())
    @example({"a": {}, "b": [], "c": [[], {}]})
    @example({"steps": [{"assignment": {"0": 1, "1": None, "10": 0}, "colors": "RN"}]})
    @example({"k\u00e9\"\\\x01": ["v\u00e9\"\\\x01", True, None, 2**64]})
    @example({1: [0], True: 2, 2.5: {}, Level.HIGH: [Level.LOW]})
    @example({None: (1, "x", Level.LOW)})
    @example([Label("a"), Row([1, 2]), (False, -(2**65)), float("nan"), 1e300])
    def test_matches_json_dumps(self, value):
        assert _dumps(value) == reference(value)

    @pytest.mark.parametrize("value", [{(1, 2): 0}, {(1, 2): [1.5]}, {"a": object()}, [[object()]]])
    def test_unserializable_raises_type_error_like_json(self, value):
        with pytest.raises(TypeError):
            reference(value)
        with pytest.raises(TypeError):
            _dumps(value)


LETTERS = {0: "R", 1: "B", None: "N"}


def reference_colors(assignment):
    return "".join(LETTERS[a] for a in assignment)


def reference_steps(seq, m):
    """The per-step dicts the sequence writer replaces, one built from each assignment."""
    order = sorted(range(m), key=str)
    keys = [str(c) for c in order]
    return {
        "steps": [
            {
                "phase": tag,
                "colors": reference_colors(assignment),
                "assignment": dict(zip(keys, map(assignment.__getitem__, order))),
            }
            for assignment, tag in zip(seq._assignments(), seq.tags)
        ]
    }


def solver_sequences(m):
    """interval_sequence_ef1 on an interval and a path instance, and path_sequence on the path."""
    if m == 0:
        empty = Instance(2, (), AdditiveValuations([[], []]))
        return [interval_sequence_ef1(empty), path_sequence(empty)]
    path = random_path_instance(Random(m), 2, m)
    return [
        interval_sequence_ef1(random_interval_instance(Random(m), 2, m)),
        interval_sequence_ef1(path),
        path_sequence(path),
    ]


def repeated_step_sequence():
    """Explicit steps over 12 chores (ids 10 and 11 sort before 2) with two empty deltas."""
    a = Schedule(2, (0, 1, None, 0, 1, None, 0, 1, None, 0, 1, None))
    b = Schedule(2, (0, 1, None, 0, 1, None, 0, 1, None, 0, None, 1))
    c = Schedule(2, (1, 0, None, 0, 1, None, 0, 1, None, 1, 0, None))
    return ScheduleSequence([a, a, b, b, c], ["initial", "again", "b", 'b "\\é', "c"])


# The key order of the ids is str order: from m = 11 on, "10" sorts before
# "2", and from m = 101 on, "100" sorts between "10" and "11".
@pytest.mark.parametrize("m", [0, 1, 2, 9, 10, 11, 99, 100, 101, 250])
def test_sequence_writer_matches_the_per_step_dicts(m):
    for seq in solver_sequences(m):
        assert "".join(_dumps_sequence(seq)) == _dumps(reference_steps(seq, m))


def test_sequence_writer_keeps_empty_deltas_and_empty_assignments():
    seq = repeated_step_sequence()
    assert () in seq.deltas
    assert "".join(_dumps_sequence(seq)) == _dumps(reference_steps(seq, 12))
    empty = ScheduleSequence([Schedule(2, ())] * 2, ["initial", "again"])
    assert "".join(_dumps_sequence(empty)) == _dumps(reference_steps(empty, 0))
    assert '"assignment": {}' in "".join(_dumps_sequence(empty))


@pytest.mark.parametrize("m", [0, 1, 11, 101])
def test_trace_lines_match_a_rendering_of_each_step(m):
    for seq in solver_sequences(m) + [repeated_step_sequence()]:
        assert seq.trace_lines() == [
            reference_colors(assignment) + " " + tag
            for assignment, tag in zip(seq._assignments(), seq.tags)
        ]
