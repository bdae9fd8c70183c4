"""Instance and schedule file round-trips."""

import json

import pytest

from choresched.core import Chore, InputError, Instance, AdditiveValuations, Schedule
from choresched.io import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)


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

    def test_bools_are_not_integers(self):
        with pytest.raises(InputError, match="path"):
            instance_from_dict({"agents": 1, "path": True, "valuations": [[-1]]})
        with pytest.raises(InputError, match=r"chores\[0\]\.id"):
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
        with pytest.raises(InputError, match=r"assignment\[0\]"):
            schedule_from_dict({"assignment": {"0": True}}, inst)

    def test_dict_shape(self):
        schedule = Schedule(2, (0, None))
        assert schedule_to_dict(schedule) == {"assignment": {"0": 0, "1": None}}

    def test_json_null_round_trip(self, tmp_path):
        path = tmp_path / "s.json"
        save_schedule(Schedule(2, (None, 1)), path)
        raw = json.loads(path.read_text())
        assert raw["assignment"]["0"] is None
