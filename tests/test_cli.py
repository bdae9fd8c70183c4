"""Command-line surface: exit codes, formats, golden demos."""

import json

import pytest

from choresched.cli import main
from choresched.io import load_instance, load_schedule, save_instance, save_schedule
from choresched.core import Schedule, path_instance


def write_instance(tmp_path, rows, name="instance.json"):
    path = tmp_path / name
    save_instance(path_instance(rows), path)
    return str(path)


class TestSolve:
    def test_auto_dispatch_two_agents(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[-1, -1, -1, -4]] * 2)
        out = tmp_path / "schedule.json"
        assert main(["solve", path, "--algo", "auto", "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ef1"] and payload["maximal"]
        schedule = load_schedule(out, load_instance(path))
        assert isinstance(schedule, Schedule)

    def test_dichotomous_dispatch(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[-5, -1, -5, -1, -5]] * 4)
        assert main(["solve", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ef1"] and payload["maximal"]

    def test_bounded_components_dispatch(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[-5, -1, -5]] * 3)
        assert main(["solve", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["ef1"]

    def test_no_algorithm_applies(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[-5, -1, -5], [-1, -5, -1], [-2, -2, -2]])
        assert main(["solve", path]) == 2
        assert "no algorithm applies" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["solve", "no-such-file.json"]) == 2


class TestMalformedInput:
    """Input the file format rejects exits 2 with a diagnostic, never a crash."""

    CHORES = [{"id": 0, "start": 0, "finish": 2}, {"id": 1, "start": 1, "finish": 3}]

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"agents": 2, "chores": 5, "valuations": [[], []]}, "chores"),
            ({"agents": 2, "chores": CHORES, "valuations": [5, 6]}, "row"),
            ({"agents": True, "chores": CHORES[:1], "valuations": [[-1]]}, "agents"),
            (
                {
                    "agents": 2,
                    "chores": [{"id": 0, "start": False, "finish": True}],
                    "valuations": [[-1], [-1]],
                },
                "start",
            ),
            (
                {
                    "agents": 2,
                    "chores": [{"id": 0, "start": 0, "finish": 2, "label": 7}],
                    "valuations": [[-1], [-1]],
                },
                "label",
            ),
            (
                {
                    "agents": 2,
                    "chores": [
                        {"id": 0, "start": 0, "finish": 1},
                        {"id": 0, "start": 2, "finish": 3},
                    ],
                    "valuations": [[-1, -1], [-1, -1]],
                },
                "chore id 0 appears more than once",
            ),
        ],
        ids=[
            "chores-not-a-list",
            "rows-not-lists",
            "bool-agents",
            "bool-times",
            "int-label",
            "duplicate-ids",
        ],
    )
    def test_solve_exits_two(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path)]) == 2
        assert message in capsys.readouterr().err


class TestCheck:
    def test_failing_schedule_exit_one(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path, [[-2, -10, -1, -10, -2]] * 2)
        sched_path = tmp_path / "s.json"
        save_schedule(Schedule(2, (0, None, 1, None, 0)), sched_path)
        code = main(["check", inst_path, str(sched_path), "--criterion", "ef1", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is False
        assert payload["violations"][0][:2] == [0, 1]

    def test_holding_schedule_exit_zero(self, tmp_path):
        inst_path = write_instance(tmp_path, [[-1, -1]] * 2)
        sched_path = tmp_path / "s.json"
        save_schedule(Schedule(2, (0, 1)), sched_path)
        assert main(["check", inst_path, str(sched_path), "--criterion", "ef"]) == 0
        assert main(["check", inst_path, str(sched_path), "--criterion", "maximal"]) == 0
        assert main(["check", inst_path, str(sched_path), "--criterion", "complete"]) == 0
        assert main(["check", inst_path, str(sched_path), "--criterion", "po"]) == 0
        assert main(["check", inst_path, str(sched_path), "--criterion", "efk", "--k", "0"]) == 0

    @pytest.mark.parametrize("alias, chore", [("01", 1), ("+1", 1), (" 2 ", 2), ("1_0", 10)])
    def test_aliased_chore_key_exits_two(self, tmp_path, capsys, alias, chore):
        # int() reads each alias as a chore id; accepted, it would fill the
        # chore left unassigned under its real key and the check would hold.
        inst_path = write_instance(tmp_path, [[-1] * 11] * 2)
        assignment = {str(c): c % 2 for c in range(11)}
        assignment[str(chore)] = None
        assignment[alias] = chore % 2
        sched_path = tmp_path / "s.json"
        sched_path.write_text(json.dumps({"assignment": assignment}))
        args = ["check", inst_path, str(sched_path), "--criterion", "complete", "--format", "json"]
        assert main(args) == 2
        assert f"assignment key {alias!r} is not a chore id" in capsys.readouterr().err

    def test_efk_without_k(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path, [[-1, -1]] * 2)
        sched_path = tmp_path / "s.json"
        save_schedule(Schedule(2, (0, 1)), sched_path)
        assert main(["check", inst_path, str(sched_path), "--criterion", "efk"]) == 2

    def test_malformed_json_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"agents": 2,\n  "valuations": [[-1]\n}')
        assert main(["solve", str(bad)]) == 2
        assert "line" in capsys.readouterr().err


class TestExists:
    def test_golden_none_exit_one(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[-1, -1, -1, -4]] * 2)
        assert main(["exists", path, "--criterion", "efx", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"exists": False, "witness": None}

    def test_witness_exit_zero(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[-1, -1, -1, -4]] * 2)
        assert main(["exists", path, "--criterion", "ef1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["exists"] is True


class TestEnumerateAndSequence:
    def test_enumerate_counts(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[-1]] * 2)
        assert main(["enumerate", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 2

    def test_sequence_trace(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[-1] * 6] * 2)
        assert main(["sequence", path, "--algo", "two-agent-path"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "RBRBRB initial"
        assert lines[-1].startswith("BRBRBR")

    def test_sequence_json(self, tmp_path, capsys):
        path = write_instance(tmp_path, [[-1, -1]] * 2)
        assert main(["sequence", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"][0]["colors"] == "RB"


class TestDemo:
    @pytest.mark.parametrize("name", ["efx-maximal", "ef1-po", "ef1-complete"])
    def test_nonexistence_demos(self, name, capsys):
        assert main(["demo", name, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["exists"] is False

    def test_round_robin_demo(self, capsys):
        assert main(["demo", "round-robin", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ef1"] is False
        assert payload["violations"][0][:2] == [1, 0]

    def test_envy_cycle_demo(self, capsys):
        assert main(["demo", "envy-cycle", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ef1"] is False


class TestGenerate:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            assert main([
                "generate", "--kind", "random-path", "--n", "2", "--m", "6",
                "--seed", "7", "--out", str(target),
            ]) == 0
        assert a.read_text() == b.read_text()

    def test_dichotomous_detector_passes(self, tmp_path):
        path = tmp_path / "d.json"
        assert main([
            "generate", "--kind", "random-dichotomous-path", "--n", "5", "--m", "9",
            "--seed", "3", "--out", str(path),
        ]) == 0
        inst = load_instance(path)
        assert inst.valuations.is_identical()
        assert inst.valuations.dichotomy() is not None

    def test_bounded_components_within_limit(self, tmp_path):
        path = tmp_path / "bc.json"
        assert main([
            "generate", "--kind", "bounded-components", "--n", "3", "--m", "10",
            "--seed", "5", "--out", str(path),
        ]) == 0
        inst = load_instance(path)
        assert all(len(c) <= 3 for c in inst.graph().components())

    def test_inconsistent_params_rejected(self, tmp_path, capsys):
        assert main([
            "generate", "--kind", "bounded-components", "--n", "3", "--m", "10",
            "--max-component", "5",
        ]) == 2
        assert "exceed" in capsys.readouterr().err
