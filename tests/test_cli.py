"""Command-line surface: exit codes, formats, golden demos."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from choresched import cli
from choresched.cli import main
from choresched.io import _dumps, load_instance, load_schedule, save_instance, save_schedule, schedule_to_dict
from choresched.core import (
    AdditiveValuations,
    Chore,
    Instance,
    InternalInvariantError,
    MonotoneValuations,
    Schedule,
    path_instance,
)
from choresched.generate import random_interval_instance
from choresched.oracle import enumerate_maximal
from choresched.two_agent import _SequenceBuilder, interval_sequence_ef1
from conftest import independent_additive_failures
from test_io import reference_colors, reference_steps


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

    def test_auto_runs_dichotomous_path_on_a_long_one_valued_path(self, tmp_path, capsys):
        # One component of 40 chores, which bounded-components would reject.
        path = str(tmp_path / "uniform.json")
        args = ["--kind", "random-path", "--n", "5", "--m", "40", "--vmin", "-3", "--vmax", "-3"]
        assert main(["generate", *args, "--out", path]) == 0
        capsys.readouterr()
        outputs = []
        for algo in ("auto", "dichotomous-path"):
            out = tmp_path / f"{algo}.json"
            assert main(["solve", path, "--algo", algo, "--out", str(out)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""
        for criterion in ("ef1", "maximal", "complete"):
            assert main(["check", path, str(out), "--criterion", criterion]) == 0

    @pytest.mark.parametrize("value", [0, -3])
    def test_auto_on_one_valued_paths(self, tmp_path, capsys, value):
        # The round robin takes every one-valued path with n >= 4; auto gives
        # those of at most n chores to bounded-components, whose schedules
        # the n-agent golden digest pins and which differ from the round
        # robin's on some of them.
        path = str(tmp_path / "instance.json")
        for n in range(4, 12):
            for m in range(1, 3 * n + 1):
                save_instance(path_instance([[value] * m] * n), path)
                outputs = []
                for algo in ("auto", "dichotomous-path" if m > n else "bounded-components"):
                    assert main(["solve", path, "--algo", algo, "--format", "json"]) == 0, (n, m)
                    outputs.append(capsys.readouterr().out)
                assert outputs[0] == outputs[1], (n, m)

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

    @pytest.mark.parametrize(
        "kind, m, code",
        [("random-dichotomous-path", 30, 2), ("bounded-components", 300, 0)],
        ids=["oversized-component", "components-fit"],
    )
    def test_auto_leaves_identical_instances_to_bounded_components(
        self, tmp_path, capsys, kind, m, code
    ):
        # Three agents, identical values: the dichotomous-path rule needs
        # n >= 4, so auto runs bounded-components, whose own check rejects a
        # component of more than n chores.
        path = str(tmp_path / "instance.json")
        args = ["--kind", kind, "--n", "3", "--m", str(m), "--seed", "1", "--out", path]
        assert main(["generate", *args]) == 0
        capsys.readouterr()
        outputs = []
        for algo in ("auto", "bounded-components"):
            assert main(["solve", path, "--algo", algo, "--format", "json"]) == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        if code == 2:
            message = f"component of chore 0 has {m} chores; at most n = 3 allowed"
            assert outputs[0].err == f"error: {message}\n"

    def test_oversized_component_error_is_short(self, tmp_path, capsys):
        # The component is named by its smallest chore, not by its 10,000 ids.
        path = str(tmp_path / "path.json")
        args = ["--kind", "random-dichotomous-path", "--n", "3", "--m", "10000", "--seed", "1"]
        assert main(["generate", *args, "--out", path]) == 0
        capsys.readouterr()
        assert main(["solve", path, "--algo", "bounded-components"]) == 2
        err = capsys.readouterr().err
        assert "component of chore 0 has 10000 chores; at most n = 3 allowed" in err
        assert len(err.encode()) < 200

    @pytest.mark.parametrize(
        "algo, kind, n",
        [
            ("two-agent-interval", "random-intervals", 2),
            ("two-agent-path", "random-path", 2),
            ("dichotomous-path", "random-dichotomous-path", 4),
            ("dichotomous-path", "random-dichotomous-path", 5),
            ("bounded-components", "bounded-components", 6),
        ],
    )
    def test_printed_schedule_passes_the_independent_checker(self, tmp_path, capsys, algo, kind, n):
        # solve reports ef1 and maximal without checking the schedule again;
        # conftest's checker shares no code with the library.
        path = str(tmp_path / "instance.json")
        args = ["--kind", kind, "--n", str(n), "--m", "300", "--seed", "1", "--out", path]
        assert main(["generate", *args]) == 0
        capsys.readouterr()
        assert main(["solve", path, "--algo", algo, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ef1"] is True and payload["maximal"] is True
        instance = load_instance(path)
        assignment = payload["schedule"]["assignment"]
        schedule = Schedule(n, tuple(assignment[str(c)] for c in range(instance.m)))
        assert independent_additive_failures(instance, schedule, complete=n > 2) == []


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
            ([], "instance file must contain a JSON object"),
            (
                {"agents": 2, "path": 2, "valuations": [[-1, -1]]},
                "field 'valuations' must list one row per agent (2 rows)",
            ),
            (
                {"agents": 2, "path": 2, "valuations": [[-1, -1], [-1]]},
                "each valuation row must have 'path' = 2 entries",
            ),
            ({"agents": 2, "valuations": [[-1], [-1]]}, "missing field 'chores' (or 'path')"),
            (
                {"agents": 2, "chores": [CHORES[0], 5], "valuations": [[-1, -1], [-1, -1]]},
                "chores[1] must be an object",
            ),
        ],
        ids=[
            "chores-not-a-list",
            "rows-not-lists",
            "bool-agents",
            "bool-times",
            "int-label",
            "duplicate-ids",
            "not-an-object",
            "row-count",
            "path-row-length",
            "no-chores",
            "chore-not-an-object",
        ],
    )
    def test_solve_exits_two(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "schedule file must contain an object with an 'assignment' field"),
            ({"agents": [0, 1]}, "schedule file must contain an object with an 'assignment' field"),
            ({"assignment": [0, 1]}, "field 'assignment' must map chore ids to agents (or null)"),
        ],
        ids=["not-an-object", "no-assignment", "assignment-not-an-object"],
    )
    def test_check_rejects_the_schedule_file(self, tmp_path, capsys, data, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", write_instance(tmp_path, [[-1, -1]] * 2), str(bad)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_repeated_instance_key_exits_two(self, tmp_path, capsys):
        # Read as its last value, the key would make a valid two-agent instance.
        path = tmp_path / "bad.json"
        path.write_text('{"agents": 3, "agents": 2, "path": 2, "valuations": [[-1, -1], [-1, -1]]}')
        assert main(["solve", str(path)]) == 2
        assert "key 'agents' appears more than once" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [(b"\xff\xfe{", "not UTF-8 text"), (b"[" * 100_000, "nested too deeply")],
        ids=["invalid-utf8", "deep-nesting"],
    )
    @pytest.mark.parametrize("role", ["instance", "schedule"])
    def test_unreadable_file_exits_two(self, tmp_path, capsys, text, message, role):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        if role == "instance":
            argv = ["solve", str(bad)]
        else:
            argv = ["check", write_instance(tmp_path, [[-1, -1]] * 2), str(bad)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_repeated_schedule_key_exits_two(self, tmp_path, capsys):
        # Read as its last value, chore 1 would be assigned and the check hold.
        inst_path = write_instance(tmp_path, [[-1] * 3] * 2)
        sched_path = tmp_path / "s.json"
        sched_path.write_text('{"assignment": {"0": 0, "1": null, "2": 0, "1": 1}}')
        args = ["check", inst_path, str(sched_path), "--criterion", "complete", "--format", "json"]
        assert main(args) == 2
        assert "key '1' appears more than once" in capsys.readouterr().err


class TestUnexpectedError:
    @pytest.mark.parametrize(
        "exc, message",
        [
            (RuntimeError("solver fell over"), "internal error: RuntimeError: solver fell over"),
            (InternalInvariantError("step 3 is infeasible"), "internal invariant violation: step 3 is infeasible"),
        ],
        ids=["runtime-error", "internal-invariant-error"],
    )
    def test_any_other_exception_exits_three(self, tmp_path, capsys, monkeypatch, exc, message):
        # Exit 1 means "criterion fails": a crash must not read as one.
        def broken(instance):
            raise exc

        monkeypatch.setattr(cli, "solve_two_agents", broken)
        assert main(["solve", write_instance(tmp_path, [[-1, -1]] * 2)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == message + "\n"

    def test_a_trap_mid_sequence_prints_nothing(self, tmp_path, capsys, monkeypatch):
        # The trace streams, but only once the whole sequence is built and checked.
        emit, tags = _SequenceBuilder.emit, []

        def trapped(self, tag):
            tags.append(tag)
            if len(tags) == 5:
                raise InternalInvariantError("step 5 broke adjacency")
            emit(self, tag)

        monkeypatch.setattr(_SequenceBuilder, "emit", trapped)
        path = tmp_path / "instance.json"
        save_instance(random_interval_instance(random.Random(1), 2, 50), path)
        assert main(["sequence", str(path), "--format", "json"]) == 3
        assert capsys.readouterr() == ("", "internal invariant violation: step 5 broke adjacency\n")


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

    @pytest.mark.parametrize("criterion", ["complete", "ef", "ef1", "efx", "maximal", "po"])
    def test_infeasible_schedule_exits_two(self, tmp_path, capsys, criterion):
        # Chores 0 and 1 overlap, and agent 0 holds both.
        inst_path = write_instance(tmp_path, [[-1] * 3] * 2)
        sched_path = tmp_path / "s.json"
        sched_path.write_text(json.dumps({"assignment": {"0": 0, "1": 0, "2": 1}}))
        assert main(["check", inst_path, str(sched_path), "--criterion", criterion]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "feasible" in err
        if criterion not in ("maximal", "po"):
            assert err == "error: schedule is infeasible for the instance's conflict graph\n"

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


class TestClosedStdout:
    """A reader that closes stdout (say, `| head -c 100`) is no input error:
    the command prints nothing to stderr and exits with its own code."""

    @staticmethod
    def run_into_a_closed_pipe(argv):
        # The read end closes before the command starts, so its first write,
        # whether inside print or in the flush at exit, meets EPIPE.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        try:
            return subprocess.run(
                [sys.executable, "-m", "choresched.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)

    @staticmethod
    def read_then_close(argv, size=100):
        """Read the first size bytes of the command's stdout, then close it:
        the command meets EPIPE part way through its output."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        with subprocess.Popen(
            [sys.executable, "-m", "choresched.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            head = proc.stdout.read(size)
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        return head, proc.returncode, err

    def test_sequence_exits_zero(self, tmp_path):
        path = tmp_path / "big.json"
        save_instance(random_interval_instance(random.Random(1), 2, 300), path)
        done = self.run_into_a_closed_pipe(["sequence", str(path), "--format", "json"])
        assert (done.returncode, done.stderr) == (0, b"")

    def test_sequence_closed_mid_stream_exits_zero(self, tmp_path):
        # About 12 MB of trace: far more than a pipe holds before the close.
        path = tmp_path / "big.json"
        save_instance(random_interval_instance(random.Random(1), 2, 1000), path)
        head, code, err = self.read_then_close(["sequence", str(path), "--format", "json"])
        assert head.startswith(b'{\n  "steps": [\n')
        assert (code, err) == (0, b"")

    def test_enumerate_closed_mid_stream_exits_zero(self, tmp_path):
        # 1,536 maximal schedules of a 3-agent, 10-chore path, about 0.3 MB.
        path = write_instance(tmp_path, [[-1] * 10] * 3)
        head, code, err = self.read_then_close(["enumerate", path, "--format", "json"])
        assert head.startswith(b'{\n  "count": ')
        assert (code, err) == (0, b"")

    def test_exists_without_a_witness_exits_one(self, tmp_path):
        path = write_instance(tmp_path, [[-1, -1, -1, -4]] * 2)
        done = self.run_into_a_closed_pipe(["exists", path, "--criterion", "efx", "--format", "json"])
        assert (done.returncode, done.stderr) == (1, b"")

    def test_generate_exits_zero(self):
        done = self.run_into_a_closed_pipe(["generate", "--kind", "random-path", "--n", "2", "--m", "50"])
        assert (done.returncode, done.stderr) == (0, b"")


class RecordingStdout:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


class TestStreamedOutput:
    """sequence and enumerate write one chunk per step or schedule (plus the
    text before the first and after the last), and the chunks join to the one
    text that _dumps writes of the whole payload."""

    @staticmethod
    def writes(monkeypatch, argv):
        stdout = RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        return stdout.writes

    @staticmethod
    def assert_streamed(writes, expected, longest_item):
        assert "".join(writes) == expected
        assert len(writes) > 2
        # No write is longer than the longest item plus the text before the first.
        header = expected.index("{", 1) if expected.startswith("{") else 0
        assert max(map(len, writes)) <= header + longest_item

    @pytest.fixture
    def big(self, tmp_path):
        path = tmp_path / "big.json"
        save_instance(random_interval_instance(random.Random(1), 2, 300), path)
        return str(path), interval_sequence_ef1(load_instance(path))

    def test_sequence_json(self, big, monkeypatch):
        path, seq = big
        writes = self.writes(monkeypatch, ["sequence", path, "--format", "json"])
        steps = reference_steps(seq, 300)
        longest = max(len(_dumps(step, "    ")) for step in steps["steps"])
        self.assert_streamed(writes, _dumps(steps) + "\n", longest)

    def test_sequence_text(self, big, monkeypatch):
        path, seq = big
        writes = self.writes(monkeypatch, ["sequence", path])
        lines = [reference_colors(a) + " " + tag for a, tag in zip(seq._assignments(), seq.tags)]
        self.assert_streamed(writes, "\n".join(lines) + "\n", 1 + max(map(len, lines)))

    def test_enumerate_json(self, tmp_path, monkeypatch):
        path = write_instance(tmp_path, [[-1] * 8] * 2)
        writes = self.writes(monkeypatch, ["enumerate", path, "--format", "json"])
        schedules = [schedule_to_dict(s) for s in enumerate_maximal(load_instance(path))]
        longest = max(len(_dumps(s, "    ")) for s in schedules)
        self.assert_streamed(writes, _dumps({"count": len(schedules), "schedules": schedules}) + "\n", longest)


class TestParserReuse:
    def test_mixed_calls_match_a_fresh_parser_each(self, tmp_path, capsys, monkeypatch):
        # One process, one parser: no value of one call may reach the next.
        path = write_instance(tmp_path, [[-2, -10, -1, -10, -2]] * 2)
        schedule = str(tmp_path / "schedule.json")
        calls = [
            ["exists", path, "--criterion", "nope"],
            ["exists", path, "--criterion", "efk", "--k", "1"],
            ["exists", path, "--criterion", "efk"],
            ["solve", path, "--out", schedule],
            ["check", path, schedule, "--criterion", "po"],
            ["--help"],
        ]

        def run_all():
            results = []
            for argv in calls:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        assert cli.build_parser() is cli.build_parser()
        reused = run_all()
        # No EF1 schedule of this path is Pareto optimal, so the check fails.
        assert [code for code, *_ in reused] == [2, 0, 2, 0, 1, 0]
        assert "{solve,check,exists,enumerate,sequence,demo,generate}" in reused[-1][1]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert run_all() == reused


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

    @pytest.mark.parametrize(
        "args, message",
        [
            ("random-intervals --n 2 --m 0", "need at least one chore"),
            (
                "random-dichotomous-path --n 4 --m 5 --vmin -1",
                "need vmin <= -2 to fit two distinct non-positive values",
            ),
            ("random-dichotomous-path --n 4 --m 1", "need at least two chores for two distinct values"),
            ("bounded-components --n 3 --m 0", "need at least one chore"),
            ("bounded-components --n 3 --m 5 --max-component 0", "need max_component >= 1"),
            ("random-path --n 2 --m 3 --vmax 1", "chore values are non-positive; need vmax <= 0"),
            ("random-path --n 2 --m 3 --vmin -1 --vmax -2", "need vmin <= vmax"),
        ],
        ids=[
            "intervals-no-chores",
            "dichotomous-vmin",
            "dichotomous-one-chore",
            "components-no-chores",
            "components-max-zero",
            "positive-vmax",
            "vmin-above-vmax",
        ],
    )
    def test_rejected_parameters_exit_two_with_their_message(self, capsys, args, message):
        assert main(["generate", "--kind", *args.split()]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_a_monotone_instance_exits_two(self, tmp_path, capsys, monkeypatch):
        chores = path_instance([[-1, -1]] * 2).chores
        monotone = Instance(2, chores, MonotoneValuations(2, 2, lambda i, b: -len(b)))
        monkeypatch.setitem(cli._GENERATORS, "random-path", lambda rng, args: monotone)
        out = tmp_path / "instance.json"
        assert main(["generate", "--kind", "random-path", "--n", "2", "--m", "2", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: only additive valuation profiles are serializable\n")


def assert_canonical_layout(text):
    """Every JSON text written is json.dumps(..., indent=2, sort_keys=True) plus a newline."""
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestJsonLayout:
    @pytest.fixture
    def files(self, tmp_path):
        # Labels with a quote, a backslash, a control and non-ASCII characters;
        # the schedule is neither envy-free nor maximal, so the check lists
        # violations and exits 1.
        chores = (
            Chore(id=0, start=0, finish=2, label='w\u00e4sche "Q" \\ \x01'),
            Chore(id=1, start=1, finish=3),
            Chore(id=2, start=4, finish=6, label="\u6d17"),
            Chore(id=3, start=5, finish=9),
        )
        instance = Instance(2, chores, AdditiveValuations([[-1, -2, 0, -4], [-3, -1, -1, -2]]))
        paths = {name: tmp_path / f"{name}.json" for name in ("instance", "schedule", "path")}
        save_instance(instance, paths["instance"])
        save_schedule(Schedule(2, (1, None, 1, 0)), paths["schedule"])
        save_instance(path_instance([[-1, -2, -1, -3, -2]] * 2), paths["path"])
        return {name: str(path) for name, path in paths.items()}

    def test_saved_files(self, files):
        for path in files.values():
            with open(path) as fh:
                assert_canonical_layout(fh.read())

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{instance}"],
            ["solve", "{path}", "--algo", "two-agent-path"],
            ["check", "{instance}", "{schedule}", "--criterion", "ef"],
            ["check", "{instance}", "{schedule}", "--criterion", "maximal"],
            ["exists", "{instance}", "--criterion", "efx"],
            ["exists", "{path}", "--criterion", "ef1+po"],
            ["enumerate", "{instance}"],
            ["sequence", "{instance}"],
            ["sequence", "{path}", "--algo", "two-agent-path"],
            ["demo", "efx-maximal"],
            ["demo", "round-robin"],
            ["demo", "envy-cycle"],
        ],
    )
    def test_stdout(self, files, capsys, argv):
        assert main([a.format(**files) for a in argv] + ["--format", "json"]) in (0, 1)
        assert_canonical_layout(capsys.readouterr().out)

    def test_generate_stdout_and_out_files(self, tmp_path, capsys):
        argv = ["generate", "--kind", "bounded-components", "--n", "3", "--m", "12", "--seed", "2"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert_canonical_layout(printed)
        out = tmp_path / "generated.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == printed
        schedule = tmp_path / "solved.json"
        assert main(["solve", str(out), "--out", str(schedule)]) == 0
        assert_canonical_layout(schedule.read_text())
