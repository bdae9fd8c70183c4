"""Golden output: digests of the CLI's stdout on fixed corpora.

Any change to what `solve` or `sequence` prints for two agents (a different
schedule, step, tag, trace letter or JSON layout) changes the first digest;
any change to what `solve` prints for the n-agent solvers changes the second;
any change to what a `demo`, a `generate` kind or a `solve --algo` choice
prints, or to its exit code, changes the third; and any change to what
`check`, `exists` or `enumerate` prints, or to its exit code, changes the
fourth.  The fifth covers two-agent outputs the CLI cannot reach: the
chore classification, the support flags of every sequence step, the EF2
shift sequence with its completion hints, and the solve under monotone
profiles.  A refactor that keeps the output byte-identical leaves them alone.
If the output is meant to change, the change must say so and record the new
digest.
"""

import hashlib
import random

from choresched.cli import _DEMOS, main
from choresched.core import AdditiveValuations, Chore, Instance, MonotoneValuations, path_instance
from choresched.generate import (
    random_bounded_components_instance,
    random_dichotomous_path_instance,
    random_interval_instance,
    random_path_instance,
)
from choresched.io import load_instance, save_instance, save_schedule
from choresched.oracle import CRITERIA, demo_round_robin
from choresched.two_agent import (
    classify_chores,
    classify_supported,
    interval_sequence_ef1,
    interval_sequence_ef2,
    solve_two_agents,
)

GOLDEN_SHA256 = "1c318f6e517c9e48111d17d4effab97df1a83e4bce5d216bf147bddbfeafc94e"
N_AGENT_GOLDEN_SHA256 = "2a2df9b2040aeb7377a0f8deab81b34ba66ce0184b8168cd018d6be3ec74f19a"
CHOICES_GOLDEN_SHA256 = "f675ac0581733828c0b8e92a872bf0ae5ebd2a454f93c51df21df4a6b53bd451"
QUERIES_GOLDEN_SHA256 = "187edf722c576b0874152c7fad34ccf3006677763846fbf4d966cdb1f1f03b57"
INTERNALS_GOLDEN_SHA256 = "4697fc4121c383bbed56579dae6628b9ad3d855ebdf19937abb0e4f6d58e2d3f"

DEMOS = ("efx-maximal", "ef1-po", "ef1-complete", "round-robin", "envy-cycle")
KINDS = ("random-intervals", "random-path", "random-dichotomous-path", "bounded-components")


def disjoint_paths_instance(rng: random.Random, m: int) -> Instance:
    """Path components of random lengths, apart on the timeline, ids shuffled."""
    spans = []
    base = 0
    while len(spans) < m:
        length = min(rng.randint(1, 8), m - len(spans))
        spans += [(base + j, base + j + 2) for j in range(length)]
        base += length + 3
    rng.shuffle(spans)
    chores = tuple(Chore(id=i, start=s, finish=f) for i, (s, f) in enumerate(spans))
    table = [[rng.randint(-10, 0) for _ in range(m)] for _ in range(2)]
    return Instance(2, chores, AdditiveValuations(table))


# The phase-2 cases (iii b) and (iii c) are rare in random instances; these
# two drive them (see TestRarePhase2Cases in test_two_agent.py).
RARE_CASE_INTERVALS = [
    [(1, 5), (5, 9), (0, 1), (0, 2), (4, 9), (2, 4)],
    [(4, 7), (5, 6), (1, 4), (7, 9), (2, 6), (6, 10), (1, 5)],
]
PHASE_TAGS = {
    "initial",
    "phase2-case-i",
    "phase2-case-ii",
    "phase2-case-iiia",
    "phase2-case-iiib",
    "phase2-case-iiic",
    "phase3",
    "path-shift",
}


def golden_corpus() -> list[tuple[Instance, tuple[str, ...]]]:
    """(instance, algorithms) pairs; path runs only where the graph allows them."""
    rng = random.Random(5150)
    corpus = []
    for intervals in RARE_CASE_INTERVALS:
        chores = tuple(Chore(id=i, start=s, finish=f) for i, (s, f) in enumerate(intervals))
        table = [[rng.randint(-10, 0) for _ in chores] for _ in range(2)]
        corpus.append((Instance(2, chores, AdditiveValuations(table)), ("two-agent-interval",)))
    for _ in range(60):
        inst = random_interval_instance(rng, 2, rng.randint(1, 40))
        corpus.append((inst, ("two-agent-interval",)))
    for _ in range(30):
        # Long chores in a short window: nested, unmarked-rich shapes.
        m = rng.randint(1, 40)
        inst = random_interval_instance(rng, 2, m, max_len=8, window=m)
        corpus.append((inst, ("two-agent-interval",)))
    for _ in range(30):
        inst = disjoint_paths_instance(rng, rng.randint(1, 40))
        corpus.append((inst, ("two-agent-interval", "two-agent-path")))
    return corpus


def test_two_agent_cli_output_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    tags = set()
    for index, (inst, algorithms) in enumerate(golden_corpus()):
        path = tmp_path / f"instance{index}.json"
        save_instance(inst, path)
        for algo in algorithms:
            for argv in (
                ["solve", str(path), "--algo", algo, "--format", "json"],
                ["sequence", str(path), "--algo", algo, "--format", "json"],
                ["sequence", str(path), "--algo", algo],
            ):
                code = main(argv)
                label = " ".join([argv[0], *argv[2:]])
                digest.update(f"{index} {label} exit {code}\n".encode())
                out = capsys.readouterr().out
                digest.update(out.encode())
                if argv[-1] == algo:
                    tags.update(line.split(" ")[1] for line in out.splitlines())
    assert tags == PHASE_TAGS
    assert digest.hexdigest() == GOLDEN_SHA256


def n_agent_golden_corpus() -> list[Instance]:
    """Dichotomous paths at n = 4, 5, 6, 7 and 9 and bounded-component instances.

    The odd-n paths reach the triple meta agent's split, the larger ones
    with many path components inside its bundle.
    """
    rng = random.Random(2121)
    corpus = []
    for n in (4, 5, 6, 7, 9):
        for m in [rng.randint(2, 40) for _ in range(12)] + [150, 400]:
            corpus.append(random_dichotomous_path_instance(rng, n, m))
    for n in (3, 4, 7):
        for _ in range(10):
            corpus.append(random_bounded_components_instance(rng, n, rng.randint(1, 60)))
    return corpus


def test_n_agent_cli_output_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    for index, inst in enumerate(n_agent_golden_corpus()):
        path = tmp_path / f"instance{index}.json"
        save_instance(inst, path)
        code = main(["solve", str(path), "--format", "json"])
        digest.update(f"{index} exit {code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == N_AGENT_GOLDEN_SHA256


def test_cli_choices_output_digest(tmp_path, capsys):
    """Every demo in both formats, every generate kind and every solve algorithm."""
    runs = [["demo", name, "--format", fmt] for name in DEMOS for fmt in ("text", "json")]
    runs += [["generate", "--kind", kind, "--n", "4", "--m", "9", "--seed", "3"] for kind in KINDS]
    rng = random.Random(3)
    for algo, inst in (
        ("auto", random_interval_instance(rng, 2, 9)),
        ("two-agent-interval", random_interval_instance(rng, 2, 9)),
        ("two-agent-path", random_path_instance(rng, 2, 9)),
        ("dichotomous-path", random_dichotomous_path_instance(rng, 5, 9)),
        ("bounded-components", random_bounded_components_instance(rng, 4, 9)),
    ):
        path = tmp_path / f"{algo}.json"
        save_instance(inst, path)
        runs.append(["solve", str(path), "--algo", algo, "--format", "json"])
    digest = hashlib.sha256()
    for argv in runs:
        code = main(argv)
        label = " ".join(arg for arg in argv if not arg.startswith(str(tmp_path)))
        digest.update(f"{label} exit {code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == CHOICES_GOLDEN_SHA256


def test_cli_queries_output_digest(tmp_path, capsys):
    """check, exists and enumerate on the demo paths and three small interval
    instances: every check criterion on the solved schedule, where one is
    solved, and on the round-robin schedule, non-EF1 on its own demo path."""
    instances = [path_instance([values, values]) for values, _, _ in _DEMOS.values()]
    for seed in ("1", "2", "3"):
        out = tmp_path / f"intervals{seed}.json"
        kind = ["--kind", "random-intervals", "--n", "3", "--m", "7"]
        main(["generate", *kind, "--seed", seed, "--out", str(out)])
        instances.append(load_instance(out))

    def criterion_args(criterion):
        return ["--criterion", criterion, *(["--k", "1"] if criterion == "efk" else [])]

    formats = ("text", "json")
    runs = []
    for index, inst in enumerate(instances):
        path = str(tmp_path / f"instance{index}.json")
        save_instance(inst, path)
        solved = str(tmp_path / f"solved{index}.json")
        schedules = [solved] if main(["solve", path, "--out", solved]) == 0 else []
        robin = str(tmp_path / f"robin{index}.json")
        save_schedule(demo_round_robin(inst)[0], robin)
        schedules.append(robin)
        for schedule in schedules:
            for criterion in ("ef", "ef1", "efx", "efk", "maximal", "complete", "po"):
                args = ["check", path, schedule, *criterion_args(criterion), "--format"]
                runs += [[*args, fmt] for fmt in formats]
        for criterion in CRITERIA:
            args = ["exists", path, *criterion_args(criterion), "--format"]
            runs += [[*args, fmt] for fmt in formats]
        runs += [["enumerate", path, "--format", fmt] for fmt in formats]
    capsys.readouterr()
    digest = hashlib.sha256()
    for argv in runs:
        code = main(argv)
        label = " ".join(arg.removeprefix(str(tmp_path)) for arg in argv)
        digest.update(f"{label} exit {code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == QUERIES_GOLDEN_SHA256


def monotone_profiles(rng: random.Random, m: int) -> list[MonotoneValuations]:
    """Two monotone families over one random cost table: the costliest chore,
    and the squared total cost."""
    w = [[rng.randint(0, 10) for _ in range(m)] for _ in range(2)]
    return [
        MonotoneValuations(2, m, lambda i, b: -max((w[i][c] for c in b), default=0)),
        MonotoneValuations(2, m, lambda i, b: -sum(w[i][c] for c in b) ** 2),
    ]


def test_two_agent_internals_digest():
    """On the two-agent golden corpus and three instances at m = 150 (random,
    nested, unmarked-rich): classify_chores' fields, the support flags of
    every step of both interval sequences, the EF2 steps and hints, and
    solve_two_agents under both monotone families."""
    rng = random.Random(6262)
    corpus = [inst for inst, _ in golden_corpus()]
    corpus += [
        random_interval_instance(rng, 2, 150),
        random_interval_instance(rng, 2, 150, max_len=8, window=150),
        random_interval_instance(rng, 2, 150, max_len=300, window=75),
    ]
    digest = hashlib.sha256()

    def record(label, value):
        digest.update(f"{label} {value!r}\n".encode())

    for index, inst in enumerate(corpus):
        cls = classify_chores(inst.chores)
        record(index, (cls.order, sorted(cls.rank.items()), cls.marked, sorted(cls.unmarked)))
        record(index, (sorted(cls.bucket_of.items()), sorted(cls.buckets.items()), sorted(cls.source_color.items())))
        ef2, hints = interval_sequence_ef2(inst)
        record(f"{index} ef2", (ef2.trace_lines(), hints))
        for name, seq in (("ef1", interval_sequence_ef1(inst)), ("ef2", ef2)):
            for t, step in enumerate(seq.steps):
                record(f"{index} {name} {t} supported", sorted(classify_supported(step, cls).items()))
        for family, profile in enumerate(monotone_profiles(rng, inst.m)):
            schedule = solve_two_agents(Instance(2, inst.chores, profile))
            record(f"{index} monotone {family}", schedule.assignment)
    assert digest.hexdigest() == INTERNALS_GOLDEN_SHA256
