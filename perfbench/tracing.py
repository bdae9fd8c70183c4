"""Traced mode: spans around choresched's layer boundaries, from outside.

``Tracer.install`` replaces public functions with timing wrappers in every
module namespace that calls them (the defining module and the modules that
imported the name), and ``uninstall`` puts the originals back.  Each span
records its name, start, end and parent span; spans stay in memory, in flat
arrays, until ``write`` saves them as JSON.  ``layer_metrics`` turns the spans
of one round over the corpus into the per-layer metrics, deriving self times
by subtracting the time of each span's direct children.

Valuation queries are counted, not spanned: a monotone op makes thousands.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

from choresched import checkers, cli, core, n_agent, oracle, two_agent
from choresched import io as fileio

# (module, attribute, span name) for every wrapped call site.
SPANNED = (
    (core, "build_conflict_graph", "core.build_conflict_graph"),
    (two_agent, "build_conflict_graph", "core.build_conflict_graph"),
    (two_agent, "classify_chores", "two_agent.classify_chores"),
    (two_agent, "interval_sequence_ef1", "two_agent.interval_sequence_ef1"),
    (cli, "interval_sequence_ef1", "two_agent.interval_sequence_ef1"),
    (two_agent, "is_feasible", "trap.is_feasible"),
    (two_agent, "is_maximal", "trap.is_maximal"),
    (two_agent, "adjacent", "trap.adjacent"),
    (two_agent, "select_ef1", "two_agent.select_ef1"),
    (cli, "select_ef1", "two_agent.select_ef1"),
    (checkers, "check_efk", "checkers.check_efk"),
    (oracle, "check_efk", "checkers.check_efk"),
    (oracle, "check_efx", "checkers.check_efx"),
    (n_agent, "envy_graph", "n_agent.envy_graph"),
    (n_agent, "split_pair_bundle", "n_agent.split"),
    (n_agent, "split_triple_bundle", "n_agent.split"),
    (oracle, "exists", "oracle.exists"),
    (cli, "exists", "oracle.exists"),
    (fileio, "load_instance", "io.load_instance"),
    # The one private name: the CLI's JSON encoding and printing of a result.
    (cli, "_emit", "cli.emit"),
)
GENERATORS = ((oracle, "enumerate_maximal", "oracle.enumerate"),)
COUNTED = (
    (core.AdditiveValuations, "value"),
    (core.AdditiveValuations, "chore_value"),
    (core.MonotoneValuations, "value"),
)

# Per-layer metric names and units, in the order they are printed.
PER_LAYER = {
    "core.build_conflict_graph_s": "s",
    "core.build_conflict_graph_calls": "count",
    "two_agent.classify_s": "s",
    "two_agent.sequence_self_s": "s",
    "two_agent.trap_s": "s",
    "two_agent.trap_calls": "count",
    "two_agent.steps": "count",
    "two_agent.select_s": "s",
    "two_agent.select_first_candidate_fails": "count",
    "checkers.check_ef1_s": "s",
    "checkers.check_ef1_calls": "count",
    "checkers.check_efx_s": "s",
    "valuation.queries": "count",
    "n_agent.envy_graph_s": "s",
    "n_agent.envy_graph_calls": "count",
    "n_agent.split_s": "s",
    "oracle.enumerate_s": "s",
    "oracle.schedules": "count",
    "oracle.exists_self_s": "s",
    "oracle.none_answers": "count",
    "io.load_instance_s": "s",
    "cli.emit_s": "s",
    "trace.ops_per_s": "1/s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self._originals: list = []

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self._open.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._open.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(index)
            if name == "two_agent.interval_sequence_ef1":
                self.counts["two_agent.steps"] += len(result.steps)
            elif name == "oracle.exists" and result is None:
                self.counts["oracle.none_answers"] += 1
            return result

        return spanned

    def _wrap_generator(self, fn, name):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self._timed_items(fn(*args, **kwargs), name)

        return spanned

    def _timed_items(self, items, name):
        """Yield from items, with one span per step spent inside the generator."""
        while True:
            index = self.begin(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self.finish(index)
            self.counts["oracle.schedules"] += 1
            yield item

    def _count(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["valuation.queries"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        patches = [(mod, attr, self._wrap(getattr(mod, attr), name)) for mod, attr, name in SPANNED]
        patches += [
            (mod, attr, self._wrap_generator(getattr(mod, attr), name)) for mod, attr, name in GENERATORS
        ]
        patches += [(cls, attr, self._count(getattr(cls, attr))) for cls, attr in COUNTED]
        for owner, attr, wrapper in patches:
            self._originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, first: int, last: int, counts: Counter) -> dict:
        """Per-layer metrics of spans [first, last) and the counts taken over them.

        trace.ops_per_s is not among them: the caller derives it from op times.
        """
        total: Counter = Counter()
        calls: Counter = Counter()
        child_time: Counter = Counter()
        efk_children: Counter = Counter()
        names = self.names
        for i in range(first, last):
            name = names[self.name[i]]
            duration = self.end[i] - self.start[i]
            total[name] += duration
            calls[name] += 1
            parent = self.parent[i]
            if parent >= first:
                child_time[parent] += duration
                if name == "checkers.check_efk":
                    efk_children[parent] += 1
        self_time: Counter = Counter()
        first_fails = 0
        for i in range(first, last):
            name = names[self.name[i]]
            self_time[name] += self.end[i] - self.start[i] - child_time[i]
            if name == "two_agent.select_ef1" and efk_children[i] > 1:
                first_fails += 1
        trap_names = ("trap.is_feasible", "trap.is_maximal", "trap.adjacent")
        ns = 1e-9
        metrics = {
            "core.build_conflict_graph_s": total["core.build_conflict_graph"] * ns,
            "core.build_conflict_graph_calls": calls["core.build_conflict_graph"],
            "two_agent.classify_s": total["two_agent.classify_chores"] * ns,
            "two_agent.sequence_self_s": self_time["two_agent.interval_sequence_ef1"] * ns,
            "two_agent.trap_s": sum(total[t] for t in trap_names) * ns,
            "two_agent.trap_calls": sum(calls[t] for t in trap_names),
            "two_agent.steps": counts["two_agent.steps"],
            "two_agent.select_s": total["two_agent.select_ef1"] * ns,
            "two_agent.select_first_candidate_fails": first_fails,
            "checkers.check_ef1_s": total["checkers.check_efk"] * ns,
            "checkers.check_ef1_calls": calls["checkers.check_efk"],
            "checkers.check_efx_s": total["checkers.check_efx"] * ns,
            "valuation.queries": counts["valuation.queries"],
            "n_agent.envy_graph_s": total["n_agent.envy_graph"] * ns,
            "n_agent.envy_graph_calls": calls["n_agent.envy_graph"],
            "n_agent.split_s": total["n_agent.split"] * ns,
            "oracle.enumerate_s": total["oracle.enumerate"] * ns,
            "oracle.schedules": counts["oracle.schedules"],
            "oracle.exists_self_s": self_time["oracle.exists"] * ns,
            "oracle.none_answers": counts["oracle.none_answers"],
            "io.load_instance_s": total["io.load_instance"] * ns,
            "cli.emit_s": total["cli.emit"] * ns,
        }
        return metrics

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "clock": "time.perf_counter_ns",
                    "span_names": self.names,
                    "spans": {
                        "name": self.name.tolist(),
                        "start_ns": self.start.tolist(),
                        "end_ns": self.end.tolist(),
                        "parent": self.parent.tolist(),
                    },
                },
                fh,
            )
