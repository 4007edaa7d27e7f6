"""Spans and counters recorded at the library's module boundaries.

The modules call each other by the names they imported, so a boundary is
traced by replacing that name in the calling module (``solver.th_unif``,
``engine.unify``, ...) with a wrapper for the duration of a traced round.
Nothing under ``src/`` changes.  Each span is (name, start ns, end ns,
parent span index, operation id); spans stay in memory until the round is
summarized.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

from schemunif import cli, engine, oracle, solver


def _add_arg_len(key):
    def count(counts, args, result):
        counts[key] += len(args[0])

    return count


def _add_result(key, measure):
    def count(counts, args, result):
        counts[key] += measure(result)

    return count


def _count_run(counts, args, result):
    counts["solver.instances"] += len(result.records)


def _count_report(counts, args, result):
    counts["oracle.instances"] += len(result.per_instance_sizes)
    counts["oracle.nodes"] += sum(s.nodes for s in result.per_instance_sizes)


# (module, attribute looked up by the caller, span name, counter)
BOUNDARIES = [
    (cli, "parse_problem", "cli.parse_problem", None),
    (cli, "to_json", "cli.to_json", _add_result("cli.to_json.bytes", len)),
    (cli, "u_sch_unif", "solver.u_sch_unif", _count_run),
    (solver, "make_primitive", "schema.make_primitive", None),
    (
        solver,
        "th_unif",
        "engine.th_unif",
        _add_result("engine.store_eqs", lambda fc: len(fc.store)),
    ),
    (solver, "cycle_check", "solver.cycle_check", _add_arg_len("solver.irr_eqs")),
    (
        solver,
        "check_for_map",
        "solver.check_for_map",
        _add_result("solver.check_for_map.hits", lambda mu: mu is not None),
    ),
    (solver, "unify", "unify.irr", _add_arg_len("unify.irr.eqs")),
    (solver, "compute_eq_sub", "solver.bookkeeping", None),
    (solver, "future_relevant", "solver.bookkeeping", None),
    (solver, "normalized_store", "solver.bookkeeping", None),
    (solver, "simplified_store", "solver.bookkeeping", None),
    (solver, "step_substitution", "solver.bookkeeping", None),
    (
        engine,
        "store_eligible",
        "engine.store_eligible",
        _add_result("engine.store_eligible.accepted", bool),
    ),
    (engine, "unify", "unify.gate", _add_arg_len("unify.gate.eqs")),
    (oracle, "unify", "unify.oracle", None),
]

# Operation roots, opened by the benchmark loop itself.
ROOTS = {
    "corpus": ("cli.main", None),
    "oracle": ("oracle.bounded_check", _count_report),
    "stores": ("solver.u_sch_unif", _count_run),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._saved: list = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def root(self, workload: str, fn):
        """The operation itself as the root span; each call is a new op id."""
        name, count = ROOTS[workload]
        traced = self.wrap(name, fn, count)

        def op(*args):
            self.op += 1
            return traced(*args)

        return op

    def install(self) -> None:
        for module, attr, name, count in BOUNDARIES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take_round(self) -> tuple[list, Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), self.counts
        self.spans.clear()
        self.counts = Counter()
        return spans, counts


def summarize(spans, counts: Counter) -> tuple[dict, dict]:
    """Per-layer (counters, times in seconds) of one traced round.

    A name's time is the summed duration of its outermost spans (a span
    nested in one of the same name is not counted twice); its self time
    subtracts the durations of its direct children.
    """
    calls: Counter = Counter()
    total: Counter = Counter()
    self_ns: Counter = Counter()
    for name, start, end, parent, _op in spans:
        dur = end - start
        calls[name] += 1
        self_ns[name] += dur
        if parent >= 0:
            self_ns[spans[parent][0]] -= dur
        if parent < 0 or spans[parent][0] != name:
            total[name] += dur

    def ratio(num, den):
        return num / den if den else 0.0

    counters = {
        "cli.parse_problem.calls": calls["cli.parse_problem"],
        "cli.to_json.bytes": counts["cli.to_json.bytes"],
        "engine.th_unif.calls": calls["engine.th_unif"],
        "engine.store_eligible.calls": calls["engine.store_eligible"],
        "engine.store_eligible.hit_ratio": ratio(
            counts["engine.store_eligible.accepted"],
            calls["engine.store_eligible"],
        ),
        "engine.store_eqs": counts["engine.store_eqs"],
        "unify.gate.calls": calls["unify.gate"],
        "unify.gate.eqs": counts["unify.gate.eqs"],
        "unify.irr.calls": calls["unify.irr"],
        "unify.irr.eqs": counts["unify.irr.eqs"],
        "unify.oracle.calls": calls["unify.oracle"],
        "solver.instances": counts["solver.instances"],
        "solver.irr_eqs": counts["solver.irr_eqs"],
        "solver.check_for_map.calls": calls["solver.check_for_map"],
        "solver.check_for_map.hit_ratio": ratio(
            counts["solver.check_for_map.hits"], calls["solver.check_for_map"]
        ),
        "oracle.instances": counts["oracle.instances"],
        "oracle.nodes": counts["oracle.nodes"],
    }
    s = 1e-9
    times = {
        "cli.main.self_s": self_ns["cli.main"] * s,
        "cli.parse_problem.s": total["cli.parse_problem"] * s,
        "cli.to_json.s": total["cli.to_json"] * s,
        "schema.make_primitive.s": total["schema.make_primitive"] * s,
        "engine.th_unif.self_s": self_ns["engine.th_unif"] * s,
        "engine.store_eligible.s": total["engine.store_eligible"] * s,
        "unify.gate.s": total["unify.gate"] * s,
        "unify.irr.s": total["unify.irr"] * s,
        "unify.oracle.s": total["unify.oracle"] * s,
        "solver.u_sch_unif.self_s": self_ns["solver.u_sch_unif"] * s,
        "solver.cycle_check.self_s": self_ns["solver.cycle_check"] * s,
        "solver.check_for_map.s": total["solver.check_for_map"] * s,
        "solver.bookkeeping.s": total["solver.bookkeeping"] * s,
        "oracle.bounded_check.self_s": self_ns["oracle.bounded_check"] * s,
    }
    return counters, times


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in spans:
            fh.write(
                json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "op": op}
                )
                + "\n"
            )
