"""Benchmark of the schemunif library and command line.

One workload per process (the library is single-threaded)::

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload stores --seed 1 --seconds 30 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``--workload`` every workload runs, each in its own process, and a
table of all of them is printed.  ``--smoke`` runs each workload for one
round, traced and untraced, with every check on, and exits non-zero if a
check breaks or an input outside the known faults fails.

Every run makes whole rounds (each input once, in an order drawn from the
seed) for at least ``--seconds`` and at least 100 operations.  Times are
taken over the faster half of each input's repetitions: on a shared
machine the CPU speed of one process varies by up to 1.6x in episodes of
seconds, and the faster half keeps the figures comparable between runs.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_ROUNDS = 4
MIN_OPS = 100
SETUP_REPEATS = 20
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import schemunif.cli; "
    "print(time.perf_counter() - t)"
)
CHILD_TIMEOUT = 170
UNITS = {"hit_ratio": "ratio", "bytes": "bytes"}


def setup_seconds() -> float:
    """Time to import schemunif.cli in a fresh interpreter: the median of
    the faster half of SETUP_REPEATS imports."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    samples = []
    for n in range(SETUP_REPEATS + 1):
        CORE.settle()  # the interpreter inherits the CPU
        out = subprocess.run(
            cmd, capture_output=True, text=True, check=True, timeout=60, cwd=ROOT
        )
        if n:  # the first import may write the byte-code cache
            samples.append(float(out.stdout))
    return statistics.median(faster_half(samples))


class Answers:
    """Each distinct answer per input, with the number of operations that
    gave it; checked once after the timed phase."""

    def __init__(self, wl):
        self.wl = wl
        self.seen: dict = {}

    def add(self, k: int, answer) -> None:
        slot = self.seen.setdefault((k, self.wl.key(answer)), [0, answer])
        slot[0] += 1

    def verify(self) -> tuple[int, list[str], set[str]]:
        """(failed operations, check errors, names of failed inputs)."""
        failed, errors, failed_inputs = 0, [], set()
        for (k, _), (count, answer) in self.seen.items():
            inp = self.wl.inputs[k]
            bad, errs = self.wl.check(inp, answer)
            if bad:
                failed += count
                failed_inputs.add(inp.name)
            errors += errs
        return failed, errors, failed_inputs


class Core:
    """Keeps this process on the CPU that currently runs a fixed loop
    fastest.  On a shared host one CPU at a time is often slowed by up to
    1.6x for a few seconds; operations are timed on the other."""

    RECHECK_S = 0.05

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.checked = -1.0

    def settle(self) -> None:
        now = perf_counter()
        if len(self.cpus) < 2 or now - self.checked < self.RECHECK_S:
            return
        os.sched_setaffinity(0, {min(self.cpus, key=self._probe)})
        self.checked = perf_counter()

    @staticmethod
    def _probe(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(2):
            start = perf_counter()
            n = 0
            for i in range(5000):
                n += i * i % 7
            best = min(best, perf_counter() - start)
        return best


CORE = Core()


def one_round(wl, order, answers: Answers, op) -> list[float]:
    """Each input once, in the given order; the time of each, by input."""
    times = [0.0] * len(wl.inputs)
    for k in order:
        payload = wl.inputs[k].payload
        CORE.settle()
        start = perf_counter()
        answer = op(payload)
        times[k] = perf_counter() - start
        answers.add(k, answer)
    return times


def orders(wl, seed: int):
    rng = random.Random(f"{wl.name}-{seed}")
    while True:
        order = list(range(len(wl.inputs)))
        rng.shuffle(order)
        yield order


def enough(rounds: list, deadline: float) -> bool:
    ops = sum(len(r) for r in rounds)
    return len(rounds) >= MIN_ROUNDS and ops >= MIN_OPS and perf_counter() >= deadline


def faster_half(samples) -> list[float]:
    return sorted(samples)[: (len(samples) + 1) // 2]


def quiet_half(rounds: list[list[float]]) -> list[float]:
    """The faster half of each input's repetitions, pooled."""
    return [t for samples in zip(*rounds) for t in faster_half(samples)]


def measure(wl, seed: int, seconds: float) -> dict:
    """Untimed warm-up round, then timed rounds; end-to-end metrics."""
    setup_s = setup_seconds()
    order = orders(wl, seed)
    one_round(wl, next(order), Answers(wl), wl.op)
    answers, rounds = Answers(wl), []
    deadline = perf_counter() + seconds
    while not enough(rounds, deadline):
        rounds.append(one_round(wl, next(order), answers, wl.op))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = quiet_half(rounds)
    print(
        f"{wl.name}: {len(rounds)} rounds of {len(wl.inputs)} operations;"
        f" times over the faster half of each input's ({len(times)} operations)"
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    return finish(answers, rounds, metrics)


def traced_round(wl, order, answers: Answers, tracer) -> tuple[list, dict, dict]:
    tracer.install()
    try:
        times = one_round(wl, order, answers, tracer.root(wl.name, wl.op))
    finally:
        tracer.remove()
    spans, counts = tracer.take_round()
    return times, spans, tracing.summarize(spans, counts)


def measure_traced(wl, seed: int, seconds: float) -> dict:
    """Untraced and traced rounds in turn, so that both see the same machine;
    per-layer metrics, tracing overhead, and a second traced process whose
    counters must match."""
    tracer = tracing.Tracer()
    order = orders(wl, seed)
    one_round(wl, next(order), Answers(wl), wl.op)
    answers, plain, traced, layers = Answers(wl), [], [], []
    first_spans = None
    deadline = perf_counter() + seconds
    while not enough(plain + traced, deadline):
        pair = next(order)
        plain.append(one_round(wl, pair, answers, wl.op))
        times, spans, layer = traced_round(wl, pair, answers, tracer)
        traced.append(times)
        layers.append(layer)
        first_spans = first_spans or spans
    counters = layers[0][0]
    errors = [
        f"counters of traced round {n} differ from round 0"
        for n, (c, _) in enumerate(layers)
        if c != counters
    ]
    errors += compare_counters(wl.name, seed, counters)
    tracing.write_spans(BENCH / "out" / f"spans-{wl.name}-{seed}.jsonl", first_spans)
    overhead = (
        statistics.median(map(sum, traced)) / statistics.median(map(sum, plain)) - 1
    )
    print(
        f"{wl.name}: {len(plain)} untraced and {len(traced)} traced rounds;"
        f" counters per round, times as medians over traced rounds"
    )
    metrics = {k: (v, UNITS.get(k.rsplit(".", 1)[-1], "count"))
               for k, v in counters.items()}
    metrics.update(
        (k, (statistics.median(t[k] for _, t in layers), "s")) for k in layers[0][1]
    )
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return finish(answers, plain + traced, metrics, errors)


def compare_counters(workload: str, seed: int, counters: dict) -> list[str]:
    """Run one traced round in a second process and compare its counters."""
    cmd = [
        sys.executable, str(Path(__file__)), "--workload", workload,
        "--seed", str(seed), "--counters-only",
    ]
    out = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT
    )
    if out.returncode != 0:
        return [f"second traced run failed: {out.stderr.strip()[-400:]}"]
    other = json.loads(out.stdout.strip().splitlines()[-1])
    return [
        f"counter {k} is {counters[k]} here and {other.get(k)} in a second run"
        for k in counters
        if other.get(k) != counters[k]
    ]


def counters_only(wl, seed: int) -> None:
    _, _, (counters, _) = traced_round(
        wl, next(orders(wl, seed)), Answers(wl), tracing.Tracer()
    )
    print(json.dumps(counters))


def finish(answers: Answers, rounds, metrics: dict, errors=()) -> dict:
    failed, check_errors, _ = answers.verify()
    errors = list(errors) + check_errors
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    return {
        "correct": not errors,
        "attempted": sum(len(r) for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke(root: Path) -> int:
    """One untraced and one traced round per workload, all checks on."""
    problems = []
    for name, make in workloads.WORKLOADS.items():
        wl = make(root, 1)
        answers = Answers(wl)
        order = list(range(len(wl.inputs)))
        one_round(wl, order, answers, wl.op)
        traced_round(wl, order, answers, tracing.Tracer())
        failed, errors, failed_inputs = answers.verify()
        unexpected = failed_inputs - workloads.KNOWN_FAULTS
        problems += errors
        problems += [f"{name}: {n} fails outside the known faults" for n in sorted(unexpected)]
        print(
            f"smoke {name}: {2 * len(wl.inputs)} operations, {failed} failed"
            f" ({', '.join(sorted(failed_inputs)) or 'none'}), {len(errors)} check errors"
        )
    for p in problems:
        print(f"SMOKE FAILURE: {p}", file=sys.stderr)
    return 1 if problems else 0


def run_all(args) -> int:
    """Every workload in its own process; a table of their results."""
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__)), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{name}: exit code {out.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
        status |= not results[name]["correct"]
    names = list(results)
    print(f"{'metric':34s} {'unit':6s}" + "".join(f" {n:>12s}" for n in names))
    for field in ("correct", "attempted", "failed"):
        print(f"{field:34s} {'':6s}" + "".join(f" {str(results[n][field]):>12s}" for n in names))
    for metric, m in (results[names[0]]["metrics"].items() if names else ()):
        row = "".join(f" {results[n]['metrics'][metric]['value']:12.5g}" for n in names)
        print(f"{metric:34s} {m['unit']:6s}{row}")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["corpus", "oracle", "stores"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--counters-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "schemunif" / "cli.py").is_file() or not (ROOT / "problems").is_dir():
        print(f"error: no schemunif sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global tracing, workloads
    import tracing
    import workloads

    if args.smoke:
        return smoke(ROOT)
    if args.workload is None:
        return run_all(args)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    if args.counters_only:
        counters_only(wl, args.seed)
        return 0
    run = measure_traced if args.trace else measure
    print(json.dumps(run(wl, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
