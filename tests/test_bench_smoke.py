import contextlib
import io
import os
import subprocess
import sys

from schemunif import cli, oracle, solver

from .conftest import HERE, PROBLEM_DIR

BENCH = os.path.join(HERE, "..", "bench")


def test_bench_smoke_run_passes():
    """One round of every benchmark workload, traced and untraced, with all
    of its checks: the library names and record fields the benchmark reads
    are still there."""
    bench = os.path.join(BENCH, "run.py")
    out = subprocess.run(
        [sys.executable, bench, "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]


def test_traced_operations_record_every_layer(monkeypatch):
    """One traced operation per workload (golden through ``cli.main
    --json``, ``bounded_check`` and a tied-4 solve) records a span at every
    boundary the benchmark traces, so no refactor drops a layer's
    attribution unnoticed.  golden's classes never close an occurs cycle,
    so ``occurs_direct`` adds a corpus operation that reaches the engine's
    unify gate; ``schema.make_primitive`` is reached only by ``--trace 1``."""
    monkeypatch.syspath_prepend(BENCH)
    import tracing
    from tied_k import tied_k

    golden = os.path.join(PROBLEM_DIR, "golden.prob")
    with open(golden, encoding="utf-8") as fh:
        golden_problem = cli.parse_problem(fh.read()).problem
    tied = cli.parse_problem(tied_k(4, 1)).problem
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for name in ("golden.prob", "occurs_direct.prob"):
                path = os.path.join(PROBLEM_DIR, name)
                tracer.root("corpus", cli.main)([path, "--json"])
        tracer.root("oracle", oracle.bounded_check)(golden_problem, 4)
        tracer.root("stores", solver.u_sch_unif)(tied)
    finally:
        tracer.remove()
    recorded = {span[0] for span in tracer.spans}
    traced = {name for _, _, name, _ in tracing.BOUNDARIES}
    missing = traced - {"schema.make_primitive"} - recorded
    assert not missing, sorted(missing)
