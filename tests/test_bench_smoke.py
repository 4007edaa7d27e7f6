import os
import subprocess
import sys

from .conftest import HERE


def test_bench_smoke_run_passes():
    """One round of every benchmark workload, traced and untraced, with all
    of its checks: the library names and record fields the benchmark reads
    are still there."""
    bench = os.path.join(HERE, "..", "bench", "run.py")
    out = subprocess.run(
        [sys.executable, bench, "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
