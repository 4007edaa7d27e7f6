"""The benchmark's work counters pinned exactly.

For each workload and seed in ``bench_counters.json``, ``bench/run.py
--counters-only`` runs one traced round and prints its counters: engine
calls, store sizes, unify calls and their equations, solver instances,
renaming checks and oracle instances.  They are deterministic, so a change
that moves one shows here.  An intended change regenerates the file and
says why:

    python -m tests.test_bench_counters > tests/bench_counters.json
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "..", "bench", "run.py")
PINS = os.path.join(HERE, "bench_counters.json")
WORKLOADS = ["corpus", "oracle", "stores"]
SEEDS = [1, 37]


def counters(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--counters-only"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_match_pins(workload, seed):
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    assert counters(workload, seed) == pins[workload][str(seed)]


if __name__ == "__main__":
    pins = {w: {str(s): counters(w, s) for s in SEEDS} for w in WORKLOADS}
    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
