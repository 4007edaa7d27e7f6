"""The library's memory on the benchmark's workloads.

Run from the root of the repository::

    python -m tests.memory

For each workload of ``bench/workloads.py`` (inputs of seed 1), it runs
every input's operation once to warm up, then once more under
``tracemalloc`` with each answer dropped as soon as it is returned, and
prints the peak of the traced memory in KiB.  Unlike the benchmark's
``peak_rss_mib``, the figure leaves out the interpreter, the compiled
modules and the benchmark's own records of operation times, so it follows
the work of one round and not the run's throughput.
"""

import gc
import os
import sys
import tracemalloc
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from workloads import WORKLOADS  # noqa: E402

SEED = 1


def round_peak(wl) -> int:
    """The tracemalloc peak, in bytes, of one warm round of wl."""
    for inp in wl.inputs:
        wl.op(inp.payload)
    gc.collect()
    tracemalloc.start()
    try:
        for inp in wl.inputs:
            wl.op(inp.payload)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    for name, make in WORKLOADS.items():
        wl = make(Path(ROOT), SEED)
        print(f"{name}: {round_peak(wl) / 1024:.1f} KiB over {len(wl.inputs)} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
