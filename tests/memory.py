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

For the same round it prints the terms interned (each new node gets one
intern-table reference, which the tool counts by swapping ``terms._Ref``
for a counting subclass during the round) and the generation-0 garbage
collections.  Terms that an earlier round left alive are found, not
interned again, so the count shows how much a round rebuilds.
"""

import gc
import os
import sys
import tracemalloc
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from schemunif import terms  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1


_PLAIN_REF = terms._Ref


class _CountingRef(_PLAIN_REF):
    """An intern-table reference that counts the terms it is made for."""

    __slots__ = ()
    made = 0

    def __init__(self, term, callback):
        _CountingRef.made += 1
        super().__init__(term, callback)


def warm_round(wl) -> tuple[int, int, int]:
    """The tracemalloc peak in bytes, the terms interned and the
    generation-0 collections of one warm round of wl."""
    for inp in wl.inputs:
        wl.op(inp.payload)
    gc.collect()
    _CountingRef.made = 0
    collections = gc.get_stats()[0]["collections"]
    terms._Ref = _CountingRef
    tracemalloc.start()
    try:
        for inp in wl.inputs:
            wl.op(inp.payload)
        collections = gc.get_stats()[0]["collections"] - collections
        return tracemalloc.get_traced_memory()[1], _CountingRef.made, collections
    finally:
        tracemalloc.stop()
        terms._Ref = _PLAIN_REF


def main() -> int:
    for name, make in WORKLOADS.items():
        wl = make(Path(ROOT), SEED)
        peak, nodes, collections = warm_round(wl)
        print(
            f"{name}: {peak / 1024:.1f} KiB over {len(wl.inputs)} inputs,"
            f" {nodes} nodes interned, {collections} generation-0 collections"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
