"""Generator of the tied-k problem family used by the `stores` workload.

A tied-k problem has k primitive rules ``Lc[i] -> f(Xc[i], Lc[i+1])`` and
ties their heads in a ring, ``Lc[0] = Ld[0]`` for consecutive ring members
c, d.  Every instance equates the k unfoldings position by position, so
every instance is unifiable (expected verdict: cycle).  The engine's store
holds k(k-1) equations at instance 1, which makes store-move eligibility
the dominant cost.

The seed picks the ring order and the orientation of each tie; it changes
neither the problem's structure nor its verdict.

Write the workload's inputs to a directory::

    python3 bench/tied_k.py --seed 1 --out /tmp/tied
    python3 bench/tied_k.py --k 4 6 8 10 12 --seed 1 --out /tmp/tied
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

K_VALUES = (4, 6, 8, 10, 12)


def tied_k(k: int, seed: int) -> str:
    """The problem text of tied-k for one seed."""
    if k < 2:
        raise ValueError("tied-k needs k >= 2")
    rng = random.Random(f"tied-{k}-{seed}")
    ring = list(range(k))
    rng.shuffle(ring)
    lines = ["schema:"]
    lines += [f"  L{c}[i] -> f(X{c}[i], L{c}[i+1]);" for c in range(k)]
    lines.append("problem:")
    for pos, c in enumerate(ring):
        a, b = c, ring[(pos + 1) % k]
        if rng.random() < 0.5:
            a, b = b, a
        lines.append(f"  L{a}[0] = L{b}[0];")
    lines.append("# expect = cycle")
    return "\n".join(lines) + "\n"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, nargs="+", default=list(K_VALUES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for k in args.k:
        path = args.out / f"tied-{k}.prob"
        path.write_text(tied_k(k, args.seed), encoding="utf-8")
        print(path)


if __name__ == "__main__":
    main()
