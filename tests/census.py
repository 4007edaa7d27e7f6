"""A census of solver output beyond the corpus.

Run from the root of the repository::

    python -m tests.census

It solves 2 000 derandomized ``uniform_problems(max_offset=3)`` examples
and 1 500 ``multi_rule_problems()`` examples at cap 40 and prints the
sha256 of ``to_json(run, None) + emit_trace(run)`` over all of them, in
order.  A change that keeps every verdict, store and trace keeps the
digest; the examples, and so the digest, are fixed for one hypothesis
version.
"""

import hashlib
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from schemunif.cli import emit_trace, to_json, verdict_name  # noqa: E402
from schemunif.solver import u_sch_unif  # noqa: E402

from .conftest import (  # noqa: E402
    derandomized_examples,
    multi_rule_problems,
    uniform_problems,
)

CAP = 40
SAMPLES = [
    ("uniform_problems(max_offset=3)", uniform_problems(max_offset=3), 2000),
    ("multi_rule_problems()", multi_rule_problems(), 1500),
]


def main() -> None:
    digest = hashlib.sha256()
    for name, strategy, n in SAMPLES:
        verdicts = Counter()
        for problem in derandomized_examples(strategy, n):
            run = u_sch_unif(problem, cap=CAP)
            verdicts[verdict_name(run.outcome)] += 1
            digest.update((to_json(run, None) + emit_trace(run)).encode())
        tally = ", ".join(f"{v} {c}" for v, c in sorted(verdicts.items()))
        print(f"{name}: {sum(verdicts.values())} problems ({tally})")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
