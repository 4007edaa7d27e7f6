"""A census of solver and parser output beyond the corpus.

Run from the root of the repository::

    python -m tests.census [--check | --write]

It solves 2 000 derandomized ``uniform_problems(max_offset=3)`` examples
and 1 500 ``multi_rule_problems()`` examples at cap 40 and prints the
sha256 of ``to_json(run, None) + emit_trace(run)`` over all of them, in
order.  It then parses 6 000 mutants of the ``problems/`` files, made
from a fixed ``random.Random`` seed by inserting, deleting, replacing
and repeating characters, and prints a second sha256 over each outcome:
the parsed problem, printed back, or the ParseError's message, line and
column.  A change that keeps every verdict, store and trace keeps the
first digest, and one that keeps every parse result and error the
second.  ``derandomized_examples`` draws the generated problems from a
fixed ``@seed``, so they, and the first digest, depend only on the
strategies and the hypothesis version.

``--check`` compares both digests with ``tests/census_digests.json`` and
exits 1 if either differs, or 2 if that file was written under another
hypothesis version, whose generated problems differ.  ``--write`` records
the digests there, with the hypothesis version.
"""

import argparse
import hashlib
import json
import os
import random
import sys
from collections import Counter

import hypothesis

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from schemunif.cli import (  # noqa: E402
    ParseError,
    emit_trace,
    parse_problem,
    print_problem,
    to_json,
    verdict_name,
)
from schemunif.solver import u_sch_unif  # noqa: E402

from .conftest import (  # noqa: E402
    corpus_paths,
    derandomized_examples,
    multi_rule_problems,
    uniform_problems,
)

CAP = 40
SAMPLES = [
    ("uniform_problems(max_offset=3)", uniform_problems(max_offset=3), 2000),
    ("multi_rule_problems()", multi_rule_problems(), 1500),
]
DIGESTS = os.path.join(os.path.dirname(__file__), "census_digests.json")
PARSE_SEED = 1
PARSE_TEXTS = 6000
# Token text, separators and comment marks, and characters no token
# starts with.
MUTANT_CHARS = "()[],;=+:->#$ \t\n\r\x0ciLXYfgh019é"


def mutant(rng: random.Random, text: str) -> str:
    """text after one to three random edits."""
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(text) + 1)
        edit = rng.randrange(4)
        if edit == 0:  # insert a character
            text = text[:k] + rng.choice(MUTANT_CHARS) + text[k:]
        elif edit == 1:  # delete up to three characters
            text = text[:k] + text[k + rng.randint(1, 3):]
        elif edit == 2:  # replace a character
            text = text[:k] + rng.choice(MUTANT_CHARS) + text[k + 1:]
        else:  # repeat up to twenty characters
            j = k + rng.randint(1, 20)
            text = text[:j] + text[k:j] + text[j:]
    return text


def parse_census() -> str:
    rng = random.Random(PARSE_SEED)
    texts = []
    for path in corpus_paths():
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    digest = hashlib.sha256()
    tally = Counter()
    for _ in range(PARSE_TEXTS):
        text = mutant(rng, rng.choice(texts))
        try:
            outcome = print_problem(parse_problem(text))
            tally["parsed"] += 1
        except ParseError as exc:
            outcome = f"error {exc.line}:{exc.column} {exc}"
            tally["errors"] += 1
            tally["past the depth limit"] += "nested deeper" in str(exc)
        digest.update(outcome.encode() + b"\0")
    counts = ", ".join(f"{k} {tally[k]}" for k in sorted(tally))
    print(f"parse: {PARSE_TEXTS} mutated corpus texts ({counts})")
    print(f"parse sha256 {digest.hexdigest()}")
    return digest.hexdigest()


def solver_census() -> str:
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
    return digest.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description="Digest solver and parser output.")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help=f"compare with {DIGESTS}")
    mode.add_argument("--write", action="store_true", help=f"record in {DIGESTS}")
    args = ap.parse_args()
    got = {
        "hypothesis": hypothesis.__version__,
        "solver": solver_census(),
        "parse": parse_census(),
    }
    if args.write:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=2)
            fh.write("\n")
    if not args.check:
        return 0
    with open(DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)
    if want["hypothesis"] != got["hypothesis"]:
        print(
            f"cannot check: the digests were recorded under hypothesis"
            f" {want['hypothesis']}, this is {got['hypothesis']}"
        )
        return 2
    bad = [k for k in ("solver", "parse") if want[k] != got[k]]
    for k in bad:
        print(f"{k} digest differs: recorded {want[k]}")
    print("census digests match" if not bad else "census check FAILED")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
