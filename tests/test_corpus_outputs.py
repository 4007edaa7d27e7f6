"""Corpus output pinned byte for byte.

For every problem in ``problems/`` and ``bench/inputs/``,
``corpus_outputs.json`` holds the command line's ``--trace`` output, its
``--json`` output (the benchmark's ``corpus`` operation) and its
``--json --oracle 12`` output, each with its stderr and exit code.  An
intended output change regenerates the file and says why:

    PYTHONPATH=src python -m tests.test_corpus_outputs > tests/corpus_outputs.json
"""

import contextlib
import glob
import io
import json
import os
import sys

from schemunif.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "corpus_outputs.json")
MODES = {
    "trace": ["--trace"],
    "json": ["--json"],
    "json_oracle": ["--json", "--oracle", "12"],
}


def corpus_inputs() -> list[str]:
    """Paths relative to the checkout, in a fixed order."""
    found = []
    for pattern in ("problems/*.prob", "bench/inputs/*.prob"):
        found += sorted(glob.glob(os.path.join(ROOT, pattern)))
    return [os.path.relpath(p, ROOT) for p in found]


def run_cli(relpath: str, flags: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([os.path.join(ROOT, relpath), *flags])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def corpus_outputs() -> dict:
    return {
        rel: {mode: run_cli(rel, flags) for mode, flags in MODES.items()}
        for rel in corpus_inputs()
    }


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def assert_matches_pins(outputs: dict, pins: dict) -> None:
    assert sorted(outputs) == sorted(pins)
    for rel, modes in pins.items():
        for mode, want in modes.items():
            assert outputs[rel][mode] == want, (rel, mode)


def test_corpus_outputs_match_pins():
    assert_matches_pins(corpus_outputs(), load_pins())


if __name__ == "__main__":
    json.dump(corpus_outputs(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
