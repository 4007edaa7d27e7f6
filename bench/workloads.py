"""The benchmark's three workloads: inputs, the timed operation, and the
checks applied to every distinct answer.

- corpus: every problem in ``problems/`` plus the two offset-2 inputs in
  ``bench/inputs/``; one operation is ``cli.main([file, "--json"])``.
- oracle: ``oracle.bounded_check`` on the same inputs at ORACLE_DEPTH.
- stores: the generated tied-k family (see tied_k.py); one operation is
  ``solver.u_sch_unif`` on one parsed problem.

A distinct answer whose verdict contradicts the expected one counts as a
failed operation; any other broken check makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Hashable

from schemunif import cli, oracle, solver
from schemunif.terms import Variable

from checks import Reference, certificate_errors, depth_errors
from tied_k import K_VALUES, tied_k

HERE = Path(__file__).resolve().parent
ORACLE_DEPTH = 17  # double_rec reaches the default node cap at instance 17

# Inputs that fail today because make_primitive renames only the variables
# of schema bases, so offset-2 problems lose their link to the rewritten
# schema.  The smoke mode accepts failures on these and nowhere else.
KNOWN_FAULTS = {"offset2_occurs", "offset2_parity"}


@dataclass
class Input:
    name: str
    payload: Any  # what the operation receives
    problem: solver.SchematicProblem
    expected: str
    _ref: Reference | None = field(default=None, repr=False)

    @property
    def ref(self) -> Reference:
        if self._ref is None:
            self._ref = Reference(self.problem.equations, self.problem.schema)
        return self._ref


@dataclass
class Workload:
    name: str
    inputs: list[Input]
    op: Callable[[Any], Any]
    key: Callable[[Any], Hashable]  # identifies equal answers
    check: Callable[[Input, Any], tuple[bool, list[str]]]  # (failed, errors)


def corpus_files(root: Path) -> list[Path]:
    files = sorted((root / "problems").glob("*.prob"))
    if not files:
        raise FileNotFoundError(f"no problems under {root / 'problems'}")
    return files + sorted((HERE / "inputs").glob("*.prob"))


def _input(name: str, text: str, path: Path | None = None) -> Input:
    """The operation receives the file name if there is one, else the
    parsed problem."""
    parsed = cli.parse_problem(text)
    payload = parsed.problem if path is None else str(path)
    return Input(name, payload, parsed.problem, parsed.directives["expect"])


def _file_inputs(root: Path, with_path: bool) -> list[Input]:
    return [
        _input(p.stem, p.read_text(encoding="utf-8"), p if with_path else None)
        for p in corpus_files(root)
    ]


def _outcome_errors(inp: Input, run: solver.SolverRun, verdict, i, j, mapping):
    """Depth check for any verdict; certificate check for a cycle."""
    errors = depth_errors(inp.ref, verdict, i, j)
    if verdict == "cycle":
        recs = {r.i: r for r in run.records}
        errors += certificate_errors(inp.problem.schema, recs[i], recs[j], mapping)
    return [f"{inp.name}: {e}" for e in errors]


# -- corpus -----------------------------------------------------------------


def _cli_op(path: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([path, "--json"])
    return code, out.getvalue()


_VAR_RE = re.compile(r"([A-Za-z][A-Za-z0-9_@]*)\[(\d+)\]\Z")


def _variable(text: str) -> Variable:
    m = _VAR_RE.match(text)
    if m is None:
        raise ValueError(f"not a variable: {text!r}")
    return Variable(m.group(1), int(m.group(2)))


def _check_cli(inp: Input, answer: tuple[int, str]) -> tuple[bool, list[str]]:
    code, out = answer
    doc = json.loads(out)
    verdict = doc["verdict"]
    if verdict != inp.expected:
        return True, []
    want_code = {"cycle": 0, "not-unifiable": 1}[verdict]
    errors = []
    if code != want_code:
        errors.append(f"{inp.name}: exit code {code} for {verdict}")
    mapping = {_variable(a): _variable(b) for a, b in (doc["mapping"] or {}).items()}
    # The stores behind the printed mapping, from an untimed library run.
    run = solver.u_sch_unif(inp.problem)
    printed = tuple(sorted((str(a), str(b)) for a, b in mapping.items()))
    if _run_key(run) != (verdict, doc["i"], doc["j"], printed):
        errors.append(f"{inp.name}: library run disagrees with the CLI output")
        return False, errors
    return False, errors + _outcome_errors(
        inp, run, verdict, doc["i"], doc["j"], mapping
    )


def corpus(root: Path, seed: int) -> Workload:
    return Workload(
        "corpus", _file_inputs(root, True), _cli_op, lambda a: a, _check_cli
    )


# -- oracle -----------------------------------------------------------------


def _oracle_op(problem):
    return oracle.bounded_check(problem, n=ORACLE_DEPTH)


def _report_key(report) -> Hashable:
    return (
        report.checked_up_to,
        report.first_failure,
        report.size_capped_at,
        tuple((s.nodes, s.max_depth, s.var_count) for s in report.per_instance_sizes),
    )


def _check_report(inp: Input, report) -> tuple[bool, list[str]]:
    if (report.first_failure is None) != (inp.expected == "cycle"):
        return True, []
    errors = []
    sizes = [(s.nodes, s.max_depth, s.var_count) for s in report.per_instance_sizes]
    if any(b[0] < a[0] for a, b in zip(sizes, sizes[1:])):
        errors.append("node counts decrease from one instance to the next")
    ref = inp.ref
    if sizes != [ref.sizes(i) for i in range(len(sizes))]:
        errors.append("instance sizes differ from the reference unfolding")
    capped = report.size_capped_at
    if capped is not None and ref.sizes(capped)[0] <= oracle.DEFAULT_NODE_CAP:
        errors.append(f"capped at instance {capped}, which is within the cap")
    if capped is None and len(sizes) != ORACLE_DEPTH + 1:
        errors.append(f"checked {len(sizes)} instances, not {ORACLE_DEPTH + 1}")
    first = ref.first_failure(report.checked_up_to)
    got = None if report.first_failure is None else report.first_failure[0]
    if got != first:
        errors.append(f"first failure at {got}, reference says {first}")
    return False, [f"{inp.name}: {e}" for e in errors]


def oracle_workload(root: Path, seed: int) -> Workload:
    return Workload(
        "oracle", _file_inputs(root, False), _oracle_op, _report_key, _check_report
    )


# -- stores -----------------------------------------------------------------


def _solve(problem):
    return solver.u_sch_unif(problem)


def _run_key(run) -> Hashable:
    o = run.outcome
    mapping = getattr(o, "mapping", {})
    return (
        cli.verdict_name(o),
        getattr(o, "i", getattr(o, "instance", None)),
        getattr(o, "j", None),
        tuple(sorted((str(a), str(b)) for a, b in mapping.items())),
    )


def _check_run(inp: Input, run) -> tuple[bool, list[str]]:
    verdict, i, j, _ = _run_key(run)
    if verdict != inp.expected:
        return True, []
    return False, _outcome_errors(
        inp, run, verdict, i, j, getattr(run.outcome, "mapping", {})
    )


def stores(root: Path, seed: int) -> Workload:
    inputs = [_input(f"tied-{k}", tied_k(k, seed)) for k in K_VALUES]
    return Workload("stores", inputs, _solve, _run_key, _check_run)


WORKLOADS = {"corpus": corpus, "oracle": oracle_workload, "stores": stores}
