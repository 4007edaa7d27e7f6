import json
import os
import subprocess
import sys

import pytest

from schemunif.cli import (
    MAX_TERM_DEPTH,
    ParseError,
    emit_trace,
    exit_code,
    main,
    outcome_line,
    parse_problem,
    print_problem,
    to_json,
)
from schemunif.solver import (
    CycleFound,
    Exhausted,
    NotUnifiable,
    StabilityViolation,
    u_sch_unif,
)
from .conftest import PROBLEM_DIR, SRC_PATH, L, X, Y, eq, h

EX7_TEXT = (
    "schema: L[i] -> h(h(X[i], h(X[i+1], X[i])), L[i+1]);"
    " problem: L[0] = h(Y[0], h(Y[1], Y[0]));"
)


def test_parse_single_rule_problem():
    parsed = parse_problem(EX7_TEXT)
    assert parsed.problem.schema.base("L") == h(
        h(X(0), h(X(1), X(0))), L(1)
    )
    assert parsed.problem.equations == {
        eq(L(0), h(Y(0), h(Y(1), Y(0))))
    }


def test_parse_directives_and_comments():
    text = "# expect = cycle\n# note: free text\n" + EX7_TEXT
    parsed = parse_problem(text)
    assert parsed.directives == {"expect": "cycle"}


def test_parse_reports_line_and_column():
    text = "schema:\n  L[i] -> h(X[i], L[i+1])\nproblem:\n  L[0] = X[0];"
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert info.value.line == 3  # the missing ';' is noticed at 'problem'


def test_missing_semicolon_is_an_error():
    with pytest.raises(ParseError):
        parse_problem(
            "schema: L[i] -> h(X[i], L[i+1]); problem: L[0] = X[0]"
        )


def test_arity_must_be_consistent():
    text = (
        "schema: L[i] -> f(X[i], L[i+1]);"
        " problem: f(Y[0]) = Y[1];"
    )
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert "arity" in str(info.value)


def test_negative_offset_rejected():
    with pytest.raises(ParseError):
        parse_problem(
            "schema: L[i] -> h(X[i-1], L[i+1]); problem: L[0] = Y[0];"
        )


def test_symbolic_index_rejected_in_problem_section():
    with pytest.raises(ParseError):
        parse_problem(
            "schema: L[i] -> h(X[i], L[i+1]); problem: L[i] = Y[0];"
        )


def test_non_uniform_schema_rejected():
    with pytest.raises(ParseError) as info:
        parse_problem(
            "schema: L[i] -> h(L[i+1], L[i+2]); problem: L[0] = Y[0];"
        )
    assert "simple" in str(info.value)


def test_duplicate_rule_rejected():
    with pytest.raises(ParseError):
        parse_problem(
            "schema: L[i] -> h(X[i], L[i+1]); L[i] -> h(X[i], X[i]);"
            " problem: L[0] = Y[0];"
        )


def test_print_parse_round_trip():
    for name in os.listdir(PROBLEM_DIR):
        with open(os.path.join(PROBLEM_DIR, name), encoding="utf-8") as fh:
            parsed = parse_problem(fh.read())
        reparsed = parse_problem(print_problem(parsed))
        assert reparsed.problem == parsed.problem, name
        assert reparsed.directives == parsed.directives, name


def test_outcome_lines_and_exit_codes():
    cycle = CycleFound(15, 5, {}, frozenset(), None, frozenset(), None, frozenset())
    assert outcome_line(cycle) == "cycle i=15 j=5"
    assert exit_code(cycle) == 0
    nu = NotUnifiable(3, "clash")
    assert outcome_line(nu) == "not unifiable at i=3 (clash)"
    assert exit_code(nu) == 1
    assert exit_code(StabilityViolation(9, None)) == 2
    assert exit_code(Exhausted(40)) == 2
    assert outcome_line(Exhausted(40)) == "exhausted after 40 iterations"


def test_trace_ends_with_verdict_line():
    run = u_sch_unif(parse_problem(EX7_TEXT).problem)
    trace = emit_trace(run)
    lines = trace.strip().splitlines()
    assert lines[0] == "stab = 4"
    assert lines[-1].startswith("cycle i=")


def test_json_shape():
    run = u_sch_unif(parse_problem(EX7_TEXT).problem)
    doc = json.loads(to_json(run, None))
    assert doc["verdict"] == "cycle"
    assert set(doc) == {
        "verdict", "i", "j", "mapping", "stab_index", "instances", "oracle",
    }
    assert doc["oracle"] is None
    assert len(doc["instances"]) == doc["i"] + 1
    for rec in doc["instances"]:
        assert set(rec) == {
            "i", "store", "irr", "fr", "eq_sub", "psi",
            "metric", "metric_live", "ratio",
        }


def golden_path():
    return os.path.join(PROBLEM_DIR, "golden.prob")


def test_main_plain_output(capsys):
    code = main([golden_path()])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "cycle i=15 j=5"
    assert out.splitlines()[1].startswith("mu: {")


def test_main_trace_ends_with_cycle_line(capsys):
    code = main([golden_path(), "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[-1] == "cycle i=15 j=5"


def test_main_json_with_oracle(capsys):
    code = main([golden_path(), "--json", "--oracle", "5"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["verdict"] == "cycle"
    assert doc["i"] == 15 and doc["j"] == 5
    assert doc["oracle"]["first_failure"] is None
    assert doc["oracle"]["checked_up_to"] == 5
    assert captured.err == ""


def test_main_not_unifiable_with_oracle(capsys):
    path = os.path.join(PROBLEM_DIR, "const_clash.prob")
    code = main([path, "--json", "--oracle", "5"])
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert doc["verdict"] == "not-unifiable"
    assert doc["oracle"]["first_failure"] == {"instance": 1, "cause": "clash"}
    assert captured.err == ""  # solver and oracle agree


def test_main_missing_file(capsys):
    code = main(["/no/such/file.prob"])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_main_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("schema: problem:")
    code = main([str(bad)])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_main_max_iterations(capsys):
    code = main([golden_path(), "--max-iterations", "3"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("exhausted after 3 iterations")


def test_main_warns_on_expect_mismatch(tmp_path, capsys):
    text = (
        "schema: L[i] -> h(X[i], L[i+1]);"
        " problem: L[0] = a;\n# expect = cycle\n"
    )
    p = tmp_path / "wrong.prob"
    p.write_text(text)
    code = main([str(p)])
    captured = capsys.readouterr()
    assert code == 1
    assert "expected verdict 'cycle'" in captured.err


def _nested(depth):
    """g(g(...g(X[0])...)) with the given term depth."""
    return "g(" * (depth - 1) + "X[0]" + ")" * (depth - 1)


def test_depth_limit_is_inclusive():
    text = "schema: L[i] -> f(X[i], L[i+1]); problem: L[0] = {};"
    parsed = parse_problem(text.format(_nested(MAX_TERM_DEPTH)))
    (e,) = parsed.problem.equations
    assert e.rhs.depth == MAX_TERM_DEPTH
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_problem(text.format(_nested(MAX_TERM_DEPTH + 1)))


def test_deeply_nested_input_is_an_input_error(tmp_path):
    # 30 000 levels used to overflow the interpreter's stack (exit 139).
    path = tmp_path / "deep.prob"
    path.write_text(
        "schema:\n  L[i] -> f(X[i], L[i+1]);\nproblem:\n"
        f"  L[0] = {_nested(30_000)};\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "schemunif.cli", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_PATH),
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert f"nested deeper than {MAX_TERM_DEPTH}" in proc.stderr
