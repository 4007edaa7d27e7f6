import json
import os
import random
import subprocess
import sys

import pytest

from schemunif import cli
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
from schemunif.oracle import bounded_check
from schemunif.solver import (
    CycleFound,
    Exhausted,
    NotUnifiable,
    SolverRun,
    StabilityViolation,
    u_sch_unif,
)
from .conftest import PROBLEM_DIR, SRC_PATH, L, X, Y, corpus_paths, eq, h
from .test_corpus_outputs import ROOT, corpus_inputs

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


def test_plain_natural_rejected_in_schema_rule(tmp_path, capsys):
    text = "schema:\n  L[i] -> f(X[3], L[i+1]);\nproblem:\n  L[0] = Y[0];"
    with pytest.raises(ParseError, match=r"index of the form i or i\+N") as info:
        parse_problem(text)
    assert (info.value.line, info.value.column) == (2, 15)
    bad = tmp_path / "natural.prob"
    bad.write_text(text)
    assert main([str(bad)]) == 3
    assert "line 2, column 15" in capsys.readouterr().err


def test_unexpected_character_is_reported_where_it_is():
    """A '$' put into a non-comment line of a corpus file is the error, at
    its own line and column: at a random place, and on the file's last such
    line after a tab (one column, like any character)."""
    rng = random.Random(15)
    for path in corpus_paths():
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        code = [
            n for n, line in enumerate(lines)
            if not line.lstrip().startswith("#")
        ]
        places = [(rng.choice(code), rng.choice(["", "\t"])) for _ in range(4)]
        for n, indent in places + [(code[-1], "\t")]:
            line = indent + lines[n]
            k = rng.randint(len(indent), len(line))
            text = "\n".join(
                lines[:n] + [line[:k] + "$" + line[k:]] + lines[n + 1:]
            )
            with pytest.raises(ParseError) as info:
                parse_problem(text)
            assert str(info.value) == (
                f"line {n + 1}, column {k + 1}: unexpected character '$'"
            ), (path, n, k)


def test_errors_found_after_a_term_point_at_its_symbol():
    text = "schema:\n  L[i] -> f(X[i], L[i+1]);\nproblem:\n  f(Y[0]) = Y[1];"
    with pytest.raises(ParseError, match="arity 1") as info:
        parse_problem(text)
    assert (info.value.line, info.value.column) == (4, 3)
    text = (
        "schema:\n  L[i] -> h(X[i], L[i+1]);\n\tL[i] -> h(X[i], X[i]);\n"
        "problem: L[0] = Y[0];"
    )
    with pytest.raises(ParseError, match="duplicate schema rule") as info:
        parse_problem(text)
    assert (info.value.line, info.value.column) == (3, 2)


def test_non_uniform_schema_rejected():
    with pytest.raises(ParseError) as info:
        parse_problem(
            "schema: L[i] -> h(L[i+1], L[i+2]); problem: L[0] = Y[0];"
        )
    assert "simple" in str(info.value)
    assert (info.value.line, info.value.column) == (1, 1)  # the whole file


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
    cycle = CycleFound(15, 5, {})
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


def _dumped(run, report):
    """The document as json.dumps writes it, the writer's reference."""
    doc = cli._run_json(run, report)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("relpath", corpus_inputs())
def test_json_writer_matches_json_dumps_on_the_corpus(relpath):
    with open(os.path.join(ROOT, relpath), encoding="utf-8") as fh:
        problem = parse_problem(fh.read()).problem
    run = u_sch_unif(problem)
    for report in (None, bounded_check(problem, n=12)):
        assert to_json(run, report) == _dumped(run, report)


def test_json_writer_edge_cases():
    """No records, an empty fr, a cycle mapping and a size-capped oracle
    report each come out as json.dumps writes them."""
    def run_of(name):
        with open(os.path.join(PROBLEM_DIR, name), encoding="utf-8") as fh:
            problem = parse_problem(fh.read()).problem
        return problem, u_sch_unif(problem)

    _, empty = run_of("deep_occurs.prob")
    assert empty.records == []
    assert to_json(empty, None) == _dumped(empty, None)
    assert '"instances": [],' in to_json(empty, None)

    problem, cycle = run_of("ex7.prob")
    doc = cli._run_json(cycle, None)
    assert doc["mapping"] and [] in [r["fr"] for r in doc["instances"]]
    capped = bounded_check(problem, n=12, node_cap=50)
    assert capped.size_capped_at is not None
    for report in (None, capped):
        assert to_json(cycle, report) == _dumped(cycle, report)
    assert cli._json_text({"empty": {}, "none": [None]}) == json.dumps(
        {"empty": {}, "none": [None]}, sort_keys=True, indent=2
    )


@pytest.mark.parametrize("value", [1.5, True, ("a",), {"a": b"x"}, {1: "a"}])
def test_json_writer_rejects_what_a_document_never_holds(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


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


def test_main_file_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.prob"
    bad.write_bytes(b"schema: L[i] -> f(X[i], L[i+1]); problem: L[0] = \xff;")
    code = main([str(bad)])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_main_reads_past_a_byte_order_mark(tmp_path, capsys):
    """A UTF-8 byte-order mark before a corpus problem changes neither the
    output nor the exit code; a file that is not UTF-8 after the mark is
    still an input error."""
    for path in corpus_paths():
        with open(path, "rb") as fh:
            data = fh.read()
        marked = tmp_path / "marked.prob"
        marked.write_bytes(b"\xef\xbb\xbf" + data)
        want = (main([path, "--trace"]), capsys.readouterr())
        assert (main([str(marked), "--trace"]), capsys.readouterr()) == want, path
    marked.write_bytes(b"\xef\xbb\xbfproblem: L[0] = \xff;")
    assert main([str(marked)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {marked}: ")


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


@pytest.mark.parametrize(
    "args",
    [
        ["--oracle", "-4"],  # used to check nothing and never warn
        ["--max-iterations", "-3"],  # used to print "exhausted after -3"
        ["--oracle-node-cap", "-1"],
        ["--oracle", "x"],
        [],  # no problem file
    ],
)
def test_bad_arguments_are_input_errors(args, capsys):
    file_args = [golden_path()] if args else []
    with pytest.raises(SystemExit) as info:
        main(file_args + args)
    captured = capsys.readouterr()
    assert info.value.code == 3
    assert captured.out == ""
    assert "error" in captured.err


def test_indices_are_ascii_digits(tmp_path, capsys):
    # U+0663 is a decimal digit that int() reads as 3; an index is an
    # ASCII natural, so it is an unexpected character.
    bad = tmp_path / "arabic.prob"
    bad.write_text(
        "schema: L[i] -> f(X[i], L[i+1]); problem: L[\u0663] = Y[0];",
        encoding="utf-8",
    )
    assert main([str(bad)]) == 3
    assert "line 1, column 45: unexpected character '\u0663'" in (
        capsys.readouterr().err
    )


def test_max_iterations_takes_ascii_digits(capsys):
    with pytest.raises(SystemExit) as info:
        main([golden_path(), "--max-iterations", "\u0663"])
    assert info.value.code == 3
    assert "expected a natural number" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: schemunif")


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
    deep = text.format(_nested(MAX_TERM_DEPTH + 1))
    with pytest.raises(ParseError, match="nested deeper than") as info:
        parse_problem(deep)
    # At the '(' that opens the argument list one level too deep.
    assert (info.value.line, info.value.column) == (1, deep.index("X[0]"))


def test_depth_limit_holds_at_the_default_recursion_limit():
    """conftest raises the recursion limit, so a fresh interpreter checks
    the parser at the default one: it reads a term MAX_TERM_DEPTH deep,
    and rejects one a level deeper with the error it gives here."""
    text = "schema: L[i] -> f(X[i], L[i+1]); problem: L[0] = {};"
    ok, deep = (text.format(_nested(d)) for d in (MAX_TERM_DEPTH, MAX_TERM_DEPTH + 1))
    script = (
        "import json, sys\n"
        "from schemunif.cli import ParseError, parse_problem\n"
        "ok, deep = json.load(sys.stdin)\n"
        "(e,) = parse_problem(ok).problem.equations\n"
        "try:\n"
        "    parse_problem(deep)\n"
        "except ParseError as err:\n"
        "    out = [str(err), err.line, err.column]\n"
        "print(json.dumps([sys.getrecursionlimit(), e.rhs.depth, out]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps([ok, deep]),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_PATH),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(ParseError) as info:
        parse_problem(deep)
    err = info.value
    assert (err.line, err.column) == (1, deep.index("X[0]"))
    assert json.loads(proc.stdout) == [
        1000,
        MAX_TERM_DEPTH,
        [str(err), err.line, err.column],
    ]


def test_printing_holds_at_the_default_recursion_limit():
    """A term MAX_TERM_DEPTH deep prints in a fresh interpreter, at the
    default recursion limit, alone and inside an equation and a
    substitution, with the text the nesting gives."""
    script = (
        "import json, sys\n"
        "from schemunif.cli import MAX_TERM_DEPTH\n"
        "from schemunif.terms import app, var\n"
        "from schemunif.unify import Equation, Substitution\n"
        "t = var('X', 0)\n"
        "for _ in range(MAX_TERM_DEPTH - 1):\n"
        "    t = app('g', t)\n"
        "texts = [str(Equation(var('Y', 1), t)), str(Substitution({var('Y', 1).var: t}))]\n"
        "print(json.dumps([sys.getrecursionlimit(), t.depth, str(t), *texts]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_PATH),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    deep = _nested(MAX_TERM_DEPTH)
    assert json.loads(proc.stdout) == [
        1000,
        MAX_TERM_DEPTH,
        deep,
        f"Y[1] = {deep}",
        f"{{Y[1] -> {deep}}}",
    ]


def test_print_problem_holds_at_the_default_recursion_limit():
    """A schema base MAX_TERM_DEPTH deep prints back to the file syntax in
    a fresh interpreter, at the default recursion limit, and the printed
    text parses to the same problem."""
    base = "g(" * (MAX_TERM_DEPTH - 2) + "f(X[i], Y[i+2], L[i+1])" + ")" * (
        MAX_TERM_DEPTH - 2
    )
    text = f"schema:\n  L[i] -> {base};\nproblem:\n  L[0] = Y[0];\n"
    script = (
        "import json, sys\n"
        "from schemunif.cli import parse_problem, print_problem\n"
        "parsed = parse_problem(sys.stdin.read())\n"
        "printed = print_problem(parsed)\n"
        "same = parse_problem(printed) == parsed\n"
        "print(json.dumps([sys.getrecursionlimit(), printed, same]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=text,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_PATH),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1000, text, True]


def test_an_earlier_error_comes_before_the_depth_limit():
    text = "schema: L[i] -> f(X[i], L[i+1]) problem: L[0] = {};"
    with pytest.raises(ParseError, match="expected ';'"):
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


@pytest.mark.parametrize(
    "name, args",
    [
        ("late_clash.prob", ["--oracle", "1"]),  # the verdict is at i=2
        ("occurs_direct.prob", ["--oracle", "8", "--oracle-node-cap", "3"]),
        # irr-cycle at i=2 with lookahead 3; plain unification fails at 3
        ("late_clash.prob", ["--oracle", "2"]),
    ],
)
def test_oracle_that_never_reached_the_failure_does_not_warn(
    name, args, capsys
):
    code = main([os.path.join(PROBLEM_DIR, name)] + args)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("golden.prob", NotUnifiable(2, "clash")),
        ("const_clash.prob", CycleFound(3, 1, {})),
    ],
)
def test_oracle_warns_on_a_wrong_verdict(name, wrong, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "u_sch_unif", lambda problem, cap=None: SolverRun(wrong, [])
    )
    main([os.path.join(PROBLEM_DIR, name), "--oracle", "3"])
    assert "warning: oracle disagreement" in capsys.readouterr().err
