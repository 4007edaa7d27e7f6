"""Problem-file parsing, trace emission, and the command-line entry point.

File format::

    schema:
      L[i] -> h(h(X[i], h(X[i+1], X[i])), L[i+1]);
    problem:
      L[0] = h(Y[0], h(Y[1], Y[0]));
    # expect = cycle

Schema-rule indices are written relative to the rule index i (``i``,
``i+2``); problem-side indices are plain naturals.
Lowercase identifiers are function symbols, uppercase-initial identifiers
are variable symbols, and function arities must be consistent file-wide.
A term may be at most MAX_TERM_DEPTH deep (a variable or constant has depth
1); deeper input is a ParseError.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, field
from typing import Optional

from .oracle import DEFAULT_N, DEFAULT_NODE_CAP, OracleReport, bounded_check
from .schema import Schema, SchemaClass
from .solver import (
    CycleFound,
    Exhausted,
    InstanceRecord,
    NotUnifiable,
    SchematicProblem,
    SolverRun,
    StabilityViolation,
    u_sch_unif,
)
from .terms import App, Term, Var, var
from .unify import Equation, sorted_eqs


# Far deeper than any real problem, and shallow enough that the recursive
# parser, printers and term walks stay well inside the interpreter's stack.
MAX_TERM_DEPTH = 1000


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class ParsedProblem:
    problem: SchematicProblem
    directives: dict[str, str] = field(default_factory=dict)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<punct>[()\[\],;=+:])
  | (?P<nat>\d+)
  | (?P<fun>[a-z][A-Za-z0-9_@]*)
  | (?P<sym>[A-Z][A-Za-z0-9_@]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "arrow" | "punct" | "nat" | "fun" | "sym" | "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    nesting = 0  # open argument lists; a term is one deeper than its nesting
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if chunk == "(":
            nesting += 1
            if nesting >= MAX_TERM_DEPTH:
                raise ParseError(
                    f"term nested deeper than {MAX_TERM_DEPTH}", line, col
                )
        elif chunk == ")":
            nesting -= 1
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    """Recursive descent over the token list; one instance per file."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.arities: dict[str, int] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, message: str) -> None:
        t = self.peek()
        raise ParseError(message, t.line, t.column)

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            self.fail(f"expected {want!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def index(self, schematic: bool) -> int:
        """The part between brackets: i or i+c in a schema rule, a natural
        elsewhere."""
        t = self.peek()
        if not schematic:
            if t.kind != "nat":
                self.fail("expected a natural-number index")
            return int(self.next().text)
        if t.kind != "fun" or t.text != "i":
            self.fail("expected index of the form i or i+N")
        self.next()
        if self.peek().kind == "punct" and self.peek().text == "+":
            self.next()
            return int(self.expect("nat").text)
        return 0

    def variable(self, schematic: bool) -> Term:
        sym = self.expect("sym").text
        self.expect("punct", "[")
        idx = self.index(schematic)
        self.expect("punct", "]")
        return var(sym, idx)

    def term(self, schematic: bool) -> Term:
        t = self.peek()
        if t.kind == "sym":
            return self.variable(schematic)
        head_tok = self.expect("fun")
        head = head_tok.text
        args: list[Term] = []
        if self.peek().kind == "punct" and self.peek().text == "(":
            self.next()
            args.append(self.term(schematic))
            while self.peek().kind == "punct" and self.peek().text == ",":
                self.next()
                args.append(self.term(schematic))
            self.expect("punct", ")")
        known = self.arities.get(head)
        if known is None:
            self.arities[head] = len(args)
        elif known != len(args):
            raise ParseError(
                f"function {head!r} used with arity {len(args)}"
                f" but previously with arity {known}",
                head_tok.line,
                head_tok.column,
            )
        return App(head, tuple(args))


def parse_problem(text: str) -> ParsedProblem:
    directives: dict[str, str] = {}
    kept_lines = []
    for raw in text.splitlines():
        stripped = raw.lstrip()
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                directives[key.strip()] = value.strip()
            kept_lines.append("")  # keep line numbering intact
        else:
            kept_lines.append(raw)
    p = _Parser(_tokenize("\n".join(kept_lines)))

    def header(word: str) -> None:
        tok = p.peek()
        if tok.kind != "fun" or tok.text != word:
            p.fail(f"expected section header {word!r}")
        p.next()
        p.expect("punct", ":")

    header("schema")
    rules: dict[str, Term] = {}
    while p.peek().kind == "sym":
        lhs_tok = p.peek()
        lhs = p.expect("sym").text
        p.expect("punct", "[")
        idx_tok = p.peek()
        if not (idx_tok.kind == "fun" and idx_tok.text == "i"):
            p.fail("schema rule index must be the symbolic index i")
        p.next()
        p.expect("punct", "]")
        p.expect("arrow")
        rhs = p.term(schematic=True)
        p.expect("punct", ";")
        if lhs in rules:
            raise ParseError(
                f"duplicate schema rule for {lhs!r}", lhs_tok.line, lhs_tok.column
            )
        rules[lhs] = rhs
    if not rules:
        p.fail("schema section needs at least one rule")

    header("problem")
    eqs: list[Equation] = []
    while p.peek().kind in ("sym", "fun"):
        lhs_term = p.term(schematic=False)
        p.expect("punct", "=")
        rhs_term = p.term(schematic=False)
        p.expect("punct", ";")
        eqs.append(Equation(lhs_term, rhs_term))
    if not eqs:
        p.fail("problem section needs at least one equation")
    if p.peek().kind != "eof":
        p.fail("trailing input after problem section")

    schema = Schema.of(rules)
    cls = schema.classify()
    if cls not in (SchemaClass.UNIFORM, SchemaClass.PRIMITIVE):
        raise ParseError(
            f"schema is {cls.value}; only uniform schemas are supported", 1, 1
        )
    return ParsedProblem(SchematicProblem(frozenset(eqs), schema), directives)


def print_problem(parsed: ParsedProblem) -> str:
    """Serialize back to the file syntax (round-trips through parse)."""
    lines = ["schema:"]
    for sym, base in parsed.problem.schema.rules:
        lines.append(f"  {sym}[i] -> {_schematic_str(base)};")
    lines.append("problem:")
    for e in sorted_eqs(parsed.problem.equations):
        lines.append(f"  {e.lhs} = {e.rhs};")
    for key in sorted(parsed.directives):
        lines.append(f"# {key} = {parsed.directives[key]}")
    return "\n".join(lines) + "\n"


def _schematic_str(t: Term) -> str:
    if isinstance(t, Var):
        if t.var.index == 0:
            return f"{t.var.symbol}[i]"
        return f"{t.var.symbol}[i+{t.var.index}]"
    if not t.args:
        return t.head
    return f"{t.head}({', '.join(_schematic_str(a) for a in t.args)})"


# -- output -----------------------------------------------------------------


def verdict_name(outcome) -> str:
    return {
        CycleFound: "cycle",
        NotUnifiable: "not-unifiable",
        StabilityViolation: "stability-violation",
        Exhausted: "exhausted",
    }[type(outcome)]


def exit_code(outcome) -> int:
    if isinstance(outcome, CycleFound):
        return 0
    if isinstance(outcome, NotUnifiable):
        return 1
    return 2


def outcome_line(outcome) -> str:
    if isinstance(outcome, CycleFound):
        return f"cycle i={outcome.i} j={outcome.j}"
    if isinstance(outcome, NotUnifiable):
        return f"not unifiable at i={outcome.instance} ({outcome.cause})"
    if isinstance(outcome, StabilityViolation):
        return (
            f"stability violation at i={outcome.instance}"
            f" (ratio {outcome.ratio})"
        )
    return f"exhausted after {outcome.cap} iterations"


def _mapping_str(mapping) -> str:
    items = sorted(mapping.items(), key=lambda kv: (kv[0].symbol, kv[0].index))
    return "{" + ", ".join(f"{a} -> {b}" for a, b in items) + "}"


def emit_trace(run: SolverRun) -> str:
    lines: list[str] = []
    if run.stab is not None:
        lines.append(f"stab = {run.stab}")
    for r in map(_record_json, run.records):
        i = r["i"]
        lines.append(f"== i={i}")
        lines.append(
            f"  |vars(U({i}))| - |dom(sub_{i})| - |irrV_{i}| = {r['metric']}"
        )
        lines.append(f"  |vars(NStore.sub_{i})| - |irrV_{i}| = {r['metric_live']}")
        if r["ratio"] is not None:
            lines.append(f"  stab ratio = {r['ratio']}")
        lines.append("  store:")
        lines.extend(f"    {e}" for e in r["store"])
        lines.append("  irr:")
        lines.extend(f"    {e}" for e in r["irr"])
        lines.append(f"  fr: {{{', '.join(r['fr'])}}}")
        lines.append(f"  sub: {r['eq_sub']}")
        lines.append(f"  psi: {r['psi']}")
    if isinstance(run.outcome, CycleFound):
        lines.append(f"  mu: {_mapping_str(run.outcome.mapping)}")
    lines.append(outcome_line(run.outcome))
    return "\n".join(lines) + "\n"


def _record_json(r: InstanceRecord) -> dict:
    return {
        "i": r.i,
        "store": [str(e) for e in sorted_eqs(r.store)],
        "irr": [str(e) for e in sorted_eqs(r.irr)],
        "fr": [str(v) for v in sorted(r.fr)],
        "eq_sub": str(r.eq_sub),
        "psi": str(r.step_sub),
        "metric": r.metric,
        "metric_live": r.metric_live,
        "ratio": None if r.ratio is None else str(r.ratio),
    }


def _oracle_json(report: Optional[OracleReport]) -> Optional[dict]:
    if report is None:
        return None
    return {
        "checked_up_to": report.checked_up_to,
        "first_failure": (
            None
            if report.first_failure is None
            else {
                "instance": report.first_failure[0],
                "cause": report.first_failure[1],
            }
        ),
        "size_capped_at": report.size_capped_at,
        "per_instance_sizes": [
            {"nodes": s.nodes, "max_depth": s.max_depth, "vars": s.var_count}
            for s in report.per_instance_sizes
        ],
    }


def to_json(run: SolverRun, oracle: Optional[OracleReport]) -> str:
    out = run.outcome
    doc = {
        "verdict": verdict_name(out),
        "i": getattr(out, "i", getattr(out, "instance", None)),
        "j": getattr(out, "j", None),
        "mapping": (
            {str(a): str(b) for a, b in out.mapping.items()}
            if isinstance(out, CycleFound)
            else None
        ),
        "stab_index": run.stab,
        "instances": [_record_json(r) for r in run.records],
        "oracle": _oracle_json(oracle),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- entry point ------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as an input error (exit 3): exit 2 means
    the solver gave up."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _natural(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a natural number, got {text!r}"
        )
    return int(text)


@functools.cache
def _parser() -> _ArgumentParser:
    """The command line's parser, built on first use and then reused."""
    ap = _ArgumentParser(
        prog="schemunif",
        description="Decide unifiability of a uniform schematic "
        "unification problem.",
    )
    ap.add_argument("file", help="problem file")
    ap.add_argument("--trace", action="store_true", help="per-instance trace")
    ap.add_argument("--json", action="store_true", help="JSON output")
    ap.add_argument(
        "--oracle",
        type=_natural,
        metavar="N",
        default=None,
        help=f"cross-check the first N+1 instances by direct unification "
        f"(suggested {DEFAULT_N})",
    )
    ap.add_argument(
        "--max-iterations", type=_natural, metavar="K", default=None,
        help="solver iteration cap",
    )
    ap.add_argument(
        "--oracle-node-cap",
        type=_natural,
        metavar="M",
        default=DEFAULT_NODE_CAP,
        help="per-instance node limit for the oracle",
    )
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)

    sys.setrecursionlimit(100_000)
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnicodeDecodeError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 3
    try:
        parsed = parse_problem(text)
    except ParseError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 3

    run = u_sch_unif(parsed.problem, cap=args.max_iterations)

    report = None
    if args.oracle is not None:
        report = bounded_check(
            parsed.problem, n=args.oracle, node_cap=args.oracle_node_cap
        )
        # A failing instance the oracle never reached is no disagreement.
        if isinstance(run.outcome, CycleFound):
            disagree = not report.ok
        elif isinstance(run.outcome, NotUnifiable):
            disagree = report.ok and report.checked_up_to >= run.outcome.instance
        else:
            disagree = False
        if disagree:
            print(
                "warning: oracle disagreement:"
                f" solver={verdict_name(run.outcome)}"
                f" oracle_first_failure={report.first_failure}",
                file=sys.stderr,
            )

    expected = parsed.directives.get("expect")
    if expected is not None and expected != verdict_name(run.outcome):
        print(
            f"warning: expected verdict {expected!r},"
            f" got {verdict_name(run.outcome)!r}",
            file=sys.stderr,
        )

    if args.json:
        sys.stdout.write(to_json(run, report))
    elif args.trace:
        sys.stdout.write(emit_trace(run))
    else:
        if isinstance(run.outcome, CycleFound):
            print(outcome_line(run.outcome))
            print(f"mu: {_mapping_str(run.outcome.mapping)}")
        else:
            print(outcome_line(run.outcome))
    return exit_code(run.outcome)


if __name__ == "__main__":
    sys.exit(main())
