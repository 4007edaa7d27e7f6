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

Comment lines are blanked first, so that offsets into the rest keep the
file's line numbers; ``_Parser`` scans the rest once, into tokens that
carry their offset, and works out a line and column only for an error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from types import MappingProxyType
from typing import Mapping, NamedTuple, NoReturn, Optional

from .oracle import DEFAULT_N, DEFAULT_NODE_CAP, OracleReport, bounded_check
from .schema import Schema, SchemaClass, SchematicProblem
from .solver import (
    CycleFound,
    Exhausted,
    InstanceRecord,
    NotUnifiable,
    SolverRun,
    StabilityViolation,
    u_sch_unif,
)
from .terms import App, Term, var
from .unify import Equation, sorted_eqs


# Far deeper than any real problem.  The parser and the printers (``str``,
# ``print_problem``) read and write any depth without recursion; the term
# walks (``terms.rebuild``, ``shift``) and sorting equations by key recurse
# per level and rely on ``main``'s limit.
MAX_TERM_DEPTH = 1000


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ParsedProblem(NamedTuple):
    problem: SchematicProblem
    directives: Mapping[str, str] = MappingProxyType({})


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<punct>[()\[\],;=+:])
  | (?P<nat>[0-9]+)
  | (?P<fun>[a-z][A-Za-z0-9_@]*)
  | (?P<sym>[A-Z][A-Za-z0-9_@]*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # "arrow" | "punct" | "nat" | "fun" | "sym" | "eof"
    text: str
    pos: int  # offset in the parsed text


class _Parser:
    """A parser over the tokens of one text, scanned once up front.

    A token keeps only its offset; ``fail`` turns an offset into the line
    and column of the ParseError, and every ParseError is raised through it.
    Nothing recurses: ``term`` keeps the applications it has open on a
    stack, and checks MAX_TERM_DEPTH as an argument list opens, where terms
    nest.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[_Token] = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                self.fail(f"unexpected character {m.group()!r}", m.start())
            if kind != "ws":
                self.tokens.append(_Token(kind, m.group(), m.start()))
        self.tokens.append(_Token("eof", "", len(text)))
        self.at = 0  # index of the next token
        self.arities: dict[str, int] = {}

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def next(self) -> _Token:
        """Consume the next token; never called on the end of input."""
        self.at += 1
        return self.tokens[self.at - 1]

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is text.  No two kinds share a
        text, so the text alone names a mark (``+``) or a word (``i``)."""
        if self.peek().text != text:
            return False
        self.next()
        return True

    def fail(self, message: str, pos: Optional[int] = None) -> NoReturn:
        """Raise at offset pos, by default the next token's."""
        if pos is None:
            pos = self.peek().pos
        line = self.text.count("\n", 0, pos) + 1
        column = pos - self.text.rfind("\n", 0, pos)
        raise ParseError(message, line, column)

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            self.fail(f"expected {want!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def index(self, schematic: bool) -> int:
        """The part between brackets: i or i+c in a schema rule, a natural
        elsewhere."""
        if not schematic:
            if self.peek().kind != "nat":
                self.fail("expected a natural-number index")
            return int(self.next().text)
        if not self.accept("i"):
            self.fail("expected index of the form i or i+N")
        return int(self.expect("nat").text) if self.accept("+") else 0

    def term(self, schematic: bool) -> Term:
        """One term, read without recursion: each application whose
        argument list is open waits on a stack with the arguments read so
        far, so the stack holds the depth of the term being read."""
        stack: list[tuple[_Token, list[Term]]] = []
        while True:
            if self.peek().kind == "sym":
                sym = self.next().text
                self.expect("punct", "[")
                idx = self.index(schematic)
                self.expect("punct", "]")
                t = var(sym, idx)
            else:
                head_tok = self.expect("fun")
                if self.peek().text == "(":
                    if len(stack) + 1 >= MAX_TERM_DEPTH:
                        self.fail(f"term nested deeper than {MAX_TERM_DEPTH}")
                    self.next()
                    stack.append((head_tok, []))
                    continue
                t = self.app(head_tok, [])
            # t is whole: it is an argument of the innermost open application,
            # which closes unless another argument follows.
            while stack:
                head_tok, args = stack[-1]
                args.append(t)
                if self.accept(","):
                    break
                self.expect("punct", ")")
                stack.pop()
                t = self.app(head_tok, args)
            if not stack:
                return t

    def app(self, head_tok: _Token, args: list[Term]) -> Term:
        """The application of head_tok's function symbol to args, whose
        arity must be the symbol's arity everywhere in the text."""
        head = head_tok.text
        known = self.arities.setdefault(head, len(args))
        if known != len(args):
            self.fail(
                f"function {head!r} used with arity {len(args)}"
                f" but previously with arity {known}",
                head_tok.pos,
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
    p = _Parser("\n".join(kept_lines))

    def header(word: str) -> None:
        if not p.accept(word):
            p.fail(f"expected section header {word!r}")
        p.expect("punct", ":")

    header("schema")
    rules: dict[str, Term] = {}
    while p.peek().kind == "sym":
        lhs_tok = p.next()
        p.expect("punct", "[")
        if not p.accept("i"):
            p.fail("schema rule index must be the symbolic index i")
        p.expect("punct", "]")
        p.expect("arrow")
        rhs = p.term(schematic=True)
        p.expect("punct", ";")
        if lhs_tok.text in rules:
            p.fail(f"duplicate schema rule for {lhs_tok.text!r}", lhs_tok.pos)
        rules[lhs_tok.text] = rhs
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
        p.fail(f"schema is {cls.value}; only uniform schemas are supported", 0)
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
    """t's text with each index k as i+k, or i for 0 (only variables have brackets)."""
    return re.sub(r"\[([1-9][0-9]*)\]", r"[i+\1]", str(t)).replace("[0]", "[i]")


# -- output -----------------------------------------------------------------


# The verdict name and exit code of each outcome type.
_VERDICTS = {
    CycleFound: ("cycle", 0),
    NotUnifiable: ("not-unifiable", 1),
    StabilityViolation: ("stability-violation", 2),
    Exhausted: ("exhausted", 2),
}


def verdict_name(outcome) -> str:
    return _VERDICTS[type(outcome)][0]


def exit_code(outcome) -> int:
    return _VERDICTS[type(outcome)][1]


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


def _run_json(run: SolverRun, oracle: Optional[OracleReport]) -> dict:
    out = run.outcome
    return {
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


_json_str = json.encoder.encode_basestring_ascii


def _json_text(x, indent: str = "") -> str:
    """x as ``json.dumps(x, sort_keys=True, indent=2)`` writes it, nested
    at indent, for the types a run's document holds: a dict with str keys,
    list, str, int and None.  Anything else is a TypeError.  (json.dumps
    with an indent runs its encoder in pure Python.)"""
    t = type(x)
    if t is str:
        return _json_str(x)
    if t is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    if t is list:
        brackets = "[]"
    elif t is dict:
        brackets = "{}"
    else:
        raise TypeError(f"{t.__name__} is not part of a run's JSON document")
    if not x:
        return brackets
    inner = indent + "  "
    if t is list:
        items = [_json_text(v, inner) for v in x]
    else:
        items = [f"{_json_str(k)}: {_json_text(x[k], inner)}" for k in sorted(x)]
    body = f",\n{inner}".join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def to_json(run: SolverRun, oracle: Optional[OracleReport]) -> str:
    return _json_text(_run_json(run, oracle)) + "\n"


# -- entry point ------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as an input error (exit 3): exit 2 means
    the solver gave up."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _natural(text: str) -> int:
    if not (text.isascii() and text.isdecimal()):
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
        with open(args.file, encoding="utf-8-sig") as fh:
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
    out = run.outcome

    report = None
    if args.oracle is not None:
        report = bounded_check(
            parsed.problem, n=args.oracle, node_cap=args.oracle_node_cap
        )
        # A failing instance the oracle never reached is no disagreement.
        # An irr-cycle verdict at i unfolded up to its lookahead past i, so
        # plain unification may first fail that many instances later.
        if isinstance(out, NotUnifiable):
            reach = out.instance + out.lookahead
            disagree = report.ok and report.checked_up_to >= reach
        else:
            disagree = isinstance(out, CycleFound) and not report.ok
        if disagree:
            print(
                "warning: oracle disagreement:"
                f" solver={verdict_name(out)}"
                f" oracle_first_failure={report.first_failure}",
                file=sys.stderr,
            )

    expected = parsed.directives.get("expect")
    if expected is not None and expected != verdict_name(out):
        print(
            f"warning: expected verdict {expected!r},"
            f" got {verdict_name(out)!r}",
            file=sys.stderr,
        )

    if args.json:
        sys.stdout.write(to_json(run, report))
    elif args.trace:
        sys.stdout.write(emit_trace(run))
    else:
        print(outcome_line(out))
        if isinstance(out, CycleFound):
            print(f"mu: {_mapping_str(out.mapping)}")
    return exit_code(out)


if __name__ == "__main__":
    sys.exit(main())
