import glob
import os
import sys

import pytest
from hypothesis import strategies as st

from schemunif.cli import parse_problem
from schemunif.schema import Schema
from schemunif.solver import SchematicProblem
from schemunif.terms import App, Var, app, var, variables
from schemunif.unify import Equation, Substitution, UnifyFailure, sorted_eqs

sys.setrecursionlimit(100_000)

HERE = os.path.dirname(__file__)
PROBLEM_DIR = os.path.join(HERE, "..", "problems")
# For subprocesses: the checkout's sources ahead of anything inherited.
SRC_PATH = os.pathsep.join(
    [os.path.join(HERE, "..", "src")]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


def f(*args):
    return app("f", *args)


def h(*args):
    return app("h", *args)


def X(i):
    return var("X", i)


def Y(i):
    return var("Y", i)


def Z(i):
    return var("Z", i)


def L(i):
    return var("L", i)


def eq(lhs, rhs):
    return Equation(lhs, rhs)


GOLDEN_BASE = f(f(X(1), f(Z(0), f(X(1), f(X(0), f(Z(1), X(0)))))), L(1))


@pytest.fixture(scope="session")
def golden_problem():
    schema = Schema.of({"L": GOLDEN_BASE})
    lhs = f(X(4), L(0))
    rhs = f(f(Y(3), Y(3)), f(Y(0), f(Y(1), Y(0))))
    return SchematicProblem(frozenset([eq(lhs, rhs)]), schema)


@pytest.fixture(scope="session")
def golden_run(golden_problem):
    from schemunif.solver import u_sch_unif

    return u_sch_unif(golden_problem)


# h-schema of the worked two-instance example: one parameter repeated
# around the next parameter, recursing at offset 1.
EX_BASE = h(h(X(0), h(X(1), X(0))), L(1))


@pytest.fixture(scope="session")
def h_problem():
    schema = Schema.of({"L": EX_BASE})
    return SchematicProblem(
        frozenset([eq(L(0), h(Y(0), h(Y(1), Y(0))))]), schema
    )


def corpus_paths():
    return sorted(glob.glob(os.path.join(PROBLEM_DIR, "*.prob")))


@pytest.fixture(scope="session")
def corpus():
    out = []
    for path in corpus_paths():
        with open(path, encoding="utf-8") as fh:
            out.append((path, parse_problem(fh.read())))
    return out


# -- hypothesis strategies ---------------------------------------------------

SYMBOLS = ["X", "Y", "Z", "W", "V", "U"]
FUNS = [("f", 2), ("g", 1), ("a", 0), ("b", 0)]


def terms(max_depth=4, max_index=4, symbols=SYMBOLS):
    variables = st.builds(
        var,
        st.sampled_from(symbols),
        st.integers(min_value=0, max_value=max_index),
    )

    def extend(children):
        return st.one_of(
            *(
                st.builds(lambda *args, head=name: app(head, *args), *(
                    [children] * arity
                ))
                if arity
                else st.just(app(name))
                for name, arity in FUNS
            )
        )

    return st.recursive(variables, extend, max_leaves=2 ** (max_depth - 1))


def equations(max_eqs=5, **kw):
    return st.frozensets(
        st.builds(Equation, terms(**kw), terms(**kw)),
        min_size=1,
        max_size=max_eqs,
    )


def primitive_schemas():
    """Single-rule schemas recursing at offset 0 or 1."""

    def build(param_sym, idx1, idx2, offset, shape):
        rec = var("L", offset)
        p1 = var(param_sym, idx1)
        p2 = var(param_sym, idx2)
        if shape == 0:
            base = f(p1, rec)
        elif shape == 1:
            base = f(f(p1, p2), rec)
        else:
            base = f(p1, f(p2, rec))
        return Schema.of({"L": base})

    return st.builds(
        build,
        st.sampled_from(["X", "Y", "Z"]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=2),
    )


def uniform_problems(max_offset=3):
    """Single-rule uniform problems: L[i] recurses at offset 0..max_offset
    around parameters X[i+k]; one equation binds some L[k], and an optional
    second one relates two terms over L, X and Y."""
    fx = st.sampled_from([("f", 2), ("g", 1)])

    def base_of(shape, k1, k2, offset):
        rec, p1, p2 = var("L", offset), var("X", k1), var("X", k2)
        return [
            f(p1, rec),
            f(f(p1, p2), rec),
            f(p1, f(p2, rec)),
            f(f(p1, app("g", p2)), rec),
            f(rec, app("g", p1)),
        ][shape]

    leaves = st.builds(
        var, st.sampled_from(["L", "X", "Y"]), st.integers(0, 3)
    )

    def extend(children):
        return st.one_of(
            st.builds(f, children, children),
            st.builds(lambda t: app("g", t), children),
        )

    side = st.recursive(leaves | st.just(app("a")), extend, max_leaves=4)
    schema = st.builds(
        base_of,
        st.integers(0, 4),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, max_offset),
    ).map(lambda base: Schema.of({"L": base}))
    tie = st.builds(
        Equation, st.builds(var, st.just("L"), st.integers(0, 3)), side
    )
    eqs = st.builds(
        lambda first, rest: frozenset([first, *rest]),
        tie,
        st.lists(st.builds(Equation, side, side), max_size=1),
    )
    return st.builds(SchematicProblem, eqs, schema)


# -- reference unifier -------------------------------------------------------


def reference_unify(eqs):
    """The library's earlier unifier, kept as the reference: the same rule
    loop as schemunif.unify.unify over a fully applied, idempotent solved
    form (every binding is rewritten on each elimination), which can grow
    exponentially on chain-shaped input."""
    work = sorted_eqs(eqs)
    sub = {}

    def resolve(t):
        while isinstance(t, Var) and t.var in sub:
            t = sub[t.var]
        return t

    def deep_apply(t):
        t = resolve(t)
        if isinstance(t, Var):
            return t
        return App(t.head, tuple(deep_apply(a) for a in t.args))

    while work:
        e = work.pop(0)
        s, t = resolve(e.lhs), resolve(e.rhs)
        if s == t:
            continue
        if isinstance(s, App) and isinstance(t, App):
            if s.head != t.head or len(s.args) != len(t.args):
                return UnifyFailure("clash", Equation(s, t))
            work = [Equation(a, b) for a, b in zip(s.args, t.args)] + work
            continue
        if isinstance(t, Var) and not isinstance(s, Var):
            s, t = t, s
        t = deep_apply(t)
        if s.var in variables(t):
            return UnifyFailure("cycle", Equation(s, t))
        sub[s.var] = t
        one = Substitution({s.var: t})
        for v in list(sub):
            if v != s.var:
                sub[v] = one.apply(sub[v])
    return Substitution(sub)
