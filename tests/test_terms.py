import copy
import os
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schemunif.cli import parse_problem
from schemunif.terms import (
    App,
    InvalidPosition,
    Var,
    Variable,
    app,
    const,
    depth,
    positions,
    shift,
    subterm_at,
    subterms,
    term_key,
    var,
    var_sets,
    variables,
)

from .conftest import GOLDEN_BASE, PROBLEM_DIR, X, Z, f, terms


def test_variable_str():
    assert str(var("X", 3)) == "X[3]"


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        Variable("X", -1)


def test_term_str():
    assert str(f(X(0), app("g", X(1)))) == "f(X[0], g(X[1]))"
    assert str(const("a")) == "a"


def test_shift_example():
    assert shift(2, f(X(0), Z(1))) == f(X(2), Z(3))


def test_shift_constant_fixed():
    t = f(const("a"), const("b"))
    assert shift(5, t) == t


@given(terms(), st.integers(min_value=0, max_value=10))
def test_shift_zero_is_identity(t, _d):
    assert shift(0, t) == t


@given(terms(), st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_shift_composes_additively(t, d1, d2):
    assert shift(d1, shift(d2, t)) == shift(d1 + d2, t)


@given(terms(), st.integers(min_value=1, max_value=6))
def test_shift_preserves_structure(t, d):
    s = shift(d, t)
    assert depth(s) == depth(t)
    assert positions(s) == positions(t)
    assert {v.symbol for v in variables(s)} == {v.symbol for v in variables(t)}


def test_depth_of_golden_base():
    # f(f(X1, f(Z0, f(X1, f(X0, f(Z1, X0))))), L1) nests five f's under the
    # left argument of the root.
    assert depth(GOLDEN_BASE) == 7


def test_depth_leaves():
    assert depth(X(0)) == 1
    assert depth(const("a")) == 1


def test_positions_and_subterm_at():
    t = f(X(0), f(Z(1), X(2)))
    assert positions(t) == [(), (1,), (2,), (2, 1), (2, 2)]
    assert subterm_at(t, ()) == t
    assert subterm_at(t, (2, 1)) == Z(1)
    with pytest.raises(InvalidPosition):
        subterm_at(t, (3,))
    with pytest.raises(InvalidPosition):
        subterm_at(t, (1, 1))


@given(terms())
def test_every_position_resolves(t):
    seen = [subterm_at(t, p) for p in positions(t)]
    assert seen == list(subterms(t))


@given(terms())
def test_variables_matches_subterm_scan(t):
    from schemunif.terms import Var

    expect = {s.var for s in subterms(t) if isinstance(s, Var)}
    assert variables(t) == expect
    syms, idxs, vs = var_sets(t)
    assert vs == frozenset(expect)
    assert syms == {v.symbol for v in expect}
    assert idxs == {v.index for v in expect}


@given(terms(), terms())
def test_term_key_total_order(s, t):
    # Keys are canonical: equal keys only for equal terms.
    assert (term_key(s) == term_key(t)) == (s == t)


# -- interning ----------------------------------------------------------------


def _rebuild(t):
    """A fresh construction of t from its parts, bottom up."""
    if isinstance(t, Var):
        return Var(Variable(t.var.symbol, t.var.index))
    return App(t.head, tuple(_rebuild(a) for a in t.args))


def _size(t):
    return 1 if isinstance(t, Var) else 1 + sum(_size(a) for a in t.args)


def _depth(t):
    if isinstance(t, Var) or not t.args:
        return 1
    return 1 + max(_depth(a) for a in t.args)


def _vars(t):
    if isinstance(t, Var):
        return {t.var}
    return set().union(*(_vars(a) for a in t.args))


def _key(t):
    if isinstance(t, Var):
        return (0, t.var.symbol, t.var.index)
    return (1, t.head, len(t.args), tuple(_key(a) for a in t.args))


@given(terms())
def test_equal_structure_is_the_same_object(t):
    assert _rebuild(t) is t
    if isinstance(t, App):
        assert App(t.head, t.args) is App(t.head, list(t.args)) is t


@given(terms())
def test_cached_fields_match_recursive_definitions(t):
    assert t.size == _size(t)
    assert depth(t) == t.depth == _depth(t)
    assert variables(t) == t.vars == _vars(t)
    assert term_key(t) == t.key == _key(t)
    assert hash(t) == hash(_rebuild(t))


@given(terms())
def test_copies_are_the_interned_object(t):
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t
    assert copy.deepcopy([t, (t, 1)])[1][0] is t


def test_terms_are_immutable():
    t = f(X(0), Z(1))
    for name, value in (("head", "g"), ("args", ()), ("size", 1), ("extra", 0)):
        with pytest.raises(AttributeError):
            setattr(t, name, value)
    with pytest.raises(AttributeError):
        X(0).var = Variable("Y", 0)
    with pytest.raises(AttributeError):
        del t.head
    assert str(t) == "f(X[0], Z[1])"


def test_unfolded_instance_is_shared():
    # Each unfolding of L[i] -> f(L[i+1], L[i+1]) doubles the tree but adds
    # one distinct node.
    with open(os.path.join(PROBLEM_DIR, "double_rec.prob")) as fh:
        problem = parse_problem(fh.read()).problem
    inst = problem.instance(16)
    assert sum(e.lhs.size + e.rhs.size for e in inst) >= 131_072
    seen, todo = set(), [t for e in inst for t in (e.lhs, e.rhs)]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if isinstance(t, App):
                todo.extend(t.args)
    assert len(seen) <= 500
