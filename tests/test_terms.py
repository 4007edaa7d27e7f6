import copy
import gc
import os
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schemunif import terms as terms_module
from schemunif.cli import parse_problem
from schemunif.terms import App, Var, Variable, app, const, shift, var

from .conftest import (
    GOLDEN_BASE,
    PROBLEM_DIR,
    X,
    Z,
    f,
    positions,
    problem_instance,
    reference_str,
    subterms,
    terms,
)


def test_variable_str():
    assert str(var("X", 3)) == "X[3]"


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        Variable("X", -1)
    with pytest.raises(ValueError):
        Variable("", 0)
    with pytest.raises(ValueError):
        Variable("X", 1)._replace(index=-1)


@pytest.mark.parametrize(
    "build",
    [
        lambda symbol, index: Variable(symbol, index),
        lambda symbol, index: Variable._make((symbol, index)),
        lambda symbol, index: Variable("X", 1)._replace(symbol=symbol, index=index),
    ],
    ids=["call", "make", "replace"],
)
def test_every_constructor_checks_the_fields(build):
    with pytest.raises(ValueError, match="negative variable index"):
        build("X", -1)
    with pytest.raises(ValueError, match="empty variable symbol"):
        build("", 0)
    v = build("X", 0)
    assert type(v) is Variable and v == ("X", 0)


def test_variable_value_semantics():
    v = Variable("X", 3)
    assert v == Variable("X", 3)
    assert hash(v) == hash(Variable("X", 3))
    assert v != Variable("X", 4) and v != Variable("Y", 3)
    assert (v.symbol, v.index) == ("X", 3)
    assert repr(v) == "Variable(symbol='X', index=3)"
    assert Variable(index=3, symbol="X") == v
    # Ordered by symbol, then index.
    assert sorted([Variable("Y", 0), Variable("X", 10), Variable("X", 2)]) == [
        Variable("X", 2),
        Variable("X", 10),
        Variable("Y", 0),
    ]
    for copied in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert copied == v and type(copied) is Variable
    with pytest.raises(AttributeError):
        v.index = 4
    with pytest.raises(AttributeError):
        v.extra = 0


def test_term_str():
    assert str(f(X(0), app("g", X(1)))) == "f(X[0], g(X[1]))"
    assert str(const("a")) == "a"


@given(terms(), terms())
def test_cached_text_matches_the_reference_printer(s, t):
    """str(u) is the text of the recursive printer whether or not some of
    u's subterms were printed before (s is, first), and a second str(u)
    returns the cached text itself."""
    u = f(s, t)
    assert str(s) == reference_str(s)
    text = str(u)
    assert text == reference_str(u)
    assert str(u) is text
    for sub in subterms(u):
        assert str(sub) == reference_str(sub)


def test_a_shared_subterm_keeps_one_text():
    shared = f(X(7), app("g", Z(8)))
    t = f(shared, f(shared, shared))
    text = str(t)
    assert text == "f(f(X[7], g(Z[8])), f(f(X[7], g(Z[8])), f(X[7], g(Z[8]))))"
    assert str(shared) is str(shared)
    assert str(t) is text


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
    assert s.depth == t.depth
    assert positions(s) == positions(t)
    assert {v.symbol for v in s.vars} == {v.symbol for v in t.vars}


def test_depth_of_golden_base():
    # f(f(X1, f(Z0, f(X1, f(X0, f(Z1, X0))))), L1) nests five f's under the
    # left argument of the root.
    assert GOLDEN_BASE.depth == 7


def test_depth_leaves():
    assert X(0).depth == 1
    assert const("a").depth == 1


@given(terms())
def test_variables_matches_subterm_scan(t):
    expect = {s.var for s in subterms(t) if isinstance(s, Var)}
    assert t.vars == expect


@given(terms(), terms())
def test_term_key_total_order(s, t):
    # Keys are canonical: equal keys only for equal terms.
    assert (s.key == t.key) == (s == t)


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
    assert t.depth == _depth(t)
    assert t.vars == _vars(t)
    assert t.key == _key(t)
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
    inst = problem_instance(problem, 16)
    assert sum(e.lhs.size + e.rhs.size for e in inst) >= 131_072
    seen, todo = set(), [t for e in inst for t in (e.lhs, e.rhs)]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if isinstance(t, App):
                todo.extend(t.args)
    assert len(seen) <= 500


# -- the intern tables ----------------------------------------------------------


def test_intern_entry_goes_with_its_last_reference():
    v = Variable("Qintern", 7)
    t = app("hintern", Var(v), const("cintern"))
    structure = (t.head, t.args)
    text, key = str(t), t.key
    assert terms_module._apps[structure]() is t
    del t
    gc.collect()
    assert structure not in terms_module._apps
    # structure still holds the arguments; dropping it frees the variable.
    del structure
    gc.collect()
    assert v not in terms_module._vars
    rebuilt = app("hintern", Var(v), const("cintern"))
    assert str(rebuilt) == text and rebuilt.key == key
    assert _rebuild(rebuilt) is rebuilt
    assert terms_module._apps[(rebuilt.head, rebuilt.args)]() is rebuilt
    assert terms_module._vars[v]() is rebuilt.args[0]


def test_stale_intern_callback_keeps_the_live_entry():
    # A term dying in a collected cycle can call back after a new term
    # took its key; the callback must leave the new entry alone.
    structure = ("hstale", ())
    t = const("hstale")
    old = terms_module._apps[structure]
    forget = old.__callback__  # cleared once it has run
    del t
    gc.collect()
    assert old() is None and structure not in terms_module._apps
    live = const("hstale")
    forget(old)
    assert terms_module._apps[structure]() is live
    assert const("hstale") is live
    v = Variable("Qstale", 0)
    t = Var(v)
    old = terms_module._vars[v]
    forget = old.__callback__
    del t
    gc.collect()
    live_var = Var(v)
    forget(old)
    assert terms_module._vars[v]() is live_var
