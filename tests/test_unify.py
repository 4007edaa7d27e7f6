from hypothesis import given, settings
from hypothesis import strategies as st

from schemunif.terms import app, const, var
from schemunif.unify import (
    EMPTY_SUB,
    Substitution,
    UnifyFailure,
    eq_vars,
    mgu_or_none,
    sorted_eqs,
    unifiable,
    unify,
)

from .conftest import X, Y, Z, eq, equations, f, reference_unify, terms


def test_substitution_drops_self_bindings():
    s = Substitution({var("X", 0).var: X(0), var("Y", 0).var: X(1)})
    assert s.domain() == {var("Y", 0).var}


def test_substitution_apply():
    s = Substitution({X(0).var: f(Y(0), Y(1))})
    assert s.apply(f(X(0), Z(0))) == f(f(Y(0), Y(1)), Z(0))


def test_substitution_str_sorted():
    s = Substitution({Z(1).var: X(0), X(5).var: Y(0)})
    assert str(s) == "{X[5] -> Y[0], Z[1] -> X[0]}"


def test_compose_applies_second_to_first_range():
    s1 = Substitution({X(0).var: f(Y(0), Y(0))})
    s2 = Substitution({Y(0).var: Z(0)})
    composed = s1.compose(s2)
    assert composed.apply(X(0)) == f(Z(0), Z(0))
    assert composed.apply(Y(0)) == Z(0)


@given(terms(), terms(max_depth=2))
def test_compose_pointwise(t, _ignored):
    s1 = Substitution({X(0).var: f(Y(0), Y(1))})
    s2 = Substitution({Y(0).var: const("a"), X(1).var: Z(0)})
    assert s1.compose(s2).apply(t) == s2.apply(s1.apply(t))


def test_unify_simple_binding():
    r = unify([eq(X(0), f(Y(0), Y(1)))])
    assert isinstance(r, Substitution)
    assert r.apply(X(0)) == f(Y(0), Y(1))


def test_unify_clash():
    r = unify([eq(f(X(0), X(1)), app("g", Y(0)))])
    assert isinstance(r, UnifyFailure)
    assert r.kind == "clash"


def test_unify_arity_clash():
    r = unify([eq(app("f", X(0)), f(X(0), X(1)))])
    assert isinstance(r, UnifyFailure)
    assert r.kind == "clash"


def test_unify_occurs_cycle():
    r = unify([eq(X(0), f(X(0), Y(0)))])
    assert isinstance(r, UnifyFailure)
    assert r.kind == "cycle"
    assert not unifiable([eq(X(0), f(Y(0), Y(1))), eq(Y(0), X(0))])


def test_unify_chained():
    r = unify([eq(X(0), Y(0)), eq(Y(0), f(Z(0), Z(1))), eq(Z(0), const("a"))])
    assert isinstance(r, Substitution)
    assert r.apply(X(0)) == f(const("a"), Z(1))


def test_mgu_or_none():
    assert mgu_or_none([eq(X(0), f(X(0), X(0)))]) is None
    assert mgu_or_none([eq(X(0), X(0))]) == EMPTY_SUB


@settings(max_examples=300)
@given(equations())
def test_mgu_idempotent(eqs):
    r = unify(eqs)
    if isinstance(r, Substitution):
        for v, t in r.mapping.items():
            assert r.apply(t) == t, f"{v} binding not fully applied"


@settings(max_examples=300)
@given(equations())
def test_mgu_solves_the_equations(eqs):
    r = unify(eqs)
    if isinstance(r, Substitution):
        for e in eqs:
            assert r.apply(e.lhs) == r.apply(e.rhs)


@settings(max_examples=200)
@given(equations())
def test_unify_invariant_under_flips(eqs):
    flipped = frozenset(e.flip() for e in eqs)
    assert unifiable(eqs) == unifiable(flipped)


@given(equations())
def test_failure_carries_an_equation(eqs):
    r = unify(eqs)
    if isinstance(r, UnifyFailure):
        assert r.kind in ("clash", "cycle")
        assert r.equation is not None


def test_eq_vars_and_sorting():
    e1 = eq(f(X(0), Y(1)), Z(2))
    e2 = eq(X(0), X(0))
    assert eq_vars([e1, e2]) == {X(0).var, Y(1).var, Z(2).var}
    assert sorted_eqs([e1, e2]) == [e2, e1]


def test_equation_str_and_flip():
    e = eq(X(0), f(Y(0), Y(1)))
    assert str(e) == "X[0] = f(Y[0], Y[1])"
    assert e.flip().flip() == e


# -- the triangular unifier against the fully applied reference -------------

# Few symbols and indices, so variables are shared and cycles are common.
_SHARED = equations(max_eqs=6, max_index=1, symbols=["X", "Y"])


@settings(max_examples=200)
@given(st.one_of(equations(), _SHARED))
def test_unify_matches_reference_unifier(eqs):
    got, want = unify(eqs), reference_unify(eqs)
    assert type(got) is type(want)
    if isinstance(want, UnifyFailure):
        assert got.kind == want.kind
        if want.kind == "cycle":
            # Both report the variable against its fully applied binding.
            assert got.equation == want.equation
        return
    assert got == want
    for e in eqs:
        assert got.apply(e.lhs) == got.apply(e.rhs)
    for t in got.mapping.values():
        assert got.apply(t) == t


def _chain(n):
    """X[k] = f(X[k+1], X[k+1]) for k < n: the applied solved form of X[0]
    is a tree of 2^(n+1) - 1 nodes over n + 1 distinct ones."""
    return [eq(X(k), f(X(k + 1), X(k + 1))) for k in range(n)]


def test_unify_chain_stays_shared():
    r = unify(_chain(60) + [eq(X(60), app("a"))])
    assert isinstance(r, Substitution)
    assert r.apply(X(0)).size == 2 ** 61 - 1
    closing = unify(_chain(60) + [eq(X(60), f(X(0), X(0)))])
    assert isinstance(closing, UnifyFailure) and closing.kind == "cycle"
