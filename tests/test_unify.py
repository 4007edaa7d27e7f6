import copy
import gc
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemunif import engine, oracle, solver
from schemunif import unify as unify_module
from schemunif.schema import Schema
from schemunif.terms import app, const, shift, var
from schemunif.unify import (
    Equation,
    Substitution,
    UnifyFailure,
    eq_vars,
    sorted_eqs,
    unify,
)

from .conftest import L, X, Y, Z, eq, equations, f, reference_unify, terms, unifiable


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


def test_resolvers_leave_nothing_for_the_cyclic_collector():
    """Every rebuild is freed, with its memo, on return: the resolver of an
    mgu's map or of a unify that fails on a cycle, a substitution's applier
    and ``apply_eqs``, and ``Schema.normalize``.  None sits in a reference
    cycle."""
    cyclic = [eq(X(0), f(X(1), Y(0))), eq(X(1), f(Y(1), X(2))), eq(X(2), f(X(0), Y(2)))]
    sub = Substitution({X(0).var: f(Y(0), Y(1)), Y(1).var: Z(0)})
    schema = Schema.of({"L": f(X(0), L(1))})
    unfolded = f(Y(0), shift(2, f(X(0), f(X(1), L(2)))))
    gc.collect()
    gc.disable()
    try:
        failure = unify(cyclic)
        assert isinstance(failure, UnifyFailure) and failure.kind == "cycle"
        assert gc.collect() == 0
        mgu = unify(cyclic[:2])
        assert mgu.mapping[X(0).var] == f(f(Y(1), X(2)), Y(0))
        assert gc.collect() == 0
        assert sub.applier()(f(X(0), Y(1))) == f(f(Y(0), Y(1)), Z(0))
        assert gc.collect() == 0
        assert sub.apply_eqs([eq(X(0), Y(1))]) == {eq(f(Y(0), Y(1)), Z(0))}
        assert gc.collect() == 0
        assert schema.normalize(unfolded) == f(Y(0), L(2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_unify_chained():
    r = unify([eq(X(0), Y(0)), eq(Y(0), f(Z(0), Z(1))), eq(Z(0), const("a"))])
    assert isinstance(r, Substitution)
    assert r.apply(X(0)) == f(const("a"), Z(1))


def test_equation_value_semantics():
    e = Equation(X(0), f(Y(0), Y(1)))
    assert e == Equation(X(0), f(Y(0), Y(1)))
    assert hash(e) == hash(Equation(X(0), f(Y(0), Y(1))))
    assert e != e.flip() and e.flip().flip() == e
    assert (e.lhs, e.rhs) == (X(0), f(Y(0), Y(1)))
    assert Equation(rhs=f(Y(0), Y(1)), lhs=X(0)) == e
    assert str(e) == "X[0] = f(Y[0], Y[1])"
    assert repr(e) == f"Equation(lhs={X(0)!r}, rhs={f(Y(0), Y(1))!r})"
    for copied in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert copied == e and type(copied) is Equation
        assert copied.lhs is e.lhs and copied.rhs is e.rhs
    with pytest.raises(AttributeError):
        e.lhs = Y(0)
    with pytest.raises(AttributeError):
        e.extra = 0


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


# -- the mgu is resolved on first read ----------------------------------------


def _count_resolutions(monkeypatch):
    """A list that grows by one each time an mgu's map is resolved."""
    resolved = []
    real = unify_module._resolved

    def counting(bound):
        resolved.append(len(bound))
        return real(bound)

    monkeypatch.setattr(unify_module, "_resolved", counting)
    return resolved


def test_callers_never_resolve_an_mgu(monkeypatch, corpus, golden_problem):
    resolved = _count_resolutions(monkeypatch)
    verdicts = Counter()
    for module in (oracle, solver, engine):
        real = module.unify

        def counted(eqs, real=real, name=module.__name__):
            result = real(eqs)
            verdicts[name, type(result)] += 1
            return result

        monkeypatch.setattr(module, "unify", counted)
    for _path, parsed in corpus:
        oracle.bounded_check(parsed.problem, n=17)
    solver.u_sch_unif(golden_problem)  # its cycle_check calls
    (occurs,) = [p for path, p in corpus if path.endswith("occurs_direct.prob")]
    solver.u_sch_unif(occurs.problem)  # the engine's gate
    assert verdicts["schemunif.oracle", Substitution] > 0
    assert verdicts["schemunif.solver", Substitution] > 0
    assert verdicts["schemunif.engine", UnifyFailure] > 0
    assert resolved == []


def test_mgu_is_resolved_once_on_first_read(monkeypatch):
    resolved = _count_resolutions(monkeypatch)
    full = app("a")
    for _ in range(3):
        full = f(full, full)
    for read in (
        lambda r: r.mapping,
        lambda r: r.apply(X(0)),
        lambda r: r.apply_eqs([eq(X(0), Y(0))]),
        lambda r: r.domain(),
        lambda r: str(r),
        lambda r: copy.copy(r),
    ):
        r = unify(_chain(3) + [eq(X(3), app("a"))])
        assert type(r) is Substitution
        before = len(resolved)
        read(r)
        assert len(resolved) == before + 1
        assert r.apply(X(0)) == full
        assert r.domain() == {X(k).var for k in range(4)}
        assert len(resolved) == before + 1
    # A failure resolves its cycle equation, not an mgu.
    assert isinstance(unify(_chain(3) + [eq(X(3), f(X(0), X(0)))]), UnifyFailure)
    assert len(resolved) == 6


def test_lazy_mgu_copies_and_pickles_as_its_map():
    r = unify([eq(X(0), f(Y(0), Y(1)))])
    for copied in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(copied) is Substitution and copied == r
        assert copied.apply(X(0)) == f(Y(0), Y(1))
