from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from schemunif.cli import parse_problem
from schemunif.oracle import bounded_check
from schemunif.schema import Schema, make_primitive
from schemunif.solver import (
    CycleFound,
    Exhausted,
    NotUnifiable,
    SchematicProblem,
    check_for_map,
    compute_eq_sub,
    cycle_check,
    future_relevant,
    irrelevant_set,
    irrelevant_vars,
    normalized_store,
    simplified_store,
    stab_index,
    step_substitution,
    u_sch_unif,
    var_disjoint,
)
from schemunif.terms import Var, depth, shift, subterms, var
from schemunif.unify import Substitution, eq_vars

from .conftest import EX_BASE, L, X, Y, Z, eq, f, h, uniform_problems


def ex_schema():
    return Schema.of({"L": EX_BASE})


def test_step_substitution_unfolds_store_schema_vars():
    schema = ex_schema()
    store = frozenset([eq(Y(0), h(X(0), X(1))), eq(L(1), h(Y(1), Y(0)))])
    psi = step_substitution(store, schema)
    assert psi.domain() == {L(1).var}
    assert psi.apply(L(1)) == shift(1, EX_BASE)


def test_irrelevant_set_keeps_non_schema_bindings():
    schema = ex_schema()
    active = frozenset(
        [
            eq(Y(1), h(X(1), X(2))),
            eq(L(2), h(X(0), X(0))),
            eq(h(X(0), X(1)), Y(0)),
        ]
    )
    assert irrelevant_set(active, schema) == {eq(Y(1), h(X(1), X(2)))}


def test_irrelevant_vars_excludes_store_and_schema():
    schema = ex_schema()
    irr = frozenset([eq(Y(1), h(X(1), L(2)))])
    store = frozenset([eq(X(1), h(Y(5), Y(5)))])
    # L[2] is a schema variable and X[1] occurs in the store; only Y[1]
    # counts as irrelevant.
    assert irrelevant_vars(irr, store, schema) == {Y(1).var}


def test_cycle_check_clean_set():
    schema = ex_schema()
    irr = frozenset([eq(Y(1), h(X(1), X(2)))])
    assert cycle_check(irr, schema) is None
    assert cycle_check(frozenset(), schema) is None


def test_cycle_check_direct_occurrence():
    schema = ex_schema()
    irr = frozenset([eq(Y(1), h(Y(1), X(2)))])
    failure = cycle_check(irr, schema)
    assert failure is not None and failure.kind == "cycle"


def test_cycle_check_through_unfolding():
    # X[2] is bound to a term mentioning L[1]; unfolding L[1] twice emits
    # X[2] itself, closing an occurs cycle that is invisible before
    # unfolding.
    schema = ex_schema()
    irr = frozenset([eq(X(2), h(Y(0), L(1)))])
    failure = cycle_check(irr, schema)
    assert failure is not None and failure.kind == "cycle"


def test_compute_eq_sub_collapses_orbits():
    schema = ex_schema()
    store = frozenset(
        [
            eq(X(3), X(5)),
            eq(X(5), X(3)),
            eq(Z(3), Z(5)),
            eq(Z(5), Z(3)),
            eq(L(5), h(X(0), X(0))),
        ]
    )
    sub = compute_eq_sub(store, schema)
    assert sub.mapping == {X(3).var: X(5), Z(3).var: Z(5)}


def test_compute_eq_sub_ignores_one_directional_pairs():
    schema = ex_schema()
    store = frozenset([eq(X(3), X(5))])
    assert not compute_eq_sub(store, schema)


def test_compute_eq_sub_ties_break_on_symbol():
    schema = ex_schema()
    store = frozenset([eq(X(3), Z(3)), eq(Z(3), X(3))])
    sub = compute_eq_sub(store, schema)
    assert sub.mapping == {X(3).var: Z(3)}


def test_compute_eq_sub_merges_chained_orbit():
    schema = ex_schema()
    store = frozenset(
        [
            eq(X(1), X(2)),
            eq(X(2), X(1)),
            eq(X(2), X(4)),
            eq(X(4), X(2)),
        ]
    )
    sub = compute_eq_sub(store, schema)
    assert sub.mapping == {X(1).var: X(4), X(2).var: X(4)}


def test_future_relevant_needs_index_and_symbol():
    schema = ex_schema()
    store = frozenset(
        [eq(X(2), h(Y(0), Y(0))), eq(Y(5), h(X(0), X(0))), eq(L(1), h(X(0), X(0)))]
    )
    psi = step_substitution(store, schema)
    # X[2]'s index reaches L[1] and the base re-emits X; Y never appears in
    # the base, and nothing else qualifies.
    assert future_relevant(store, psi, schema) == {X(2).var}


def test_future_relevant_empty_without_schema_vars():
    schema = ex_schema()
    store = frozenset([eq(X(2), h(Y(0), Y(0)))])
    assert future_relevant(store, step_substitution(store, schema), schema) == frozenset()


def test_normalized_store_folds_unfoldings():
    schema = ex_schema()
    store = frozenset([eq(Y(0), shift(2, EX_BASE))])
    assert normalized_store(store, schema) == {eq(Y(0), L(2))}


def test_simplified_store_applies_sub_and_drops_reflexive():
    schema = ex_schema()
    store = frozenset([eq(X(3), X(5)), eq(X(5), X(3)), eq(Y(0), h(X(3), X(5)))])
    sub = compute_eq_sub(store, schema)
    assert simplified_store(store, sub, schema) == {eq(Y(0), h(X(5), X(5)))}


# -- renaming search ---------------------------------------------------------


def test_check_for_map_finds_shift_renaming():
    eqs1 = frozenset([eq(L(15), f(X(10), f(Z(11), X(10))))])
    eqs2 = frozenset([eq(L(5), f(X(0), f(Z(1), X(0))))])
    mu = check_for_map(frozenset(), eqs1, frozenset(), eqs2)
    assert mu == {
        L(15).var: L(5).var,
        X(10).var: X(0).var,
        Z(11).var: Z(1).var,
    }


def test_check_for_map_requires_symbol_match():
    eqs1 = frozenset([eq(X(1), f(Y(0), Y(0)))])
    eqs2 = frozenset([eq(Z(1), f(Y(0), Y(0)))])
    assert check_for_map(frozenset(), eqs1, frozenset(), eqs2) is None


def test_check_for_map_identity_on_shared_variables():
    eqs1 = frozenset([eq(X(1), f(Y(0), Y(0)))])
    eqs2 = frozenset([eq(X(2), f(Y(0), Y(0)))])
    # X[1] is not shared, Y[0] is; the only candidate maps X[1] to X[2] and
    # keeps Y[0] fixed.
    mu = check_for_map(frozenset(), eqs1, frozenset(), eqs2)
    assert mu == {X(1).var: X(2).var, Y(0).var: Y(0).var}


def test_check_for_map_shared_variable_conflict():
    # Y[0] and Y[1] occur in both sets, so neither may be renamed; the only
    # head-compatible pairing would have to swap them.
    eqs1 = frozenset([eq(X(1), f(Y(0), Y(0))), eq(X(2), f(Y(1), Y(1)))])
    eqs2 = frozenset([eq(X(1), f(Y(1), Y(1))), eq(X(2), f(Y(0), Y(0)))])
    assert check_for_map(frozenset(), eqs1, frozenset(), eqs2) is None


def test_check_for_map_respects_future_relevance():
    eqs1 = frozenset([eq(X(9), f(Y(8), Y(8)))])
    eqs2 = frozenset([eq(X(1), f(Y(0), Y(0)))])
    assert (
        check_for_map(frozenset([X(9).var]), eqs1, frozenset(), eqs2) is None
    )
    assert (
        check_for_map(
            frozenset([X(9).var]), eqs1, frozenset([X(1).var]), eqs2
        )
        is not None
    )


def test_check_for_map_needs_equal_sizes():
    eqs1 = frozenset([eq(X(1), f(Y(0), Y(0))), eq(Z(1), f(Y(0), Y(0)))])
    eqs2 = frozenset([eq(X(0), f(Y(9), Y(9)))])
    assert check_for_map(frozenset(), eqs1, frozenset(), eqs2) is None


def test_check_for_map_backtracks_over_pairings():
    # Both sets hold two equations with the same head; only one pairing is
    # consistent, and it is not the one canonical order tries first.
    eqs1 = frozenset(
        [eq(X(1), f(Y(1), Z(1))), eq(X(2), f(Z(1), Y(1)))]
    )
    eqs2 = frozenset(
        [eq(X(4), f(Y(2), Z(2))), eq(X(3), f(Z(2), Y(2)))]
    )
    mu = check_for_map(frozenset(), eqs1, frozenset(), eqs2)
    assert mu is not None
    assert mu[X(1).var] == X(4).var
    assert mu[X(2).var] == X(3).var


def test_stab_index_uses_depth_and_max_index():
    schema = ex_schema()
    problem = SchematicProblem(
        frozenset([eq(L(0), h(Y(0), h(Y(1), Y(0))))]), schema
    )
    psi = Substitution({L(0).var: schema.binding(L(0).var)})
    assert stab_index(problem, psi) == 4


# -- full runs ---------------------------------------------------------------


def test_not_unifiable_instance_zero():
    schema = ex_schema()
    problem = SchematicProblem(
        frozenset([eq(Y(0), h(Y(0), Y(1)))]), schema
    )
    run = u_sch_unif(problem)
    assert isinstance(run.outcome, NotUnifiable)
    assert run.outcome.instance == 0
    assert run.outcome.cause == "cycle"
    assert run.records == []


def test_not_unifiable_later_clash():
    # Instance 0 unifies, but one unfolding forces the g-term against the
    # f-headed recursive tail.
    schema = Schema.of({"L": f(X(0), L(1))})
    problem = SchematicProblem(
        frozenset(
            [eq(L(0), f(Y(0), Y(1))), eq(Y(1), app_g(Y(2)))]
        ),
        schema,
    )
    run = u_sch_unif(problem)
    assert isinstance(run.outcome, NotUnifiable)
    assert run.outcome.cause == "clash"
    assert run.outcome.instance >= 1


def app_g(t):
    from schemunif.terms import app

    return app("g", t)


def test_non_uniform_schema_rejected():
    schema = Schema.of({"L": f(L(1), L(2))})
    problem = SchematicProblem(frozenset([eq(L(0), Y(0))]), schema)
    with pytest.raises(ValueError):
        u_sch_unif(problem)


def test_exhausted_with_tiny_cap(golden_problem):
    run = u_sch_unif(golden_problem, cap=3)
    assert isinstance(run.outcome, Exhausted)
    assert run.outcome.cap == 3
    assert len(run.records) == 4


def test_cycle_records_cover_all_instances(golden_run):
    out = golden_run.outcome
    assert isinstance(out, CycleFound)
    assert [r.i for r in golden_run.records] == list(range(out.i + 1))
    assert golden_run.records[out.i].store == out.store_i
    assert golden_run.records[out.j].store == out.store_j


def test_cycle_mapping_is_a_store_isomorphism(golden_run):
    out = golden_run.outcome
    rec_i = golden_run.records[out.i]
    rec_j = golden_run.records[out.j]
    renaming = Substitution({v: Var(w) for v, w in out.mapping.items()})
    assert renaming.apply_eqs(rec_i.simplified) == rec_j.simplified
    assert var_disjoint(rec_i, rec_j)


def test_var_disjoint_blocks_shared_store_variables(golden_run):
    # (13, 8) is a renaming hit, but the stores share variables, which is
    # exactly why the scan must keep going until (15, 5).
    rec_13 = golden_run.records[13]
    rec_8 = golden_run.records[8]
    assert (
        check_for_map(
            rec_13.fr, rec_13.simplified, rec_8.fr, rec_8.simplified
        )
        is not None
    )
    assert not var_disjoint(rec_13, rec_8)
    assert eq_vars(rec_13.store) & eq_vars(rec_8.store)


def test_metric_equals_store_vars_minus_sub_domain(golden_run):
    for rec in golden_run.records:
        assert rec.metric == len(eq_vars(rec.store)) - len(rec.eq_sub.domain())


def test_ratios_only_past_stab(golden_run):
    stab = golden_run.stab
    for rec in golden_run.records:
        if rec.i < stab:
            assert rec.ratio is None
        else:
            assert isinstance(rec.ratio, Fraction)
            assert rec.ratio <= 1


# -- corpus-wide structural properties --------------------------------------


def _displaced_copy(s, t):
    """True when t is s with every variable index moved by one constant."""
    from schemunif.terms import App

    d = None

    def go(a, b):
        nonlocal d
        if isinstance(a, Var):
            if not isinstance(b, Var) or a.var.symbol != b.var.symbol:
                return False
            delta = b.var.index - a.var.index
            if d is not None and delta != d:
                return False
            d = delta
            return True
        return (
            isinstance(b, App)
            and a.head == b.head
            and len(a.args) == len(b.args)
            and all(go(x, y) for x, y in zip(a.args, b.args))
        )

    return go(s, t)


def _shift_of_subterm(t, reference_terms):
    for ref in reference_terms:
        for s in subterms(ref):
            if _displaced_copy(s, t):
                return True
    return False


def test_normalized_stores_stay_within_first_unfolding(corpus):
    """Normalized store terms never get deeper than the once-unfolded
    initial instance, and every one of them is an index-shift of one of its
    subterms."""
    for path, parsed in corpus:
        eqs, schema, _ = make_primitive(
            parsed.problem.equations, parsed.problem.schema
        )
        problem = SchematicProblem(eqs, schema)
        reference = []
        for e in problem.instance(1):
            reference.extend([e.lhs, e.rhs])
        depth_cap = max(depth(t) for t in reference)
        run = u_sch_unif(problem)
        for rec in run.records:
            ns = normalized_store(rec.store, schema)
            for e in ns:
                assert depth(e.rhs) <= depth_cap, (path, rec.i, str(e))
                assert _shift_of_subterm(e.lhs, reference), (path, rec.i, str(e))
                assert _shift_of_subterm(e.rhs, reference), (path, rec.i, str(e))


def test_store_lhs_variables_across_corpus(corpus):
    for path, parsed in corpus:
        run = u_sch_unif(parsed.problem)
        for rec in run.records:
            for e in rec.store:
                assert isinstance(e.lhs, Var), (path, rec.i, str(e))


# -- recursion offsets above 1 -----------------------------------------------

# Instance 1 binds X[3] to f(f(X[2], g(X[3])), L[3]): an occurs cycle.
OFFSET2_OCCURS = """
schema:
  L[i] -> f(f(X[i+1], g(X[i+2])), L[i+2]);
problem:
  X[3] = L[1];
  g(L[2]) = g(Y[1]);
"""

# Unfolding L[3] reaches only odd-indexed X and unfolding L[0] only
# even-indexed X, so the two never meet and every instance unifies.
OFFSET2_PARITY = """
schema:
  L[i] -> f(X[i], L[i+2]);
problem:
  L[3] = f(L[0], Y[1]);
"""


def test_offset2_occurs_cycle_is_not_unifiable():
    problem = parse_problem(OFFSET2_OCCURS).problem
    out = u_sch_unif(problem).outcome
    assert isinstance(out, NotUnifiable)
    assert (out.instance, out.cause) == (1, "irr-cycle")
    assert bounded_check(problem, n=1).first_failure == (1, "cycle")


def test_offset2_parity_is_unifiable():
    problem = parse_problem(OFFSET2_PARITY).problem
    out = u_sch_unif(problem).outcome
    assert isinstance(out, CycleFound)
    n = out.i + 2 * (out.i - out.j)
    report = bounded_check(problem, n=n)
    assert report.ok and report.checked_up_to == n


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(uniform_problems(max_offset=3))
def test_solver_agrees_with_oracle_on_uniform_problems(problem):
    """A cycle survives the oracle to i + 2(i - j); a clash or occurs cycle
    at instance i is the oracle's first failure, although not always of the
    same kind (saturation can meet a clash before plain unification meets
    a cycle, and the other way round).  The irrelevant-set check
    unfolds ahead of the instance, so an irr-cycle at i may show in the
    oracle a few instances later; it must show at i or later, and by
    i + 5."""
    out = u_sch_unif(problem, cap=30).outcome
    if isinstance(out, CycleFound):
        report = bounded_check(problem, n=out.i + 2 * (out.i - out.j))
        assert report.first_failure is None
    elif isinstance(out, NotUnifiable):
        if out.cause == "irr-cycle":
            report = bounded_check(problem, n=out.instance + 5)
            assert report.first_failure is not None
            assert report.first_failure[0] >= out.instance
        else:
            report = bounded_check(problem, n=out.instance)
            assert report.first_failure is not None
            assert report.first_failure[0] == out.instance
