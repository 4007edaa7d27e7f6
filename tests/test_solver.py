import gc
import itertools
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemunif import solver
from schemunif.cli import parse_problem, verdict_name
from schemunif.engine import EngineClass, th_unif
from schemunif.oracle import bounded_check
from schemunif.schema import Schema, make_primitive
from schemunif.solver import (
    CycleFound,
    Exhausted,
    NotUnifiable,
    SchematicProblem,
    StabilityViolation,
    check_for_map,
    compute_eq_sub,
    cycle_check,
    future_relevant,
    instances,
    irrelevant_set,
    normalized_store,
    simplified_store,
    stab_index,
    step_substitution,
    u_sch_unif,
    var_disjoint,
)
from schemunif.terms import Var, shift, var
from schemunif.unify import Substitution, eq_vars, unify

from .conftest import (
    EX_BASE,
    L,
    X,
    Y,
    Z,
    assert_spanning_stands_for_closure,
    carried_group_problems,
    derandomized_examples,
    eq,
    f,
    h,
    multi_rule_problems,
    problem_instance,
    reference_instances,
    subterms,
    tied_ring,
    tied_rings,
    uniform_problems,
)
from .test_corpus_outputs import ROOT, corpus_inputs


def ex_schema():
    return Schema.of({"L": EX_BASE})


def test_step_substitution_unfolds_store_schema_vars():
    schema = ex_schema()
    store = frozenset([eq(Y(0), h(X(0), X(1))), eq(L(1), h(Y(1), Y(0)))])
    psi = step_substitution(eq_vars(store), schema)
    assert psi.domain() == {L(1).var}
    assert psi.apply(L(1)) == shift(1, EX_BASE)


def irr_of(*groups):
    """The irrelevant set of the groups given as (plain, sides) pairs:
    groups, spanning equations, variables and depth."""
    return irrelevant_set(
        [EngineClass(tuple(plain), tuple(sides)) for plain, sides in groups],
        Substitution(),
        (),
        ex_schema(),
    )


def test_irrelevant_set_keeps_non_schema_bindings():
    schema = ex_schema()
    fc = th_unif(
        [
            eq(Y(1), h(X(1), X(2))),
            eq(L(2), h(X(0), X(0))),
            eq(L(0), Y(0)),
        ],
        schema,
    )
    # L[2]'s binding is stored, and L[0] = Y[0] stays active, but its left
    # side is a schema variable.
    assert eq(L(0), Y(0)) in fc.active
    groups, spanning, _, _ = irrelevant_set((), Substitution(), fc.classes, schema)
    assert {e for g in groups for e in g.closure()} == {
        eq(Y(1), h(X(1), X(2))),
        eq(Y(0), L(0)),
    }
    assert set(spanning) == {eq(Y(1), h(X(1), X(2))), eq(Y(0), L(0))}


def test_irrelevant_set_carries_groups_through_the_step():
    # psi unfolds L[1] in the right side; the plain members stay.
    schema = ex_schema()
    group = EngineClass((Y(0), Y(2)), (L(1),), (Y(2),))
    psi = step_substitution(frozenset([L(1).var]), schema)
    (g,), spanning, _, _ = irrelevant_set([group], psi, (), schema)
    assert (g.plain, g.sides, g.loops) == ((Y(0), Y(2)), (shift(1, EX_BASE),), (Y(2),))
    assert set(g.closure()) == {
        eq(Y(0), Y(2)),
        eq(Y(2), Y(0)),
        eq(Y(0), shift(1, EX_BASE)),
        eq(Y(2), shift(1, EX_BASE)),
        eq(Y(2), Y(2)),
    }
    assert spanning == [eq(Y(0), Y(2)), eq(Y(0), shift(1, EX_BASE))]
    # A group the step leaves alone is carried as it is.
    (same,), _, _, _ = irrelevant_set([g], psi, (), schema)
    assert same is g


def test_irrelevant_vars_excludes_store_and_schema():
    _, _, irr_vars, _ = irr_of(([Y(1)], [h(X(1), L(2))]))
    store = frozenset([eq(X(1), h(Y(5), Y(5)))])
    # L[2] is a schema variable and X[1] occurs in the store; only Y[1]
    # counts as irrelevant.
    assert irr_vars == {Y(1).var, X(1).var}
    assert irr_vars - eq_vars(store) == {Y(1).var}


def test_cycle_check_clean_set():
    schema = ex_schema()
    _, spanning, _, depth = irr_of(([Y(1)], [h(X(1), X(2))]))
    assert cycle_check(spanning, schema, depth) is None
    assert cycle_check([], schema, 0) is None


def test_cycle_check_direct_occurrence():
    schema = ex_schema()
    _, spanning, _, depth = irr_of(([Y(1)], [h(Y(1), X(2))]))
    failure = cycle_check(spanning, schema, depth)
    assert failure is not None and failure.kind == "cycle"


def test_cycle_check_through_unfolding():
    # X[2] is bound to a term mentioning L[1]; unfolding L[1] twice emits
    # X[2] itself, closing an occurs cycle that is invisible before
    # unfolding.
    schema = ex_schema()
    _, spanning, _, depth = irr_of(([X(2)], [h(Y(0), L(1))]))
    assert depth == 2
    failure = cycle_check(spanning, schema, depth)
    assert failure is not None and failure.kind == "cycle"


def eq_sub_of(eqs, schema):
    """The store of th_unif on eqs, and the eq_sub of its orbits."""
    fc = th_unif(eqs, schema)
    assert fc.ok
    return fc.store, compute_eq_sub(fc.classes)


def test_compute_eq_sub_collapses_orbits():
    # L[1]'s binding ties both orbits to the store.
    store, sub = eq_sub_of(
        [eq(X(3), X(5)), eq(Z(3), Z(5)), eq(L(1), h(X(3), Z(3)))], ex_schema()
    )
    assert {eq(X(5), X(3)), eq(Z(5), Z(3))} <= store
    assert sub.mapping == {X(3).var: X(5), Z(3).var: Z(5)}


def test_compute_eq_sub_ignores_one_directional_pairs():
    # X[3] = L[1] is stored, but L[1] = X[3] never is (condition 1).
    store, sub = eq_sub_of(
        [eq(L(1), X(3)), eq(L(1), h(X(0), X(0)))], ex_schema()
    )
    assert eq(X(3), L(1)) in store and eq(L(1), X(3)) not in store
    assert not sub


def test_compute_eq_sub_ties_break_on_symbol():
    orbit = EngineClass((X(3), Z(3)), (), stored=True)
    assert compute_eq_sub([orbit]).mapping == {X(3).var: Z(3)}


def test_compute_eq_sub_merges_chained_orbit():
    # X[1] and X[4] are equated only through X[2].
    _, sub = eq_sub_of(
        [eq(X(1), X(2)), eq(X(2), X(4)), eq(L(1), h(X(1), X(1)))], ex_schema()
    )
    assert sub.mapping == {X(1).var: X(4), X(2).var: X(4)}


def test_future_relevant_needs_index_and_symbol():
    schema = ex_schema()
    store = frozenset(
        [eq(X(2), h(Y(0), Y(0))), eq(Y(5), h(X(0), X(0))), eq(L(1), h(X(0), X(0)))]
    )
    store_vars = eq_vars(store)
    psi = step_substitution(store_vars, schema)
    # X[2]'s index reaches L[1] and the base re-emits X; Y never appears in
    # the base, and nothing else qualifies.
    assert future_relevant(store_vars, psi, schema) == {X(2).var}


def test_future_relevant_empty_without_schema_vars():
    schema = ex_schema()
    store_vars = eq_vars(frozenset([eq(X(2), h(Y(0), Y(0)))]))
    psi = step_substitution(store_vars, schema)
    assert future_relevant(store_vars, psi, schema) == frozenset()


def test_normalized_store_folds_unfoldings():
    schema = ex_schema()
    store = frozenset([eq(Y(0), shift(2, EX_BASE))])
    assert normalized_store(store, schema) == {eq(Y(0), L(2))}


def test_simplified_store_applies_sub_and_drops_reflexive():
    schema = ex_schema()
    store, sub = eq_sub_of([eq(X(3), X(5)), eq(L(1), h(X(3), X(5)))], schema)
    normalized = normalized_store(store, schema)
    assert simplified_store(normalized, sub) == {eq(L(1), h(X(5), X(5)))}


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


def test_check_for_map_leaves_nothing_for_the_cyclic_collector(golden_run):
    """A renaming search, found or not, frees what it builds on return: no
    function of it sits in a reference cycle with its own cell."""
    recs = golden_run.records
    gc.collect()
    gc.disable()
    try:
        for rec_i, rec_j in ((recs[15], recs[5]), (recs[15], recs[4])):
            check_for_map(rec_i.fr, rec_i.simplified, rec_j.fr, rec_j.simplified)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    assert 0 <= out.j < out.i


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


def test_immutable_results_reject_assignment():
    schema = Schema.of({"L": f(X(0), L(1))})
    problem = SchematicProblem(frozenset([eq(L(0), Y(0))]), schema)
    values = [
        unify([eq(f(X(0), X(0)), h(Y(0), Y(0)))]),
        schema,
        problem,
        th_unif(problem.equations, schema),
        bounded_check(problem, n=1).per_instance_sizes[0],
        CycleFound(1, 0, {}),
        NotUnifiable(0, "clash"),
        StabilityViolation(3, Fraction(2)),
        Exhausted(40),
    ]
    for value in values:
        field = "rules" if value is schema else value._fields[0]
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, field)


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
        for e in problem_instance(problem, 1):
            reference.extend([e.lhs, e.rhs])
        depth_cap = max(t.depth for t in reference)
        run = u_sch_unif(problem)
        for rec in run.records:
            ns = normalized_store(rec.store, schema)
            for e in ns:
                assert e.rhs.depth <= depth_cap, (path, rec.i, str(e))
                assert _shift_of_subterm(e.lhs, reference), (path, rec.i, str(e))
                assert _shift_of_subterm(e.rhs, reference), (path, rec.i, str(e))


def test_store_lhs_variables_across_corpus(corpus):
    for path, parsed in corpus:
        run = u_sch_unif(parsed.problem)
        for rec in run.records:
            for e in rec.store:
                assert isinstance(e.lhs, Var), (path, rec.i, str(e))
            assert rec.vars == eq_vars(rec.store), (path, rec.i)


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


@settings(max_examples=300)
@given(uniform_problems(max_offset=3))
def test_solver_agrees_with_oracle_on_uniform_problems(problem):
    """A cycle survives the oracle to i + 2(i - j); a clash or occurs cycle
    at instance i is the oracle's first failure, although not always of the
    same kind (saturation can meet a clash before plain unification meets
    a cycle, and the other way round).  The irrelevant-set check
    unfolds ahead of the instance, so an irr-cycle at i may show in the
    oracle a few instances later; it must show at i or later, and by
    i + lookahead, the unfolding steps that check took."""
    assert_agrees_with_oracle(problem)


@settings(max_examples=300)
@given(multi_rule_problems())
def test_solver_agrees_with_oracle_on_multi_rule_problems(problem):
    """As on one rule, with two or three rules that may reach each other
    (store eligibility by condition 3 across rules); a give-up is allowed."""
    assert_agrees_with_oracle(problem)


@settings(max_examples=300)
@given(
    st.one_of(
        uniform_problems(),
        multi_rule_problems(),
        tied_rings(),
        carried_group_problems(),
    )
)
def test_records_match_the_closure_pair_reference(problem):
    """The irrelevant set kept as groups, the active set built from the
    engine's classes, and the store's variables and simplified store read
    per class equal what the earlier loop over closure pairs builds, record
    by record, and an irr-cycle comes at the reference's instance with its
    depth.  In about one in six examples, drawn by carried_group_problems,
    a step unfolds a carried group."""
    assert_matches_closure_pair_reference(problem, 12)


@settings(max_examples=200)
@given(
    st.one_of(uniform_problems(), multi_rule_problems(), carried_group_problems())
)
def test_each_irrelevant_group_spans_its_closure(problem):
    """cycle_check unifies a group's spanning set, and InstanceRecord.irr
    is its closure."""
    for rec in u_sch_unif(problem, cap=12).records:
        for g in rec.groups:
            assert_spanning_stands_for_closure(g)


# Problems whose irrelevant groups hold a schema variable that the next
# step unfolds, found among generated ones before carried_group_problems.
UNFOLDED_RIGHTS = [
    "schema: L[i] -> f(X[i+3], L[i+1]); problem: L[0] = f(L[1], L[1]);",
    "schema: L[i] -> f(f(X[i+2], X[i+2]), L[i+3]);"
    " problem: L[1] = f(Y[0], f(Y[0], Y[0]));",
    "schema: L[i] -> f(f(X[i+2], X[i+2]), L[i+3]); problem: L[1] = f(Y[0], Y[0]);",
    "schema: L[i] -> f(Z[i], L[i+3]); M[i] -> f(L[i], g(Z[i]));"
    " problem: L[1] = f(L[2], L[2]);",
]


# Generated multi-rule problems (of the census sample before it drew from a
# fixed seed) whose stores and traces change when the next engine input binds
# a schema-only class's first member image to every other image and side (a
# star from an application): a side image then meets only that image, and a
# variable inside another member's image misses its arguments as a side.
APPLICATION_STAR_INEXACT = [
    "schema: L[i] -> f(f(Z[i+2], g(Z[i+3])), M[i]); M[i] -> f(L[i+2], g(X[i]));"
    " N[i] -> f(L[i+3], g(X[i+3])); problem: L[0] = N[0]; L[0] = f(L[1], X[2]);",
    "schema: L[i] -> f(f(Z[i+2], g(Z[i+3])), M[i]); M[i] -> f(L[i+2], g(X[i]));"
    " N[i] -> f(L[i+3], g(X[i+3]));"
    " problem: L[0] = N[0]; L[0] = f(L[1], X[2]); f(Y[1], a) = f(a, a);",
    "schema: L[i] -> f(f(Z[i+2], g(Z[i+3])), M[i]); M[i] -> f(L[i+2], g(X[i]));"
    " N[i] -> f(L[i+3], g(X[i+3]));"
    " problem: L[0] = N[0]; L[0] = f(L[1], X[2]); N[2] = N[0]; f(Y[1], a) = f(a, a);",
    "schema: L[i] -> f(f(X[i+3], g(X[i+2])), N[i+1]); M[i] -> f(N[i+2], g(X[i]));"
    " N[i] -> f(Z[i], N[i+2]); problem: M[1] = N[2]; M[2] = M[1];",
]

# The inputs ROADMAP direction 5 measures, at small caps, with their outcomes.
NAMED_INPUTS = [
    ("schema: L[i] -> f(X[i+1], L[i+2]); problem: L[3] = f(Y[0], L[1]);",
     12, Exhausted(12)),
    ("schema: L[i] -> f(X[i+1], L[i+1]);"
     " problem: Y[1] = g(f(g(L[2]), Y[0])); f(Y[2], L[2]) = L[3];",
     12, Exhausted(12)),
    ("schema: L[i] -> f(f(X[i+3], X[i+3]), L[i+1]);"
     " M[i] -> f(Z[i+1], f(Z[i], M[i+2]));"
     " problem: M[0] = f(f(a, a), f(Z[0], M[3]));", 12, Exhausted(12)),
    ("schema: L[i] -> f(X[i], L[i]); problem: L[1] = f(a, L[0]);",
     12, Exhausted(12)),
]


def test_corpus_records_match_the_closure_pair_reference(corpus, monkeypatch):
    for path, parsed in corpus:
        assert_matches_closure_pair_reference(parsed.problem, None)
    for text in UNFOLDED_RIGHTS + APPLICATION_STAR_INEXACT:
        assert_matches_closure_pair_reference(parse_problem(text).problem, 12)
    assert_matches_closure_pair_reference(parse_problem(BLOW_UP_1).problem, 16)
    for text, cap, outcome in NAMED_INPUTS:
        run = assert_matches_closure_pair_reference(parse_problem(text).problem, cap)
        assert run.outcome == outcome
    run = assert_matches_closure_pair_reference(tied_k_problem(32, monkeypatch), None)
    assert run.outcome[:2] == (2, 0)


def tied_k_problem(k, monkeypatch):
    """tied-k of the stores workload, seed 1."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    from tied_k import tied_k

    return parse_problem(tied_k(k, 1)).problem


def assert_matches_closure_pair_reference(problem, cap):
    run = u_sch_unif(problem, cap=cap)
    want = reference_instances(problem, len(run.records) + 1)
    schema = problem.schema
    for rec, ref in zip(run.records, want):
        assert rec.store == ref.store, rec.i
        assert th_unif(ref.eqs, schema).active == ref.active, rec.i
        assert rec.irr == ref.irr, rec.i
        assert rec.vars == ref.vars, rec.i
        # var_disjoint tests store variables only: fr must lie among them.
        assert rec.fr <= rec.vars, rec.i
        assert rec.simplified == ref.simplified, rec.i
        irrv = {v for v in eq_vars(ref.irr) if not schema.contains(v)} - ref.vars
        assert rec.metric_live == ref.live - len(irrv), rec.i
    out = run.outcome
    if isinstance(out, NotUnifiable) and out.cause == "irr-cycle":
        assert (out.instance, out.lookahead) == (len(want) - 1, want[-1].depth)
        assert want[-1].irr_cycle
    else:
        assert not any(ref.irr_cycle for ref in want)
    return run


def test_engine_input_follows_the_stored_classes(monkeypatch):
    """On tied-32 the store is one class of 32 schema members, 992 closure
    pairs; each later instance's engine gets at most 2k equations."""
    sizes = []

    def counting_th_unif(eqs, schema):
        sizes.append(len(eqs))
        return th_unif(eqs, schema)

    problem = tied_k_problem(32, monkeypatch)
    monkeypatch.setattr(solver, "th_unif", counting_th_unif)
    run = u_sch_unif(problem)
    assert isinstance(run.outcome, CycleFound)
    assert len(sizes) == len(run.records) > 1
    assert max(sizes[1:]) <= 2 * 32
    assert max(len(rec.store) for rec in run.records) == 32 * 31


def test_no_closure_is_built_unless_a_store_is_read(monkeypatch):
    """On tied-32 the gate never runs and the records keep the stored
    classes, so no class builds its closure pairs; the last record's store,
    read afterwards, is the closure-pair loop's."""
    problem = tied_k_problem(32, monkeypatch)
    built = []
    closure = EngineClass.closure

    def counting_closure(c):
        built.append(c)
        return closure(c)

    monkeypatch.setattr(EngineClass, "closure", counting_closure)
    run = u_sch_unif(problem)
    assert isinstance(run.outcome, CycleFound)
    assert built == []
    want = reference_instances(problem, len(run.records))
    assert run.records[-1].store == want[-1].store


def test_cycle_check_input_follows_the_groups(monkeypatch):
    """On tied-32 the irrelevant set gains one class of 32 plain members an
    instance, 992 closure pairs; cycle_check unifies at most 4k equations an
    instance, not the closure pairs."""
    sizes = []

    def counting_unify(eqs):
        sizes.append(len(eqs))
        return unify(eqs)

    monkeypatch.setattr(solver, "unify", counting_unify)
    run = u_sch_unif(tied_ring(range(32)))
    assert isinstance(run.outcome, CycleFound)
    assert len(sizes) == len(run.records) - 1 and sizes
    assert max(sizes) <= 4 * 32
    assert max(len(rec.irr) for rec in run.records) >= 32 * 31


def assert_agrees_with_oracle(problem):
    out = u_sch_unif(problem, cap=30).outcome
    if isinstance(out, CycleFound):
        report = bounded_check(problem, n=out.i + 2 * (out.i - out.j))
        assert report.first_failure is None
    elif isinstance(out, NotUnifiable):
        if out.cause == "irr-cycle":
            report = bounded_check(problem, n=out.instance + out.lookahead)
            assert report.first_failure is not None
            assert report.first_failure[0] >= out.instance
        else:
            report = bounded_check(problem, n=out.instance)
            assert report.first_failure is not None
            assert report.first_failure[0] == out.instance


def rewrites(problem):
    """The problem with every equation flipped, with each equation's flip
    added, and with every index shifted by 1 and by 5.  The first two have
    the problem's unifiers.  Over a uniform schema a shift commutes with
    the step and renames variables one-to-one, so instance i of a shifted
    problem is instance i shifted: its first failing instance stays too."""
    flipped = frozenset([e.flip() for e in problem.equations])
    out = {
        "flipped": problem._replace(equations=flipped),
        "flips added": problem._replace(equations=problem.equations | flipped),
    }
    for k in (1, 5):
        shifted = [eq(shift(k, s), shift(k, t)) for s, t in problem.equations]
        out[f"shift {k}"] = problem._replace(equations=frozenset(shifted))
    return out


def test_rewrites_that_keep_the_unifiers_keep_the_verdict_kind():
    """Metamorphic checks: a problem and each of its rewrites get one
    verdict kind at cap 40, and a shifted problem fails at the same
    instance."""
    for strategy in (uniform_problems(), multi_rule_problems()):
        for problem in derandomized_examples(strategy, 150):
            out = u_sch_unif(problem, cap=40).outcome
            for name, rewritten in rewrites(problem).items():
                got = u_sch_unif(rewritten, cap=40).outcome
                assert verdict_name(got) == verdict_name(out), (problem, name)
                if name.startswith("shift") and isinstance(out, NotUnifiable):
                    assert got.instance == out.instance, (problem, name)


# -- the loop scan -----------------------------------------------------------


def first_loop_pair(run):
    """The first (i, j, mu) in scan order, i upward from the stabilization
    index (instance 0 is never scanned) and then j upward from 0, whose
    records pass both check_for_map and var_disjoint."""
    recs = run.records
    for i in range(max(run.stab, 1), len(recs)):
        for j in range(i):
            mu = check_for_map(
                recs[i].fr, recs[i].simplified, recs[j].fr, recs[j].simplified
            )
            if mu is not None and var_disjoint(recs[i], recs[j]):
                return i, j, mu
    return None


def assert_first_loop_pair(run):
    out = run.outcome
    if isinstance(out, CycleFound):
        assert first_loop_pair(run) == (out.i, out.j, out.mapping)


def test_cycle_is_first_loop_pair_across_corpus(corpus):
    for path, parsed in corpus:
        assert_first_loop_pair(u_sch_unif(parsed.problem))


@settings(max_examples=300)
@given(uniform_problems(max_offset=3))
def test_cycle_is_first_loop_pair_on_uniform_problems(problem):
    assert_first_loop_pair(u_sch_unif(problem, cap=30))


# Past the stabilization index, most simplified stores rename onto an
# earlier one, but the raw stores keep the old orbit members: no pair is
# disjoint, and the run ends at the cap with raw stores of up to 841
# equations.
BLOW_UP_1 = """
schema:
  L[i] -> f(X[i+1], L[i+1]);
problem:
  Y[1] = g(f(g(L[2]), Y[0]));
  f(Y[2], L[2]) = L[3];
"""


def test_blow_up_1_walks_each_store_once(monkeypatch):
    walked = []

    def counting_eq_vars(eqs):
        walked.append(eqs)
        return eq_vars(eqs)

    monkeypatch.setattr(solver, "eq_vars", counting_eq_vars)
    run = u_sch_unif(parse_problem(BLOW_UP_1).problem, cap=40)
    assert run.outcome == Exhausted(40)
    # The store's variables are read off the engine's classes: no raw store
    # of up to 841 equations is walked for them, not even once.
    for rec in run.records:
        assert not any(eqs is rec.store for eqs in walked), rec.i
        assert rec.vars == eq_vars(rec.store), rec.i


def far_problem(n):
    """far-N: X[n] is bound only once unfolding has reached it."""
    return parse_problem(
        f"schema: L[i] -> f(X[i], L[i+1]);"
        f" problem: L[0] = f(Y[0], L[1]); X[{n}] = g(Z[0]);"
    ).problem


@pytest.mark.parametrize("n", [3, 10, 20])
def test_far_n_gives_up_on_stability_though_unifiable(n):
    """Evidence on the ratio check: far-N ends at instance N + 3 on the
    ratio (N + 4)/(N + 3), past stabilization index N, while the oracle
    finds every instance to N + 15 unifiable.  Each instance gains an X
    that nothing constrains, and the metric counts it."""
    problem = far_problem(n)
    run = u_sch_unif(problem)
    assert run.outcome == StabilityViolation(n + 3, Fraction(n + 4, n + 3))
    assert run.stab == n
    report = bounded_check(problem, n=n + 15)
    assert report.checked_up_to == n + 15 and report.ok


# -- the instance sequence ---------------------------------------------------


@pytest.fixture(scope="module")
def sequence_problems():
    """Every shipped problem and benchmark input, with the cap the command
    line uses, and the first 300 examples of uniform_problems and of
    multi_rule_problems at cap 15."""
    out = []
    for relpath in corpus_inputs():
        with open(os.path.join(ROOT, relpath), encoding="utf-8") as fh:
            out.append((parse_problem(fh.read()).problem, None))
    for strategy in (uniform_problems(), multi_rule_problems()):
        out += [(p, 15) for p in derandomized_examples(strategy, 300)]
    return out


# Unfolding L[1] at instance 0 re-emits X[1], which the instance already
# has, and each later instance re-emits the X[i] it has: a running count of
# the instance's variables would grow by one too many an instance.
REEMITTING = "schema: L[i] -> f(X[i], L[i+1]); problem: L[0] = f(X[1], L[1]);"


def test_metric_follows_its_definition(sequence_problems):
    """Each record's metric is |vars(U_Theta(i))| - |dom(eq_sub)| - |irrV|,
    with the instance built directly and irrV the variables of the
    irrelevant set outside the schema and the store."""
    problems = sequence_problems + [(parse_problem(REEMITTING).problem, 6)]
    for problem, cap in problems:
        schema = problem.schema
        for rec in u_sch_unif(problem, cap=cap).records:
            irrv = {v for v in eq_vars(rec.irr) if not schema.contains(v)}
            irrv -= rec.vars
            inst_vars = eq_vars(problem_instance(problem, rec.i))
            want = len(inst_vars) - len(rec.eq_sub.domain()) - len(irrv)
            assert rec.metric == want, (problem, rec.i)


def comparable(rec):
    """A record without its ratio, with each stored class and each group as
    its fields: classes compare by identity."""
    return rec._replace(
        classes=class_fields(rec.classes),
        groups=class_fields(rec.groups),
        ratio=None,
    )


def class_fields(classes):
    return tuple((c.plain, c.sides, c.loops, c.schematic, c.stored) for c in classes)


def test_instances_yields_the_runs_records(sequence_problems):
    """The sequence's first records are the run's, less their ratios; for a
    problem that fails, its last item is the run's outcome.  The sequence
    does not end for a unifiable problem, so it is read through islice."""
    for problem, cap in sequence_problems:
        run = u_sch_unif(problem, cap=cap)
        got = itertools.islice(instances(problem), len(run.records))
        assert [comparable(r) for r in got] == [comparable(r) for r in run.records]
        if isinstance(run.outcome, NotUnifiable):
            assert list(instances(problem))[-1] == run.outcome


def test_instances_runs_the_engine_once_a_record(monkeypatch, golden_problem):
    """Taking k records makes k engine calls: instance k + 1 is not worked
    out before it is asked for."""
    calls = []

    def counting_th_unif(eqs, schema):
        calls.append(eqs)
        return th_unif(eqs, schema)

    monkeypatch.setattr(solver, "th_unif", counting_th_unif)
    for k in range(5):
        calls.clear()
        assert len(list(itertools.islice(instances(golden_problem), k))) == k
        assert len(calls) == k


def test_stab_index_reads_the_step_of_instance_zeros_store():
    """On offset2_occurs, instance 0's store is empty, so its step unfolds
    nothing and the index is read off the problem as given: 3.  Unfolding
    every schema variable of instance 0 would give 5."""
    path = os.path.join(ROOT, "bench", "inputs", "offset2_occurs.prob")
    with open(path, encoding="utf-8") as fh:
        problem = parse_problem(fh.read()).problem
    run = u_sch_unif(problem)
    assert run.stab == stab_index(problem, run.records[0].step_sub) == 3
    unfold_all = problem.schema.step(eq_vars(problem.equations))
    assert stab_index(problem, unfold_all) == 5
