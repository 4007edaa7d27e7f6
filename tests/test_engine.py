import random

from hypothesis import given, settings
from hypothesis import strategies as st

from schemunif import solver
from schemunif.cli import parse_problem
from schemunif.engine import EngineClass, store_eligible, th_unif
from schemunif.schema import Schema
from schemunif.solver import (
    NotUnifiable,
    SchematicProblem,
    compute_eq_sub,
    u_sch_unif,
)
from schemunif.terms import App, Var, Variable, app, var
from schemunif.unify import Equation, Substitution, eq_vars, unify

from .conftest import (
    EX_BASE,
    GOLDEN_BASE,
    L,
    X,
    Y,
    Z,
    assert_spanning_stands_for_closure,
    derandomized_examples,
    eq,
    eq_sub_orbits,
    equations,
    f,
    h,
    multi_rule_problems,
    reference_orbits,
    reference_reachable_by_unfolding,
    reference_store_eligible,
    reference_th_unif,
    terms,
    tied_ring,
    unifiable,
    uniform_problems,
)


def ex_schema():
    return Schema.of({"L": EX_BASE})


def orbits(fc):
    """The store's orbits as the solver reads them off the classes."""
    return eq_sub_orbits(compute_eq_sub(fc.classes))


def same_configuration(a, b):
    """Configurations with equal stores, verdicts, offending equations,
    store variables and active sets, and the reference's orbits of the
    store; the store, the active set and the orbits are read off the
    classes."""
    return (
        configuration(a) == configuration(b)
        and a.active == b.active
        and orbits(a) == reference_orbits(a.store)
    )


def configuration(fc):
    return fc.store, fc.verdict, fc.offending, fc.vars


def test_first_instance_store():
    schema = ex_schema()
    u1 = schema.instance_eqs([eq(L(0), h(Y(0), h(Y(1), Y(0))))], 1)
    fc = th_unif(u1, schema)
    assert fc.ok
    assert fc.store == {
        eq(Y(0), h(X(0), h(X(1), X(0)))),
        eq(L(1), h(Y(1), Y(0))),
    }


def test_second_instance_store_three_elements():
    schema = ex_schema()
    store1 = th_unif(
        schema.instance_eqs([eq(L(0), h(Y(0), h(Y(1), Y(0))))], 1), schema
    ).store
    psi = Substitution({L(1).var: schema.binding(L(1).var)})
    fc = th_unif(psi.apply_eqs(store1), schema)
    assert fc.ok
    assert fc.store == {
        eq(Y(0), var("L", 2)),
        eq(var("L", 2), h(X(0), h(X(1), X(0)))),
        eq(Y(0), h(X(0), h(X(1), X(0)))),
    }
    # The leftover binding stays in the active set as the irrelevant part.
    assert eq(Y(1), h(X(1), h(X(2), X(1)))) in fc.active


def test_store_of_unfolded_store_equals_store_of_next_instance():
    schema = ex_schema()
    problem = [eq(L(0), h(Y(0), h(Y(1), Y(0))))]
    store1 = th_unif(schema.instance_eqs(problem, 1), schema).store
    psi = Substitution({L(1).var: schema.binding(L(1).var)})
    via_store = th_unif(psi.apply_eqs(store1), schema).store
    direct = th_unif(schema.instance_eqs(problem, 2), schema).store
    assert via_store == direct


def test_clash_reported():
    schema = ex_schema()
    fc = th_unif([eq(h(X(0), X(1)), app("g", Y(0)))], schema)
    assert fc.verdict == "clash"
    assert fc.offending is not None


def test_cycle_reported():
    schema = ex_schema()
    fc = th_unif([eq(X(0), h(X(0), Y(0)))], schema)
    assert fc.verdict == "cycle"


def test_store_lhs_always_variables():
    schema = Schema.of({"L": GOLDEN_BASE})
    lhs = f(X(4), L(0))
    rhs = f(f(Y(3), Y(3)), f(Y(0), f(Y(1), Y(0))))
    for i in range(4):
        fc = th_unif(schema.instance_eqs([eq(lhs, rhs)], i), schema)
        assert fc.ok
        for e in fc.store:
            assert isinstance(e.lhs, Var)


@settings(max_examples=300)
@given(equations(max_eqs=4))
def test_store_lhs_variables_on_random_input(eqs):
    schema = ex_schema()
    fc = th_unif(eqs, schema)
    for e in fc.store:
        assert isinstance(e.lhs, Var)


@settings(max_examples=300)
@given(equations(max_eqs=4))
def test_verdict_matches_plain_unification(eqs):
    schema = ex_schema()
    fc = th_unif(eqs, schema)
    assert fc.ok == unifiable(eqs)


def class_shapes(fc):
    """Each class's member set, side set, looped members and stored flag."""
    return {
        (frozenset(c.schematic + c.plain), frozenset(c.sides), c.loops, c.stored)
        for c in fc.classes
    }


def test_flipped_equations_change_nothing():
    """Adding the flip of every equation of instances 0-2 keeps the verdict,
    the store, its variables and the classes.  Which clash comes first
    depends on the seed order, so past a clash the offending equation and
    the classes met so far are left out."""
    problems = derandomized_examples(uniform_problems(), 100)
    problems += derandomized_examples(multi_rule_problems(), 100)
    for problem in problems:
        schema = problem.schema
        for i in range(3):
            eqs = schema.instance_eqs(problem.equations, i)
            a = th_unif(eqs, schema)
            b = th_unif(eqs | {e.flip() for e in eqs}, schema)
            assert (a.verdict, a.store, a.vars) == (b.verdict, b.store, b.vars)
            if a.verdict != "clash":
                assert class_shapes(a) == class_shapes(b)


# -- the unfolding search ----------------------------------------------------


def reachable(schema, y, z):
    """Does y occur in some k-fold unfolding (k >= 1) of z?  The search
    starts from the variables of z's binding and stops at idx(y)."""
    reach = set()
    for t in schema.step([z]).mapping.values():
        schema.unfold_into(reach, t.vars, y.index)
    return y in reach


def test_parameter_reachable_through_unfolding():
    schema = ex_schema()  # base emits X[0] and X[1], recursion offset 1
    assert reachable(schema, X(0).var, L(0).var)
    assert reachable(schema, X(7).var, L(0).var)
    assert reachable(schema, X(7).var, L(3).var)
    # Indices below the schema variable's own index never appear.
    assert not reachable(schema, X(2).var, L(3).var)
    # Symbols the base never emits are unreachable.
    assert not reachable(schema, Y(5).var, L(0).var)


def test_reachability_respects_offset_gaps():
    # Recursion offset 2 emits parameters only at even distances.
    schema = Schema.of({"L": f(X(0), L(2))})
    assert reachable(schema, X(0).var, L(0).var)
    assert reachable(schema, X(4).var, L(0).var)
    assert not reachable(schema, X(3).var, L(0).var)
    assert reachable(schema, X(3).var, L(1).var)


def test_reachability_crosses_rules():
    schema = Schema.of(
        {"L": f(X(0), var("M", 2)), "M": f(Z(0), var("M", 1))}
    )
    assert reachable(schema, Z(2).var, L(0).var)
    assert reachable(schema, Z(5).var, L(0).var)
    assert not reachable(schema, Z(1).var, L(0).var)
    # Two steps across rules: L reaches M, and M reaches N.
    schema = Schema.of(
        {"L": f(X(0), var("M", 1)), "M": f(Z(0), var("N", 1)), "N": f(Y(0), L(1))}
    )
    assert reachable(schema, Y(2).var, L(0).var)
    assert reachable(schema, X(3).var, L(0).var)
    assert not reachable(schema, Y(1).var, L(0).var)


def test_unfolding_search_stops_at_the_bound():
    schema = ex_schema()
    reach = set()
    schema.unfold_into(reach, [L(0).var, Y(0).var], 4)
    assert X(4).var in reach and L(4).var in reach
    assert X(5).var not in reach and L(5).var not in reach
    # A plain source has no unfolding: it is added and reaches nothing.
    reach = set()
    schema.unfold_into(reach, [Y(0).var, X(9).var], 4)
    assert reach == {Y(0).var, X(9).var}
    # A variable already in reach is not searched again.
    reach = {L(2).var}
    schema.unfold_into(reach, [L(2).var], 4)
    assert reach == {L(2).var}
    # Recursion at offset 0 reaches L[i] again; the search still ends.
    schema = Schema.of({"L": f(X(0), L(0))})
    reach = set()
    schema.unfold_into(reach, [L(2).var], 9)
    assert reach == {X(2).var, L(2).var}


def eligible(x, store, schema):
    reach = set()
    schema.unfold_into(reach, eq_vars(store), x.var.index)
    return store_eligible(x.var, reach)


def test_store_eligible_schema_variable_binding():
    # Condition 1 stores a schema variable's binding at once, unless the rhs
    # is a plain variable outside the schema; an App lhs is never stored.
    schema = ex_schema()
    bound = eq(L(0), h(Y(0), Y(1)))
    assert bound in th_unif([bound], schema).store
    fc = th_unif([eq(L(0), Y(0))], schema)
    assert eq(L(0), Y(0)) in fc.active and not fc.store
    fc = th_unif([eq(h(X(0), X(1)), Y(0))], schema)
    assert not fc.store and eq(Y(0), h(X(0), X(1))) in fc.active


def test_store_eligible_tied_to_existing_entry():
    schema = ex_schema()
    store = frozenset([eq(Y(0), h(X(0), X(1)))])
    # Occurs on the right of a stored entry.
    assert eligible(X(0), store, schema)
    # Bound by a stored entry.
    assert eligible(Y(0), store, schema)
    # A fresh symbol is not eligible.
    assert not eligible(Z(9), store, schema)


def test_store_eligible_via_future_unfolding():
    schema = ex_schema()
    store = frozenset([eq(Y(0), L(2))])
    # X[3] appears once L[2] is unfolded, so its bindings are relevant.
    assert eligible(X(3), store, schema)
    assert not eligible(X(1), store, schema)


# -- store eligibility and the unfolding search against the references -----

DIFF_SYMBOLS = ["L", "M", "X", "Y", "Z"]
DIFF_RULES = [
    # One rule recursing at offset 2 around two parameters.
    {"L": f(f(X(0), Y(1)), L(2))},
    # Two rules: L reaches M two indices on, M recurses at offset 1.
    {"L": f(X(0), var("M", 2)), "M": f(Z(0), var("M", 1))},
]


def _diff_terms(max_index):
    return terms(max_depth=3, max_index=max_index, symbols=DIFF_SYMBOLS)


def _diff_vars(max_index):
    return st.builds(var, st.sampled_from(DIFF_SYMBOLS), st.integers(0, max_index))


_stores = st.frozensets(
    st.builds(Equation, _diff_vars(6), _diff_terms(6)), max_size=6
)
_candidates = st.lists(_diff_vars(9), min_size=1, max_size=8)


@settings(max_examples=200)
@given(st.sampled_from(DIFF_RULES), _stores, _candidates)
def test_store_index_matches_reference_eligibility(rules, store, candidates):
    """For a plain variable x, membership in the store's eligible set, built
    as th_unif builds it up to the largest candidate index, judges every
    binding of x as the reference judges x = a: a constant rhs is bound by
    no store."""
    schema = Schema.of(rules)
    reach = set()
    schema.unfold_into(reach, eq_vars(store), max(x.var.index for x in candidates))
    for x in candidates:
        if schema.contains(x.var):
            continue
        assert store_eligible(x.var, reach) == reference_store_eligible(
            Equation(x, app("a")), store, schema
        ), (str(schema), sorted(map(str, store)), str(x))


def test_unfolding_search_matches_reference():
    all_rules = DIFF_RULES + [
        {"L": EX_BASE},
        {"L": GOLDEN_BASE},
        {"L": f(X(0), L(0))},
        {"L": f(f(X(1), X(3)), L(3))},
        # An offset-0 chain across rules.
        {"L": f(X(0), var("M", 0)), "M": app("g", Z(1), var("M", 0))},
        # A rule reaching an offset-2 recursion.
        {"L": f(X(0), var("M", 1)), "M": f(Z(0), var("M", 2))},
        # A rule reaching a ground base.
        {"L": f(X(0), var("M", 1)), "M": app("a")},
    ]
    for rules in all_rules:
        schema = Schema.of(rules)
        symbols = sorted(
            {v.symbol for t in schema.base_set() for v in t.vars} | {"W"}
        )
        for z_symbol in sorted(schema.domain) + ["X"]:
            for z_index in range(4):
                for y_symbol in symbols:
                    for shift in range(-3, 9):
                        if z_index + shift < 0:
                            continue
                        y = Variable(y_symbol, z_index + shift)
                        z = Variable(z_symbol, z_index)
                        want = reference_reachable_by_unfolding(y, z, schema)
                        assert reachable(schema, y, z) == want, (
                            str(schema), str(y), str(z)
                        )


# -- the worklist engine against the earlier saturation loop ----------------

ENGINE_RULES = [{"L": EX_BASE}, {"L": GOLDEN_BASE}] + DIFF_RULES

_equation_lists = st.lists(
    st.one_of(
        st.builds(Equation, _diff_vars(6), _diff_terms(6)),
        st.builds(Equation, _diff_terms(6), _diff_terms(6)),
    ),
    min_size=1,
    max_size=7,
)


@settings(max_examples=200)
@given(st.sampled_from(ENGINE_RULES), _equation_lists)
def test_saturation_matches_reference_engine(rules, eqs):
    schema = Schema.of(rules)
    fc = th_unif(eqs, schema)
    want = reference_th_unif(eqs, schema)
    assert (fc.verdict, fc.store) == (want.verdict, want.store)
    if fc.verdict == "clash":
        # The clash reported may differ when there are several.
        lhs, rhs = fc.offending
        assert isinstance(lhs, App) and isinstance(rhs, App)
        assert (lhs.head, len(lhs.args)) != (rhs.head, len(rhs.args))
    else:
        assert same_configuration(fc, want)
    assert same_configuration(th_unif(eqs[::-1], schema), fc)


# -- the saturation traps of the class-based engine --------------------------


def _check_against_reference(eqs, schema):
    fc = th_unif(eqs, schema)
    assert same_configuration(fc, reference_th_unif(eqs, schema))
    return fc.store | fc.active


def test_every_pair_of_sides_is_decomposed():
    # Y1 = Y2 comes only from decomposing f(Y1, W0) = f(Y2, W0); pairing
    # each side with one representative side would miss it.  In the second
    # input the side f(g(a), W0) is the first to reach the class.
    ga, w = app("g", app("a")), var("W", 0)
    sides = [eq(Y(0), f(ga, w)), eq(Y(0), f(Y(1), w)), eq(Y(0), f(Y(2), w))]
    via_x = [eq(X(0), f(ga, w)), eq(Y(0), X(0))] + sides[1:]
    for eqs in (sides, via_x):
        saturated = _check_against_reference(eqs, ex_schema())
        assert {eq(Y(1), Y(2)), eq(Y(2), Y(1))} <= saturated


def test_equal_sides_do_not_merge_classes():
    ga = app("g", app("a"))
    saturated = _check_against_reference(
        [eq(Y(0), ga), eq(Y(1), ga)], ex_schema()
    )
    assert saturated == {eq(Y(0), ga), eq(Y(1), ga)}


def test_reflexive_equations_only_from_the_input():
    schema = ex_schema()
    saturated = _check_against_reference(
        [eq(Y(0), Y(1)), eq(Y(1), Y(2)), eq(Y(2), Y(0))], schema
    )
    assert len(saturated) == 6
    assert all(e.lhs is not e.rhs for e in saturated)
    saturated = _check_against_reference(
        [eq(Y(0), Y(0)), eq(Y(0), Y(1))], schema
    )
    assert saturated == {eq(Y(0), Y(0)), eq(Y(0), Y(1)), eq(Y(1), Y(0))}


# -- the class-graph cycle test ----------------------------------------------


def _gate_check(eqs):
    """th_unif is "ok" exactly when eqs unify, and agrees with the
    reference engine in full."""
    fc = th_unif(eqs, ex_schema())
    assert fc.ok == unifiable(eqs)
    assert same_configuration(fc, reference_th_unif(eqs, ex_schema()))
    return fc


def test_class_whose_side_holds_its_own_member_is_a_cycle():
    fc = _gate_check([eq(Y(0), f(Y(1), app("a"))), eq(Y(1), Y(0))])
    assert fc.verdict == "cycle"


def test_cycle_closed_only_by_a_later_merge():
    # Two classes, each with a side over the other's variable; the last
    # Var = Var equation (in worklist order) merges Y3 into Y0's class.
    chain = [eq(Y(0), app("g", Y(1))), eq(Y(1), Y(2)), eq(Y(2), app("g", Y(3)))]
    assert _gate_check(chain).ok
    assert _gate_check(chain + [eq(Y(3), Y(0))]).verdict == "cycle"


def test_acyclic_diamond_is_ok():
    # Y3 is reached along two paths; meeting it twice is no cycle.
    y3 = app("g", Y(3))
    fc = _gate_check([eq(L(0), f(Y(1), Y(2))), eq(Y(1), y3), eq(Y(2), y3)])
    assert fc.ok


# -- orbits read off the classes ----------------------------------------------


def _orbits_of(eqs):
    fc = th_unif(eqs, ex_schema())
    assert fc.ok and orbits(fc) == reference_orbits(fc.store)
    return fc


def test_schema_variables_of_a_class_are_an_orbit():
    # Condition 1 stores z = z' for any two schema variables, bound or not.
    fc = _orbits_of([eq(L(1), L(2)), eq(L(2), L(3))])
    assert orbits(fc) == {frozenset([L(1).var, L(2).var, L(3).var])}


def test_other_variables_are_an_orbit_once_the_store_binds_one():
    # L[1]'s binding puts X[3] in the store; nothing ties Z[3] or Z[5].
    fc = _orbits_of([eq(X(3), X(5)), eq(Z(3), Z(5)), eq(L(1), h(X(3), X(0)))])
    assert orbits(fc) == {frozenset([X(3).var, X(5).var])}
    assert eq(Z(3), Z(5)) in fc.active


def test_no_orbit_mixes_schema_and_other_variables():
    # One class of L[1], L[2], X[3] and X[5]: X[3] = L[1] is stored, but
    # L[1] = X[3] is not, so the class splits into two orbits.
    fc = _orbits_of(
        [eq(L(1), L(2)), eq(L(2), X(3)), eq(X(3), X(5)), eq(L(1), h(X(0), X(0)))]
    )
    assert eq(X(3), L(1)) in fc.store and eq(L(1), X(3)) in fc.active
    assert orbits(fc) == {
        frozenset([L(1).var, L(2).var]),
        frozenset([X(3).var, X(5).var]),
    }


# -- whole classes move into the store ----------------------------------------


def _moves(eqs, schema):
    """th_unif agrees in full with the reference engine, which judges each
    equation on its own."""
    fc = th_unif(eqs, schema)
    assert same_configuration(fc, reference_th_unif(eqs, schema))
    return fc


def test_plain_members_move_with_a_schema_member_bound_to_a_side():
    # Condition 1 stores L[0] = h(X0, X1); nothing else ties Y[0].
    side = h(X(0), X(1))
    fc = _moves([eq(L(0), Y(0)), eq(Y(0), side)], ex_schema())
    assert fc.store == {eq(L(0), side), eq(Y(0), side), eq(Y(0), L(0))}
    assert fc.active == {eq(L(0), Y(0))}


def test_plain_members_move_with_two_schema_members():
    fc = _moves([eq(L(0), L(1)), eq(L(1), Y(0))], ex_schema())
    assert {eq(L(0), L(1)), eq(Y(0), L(0)), eq(Y(0), L(1))} <= fc.store
    assert fc.active == {eq(L(0), Y(0)), eq(L(1), Y(0))}
    assert orbits(fc) == {frozenset([L(0).var, L(1).var])}


def test_plain_members_move_with_a_reflexive_schema_member():
    fc = _moves([eq(L(0), L(0)), eq(L(0), Y(0))], ex_schema())
    assert fc.store == {eq(L(0), L(0)), eq(Y(0), L(0))}
    assert fc.active == {eq(L(0), Y(0))}


def test_lone_schema_member_with_a_plain_member():
    # L[0] = Y[0] is never stored; Y[0] = L[0] only once Y[0] is tied.
    fc = _moves([eq(L(0), Y(0))], ex_schema())
    assert not fc.store
    tie = eq(L(1), h(Y(0), Y(0)))
    fc = _moves([eq(L(0), Y(0)), tie], ex_schema())
    assert fc.store == {tie, eq(Y(0), L(0))}
    assert fc.active == {eq(L(0), Y(0))}


def test_class_moves_in_a_later_round_through_reachability():
    # Round 1 moves W[0]'s class, which holds L[1] in its side; X[3] is
    # reachable from L[1] but not from L[0], so its class moves in round 2.
    schema = Schema.of(DIFF_RULES[0])  # L[i] -> f(f(X[i], Y[i+1]), L[i+2])
    w, u = var("W", 0), var("U", 0)
    eqs = [eq(L(0), app("g", w)), eq(w, f(L(1), app("a"))), eq(X(3), u)]
    fc = _moves(eqs, schema)
    assert {eq(X(3), u), eq(u, X(3))} <= fc.store
    assert orbits(fc) == {frozenset([X(3).var, u.var])}


# Few variables, one binary head and one constant: equations chain variables
# into large classes, and occurs cycles through the classes are common.
_orbit_vars = st.builds(var, st.sampled_from(["L", "X", "Y"]), st.integers(0, 1))
_orbit_terms = st.recursive(
    _orbit_vars, lambda ts: st.builds(f, ts, ts), max_leaves=3
)
_orbit_lists = st.lists(
    st.one_of(
        st.builds(Equation, _orbit_vars, _orbit_vars),
        st.builds(Equation, _orbit_vars, _orbit_terms),
        st.builds(Equation, _orbit_terms, _orbit_terms),
        st.builds(Equation, _orbit_vars, st.just(app("a"))),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=200)
@given(st.sampled_from(ENGINE_RULES), _orbit_lists)
def test_orbit_saturation_matches_reference_engine(rules, eqs):
    """Without a clash the configuration is the reference's, and the
    acyclicity check says "ok" exactly when the gate would."""
    schema = Schema.of(rules)
    fc = th_unif(eqs, schema)
    want = reference_th_unif(eqs, schema)
    assert fc.verdict == want.verdict
    if fc.verdict != "clash":
        assert same_configuration(fc, want)
        assert fc.ok == isinstance(unify(fc.store | fc.active), Substitution)


@settings(max_examples=200)
@given(
    st.sampled_from(ENGINE_RULES),
    st.one_of(_orbit_lists, _equation_lists),
)
def test_each_class_spans_its_closure(rules, eqs):
    """The solver reads a class through its spanning set (the store's
    normalized and simplified forms) and its closure (the store, the next
    engine input); the two must agree on every class th_unif returns."""
    fc = th_unif(eqs, Schema.of(rules))
    eq_sub = compute_eq_sub(fc.classes)
    for c in fc.classes:
        assert_spanning_stands_for_closure(c, eq_sub if c.stored else None)


BLOW_UP_1 = (
    "schema: L[i] -> f(X[i+1], L[i+1]);"
    " problem: Y[1] = g(f(g(L[2]), Y[0])); f(Y[2], L[2]) = L[3];"
)
BLOW_UP_2 = (
    "schema: L[i] -> f(f(X[i+3], X[i+3]), L[i+1]);"
    " M[i] -> f(Z[i+1], f(Z[i], M[i+2]));"
    " problem: M[0] = f(f(a, a), f(Z[0], M[3]));"
)


def test_whole_runs_match_reference_engine(monkeypatch):
    """Tied rings, the two quadratic-store inputs and a slice of the
    multi-rule problems give the same records and outcome with the
    reference saturation loop; the caps keep the growing-store runs
    short."""
    runs = (
        [(tied_ring(range(k)), None) for k in range(4, 17)]
        + [
            (parse_problem(BLOW_UP_1).problem, 24),
            (parse_problem(BLOW_UP_2).problem, 16),
        ]
        + [(p, 12) for p in derandomized_examples(multi_rule_problems(), 80)]
    )
    got = [u_sch_unif(p, cap=cap) for p, cap in runs]
    monkeypatch.setattr(solver, "th_unif", reference_th_unif)
    for (p, cap), run in zip(runs, got):
        want = u_sch_unif(p, cap=cap)
        assert _outcome_key(run.outcome) == _outcome_key(want.outcome)
        assert _record_fields(run) == _record_fields(want)


# -- the next instance's input against the closure pairs ---------------------

_NEXT_RULES = ["L", "M", "N"]
_next_plain = st.builds(var, st.sampled_from(["X", "Z"]), st.integers(0, 2))
_next_args = (
    _next_plain
    | st.builds(lambda t: app("g", t), _next_plain)
    | st.builds(f, _next_plain, _next_plain)
)
_next_schema_vars = st.builds(var, st.sampled_from(_NEXT_RULES), st.integers(0, 2))
_plain_heads = st.builds(var, st.just("Y"), st.integers(0, 2))
_next_sides = st.recursive(
    st.builds(var, st.sampled_from(_NEXT_RULES + ["X", "Y"]), st.integers(0, 2))
    | st.just(app("a")),
    lambda ts: st.builds(f, ts, ts) | st.builds(lambda t: app("g", t), ts),
    max_leaves=4,
)


@st.composite
def _next_base(draw, kinds=range(5)):
    """A variable, or an application whose arguments mix variables and
    applications around one schema variable; some are headed g, so tied
    members can clash."""
    kind = draw(st.sampled_from(kinds))
    if kind == 0:
        return draw(_next_plain)
    slot = var(draw(st.sampled_from(_NEXT_RULES)), draw(st.integers(1, 2)))
    a, b = draw(_next_args), draw(_next_args)
    return [f(a, slot), f(slot, a), f(f(a, b), slot), app("g", f(slot, b))][kind - 1]


@st.composite
def stored_class_problems(draw):
    """Three rules, heads tied to heads (stored classes of schema members
    only), bound to sides over every variable kind, and plain heads tied in
    too."""
    schema = Schema.of({s: draw(_next_base()) for s in _NEXT_RULES})
    ties = st.builds(Equation, _next_schema_vars, _next_schema_vars)
    heads = _next_schema_vars | _plain_heads
    eqs = draw(st.lists(ties, min_size=1, max_size=4))
    eqs += draw(st.lists(st.builds(Equation, heads, _next_sides), max_size=3))
    return SchematicProblem(frozenset(eqs), schema)


_side_args = st.builds(
    var, st.sampled_from(_NEXT_RULES + ["X", "Y"]), st.integers(0, 2)
) | st.builds(lambda t: app("g", t), _next_plain)


def _class_side(w):
    """An application over the variable w and one argument of _side_args:
    distinct sides of a class then hold distinct variables at one place."""
    return st.builds(
        lambda k, t: [f(w, t), f(t, w)][k], st.integers(0, 1), _side_args
    )


@st.composite
def stored_classes(draw):
    """A schema as above and one or two stored classes built directly: up to
    four schema members, up to two plain ones, and two or three sides that
    the engine never decomposed against each other, as no store it builds
    has them.  No base is headed g, so cores of applications are common,
    and clashes come from arguments."""
    schema = Schema.of({s: draw(_next_base(range(4))) for s in _NEXT_RULES})
    classes = []
    for _ in range(draw(st.integers(1, 2))):
        z = draw(st.lists(_next_schema_vars, min_size=1, max_size=4, unique=True))
        p = draw(st.lists(_plain_heads, max_size=2, unique=True))
        n = draw(st.integers(2, 3))
        sides = [draw(_class_side(var("W", k))) for k in range(n)]
        loops = draw(st.lists(st.sampled_from(z + p), max_size=1))
        classes.append(
            EngineClass(tuple(p), tuple(sides), tuple(loops), tuple(z), True)
        )
    return classes, schema


def assert_unfolds_as_the_closure_pairs(classes, schema):
    """th_unif on the input unfolded_store builds gives the configuration the
    reference engine gives on the stored closure pairs with the step
    applied, or both clash; returns th_unif's."""
    store = [e for c in classes if c.stored for e in c.closure()]
    psi = schema.step(eq_vars(store))
    got = th_unif(solver.unfolded_store(classes, psi), schema)
    want = reference_th_unif(psi.apply_eqs(store), schema)
    if want.verdict == "clash":
        assert got.verdict == "clash"
    else:
        assert same_configuration(got, want)
    return got


@settings(max_examples=300)
@given(stored_class_problems())
def test_unfolded_store_saturates_as_the_closure_pairs(problem):
    """Three instances in turn, each from the last one's classes."""
    fc = th_unif(problem.equations, problem.schema)
    for _ in range(3):
        if not fc.ok:
            return
        fc = assert_unfolds_as_the_closure_pairs(fc.classes, problem.schema)


@settings(max_examples=300)
@given(stored_classes())
def test_unfolded_store_of_any_class_saturates_as_its_closure(drawn):
    """The rules hold for classes no engine run builds, whose sides were
    never decomposed against each other."""
    assert_unfolds_as_the_closure_pairs(*drawn)


def test_leaves_are_not_decomposed_against_each_other():
    """Both side images meet the core g(X[0]), g(Z[0]) at their first
    argument, so Y[0] and Y[1] each take both as sides, but nothing equates
    Y[0] with Y[1]."""
    schema = Schema.of(
        {"L": f(app("g", X(0)), L(1)), "M": f(app("g", Z(0)), var("M", 1))}
    )
    sides = (f(Y(0), app("a")), f(Y(1), app("a")))
    c = EngineClass((), sides, (), (L(0), var("M", 0)), True)
    fc = assert_unfolds_as_the_closure_pairs([c], schema)
    assert eq(Y(0), Y(1)) not in fc.active
    assert {eq(Y(0), app("g", X(0))), eq(Y(1), app("g", Z(0)))} <= fc.active


def _outcome_key(out):
    """The two loops meet the equations in different orders, so they may
    report different clashes of one instance."""
    if isinstance(out, NotUnifiable) and out.cause == "clash":
        return out.instance, out.cause
    return out


def _record_fields(run):
    return [(r.store, r.irr, r.eq_sub, r.metric) for r in run.records]


# -- seeded differential suite ----------------------------------------------


def random_term(rng, depth_budget, symbols, funs):
    if depth_budget <= 1 or rng.random() < 0.35:
        sym = rng.choice(symbols)
        return var(sym, rng.randrange(0, 4))
    head, arity = rng.choice(funs)
    return app(
        head, *(random_term(rng, depth_budget - 1, symbols, funs) for _ in range(arity))
    )


def test_differential_thousand_random_problems():
    """Adding the schema machinery never changes the verdict of a finite
    problem; checked against plain unification on 1000 seeded inputs."""
    rng = random.Random(20240817)
    schema = Schema.of({"L": GOLDEN_BASE})
    symbols = ["X", "Y", "Z", "W", "V", "U"]
    funs = [("f", 2), ("g", 1), ("h", 2), ("a", 0), ("b", 0)]
    disagreements = 0
    for _ in range(1000):
        eqs = frozenset(
            Equation(
                random_term(rng, 4, symbols, funs),
                random_term(rng, 4, symbols, funs),
            )
            for _ in range(rng.randrange(1, 5))
        )
        fc = th_unif(eqs, schema)
        if fc.ok != unifiable(eqs):
            disagreements += 1
    assert disagreements == 0
