"""End-to-end acceptance checks against the frozen reference values.

Each test pins one externally agreed behavior: the long worked run (stores,
stabilization index, loop detection point, renaming), the two-instance
h-schema example, the schema-flattening example, the differential and
oracle agreement suites, the structural property suites, and output
determinism.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from schemunif.cli import emit_trace, parse_problem, to_json
from schemunif.engine import th_unif
from schemunif.oracle import bounded_check
from schemunif.schema import Schema, SchemaClass, make_primitive
from schemunif.solver import (
    CycleFound,
    NotUnifiable,
    SchematicProblem,
    normalized_store,
    u_sch_unif,
)
from schemunif.terms import Var, shift, var
from schemunif.unify import Substitution, unify

from .conftest import (
    EX_BASE,
    PROBLEM_DIR,
    SRC_PATH,
    L,
    X,
    Y,
    Z,
    eq,
    f,
    h,
    instance,
    problem_instance,
    unifiable,
)
from .test_corpus_outputs import ROOT, assert_matches_pins, load_pins
from .test_engine import random_term
from .test_solver import _shift_of_subterm

REFERENCE_STORES = {
    0: {
        eq(X(4), f(Y(3), Y(3))),
        eq(L(0), f(Y(0), f(Y(1), Y(0)))),
    },
    1: {
        eq(Y(0), f(X(1), f(Z(0), f(X(1), f(X(0), f(Z(1), X(0))))))),
        eq(X(4), f(Y(3), Y(3))),
        eq(L(1), f(Y(1), Y(0))),
    },
    5: {
        eq(L(5), f(X(0), f(Z(1), X(0)))),
        eq(Z(3), Z(5)),
        eq(Z(5), Z(3)),
        eq(X(5), X(3)),
        eq(X(3), X(5)),
    },
    9: {
        eq(L(9), f(X(6), f(X(5), f(Z(6), X(5))))),
        eq(X(6), f(X(8), f(Z(7), f(X(8), f(X(7), f(Z(8), X(7))))))),
        eq(X(5), X(3)),
        eq(X(3), X(5)),
    },
    15: {
        eq(L(15), f(X(10), f(Z(11), X(10)))),
        eq(X(8), X(10)),
        eq(X(10), X(8)),
        eq(X(13), X(15)),
        eq(X(15), X(13)),
        eq(Z(15), Z(13)),
        eq(Z(13), Z(15)),
    },
}

REFERENCE_METRICS = [5, 9, 7, 10, 10, 5, 8, 7, 10, 5, 5, 6, 6, 8, 7, 5]

REFERENCE_RATIOS = [
    Fraction(1, 2),
    Fraction(1, 2),
    Fraction(3, 5),
    Fraction(3, 5),
    Fraction(4, 5),
    Fraction(7, 10),
    Fraction(1, 2),
]


# -- criterion 1: the long worked run ----------------------------------------


def test_golden_run_verdict_and_timing(golden_problem):
    start = time.perf_counter()
    run = u_sch_unif(golden_problem)
    elapsed = time.perf_counter() - start
    assert run.stab == 8
    assert isinstance(run.outcome, CycleFound)
    assert (run.outcome.i, run.outcome.j) == (15, 5)
    assert elapsed < 1.0


def test_golden_run_cycle_mapping(golden_run):
    assert golden_run.outcome.mapping == {
        X(10).var: X(5).var,
        Z(11).var: Z(1).var,
        L(15).var: L(5).var,
    }


# -- criterion 2: per-instance stores, metrics, ratios ------------------------


def test_golden_stores_match_reference(golden_run):
    for i, expected in REFERENCE_STORES.items():
        assert golden_run.records[i].store == expected, f"store at i={i}"


def test_golden_metric_sequence(golden_run):
    assert [r.metric for r in golden_run.records] == REFERENCE_METRICS


def test_golden_stab_ratios(golden_run):
    got = [r.ratio for r in golden_run.records if r.i >= 9]
    assert got == REFERENCE_RATIOS


# -- criterion 3: the two-instance h-schema example ---------------------------


def test_h_schema_first_store(h_problem):
    schema = h_problem.schema
    fc = th_unif(problem_instance(h_problem, 1), schema)
    assert fc.store == {
        eq(Y(0), h(X(0), h(X(1), X(0)))),
        eq(L(1), h(Y(1), Y(0))),
    }


def test_h_schema_second_store_and_unfold_identity(h_problem):
    schema = h_problem.schema
    store1 = th_unif(problem_instance(h_problem, 1), schema).store
    psi = Substitution({L(1).var: schema.binding(L(1).var)})
    via_store = th_unif(psi.apply_eqs(store1), schema)
    assert via_store.store == {
        eq(Y(0), L(2)),
        eq(L(2), h(X(0), h(X(1), X(0)))),
        eq(Y(0), h(X(0), h(X(1), X(0)))),
    }
    direct = th_unif(problem_instance(h_problem, 2), schema)
    assert via_store.store == direct.store


# -- criterion 4: uniform-to-primitive flattening ------------------------------


def test_flattening_reference_schema():
    def W(i):
        return var("W", i)

    def E(i):
        return var("E", i)

    rules = {
        "L": f(
            f(X(0), f(Z(1), f(E(3), f(X(1), f(W(11), X(1)))))),
            L(1),
        ),
        "S": f(f(E(0), f(W(3), E(2))), var("S", 4)),
        "R": f(f(W(0), W(4)), var("R", 7)),
    }
    schema = Schema.of(rules)
    assert schema.classify() == SchemaClass.UNIFORM
    _, prim, _ = make_primitive(frozenset([eq(L(0), Y(0))]), schema)
    assert prim.classify() == SchemaClass.PRIMITIVE
    for sym in prim.domain:
        assert all(o <= 1 for o in prim.recursion_offsets(sym))

    def param_count(s, sym):
        from schemunif.terms import App

        def occurrences(t):
            if isinstance(t, Var):
                return [t.var]
            out = []
            for a in t.args:
                out.extend(occurrences(a))
            return out

        return len(
            [v for v in occurrences(s.base(sym)) if v.symbol not in s.domain]
        )

    assert param_count(prim, "L") == 6
    assert param_count(prim, "S") == 3
    assert param_count(prim, "R") == 2


# -- criterion 5: differential against plain unification ----------------------


def test_differential_agreement_1000_cases():
    rng = random.Random(574219)
    schema = Schema.of({"L": EX_BASE})
    symbols = ["X", "Y", "Z", "W", "V", "U"]
    funs = [("f", 2), ("g", 1), ("h", 2), ("a", 0), ("b", 0)]
    for case in range(1000):
        eqs = frozenset(
            eq(
                random_term(rng, 4, symbols, funs),
                random_term(rng, 4, symbols, funs),
            )
            for _ in range(rng.randrange(1, 5))
        )
        assert th_unif(eqs, schema).ok == unifiable(eqs), f"case {case}"


# -- criterion 6: solver-oracle agreement over the corpus ---------------------


def load_corpus():
    out = []
    for name in sorted(os.listdir(PROBLEM_DIR)):
        if not name.endswith(".prob"):
            continue
        path = os.path.join(PROBLEM_DIR, name)
        with open(path, encoding="utf-8") as fh:
            out.append((path, parse_problem(fh.read())))
    return out


def test_corpus_size():
    assert len(load_corpus()) >= 20


def test_corpus_solver_oracle_agreement():
    start = time.perf_counter()
    for path, parsed in load_corpus():
        run = u_sch_unif(parsed.problem)
        expected = parsed.directives.get("expect")
        if isinstance(run.outcome, CycleFound):
            assert expected == "cycle", path
            n = run.outcome.i + 2 * (run.outcome.i - run.outcome.j)
            report = bounded_check(parsed.problem, n=n)
            assert report.first_failure is None, path
        elif isinstance(run.outcome, NotUnifiable):
            assert expected == "not-unifiable", path
            # The first failure lies in [instance, instance + lookahead].
            i, g = run.outcome.instance, run.outcome.lookahead
            report = bounded_check(parsed.problem, n=i + g)
            assert report.first_failure is not None, path
            assert report.first_failure[0] >= i, path
        else:
            raise AssertionError(f"{path}: unexpected outcome {run.outcome}")
    assert time.perf_counter() - start < 60.0


# -- criterion 7: structural property suites ----------------------------------


def test_shift_laws_spot_checks():
    rng = random.Random(99)
    symbols = ["X", "Y", "Z"]
    funs = [("f", 2), ("g", 1), ("a", 0)]
    for _ in range(200):
        t = random_term(rng, 4, symbols, funs)
        d1, d2 = rng.randrange(0, 5), rng.randrange(0, 5)
        assert shift(0, t) == t
        assert shift(d1, shift(d2, t)) == shift(d1 + d2, t)


def test_mgu_laws_spot_checks():
    rng = random.Random(7)
    symbols = ["X", "Y", "Z"]
    funs = [("f", 2), ("g", 1), ("a", 0)]
    for _ in range(300):
        eqs = frozenset(
            eq(
                random_term(rng, 3, symbols, funs),
                random_term(rng, 3, symbols, funs),
            )
            for _ in range(rng.randrange(1, 4))
        )
        r = unify(eqs)
        if isinstance(r, Substitution):
            for _, t in r.mapping.items():
                assert r.apply(t) == t  # idempotent
            for e in eqs:
                assert r.apply(e.lhs) == r.apply(e.rhs)  # solves the input


def test_store_bindings_are_variable_lhs_on_corpus():
    for path, parsed in load_corpus():
        run = u_sch_unif(parsed.problem)
        for rec in run.records:
            assert all(isinstance(e.lhs, Var) for e in rec.store), path


def test_normalized_store_depth_and_shape_bounds_on_corpus():
    for path, parsed in load_corpus():
        eqs, schema, _ = make_primitive(
            parsed.problem.equations, parsed.problem.schema
        )
        problem = SchematicProblem(eqs, schema)
        reference = []
        for e in problem_instance(problem, 1):
            reference.extend([e.lhs, e.rhs])
        cap = max(t.depth for t in reference)
        for rec in u_sch_unif(problem).records:
            for e in normalized_store(rec.store, schema):
                assert e.rhs.depth <= cap, (path, rec.i)
                assert _shift_of_subterm(e.rhs, reference), (path, rec.i)


def test_oracle_failures_are_monotone_on_corpus():
    for path, parsed in load_corpus():
        report = bounded_check(parsed.problem, n=8)
        if report.first_failure is not None:
            k, _ = report.first_failure
            for later in range(k, min(report.checked_up_to, k + 3) + 1):
                assert not unifiable(problem_instance(parsed.problem, later)), (
                    path,
                    later,
                )


def test_fold_inverts_unfold_grid():
    schemas = [
        Schema.of({"L": EX_BASE}),
        Schema.of({"L": f(X(0), L(1))}),
        Schema.of({"L": f(X(1), f(Z(0), L(1)))}),
        Schema.of({"L": f(X(0), L(0))}),
    ]
    for schema in schemas:
        for d in range(6):
            for k in range(5):
                t = instance(schema, L(d), k)
                assert schema.normalize(t) == L(d), (str(schema), d, k)


# -- criterion 8: determinism --------------------------------------------------


def test_full_corpus_outputs_stable_in_process():
    for path, parsed in load_corpus():
        first = u_sch_unif(parsed.problem)
        second = u_sch_unif(parse_problem(open(path).read()).problem)
        assert emit_trace(first) == emit_trace(second), path
        assert to_json(first, None) == to_json(second, None), path


def test_outputs_stable_across_processes():
    # Different hash seeds, and different object addresses, shuffle set
    # iteration order; canonical sorting must hide that completely.  One
    # process per seed runs all 25 corpus inputs in both output modes.
    pins = load_pins()
    for seed in ("0", "4242"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join([SRC_PATH, ROOT]),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "tests.test_corpus_outputs"],
            capture_output=True,
            env=env,
            cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        assert_matches_pins(json.loads(proc.stdout), pins)
