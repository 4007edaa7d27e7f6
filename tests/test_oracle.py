from schemunif.oracle import DEFAULT_N, DEFAULT_NODE_CAP, bounded_check
from schemunif.schema import Schema
from schemunif.solver import SchematicProblem
from schemunif.terms import app

from .conftest import L, X, Y, eq, f


def test_unifiable_problem_reports_no_failure(h_problem):
    report = bounded_check(h_problem, n=8)
    assert report.ok
    assert report.first_failure is None
    assert report.checked_up_to == 8
    assert len(report.per_instance_sizes) == 9


def test_sizes_grow_monotonically(h_problem):
    report = bounded_check(h_problem, n=6)
    nodes = [s.nodes for s in report.per_instance_sizes]
    assert nodes == sorted(nodes)
    assert report.per_instance_sizes[0].var_count == 3  # L0, Y0, Y1


def test_clash_failure_located():
    schema = Schema.of({"L": f(X(0), L(1))})
    problem = SchematicProblem(
        frozenset([eq(L(0), app("a"))]), schema
    )
    report = bounded_check(problem, n=5)
    assert report.first_failure == (1, "clash")
    assert report.checked_up_to == 5


def test_cycle_failure_located():
    schema = Schema.of({"L": f(X(0), L(1))})
    problem = SchematicProblem(
        frozenset([eq(Y(0), f(Y(0), L(0)))]), schema
    )
    report = bounded_check(problem, n=3)
    assert report.first_failure == (0, "cycle")


def test_failures_stay_failed_once_hit():
    # The monotone-failure assertion is structural: once some instance
    # fails, the report keeps only the first failure while later instances
    # are still required to fail.
    schema = Schema.of({"L": f(X(0), L(1))})
    problem = SchematicProblem(
        frozenset([eq(L(0), app("g", Y(0)))]), schema
    )
    report = bounded_check(problem, n=6)
    assert report.first_failure == (1, "clash")
    assert report.checked_up_to == 6


def test_n_zero_checks_only_the_base_instance(h_problem):
    report = bounded_check(h_problem, n=0)
    assert report.checked_up_to == 0
    assert len(report.per_instance_sizes) == 1


def test_node_cap_stops_growth():
    # Two recursive occurrences double the term every round; a small cap
    # must kick in and record where.
    schema = Schema.of({"L": f(L(1), L(1))})
    problem = SchematicProblem(
        frozenset([eq(L(0), f(Y(0), Y(0)))]), schema
    )
    report = bounded_check(problem, n=30, node_cap=500)
    assert report.size_capped_at is not None
    assert report.checked_up_to == report.size_capped_at - 1
    assert report.first_failure is None


def test_defaults_are_sane():
    assert DEFAULT_N == 25
    assert DEFAULT_NODE_CAP == 200_000


def test_oracle_matches_solver_on_golden(golden_problem, golden_run):
    out = golden_run.outcome
    n = out.i + 2 * (out.i - out.j)
    report = bounded_check(golden_problem, n=n)
    assert report.ok
    assert report.checked_up_to == n
