"""Bounded brute-force check of schematic unifiability.

Instantiates the problem directly for i = 0..N and runs plain unification on
each instance.  Only a prefix check, but entirely independent of the
schema-aware engine, which makes it a useful differential oracle.  Instances
are built as shared term DAGs and unified in triangular form, so the cost
follows the distinct subterms of an instance; the node cap and the reported
sizes count tree nodes, as if every shared subterm were written out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .solver import SchematicProblem
from .unify import Substitution, UnifyFailure, eq_vars, unify

DEFAULT_N = 25
DEFAULT_NODE_CAP = 200_000


@dataclass(frozen=True)
class InstanceSize:
    nodes: int
    max_depth: int
    var_count: int


@dataclass
class OracleReport:
    checked_up_to: int  # largest instance index actually unified
    first_failure: Optional[tuple[int, str]]  # (instance, "clash" | "cycle")
    per_instance_sizes: list[InstanceSize] = field(default_factory=list)
    size_capped_at: Optional[int] = None  # instance skipped for size, if any

    @property
    def ok(self) -> bool:
        return self.first_failure is None


def bounded_check(
    problem: SchematicProblem,
    n: int = DEFAULT_N,
    node_cap: int = DEFAULT_NODE_CAP,
) -> OracleReport:
    report = OracleReport(checked_up_to=-1, first_failure=None)
    schema = problem.schema
    eqs = problem.equations
    for i in range(n + 1):
        if i > 0:
            # One more unfolding round on top of the previous instance.
            eqs = Substitution(
                {v: schema.binding(v) for v in eq_vars(eqs) if schema.contains(v)}
            ).apply_eqs(eqs)
        # Tree sizes, although the instance is built as a DAG.
        nodes = sum(e.lhs.size + e.rhs.size for e in eqs)
        if nodes > node_cap:
            report.size_capped_at = i
            break
        report.per_instance_sizes.append(
            InstanceSize(
                nodes=nodes,
                max_depth=max(max(e.lhs.depth, e.rhs.depth) for e in eqs),
                var_count=len(eq_vars(eqs)),
            )
        )
        result = unify(eqs)
        report.checked_up_to = i
        if isinstance(result, UnifyFailure):
            if report.first_failure is None:
                report.first_failure = (i, result.kind)
        else:
            # Once an instance fails, all later ones must fail too; a later
            # success would mean one of the two unifiers is wrong.
            assert report.first_failure is None, (
                f"instance {i} unifiable after failure at "
                f"{report.first_failure}"
            )
    return report
