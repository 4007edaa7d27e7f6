"""Bounded brute-force check of schematic unifiability.

Instantiates the problem directly for i = 0..N and runs plain unification on
each instance.  Only a prefix check, but entirely independent of the
schema-aware engine and the solver (it loads neither), which makes it a
useful differential oracle.  Instances
are built as shared term DAGs and unified in triangular form, so the cost
follows the distinct subterms of an instance; the node cap and the reported
sizes count tree nodes, as if every shared subterm were written out.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .schema import SchematicProblem
from .unify import UnifyFailure, eq_vars, unify

DEFAULT_N = 25
DEFAULT_NODE_CAP = 200_000


class InstanceSize(NamedTuple):
    nodes: int
    max_depth: int
    var_count: int


class OracleReport(NamedTuple):
    checked_up_to: int  # largest instance index actually unified
    first_failure: Optional[tuple[int, str]]  # (instance, "clash" | "cycle")
    per_instance_sizes: Sequence[InstanceSize] = ()
    size_capped_at: Optional[int] = None  # instance skipped for size, if any

    @property
    def ok(self) -> bool:
        return self.first_failure is None


def bounded_check(
    problem: SchematicProblem,
    n: int = DEFAULT_N,
    node_cap: int = DEFAULT_NODE_CAP,
) -> OracleReport:
    checked_up_to, first_failure, capped_at = -1, None, None
    sizes: list[InstanceSize] = []
    schema = problem.schema
    eqs = problem.equations
    for i in range(n + 1):
        if i > 0:
            # One more unfolding round on top of the previous instance.
            eqs = schema.instance_eqs(eqs, 1)
        # Tree sizes, although the instance is built as a DAG.
        nodes = sum(e.lhs.size + e.rhs.size for e in eqs)
        if nodes > node_cap:
            capped_at = i
            break
        sizes.append(
            InstanceSize(
                nodes=nodes,
                max_depth=max(
                    (max(e.lhs.depth, e.rhs.depth) for e in eqs), default=0
                ),
                var_count=len(eq_vars(eqs)),
            )
        )
        result = unify(eqs)
        checked_up_to = i
        if isinstance(result, UnifyFailure):
            if first_failure is None:
                first_failure = (i, result.kind)
        elif first_failure is not None:
            # Once an instance fails, all later ones must fail too; a later
            # success would mean one of the two unifiers is wrong.
            raise AssertionError(
                f"instance {i} unifiable after failure at {first_failure}"
            )
    return OracleReport(checked_up_to, first_failure, sizes, capped_at)
