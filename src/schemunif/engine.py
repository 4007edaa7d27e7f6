"""The schema-aware unification engine.

A worklist procedure that saturates an equation set under decomposition,
orientation and transitivity (with eager deletion of reflexive equations),
then repeatedly moves eligible bindings into a store, and finally runs plain
unification over everything as the clash/cycle gate.  The store it builds is
the part of the solved form that stays relevant when the schema is unfolded
one more step.

Saturation is one FIFO worklist, seeded once in ``Equation.key`` order.  An
equation enters the active set, and the worklist, at most once while it is
active, and is handled by its shape: ``App = Var`` is oriented, ``App = App``
is decomposed (or is the clash), and ``Var = t`` adds its flip when t is a
variable and is equated with every earlier right side of the same variable.
Only equations with an ``App`` left side leave the active set, and only
once handled, so what a rule derives stays derived: the saturated set is
the least fixpoint of the rules whatever order they fire in, and the seed
order only fixes which clash is reported when there are several.

Bindings move in rounds: each round judges every active equation against
the store as it stood at the start of the round, then moves the whole
eligible batch, so the order of the candidates does not matter.  A
``StoreIndex`` of that store (its bound variables, its right-side variables
and its schema variables) is built once per round, so judging one candidate
takes set lookups and the schema's memoized reachability, not a pass over
the store.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .schema import Schema
from .terms import Term, Var, Variable
from .unify import Equation, UnifyFailure, sorted_eqs, unify


@dataclass(frozen=True)
class FinalConfiguration:
    store: frozenset[Equation]
    active: frozenset[Equation]
    verdict: str  # "ok" | "clash" | "cycle"
    offending: Optional[Equation] = None

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"


class StoreIndex(NamedTuple):
    """What store eligibility reads of a store."""

    lhs_vars: frozenset[Variable]  # the variables the store binds
    rhs_vars: frozenset[Variable]  # the variables of its right sides
    schema_vars: frozenset[Variable]  # its schema variables

    @staticmethod
    def of(store: Iterable[Equation], schema: Schema) -> "StoreIndex":
        lhs: set[Variable] = set()
        rhs: set[Variable] = set()
        for e in store:
            assert isinstance(e.lhs, Var)
            lhs.add(e.lhs.var)
            rhs |= e.rhs.vars
        return StoreIndex(
            frozenset(lhs),
            frozenset(rhs),
            frozenset(v for v in lhs | rhs if schema.contains(v)),
        )


def store_eligible(eq: Equation, index: StoreIndex, schema: Schema) -> bool:
    """May eq move into the store that index describes?"""
    if not isinstance(eq.lhs, Var):
        return False
    y = eq.lhs.var
    r = eq.rhs
    if schema.contains(y):
        # Condition 1: bindings on schema variables, unless the rhs is a
        # plain variable outside the schema.
        return not (isinstance(r, Var) and not schema.contains(r.var))
    # Condition 2: tied to an existing store entry (y occurs in it, or the
    # rhs is a variable the store binds).
    if y in index.lhs_vars or y in index.rhs_vars:
        return True
    if isinstance(r, Var) and r.var in index.lhs_vars:
        return True
    # Condition 3: reachable from a schema variable of the store by unfolding.
    return any(schema.reachable_by_unfolding(y, z) for z in index.schema_vars)


def th_unif(eqs: Iterable[Equation], schema: Schema) -> FinalConfiguration:
    """Saturate, store, and gate an equation set against the schema."""
    active: set[Equation] = set()
    store: set[Equation] = set()
    work: deque[Equation] = deque()
    bound: dict[Variable, list[Term]] = {}  # right sides met per variable

    def add(e: Equation) -> None:
        if e not in active:
            active.add(e)
            work.append(e)

    for e in sorted_eqs(eqs):
        add(e)
    while work:
        e = work.popleft()
        lhs, rhs = e
        if isinstance(lhs, Var):
            if isinstance(rhs, Var):
                add(e.flip())
            known = bound.setdefault(lhs.var, [])
            for other in known:
                add(Equation(rhs, other))  # transitivity through lhs
            known.append(rhs)
        elif isinstance(rhs, Var):
            active.discard(e)
            add(e.flip())
        elif lhs.head != rhs.head or len(lhs.args) != len(rhs.args):
            return FinalConfiguration(
                frozenset(store), frozenset(active), "clash", e
            )
        else:
            active.discard(e)
            for a, b in zip(lhs.args, rhs.args):
                if a != b:  # eager reflexive deletion
                    add(Equation(a, b))

    while True:
        index = StoreIndex.of(store, schema)
        movable = [e for e in active if store_eligible(e, index, schema)]
        if not movable:
            break
        store.update(movable)
        active.difference_update(movable)

    gate = unify(list(store) + list(active))
    if isinstance(gate, UnifyFailure):
        return FinalConfiguration(
            frozenset(store), frozenset(active), gate.kind, gate.equation
        )
    return FinalConfiguration(frozenset(store), frozenset(active), "ok")
