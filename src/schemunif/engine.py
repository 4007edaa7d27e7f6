"""The schema-aware unification engine.

A worklist procedure that saturates an equation set under decomposition,
orientation and transitivity (with eager deletion of reflexive equations),
then repeatedly moves eligible bindings into a store, and finally runs plain
unification over everything as the clash/cycle gate.  The store it builds is
the part of the solved form that stays relevant when the schema is unfolded
one more step.

Bindings move in rounds: each round judges every active equation against
the store as it stood at the start of the round, then moves the whole
eligible batch.  A ``StoreIndex`` of that store (its bound variables, its
right-side variables and its schema variables) is built once per round, so
judging one candidate takes set lookups and the schema's memoized
reachability, not a pass over the store.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .schema import Schema
from .terms import App, Term, Var, Variable
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


def _is_var(t: Term) -> bool:
    return isinstance(t, Var)


class StoreIndex(NamedTuple):
    """What store eligibility reads of a store."""

    lhs_vars: frozenset[Variable]  # the variables the store binds
    rhs_vars: frozenset[Variable]  # the variables of its right sides
    schema_vars: tuple[Variable, ...]  # its schema variables, sorted

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
            tuple(sorted(v for v in lhs | rhs if schema.contains(v))),
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


class _State:
    """Worklists, the change buffer, and the transitivity-pair dedup table."""

    def __init__(self, eqs: Iterable[Equation]):
        self.changes: list[Equation] = sorted_eqs(eqs)
        self.var_dict: dict[Variable, set[Equation]] = {}
        self.orient1: deque[Equation] = deque()
        self.decom: deque[Equation] = deque()
        self.orient2: deque[Equation] = deque()
        self.trans: deque[tuple[Equation, Equation]] = deque()


class ClashDetected(Exception):
    def __init__(self, equation: Equation):
        super().__init__(str(equation))
        self.equation = equation


def _find_clash(changes: Iterable[Equation]) -> Optional[Equation]:
    for e in changes:
        if (
            isinstance(e.lhs, App)
            and isinstance(e.rhs, App)
            and (e.lhs.head != e.rhs.head or len(e.lhs.args) != len(e.rhs.args))
        ):
            return e
    return None


def _update(state: _State, active: set[Equation]) -> bool:
    bad = _find_clash(state.changes)
    if bad is not None:
        raise ClashDetected(bad)
    changes = sorted_eqs(state.changes)
    state.orient1.extend(
        e for e in changes if not _is_var(e.lhs) and _is_var(e.rhs)
    )
    state.decom.extend(
        e
        for e in changes
        if isinstance(e.lhs, App)
        and isinstance(e.rhs, App)
        and e.lhs.head == e.rhs.head
        and len(e.lhs.args) == len(e.rhs.args)
    )
    state.orient2.extend(
        e
        for e in changes
        if _is_var(e.lhs) and _is_var(e.rhs) and e.flip() not in active
    )
    for e in changes:
        if isinstance(e.lhs, Var):
            known = state.var_dict.setdefault(e.lhs.var, set())
            if e not in known:
                state.trans.extend((e, other) for other in sorted_eqs(known))
                known.add(e)
    state.changes = []
    return bool(state.orient1 or state.decom or state.orient2 or state.trans)


def th_unif(eqs: Iterable[Equation], schema: Schema) -> FinalConfiguration:
    """Saturate, store, and gate an equation set against the schema."""
    active: set[Equation] = set(eqs)
    store: set[Equation] = set()
    state = _State(active)

    try:
        while _update(state, active):
            while state.orient1:
                e = state.orient1.popleft()
                if e in active:
                    active.discard(e)
                    flipped = e.flip()
                    if flipped not in active:
                        active.add(flipped)
                        state.changes.append(flipped)
            while state.decom:
                e = state.decom.popleft()
                if e in active:
                    active.discard(e)
                    assert isinstance(e.lhs, App) and isinstance(e.rhs, App)
                    for a, b in zip(e.lhs.args, e.rhs.args):
                        if a == b:
                            continue  # eager reflexive deletion
                        new = Equation(a, b)
                        if new not in active:
                            active.add(new)
                            state.changes.append(new)
            while state.orient2:
                e = state.orient2.popleft()
                if e in active and e.flip() not in active:
                    flipped = e.flip()
                    active.add(flipped)
                    state.changes.append(flipped)
            while state.trans:
                e1, e2 = state.trans.popleft()
                if e1 in active and e2 in active and e1.rhs != e2.rhs:
                    new = Equation(e1.rhs, e2.rhs)
                    if new not in active:
                        active.add(new)
                        state.changes.append(new)
    except ClashDetected as clash:
        return FinalConfiguration(
            frozenset(store), frozenset(active), "clash", clash.equation
        )

    while True:
        index = StoreIndex.of(store, schema)
        movable = [
            e for e in sorted_eqs(active) if store_eligible(e, index, schema)
        ]
        if not movable:
            break
        for e in movable:
            store.add(e)
            active.discard(e)

    gate = unify(list(store) + list(active))
    if isinstance(gate, UnifyFailure):
        return FinalConfiguration(
            frozenset(store), frozenset(active), gate.kind, gate.equation
        )
    return FinalConfiguration(frozenset(store), frozenset(active), "ok")
