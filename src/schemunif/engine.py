"""The schema-aware unification engine.

Saturates an equation set under decomposition, orientation and
transitivity, moves eligible bindings into a store, and gates the result
for clashes and occurs cycles.  The store it builds is the part of the
solved form that stays relevant when the schema is unfolded one more step.

Saturation keeps union-find classes of variables.  Each class holds its
member variables and its distinct ``App`` right sides (its sides); a
``Var = Var`` equation merges two classes, the smaller into the larger.  A
worklist, seeded once in ``Equation.key`` order, holds the pairs of terms
still to equate: ``App = Var`` is oriented, ``App = App`` is decomposed
(identical argument pairs skipped) or is the clash, ``Var = App`` adds a
side to the variable's class, and ``Var = Var`` merges.  The active set is
built from the classes once, at the end: x = y for distinct x, y of one
class, x = t for every member x and side t of its class, and the input's
reflexive equations.  That is the least fixpoint of the rules, built at
the cost of its size, O(|C|^2) for a class C.  Three rules keep it
exactly that set:

- every pair of sides that meet in a class is decomposed, not each side
  against one representative: ``Y0 = f(g(a), W0)``, ``Y0 = f(Y1, W0)``
  and ``Y0 = f(Y2, W0)`` derive ``Y1 = Y2`` only from the last two;
- classes merge only through ``Var = Var`` equations: ``Y0 = g(a)`` and
  ``Y1 = g(a)`` do not derive ``Y0 = Y1``;
- a reflexive ``X = X`` is kept when the input has it and never derived.

Bindings move in rounds: each round judges every active equation against
the store as it stood at the start of the round, then moves the whole
eligible batch, so the order of the candidates does not matter.  A
``StoreIndex`` of that store (its bound variables, its right-side variables
and its schema variables) is built once per round, so judging one candidate
takes set lookups and the schema's memoized reachability, not a pass over
the store.

The gate is plain unification of store and active set, and it is run only
when it can fail.  Without a clash, every pair of sides of a class has the
same head and arity and arguments that saturation equated, so unification
can only fail on an occurs cycle, and it has one exactly when some class
reaches itself in the graph from each class to the classes of the
variables in its sides.  Along such a cycle a unifier would map a class to
a term that strictly contains it; without one, binding the classes in
reverse topological order, each to the image of any of its sides, is a
unifier.  ``graphlib.TopologicalSorter`` finds such a cycle, a class whose
side holds one of its own members included.  So an acyclic graph gives
"ok" at once, and a cycle runs ``unify``, which reports the cycle equation.

The store's variable-equality orbits (x and y with both x = y and y = x
stored, joined transitively) are read off the classes as well, without a
pass over the store.  Split a class into its schema variables S and the
rest N.  Condition 1 of ``store_eligible`` moves z = z' for any two schema
variables, so S is an orbit.  If the store binds some member x of N,
condition 2 moves y = x for every y in N, after which it binds y too and
moves every equation inside N; if it binds none, no x = y inside N is
stored, as that would bind x.  So N is an orbit exactly when the store
binds one of its members.  Condition 1 never moves z = x for a schema
variable z and an x outside the schema, so no pair across S and N is stored
both ways.  An orbit of one member is dropped.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

from .schema import Schema
from .terms import App, Var, Variable
from .unify import Equation, UnifyFailure, sorted_eqs, unify


@dataclass(frozen=True)
class FinalConfiguration:
    store: frozenset[Equation]
    active: frozenset[Equation]
    verdict: str  # "ok" | "clash" | "cycle"
    offending: Optional[Equation] = None
    # The variable-equality orbits of the store: the classes of variables x,
    # y with both x = y and y = x stored, each of at least two members.
    orbits: frozenset[frozenset[Variable]] = frozenset()

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


class _Class:
    """A class of variables equated by ``Var = Var`` equations, with the
    distinct ``App`` right sides bound to any of them, in arrival order."""

    __slots__ = ("members", "sides")

    def __init__(self, x: Var):
        self.members = [x]
        self.sides: dict[App, None] = {}  # an ordered set


def th_unif(eqs: Iterable[Equation], schema: Schema) -> FinalConfiguration:
    """Saturate, store, and gate an equation set against the schema."""
    classes: dict[Variable, _Class] = {}
    reflexive: set[Equation] = set()

    def class_of(x: Var) -> _Class:
        c = classes.get(x.var)
        if c is None:
            c = classes[x.var] = _Class(x)
        return c

    work = [(e.lhs, e.rhs) for e in sorted_eqs(eqs)]
    work.reverse()
    while work:
        s, t = work.pop()
        if isinstance(s, App):
            if isinstance(t, Var):
                s, t = t, s  # orient
            elif s.head != t.head or len(s.args) != len(t.args):
                active = frozenset(_active(classes, reflexive))
                return FinalConfiguration(
                    frozenset(), active, "clash", Equation(s, t)
                )
            else:
                work.extend((a, b) for a, b in zip(s.args, t.args) if a is not b)
                continue
        c = class_of(s)
        if isinstance(t, App):
            if t not in c.sides:
                work.extend((t, u) for u in c.sides)
                c.sides[t] = None
            continue
        if s is t:
            reflexive.add(Equation(s, t))
            continue
        d = class_of(t)
        if c is d:
            continue
        if len(c.members) < len(d.members):
            c, d = d, c
        new = [u for u in d.sides if u not in c.sides]
        work.extend((u, w) for u in new for w in c.sides)
        c.sides.update(dict.fromkeys(new))
        for x in d.members:
            classes[x.var] = c
        c.members.extend(d.members)

    active = _active(classes, reflexive)
    store: set[Equation] = set()
    while True:
        index = StoreIndex.of(store, schema)
        movable = [e for e in active if store_eligible(e, index, schema)]
        if not movable:
            break
        store.update(movable)
        active.difference_update(movable)

    verdict, offending = "ok", None
    if not _acyclic(classes):
        gate = unify(list(store) + list(active))
        if isinstance(gate, UnifyFailure):
            verdict, offending = gate.kind, gate.equation
    return FinalConfiguration(
        frozenset(store),
        frozenset(active),
        verdict,
        offending,
        frozenset(_orbits(classes, index.lhs_vars, schema)),
    )


def _active(
    classes: dict[Variable, _Class], reflexive: set[Equation]
) -> set[Equation]:
    """The saturated set the classes stand for: x = y for distinct x, y of
    one class, x = t for every member x and side t, and the reflexive
    equations of the input."""
    out = set(reflexive)
    for v, c in classes.items():
        if c.members[0].var != v:
            continue  # one visit per class, at its first member
        for x in c.members:
            out.update([Equation(x, y) for y in c.members if y is not x])
            out.update([Equation(x, t) for t in c.sides])
    return out


def _orbits(
    classes: dict[Variable, _Class], bound: frozenset[Variable], schema: Schema
) -> Iterator[frozenset[Variable]]:
    """The orbits of the final store, read off the classes: the schema
    variables of a class, and its other variables if the store binds one
    of them; each only if it has at least two members."""
    for v, c in classes.items():
        if c.members[0].var != v:
            continue  # one visit per class, at its first member
        members = frozenset(x.var for x in c.members)
        schematic = frozenset(x for x in members if schema.contains(x))
        plain = members - schematic
        if len(schematic) > 1:
            yield schematic
        if len(plain) > 1 and not bound.isdisjoint(plain):
            yield plain


def _acyclic(classes: dict[Variable, _Class]) -> bool:
    """Does no class reach itself through the classes of the variables in
    its sides?  ``graphlib`` orders the graph from each class to those
    classes, or raises ``CycleError``; a self-loop is a cycle."""
    graph = {
        c: {classes[v] for t in c.sides for v in t.vars if v in classes}
        for c in dict.fromkeys(classes.values())
        if c.sides
    }
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError:
        return False
    return True
