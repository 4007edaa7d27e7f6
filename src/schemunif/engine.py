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
side to the variable's class, and ``Var = Var`` merges.  The saturated set
is read off the classes once, at the end: x = y for distinct x, y of one
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

Bindings move into the store a class at a time.  Condition 1 stores, as
a class is read, every binding of its schema members but those to its
plain (non-schema) members.  If that binds a member z, condition 2 moves
x = z for every plain member x, and then every other binding of x, since
x occurs in the store.  Otherwise a plain member's bindings move once it
occurs in the store or is reachable from a schema variable of the store
(conditions 2 and 3), and its x = y then put the others in the store.  So
a class's plain members move together: each round judges those of the
waiting classes by membership in one eligible set as it stood at the
start of the round, and moves every class with an eligible member.  The
set holds the store's variables and what unfolding its schema variables
reaches (``Schema.unfold_into``), up to the largest index of a waiting
plain variable, as unfolding never lowers an index.  It is built after
the first pass, and each moved class adds its variables and their
unfoldings; a variable already in it is not searched again.  Eligibility
only grows with the store, so this reaches the store that judging each
equation reaches: the least one closed under the conditions.

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
stored, joined transitively) follow: a class's schema members, and its
plain members if the class moved, as z = x is never stored for a schema
variable z and a plain x.  The schema orbit is recorded as the class is
split into its schema and plain members, the plain one when the class
moves.  An orbit of one member is dropped.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Optional

from .schema import Schema
from .terms import App, Var, Variable
from .unify import Equation, UnifyFailure, eq_vars, sorted_eqs, unify


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


def store_eligible(x: Variable, eligible: AbstractSet[Variable]) -> bool:
    """May the bindings of x, a variable outside the schema, move into the
    store?  eligible holds the store's variables (condition 2) and what
    unfolding its schema variables reaches (condition 3)."""
    return x in eligible


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
    loops: set[Var] = set()  # the x of the input's x = x
    clash: Optional[Equation] = None

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
                clash = Equation(s, t)
                break
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
            loops.add(s)
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

    store: set[Equation] = set()
    active: set[Equation] = set()
    orbits: list[frozenset[Variable]] = []  # one-member ones dropped at the end
    waiting: dict[_Class, tuple[list[Variable], list[Equation]]] = {}
    distinct = list(dict.fromkeys(classes.values()))
    for c in distinct:
        schematic = [x for x in c.members if schema.contains(x.var)]
        plain = [x for x in c.members if not schema.contains(x.var)]
        fixed = _bindings(schematic, schematic, c, loops)  # condition 1
        moving = _bindings(plain, c.members, c, loops)
        store.update(fixed)
        active.update(Equation(z, x) for z in schematic for x in plain)
        orbits.append(frozenset(x.var for x in schematic))
        if fixed:
            store.update(moving)
            orbits.append(frozenset(x.var for x in plain))
        else:
            active.update(moving)
            waiting[c] = ([x.var for x in plain], moving)
    if clash is not None:  # all of the saturated set met so far is active
        return FinalConfiguration(
            frozenset(), frozenset(store | active), "clash", clash
        )
    # No waiting variable lies above bound, and unfolding never lowers an
    # index, so the search for condition 3 stops there.
    bound = max((x.index for plain, _ in waiting.values() for x in plain), default=-1)
    eligible: set[Variable] = set()
    schema.unfold_into(eligible, eq_vars(store), bound)
    while waiting:
        ready = [
            c
            for c, (plain, _) in waiting.items()
            if any(store_eligible(x, eligible) for x in plain)
        ]
        if not ready:
            break
        for c in ready:
            plain, moving = waiting.pop(c)
            store.update(moving)
            active.difference_update(moving)
            schema.unfold_into(eligible, eq_vars(moving), bound)
            orbits.append(frozenset(plain))

    verdict, offending = "ok", None
    if not _acyclic(distinct, classes):
        gate = unify(list(store) + list(active))
        if isinstance(gate, UnifyFailure):
            verdict, offending = gate.kind, gate.equation
    return FinalConfiguration(
        frozenset(store),
        frozenset(active),
        verdict,
        offending,
        frozenset(o for o in orbits if len(o) > 1),
    )


def _bindings(
    xs: list[Var], ys: list[Var], c: _Class, loops: set[Var]
) -> list[Equation]:
    """The saturated equations on each x of xs, a member of class c: x = y
    for every y of ys but x, x = t for every side t, and x = x if the input
    has it."""
    return (
        [Equation(x, y) for x in xs for y in ys if y is not x]
        + [Equation(x, t) for x in xs for t in c.sides]
        + [Equation(x, x) for x in xs if x in loops]
    )


def _acyclic(distinct: list[_Class], classes: dict[Variable, _Class]) -> bool:
    """Does no class reach itself through the classes of the variables in
    its sides?  ``graphlib`` orders the graph from each class to those
    classes, or raises ``CycleError``; a self-loop is a cycle.  A graph
    without edges needs no sorter."""
    graph = {
        c: edges
        for c in distinct
        if (edges := {classes[v] for t in c.sides for v in t.vars if v in classes})
    }
    if not graph:
        return True
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError:
        return False
    return True
