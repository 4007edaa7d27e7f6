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
side to the variable's class, and ``Var = Var`` merges.  A flipped input
pair is harmless: the worklist is a stack, so when the later of the two
comes, the other and all it derived are done, and it changes no class,
adds no side and meets no new clash.  The saturated set is the closure of
the classes: x = y for distinct x, y of one class, x = t for every member
x and side t of its class, and the input's reflexive equations.  That is
the least fixpoint of the rules, O(|C|^2) equations for a class C.  Three
rules keep it exactly that set:

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

``th_unif`` grows each class as its union-find node, an ``EngineClass``
with every member in ``plain`` and the sides in an ordered set, then
splits the members into schema and plain ones in place and, in one pass,
flags which classes condition 1 stores.  The store, the union of the
stored classes' closures, and the active set, the rest of the saturated
set, are built from the classes' cached closures on each read of
``FinalConfiguration.store`` and ``.active``, and when the gate runs; no
closure is built otherwise.  The store's variables are read per class.

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
stored, joined transitively) are a stored class's schema members and its
plain members, as z = x is never stored for a schema variable z and a
plain x, and a class left out has at most one schema member; the solver
reads them off the classes.
"""

from __future__ import annotations

import graphlib
from typing import AbstractSet, Iterable, NamedTuple, Optional

from .schema import Schema
from .terms import App, Term, Var, Variable
from .unify import Equation, UnifyFailure, sorted_eqs, unify


class EngineClass:
    """A class of variables equated by ``Var = Var`` equations, with their
    right sides (a multiequation, after Martelli and Montanari): its schema
    and plain members, its distinct sides in arrival order, the members the
    input binds to themselves, and whether its bindings are in the store.
    ``th_unif`` returns its classes read-only; the solver's irrelevant
    groups are classes too, with no schema members, never stored."""

    __slots__ = ("schematic", "plain", "sides", "loops", "stored", "_closure")

    def __init__(
        self,
        plain: tuple[Var, ...],
        sides: tuple[Term, ...],
        loops: tuple[Var, ...] = (),
        schematic: tuple[Var, ...] = (),
        stored: bool = False,
    ):
        self.plain = plain
        self.sides = sides
        self.loops = loops
        self.schematic = schematic
        self.stored = stored
        self._closure: Optional[tuple[Equation, ...]] = None

    def vars(self) -> set[Variable]:
        """The variables of its bindings: its members and those of its
        sides (every class has a binding)."""
        return set().union(
            *[x.vars for x in self.schematic + self.plain],
            *[t.vars for t in self.sides],
        )

    def closure(self) -> tuple[Equation, ...]:
        """Its bindings, built on first call: x = y for distinct members x
        and y but z = x for a schema z and a plain x (condition 1 never
        stores those), x = t for every member x and side t, and x = x for
        every looped member."""
        if self._closure is None:
            z, p = self.schematic, self.plain
            members = z + p
            out = [Equation(x, t) for x in members for t in self.sides]
            out += [Equation(x, y) for x in z for y in z if y is not x]
            out += [Equation(x, y) for x in p for y in members if y is not x]
            out += [Equation(x, x) for x in self.loops]
            self._closure = tuple(out)
        return self._closure

    def spanning(self) -> list[Equation]:
        """A few equations with the closure's variables and unifiers: the
        first schema member bound to the other ones and to each side, the
        first plain member bound to the other ones, to the first schema
        member and to each side, and each looped member to itself.  The
        eq_sub of a store that holds the class sends these and the closure
        to the same equations, reflexive ones aside."""
        out: list[Equation] = []
        for xs, others in ((self.schematic, ()), (self.plain, self.schematic[:1])):
            if xs:
                x0 = xs[0]
                out += [Equation(x0, y) for y in xs[1:] + others]
                out += [Equation(x0, t) for t in self.sides]
        out += [Equation(x, x) for x in self.loops]
        return out


class FinalConfiguration(NamedTuple):
    # The classes of the saturated set, in a fixed order; the store and the
    # active set are read off them.
    classes: tuple[EngineClass, ...]
    verdict: str  # "ok" | "clash" | "cycle"
    offending: Optional[Equation] = None
    vars: frozenset[Variable] = frozenset()  # the store's variables

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"

    @property
    def store(self) -> frozenset[Equation]:
        """The stored classes' closures, built on each read."""
        return closures([c for c in self.classes if c.stored])

    @property
    def active(self) -> frozenset[Equation]:
        """The saturated set less the store, built on each read from the
        classes' cached closures."""
        return frozenset(_active(self.classes))


def closures(classes: Iterable[EngineClass]) -> frozenset[Equation]:
    """The union of the classes' cached closures."""
    return frozenset().union(*[c.closure() for c in classes])


def _active(classes: Iterable[EngineClass]) -> list[Equation]:
    out: list[Equation] = []
    for c in classes:
        out += [Equation(z, x) for z in c.schematic for x in c.plain]
        if not c.stored:
            out += c.closure()
    return out


def store_eligible(x: Variable, eligible: AbstractSet[Variable]) -> bool:
    """May the bindings of x, a variable outside the schema, move into the
    store?  eligible holds the store's variables (condition 2) and what
    unfolding its schema variables reaches (condition 3)."""
    return x in eligible


def th_unif(eqs: Iterable[Equation], schema: Schema) -> FinalConfiguration:
    """Saturate, store, and gate an equation set against the schema."""
    # While saturating, a class keeps every member in plain, in a list, and
    # its sides in a dict (an ordered set).
    classes: dict[Variable, EngineClass] = {}
    loops: set[Var] = set()  # the x of the input's x = x
    clash: Optional[Equation] = None

    def class_of(x: Var) -> EngineClass:
        c = classes.get(x.var)
        if c is None:
            c = classes[x.var] = EngineClass([x], {})
        return c

    work = sorted_eqs(eqs)  # a stack of term pairs; an Equation is one
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
        if len(c.plain) < len(d.plain):
            c, d = d, c
        new = [u for u in d.sides if u not in c.sides]
        work.extend((u, w) for u in new for w in c.sides)
        c.sides.update(dict.fromkeys(new))
        for x in d.plain:
            classes[x.var] = c
        c.plain.extend(d.plain)

    distinct = list(dict.fromkeys(classes.values()))
    store_vars: set[Variable] = set()
    waiting: list[EngineClass] = []
    for c in distinct:
        members = c.plain
        z = c.schematic = tuple([x for x in members if schema.contains(x.var)])
        c.plain = tuple([x for x in members if not schema.contains(x.var)])
        c.sides = tuple(c.sides)
        c.loops = tuple([x for x in members if x in loops])
        # Condition 1 stores a binding of a schema member, and so puts the
        # plain members in the store too.  Nothing is stored past a clash.
        c.stored = clash is None and (
            len(z) > 1 or bool(z and (c.sides or z[0] in c.loops))
        )
        if c.stored:
            store_vars.update(c.vars())
        else:
            waiting.append(c)
    if clash is not None:  # all of the saturated set met so far is active
        return FinalConfiguration(tuple(distinct), "clash", clash)

    # No waiting variable lies above bound, and unfolding never lowers an
    # index, so the search for condition 3 stops there.
    bound = max((x.var.index for c in waiting for x in c.plain), default=-1)
    eligible: set[Variable] = set()
    schema.unfold_into(eligible, store_vars, bound)
    while waiting:
        ready = [
            c
            for c in waiting
            if any(store_eligible(x.var, eligible) for x in c.plain)
        ]
        if not ready:
            break
        for c in ready:
            c.stored = True
            moved = c.vars()
            store_vars.update(moved)
            schema.unfold_into(eligible, moved, bound)
        waiting = [c for c in waiting if not c.stored]

    verdict, offending = "ok", None
    if not _acyclic(distinct, classes):
        stored = [e for c in distinct if c.stored for e in c.closure()]
        gate = unify(stored + _active(distinct))
        if isinstance(gate, UnifyFailure):
            verdict, offending = gate.kind, gate.equation
    return FinalConfiguration(
        tuple(distinct), verdict, offending, frozenset(store_vars)
    )


def _acyclic(
    distinct: list[EngineClass], classes: dict[Variable, EngineClass]
) -> bool:
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
