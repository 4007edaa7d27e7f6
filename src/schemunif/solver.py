"""Decision procedure for uniform schematic unification problems.

``instances`` drives the engine instance by instance: the store of instance
i, with every schema variable unfolded one step, is the input for instance
i+1.  Along the way it accumulates the irrelevant bindings (checking them for
hidden occurs cycles), collapses variable-equality orbits, tracks which
variables stay relevant, and yields each instance's record with its
stability metric.  ``u_sch_unif`` decides over the records: it watches the
metric, and once past the stabilization index, it scans earlier instances
for a variable renaming that equates the simplified stores — such a renaming
proves the instance sequence loops, so every instance is unifiable.

The irrelevant set is kept as groups, one per engine class left out of the
store.  A group is an ``EngineClass`` too (a multiequation, after Martelli
and Montanari), with no schema members: the class's plain members, least
first, and as its sides the class's schema members and sides, standing for
its closure, which binds every plain member to every other one and to every
side.  Each instance applies its step to each carried side once; the plain
members are not schema variables, so the step fixes them.  The occurs
check unifies each group's spanning set, the least plain member bound to
each other member and to each side: plain unification is transitive, so it
has the unifiers of the closure, at O(|C|) equations for a class C in place
of O(|C|^2).  The unfolding depth and the irrelevant variables are read off
the groups.

The next engine input is not the store's closure pairs with the step
applied, O(|C|^2) for a stored class C, but ``unfolded_store``'s O(|C|)
equations, which the engine saturates to the same classes.  The step
sends a class's members to its core, which the closure equates pairwise,
and its sides to its leaves, each equated with every core term but not
with one another.  The core is complete, so a star from a core variable
is exact.  The leaves are not, and saturation is not transitive through
sides: a star from a core application meets each leaf with that term
only, so a variable inside another core term misses the leaf's argument
as a side.  A core of applications is split by argument position
instead.  The store's variables, its orbits, and the normalized and
simplified store are read per class.  A record keeps the stored classes
and the groups: its ``store`` and ``irr``, the unions of the closures
each class builds once and caches, are built on each read.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .engine import EngineClass, closures, th_unif
from .schema import Schema, SchemaClass, SchematicProblem
# Unused here; bench/tracing.py wraps solver.make_primitive (--trace 1 needs it).
from .schema import make_primitive  # noqa: F401
from .terms import App, Term, Var, Variable
from .unify import (
    Equation,
    Substitution,
    UnifyFailure,
    eq_vars,
    sorted_eqs,
    unify,
)


class InstanceRecord(NamedTuple):
    """Snapshot of one solver iteration, sufficient for the later j-scan
    and for trace emission."""

    i: int
    classes: tuple[EngineClass, ...]  # the stored classes
    vars: frozenset[Variable]  # the variables of the store
    groups: tuple[EngineClass, ...]  # the irrelevant set
    step_sub: Substitution
    eq_sub: Substitution
    fr: frozenset[Variable]
    simplified: frozenset[Equation]  # normalized store, eq_sub applied,
    # reflexive equations dropped
    metric: int  # |vars(U_Theta(i))| - |dom(eq_sub)| - |irrV|
    metric_live: int  # |vars(NStore.eq_sub)| - |irrV|
    ratio: Optional[Fraction] = None

    @property
    def store(self) -> frozenset[Equation]:
        """The store: the union of its classes' cached closures, built on
        each read."""
        return closures(self.classes)

    @property
    def irr(self) -> frozenset[Equation]:
        """The irrelevant set: the union of its groups' cached closures,
        built on each read."""
        return closures(self.groups)


class CycleFound(NamedTuple):
    i: int
    j: int
    mapping: dict[Variable, Variable]


class NotUnifiable(NamedTuple):
    instance: int
    cause: str  # "clash" | "cycle" | "irr-cycle"
    equation: Optional[Equation] = None
    # For an irr-cycle, the unfolding steps cycle_check took beyond the
    # instance: plain unification first fails by instance + lookahead.
    lookahead: int = 0


class StabilityViolation(NamedTuple):
    instance: int
    ratio: Fraction


class Exhausted(NamedTuple):
    cap: int


Outcome = Union[CycleFound, NotUnifiable, StabilityViolation, Exhausted]


class SolverRun(NamedTuple):
    outcome: Outcome
    records: list[InstanceRecord]
    stab: Optional[int] = None  # unset when instance 0 already fails


def step_substitution(
    store_vars: frozenset[Variable], schema: Schema
) -> Substitution:
    """One-step unfolding of every schema variable of the store."""
    return schema.step(store_vars)


def irrelevant_set(
    carried: Iterable[EngineClass],
    psi: Substitution,
    classes: Iterable[EngineClass],
    schema: Schema,
) -> tuple[tuple[EngineClass, ...], list[Equation], frozenset[Variable], int]:
    """The irrelevant set of an instance, as groups: those carried from the
    previous instance, with its step psi applied to their sides (psi
    unfolds only schema variables, so it fixes every plain member), then one
    for each class that the engine left out of the store.  One scan of the
    groups reads off the rest of the result:

    - their spanning equations but the looped members' x = x, which are
      unifiable exactly when the closure of the groups is;
    - the variables outside the schema;
    - the depth, the unfolding steps that cover the index gap between the
      plain members and the deepest schema variable: i_max - r_min + 1 over
      the groups, never below 0, and 0 without a schema variable, as there
      is nothing to unfold."""
    groups = list(carried)
    if psi and groups:
        go = psi.applier()
        for k, g in enumerate(groups):
            unfolded = tuple([go(r) for r in g.sides])
            if unfolded != g.sides:
                groups[k] = EngineClass(g.plain, unfolded, g.loops)
    for c in classes:
        if c.plain and not c.stored:
            plain = tuple(sorted(c.plain, key=attrgetter("var")))
            groups.append(EngineClass(plain, c.schematic + c.sides, c.loops))
    eqs: list[Equation] = []
    plain_vars: set[Variable] = set()
    right_vars: set[Variable] = set()
    for g in groups:
        span = g.spanning()
        eqs += [e for e in span if e.lhs is not e.rhs]
        for r in g.sides:
            right_vars |= r.vars
        for x in g.plain:
            plain_vars |= x.vars
    i_max = max([v.index for v in plain_vars], default=-1)
    r_min = None
    for v in right_vars:
        if v.symbol in schema.domain:
            r_min = v.index if r_min is None else min(r_min, v.index)
        else:
            plain_vars.add(v)
    depth = 0 if r_min is None else max(i_max - r_min + 1, 0)
    return tuple(groups), eqs, frozenset(plain_vars), depth


def cycle_check(
    eqs: list[Equation], schema: Schema, depth: int
) -> Optional[UnifyFailure]:
    """Detect occurs cycles hidden in the irrelevant set by unfolding the
    schema variables of its spanning equations depth times, then unifying.
    Every left side is a variable outside the schema, so the schema
    variables unfolded are those of the right sides."""
    if not eqs:
        return None
    result = unify(schema.instance_eqs(eqs, depth))
    return result if isinstance(result, UnifyFailure) else None


def unfolded_store(
    classes: Iterable[EngineClass], psi: Substitution
) -> list[Equation]:
    """The next engine input: equations that th_unif saturates as it does
    the stored classes' closures with psi applied, at O(|C|) equations for
    a class C in place of O(|C|^2).

    A class unfolds to a group: its members' images, the core, which the
    closure equates pairwise, and its sides' images, the leaves, each
    equated with every core term but not with one another.  The engine
    derives x = x only from its input, so a variable that two members, or
    a looped member, unfold to gets its x = x.  Then a group becomes:

    - of at most two terms, its pair if any, which the engine decomposes
      itself;
    - with a variable v in its core, the star v = u over core and leaves:
      v's class takes every variable and every other term as a side, and
      the engine decomposes the sides of a class pairwise;
    - otherwise, its core all applications: each variable leaf bound to
      every core term, as in the closure, and, when the applications share
      a head, for each argument position the group of the core's arguments
      with the application leaves' arguments as leaves, since an
      ``App = App`` pair is its argument pairs; when they do not, the
      first core term bound to every other term, which clashes.

    The module docstring says why a star from a core application would
    not be exact."""
    go = psi.applier()
    out: list[Equation] = []
    groups: list[tuple[list[Term], list[Term]]] = []
    for c in classes:
        if not c.stored:
            continue
        core: dict[Term, None] = {}
        for x in c.schematic + c.plain:
            t = go(x)
            if t in core and isinstance(t, Var):
                out.append(Equation(t, t))
            core[t] = None
        out += [Equation(t, t) for t in map(go, c.loops) if isinstance(t, Var)]
        leaves = [t for t in map(go, c.sides) if t not in core]
        groups.append((list(core), leaves))
    while groups:
        core, leaves = groups.pop()
        if len(core) + len(leaves) <= 2:
            out += [Equation(core[0], u) for u in core[1:] + leaves]
            continue
        for v in core:
            if isinstance(v, Var):
                out += [Equation(v, u) for u in core if u is not v]
                out += [Equation(v, u) for u in leaves]
                break
        else:
            k = core[0]
            apps = [t for t in leaves if isinstance(t, App)]
            out += [Equation(x, j) for x in leaves if isinstance(x, Var) for j in core]
            if any(t.head != k.head or len(t.args) != len(k.args) for t in core + apps):
                out += [Equation(k, u) for u in core[1:] + apps]
                continue
            for p in range(len(k.args)):
                args = dict.fromkeys([j.args[p] for j in core])
                below = dict.fromkeys([t.args[p] for t in apps])
                groups.append((list(args), [a for a in below if a not in args]))
    return out


def compute_eq_sub(classes: Iterable[EngineClass]) -> Substitution:
    """Collapse each variable-equality orbit of the store, the schema
    members of a stored class and its plain members, onto its maximal-index
    member; index ties break toward the lexicographically larger symbol."""
    reps: dict[Variable, Term] = {}
    for c in classes:
        for members in (c.schematic, c.plain) if c.stored else ():
            if len(members) > 1:
                rep = max(members, key=lambda x: (x.var.index, x.var.symbol))
                for x in members:
                    reps[x.var] = rep
    return Substitution(reps)


def future_relevant(
    store_vars: frozenset[Variable], step_sub: Substitution, schema: Schema
) -> frozenset[Variable]:
    """Non-schema store variables whose index reaches a schema variable that
    the next unfolding expands, and whose symbol that unfolding re-emits."""
    lowest: dict[str, int] = {}  # symbol -> least index of a y re-emitting it
    for y in step_sub.domain():
        for v in schema.base(y.symbol).vars:
            lowest[v.symbol] = min(lowest.get(v.symbol, y.index), y.index)
    return frozenset(
        x
        for x in store_vars
        if not schema.contains(x) and x.index >= lowest.get(x.symbol, x.index + 1)
    )


def normalized_store(
    store: Iterable[Equation], schema: Schema
) -> frozenset[Equation]:
    """The store with each right side folded back by ``Schema.normalize``."""
    return frozenset([Equation(lhs, schema.normalize(rhs)) for lhs, rhs in store])


def simplified_store(
    normalized: frozenset[Equation], eq_sub: Substitution
) -> frozenset[Equation]:
    """A normalized store with eq_sub applied, less its reflexive equations:
    the orbits' x = y, which eq_sub collapses, and any x = x."""
    return frozenset([e for e in eq_sub.apply_eqs(normalized) if e.lhs is not e.rhs])


def check_for_map(
    fr1: frozenset[Variable],
    eqs1: frozenset[Equation],
    fr2: frozenset[Variable],
    eqs2: frozenset[Equation],
) -> Optional[dict[Variable, Variable]]:
    """Search for a symbol-preserving variable renaming with eqs1.mu == eqs2
    (as sets), identity on shared variables, mapping fr1 into fr2."""
    if len(eqs1) != len(eqs2):
        return None
    fixed = (eq_vars(eqs1) & eq_vars(eqs2), fr1, fr2)
    return _match_eqs(sorted_eqs(eqs1), 0, sorted_eqs(eqs2), {}, fixed)


def _match_eqs(
    left: list[Equation],
    idx: int,
    right: list[Equation],
    mu: dict[Variable, Variable],
    fixed: tuple[frozenset[Variable], ...],
) -> Optional[dict[Variable, Variable]]:
    """mu extended to map left[idx:] onto right, one equation onto each;
    fixed holds the shared variables, fr1 and fr2.  A candidate's terms
    are matched pair by pair, and mu is copied before it first grows."""
    if idx == len(left):
        return mu
    shared, fr1, fr2 = fixed
    e = left[idx]
    for k, cand in enumerate(right):
        nxt, todo = mu, [(e.lhs, cand.lhs), (e.rhs, cand.rhs)]
        while todo:
            s, t = todo.pop()
            if isinstance(s, App):
                if isinstance(t, Var) or s.head != t.head or len(s.args) != len(t.args):
                    break
                todo.extend(zip(s.args, t.args))
                continue
            if not isinstance(t, Var):
                break
            v, w = s.var, t.var
            if v in nxt:
                if nxt[v] != w:
                    break
                continue
            if v.symbol != w.symbol or v in shared and v != w:
                break
            if v in fr1 and w not in fr2:
                break
            if nxt is mu:
                nxt = dict(mu)
            nxt[v] = w
        else:  # every pair matched
            rest = right[:k] + right[k + 1 :]
            found = _match_eqs(left, idx + 1, rest, nxt, fixed)
            if found is not None:
                return found
    return None


def var_disjoint(rec_i: InstanceRecord, rec_j: InstanceRecord) -> bool:
    """The two instances share no store variables.  (Sharing one would let
    a variable of the earlier instance still constrain the later one,
    invalidating the loop argument.)  Their future-relevant variables are
    store variables, so they are disjoint too."""
    return rec_i.vars.isdisjoint(rec_j.vars)


def stab_index(problem: SchematicProblem, psi0: Substitution) -> int:
    """Max of the largest variable index and the largest term depth over the
    problem's equations with psi0 applied; ``u_sch_unif`` passes the step of
    instance 0's store, not the unfolding of every schema variable."""
    eqs = psi0.apply_eqs(problem.equations)
    indices = [v.index for v in eq_vars(eqs)]
    depths = [max(e.lhs.depth, e.rhs.depth) for e in eqs]
    return max(indices + depths, default=0)


def _default_cap(problem: SchematicProblem, stab: int) -> int:
    return 10 * (stab + len(problem.schema.domain) + len(problem.equations))


def instances(
    problem: SchematicProblem,
) -> Iterator[Union[InstanceRecord, NotUnifiable]]:
    """The instance sequence of a uniform problem, lazily: the record of
    each instance that unifies, in order, then the ``NotUnifiable`` of the
    first that fails.  It does not end for a unifiable problem."""
    schema = problem.schema
    # Variable set of the directly instantiated problem, maintained
    # incrementally (the terms themselves grow too fast to materialize).
    # A set, not a count: unfolding can re-emit a plain variable it holds
    # (L[i] -> f(X[i], L[i+1]) with L[0] = f(X[1], L[1]) re-emits X[1]).
    inst_vars = eq_vars(problem.equations)
    # Engine input, irrelevant groups and step carried into instance i.
    eqs, groups, psi = problem.equations, (), Substitution()
    for i in itertools.count():
        fc = th_unif(eqs, schema)
        if not fc.ok:
            yield NotUnifiable(i, fc.verdict, fc.offending)
            return
        groups, spanning, irr_vars, depth = irrelevant_set(
            groups, psi, fc.classes, schema
        )
        if i > 0:
            failure = cycle_check(spanning, schema, depth)
            if failure is not None:
                yield NotUnifiable(i, "irr-cycle", failure.equation, depth)
                return
        store_vars = fc.vars
        psi = step_substitution(store_vars, schema)
        eq_sub = compute_eq_sub(fc.classes)
        irrv = irr_vars - store_vars
        stored = tuple([c for c in fc.classes if c.stored])
        normalized = normalized_store(
            [e for c in stored for e in c.spanning()], schema
        )
        # eq_sub maps each orbit onto a member, and every orbit member
        # occurs in the store, so vars(NStore.eq_sub) = vars(NStore) - dom.
        live = len(eq_vars(normalized) - eq_sub.domain())
        yield InstanceRecord(
            i=i,
            classes=stored,
            vars=store_vars,
            groups=groups,
            step_sub=psi,
            eq_sub=eq_sub,
            fr=future_relevant(store_vars, psi, schema),
            simplified=simplified_store(normalized, eq_sub),
            metric=len(inst_vars) - len(eq_sub.domain()) - len(irrv),
            metric_live=live - len(irrv),
        )
        eqs = unfolded_store(fc.classes, psi)
        # The variables of the next instance: each schema variable X[j]
        # gives way to those of its binding, base(X) shifted by j.
        unfolded: set[Variable] = set()
        for v in inst_vars:
            if schema.contains(v):
                j = v.index
                unfolded.update(
                    [Variable(sym, k + j) for sym, k in schema.base(v.symbol).vars]
                )
            else:
                unfolded.add(v)
        inst_vars = unfolded


def u_sch_unif(
    problem: SchematicProblem,
    cap: Optional[int] = None,
) -> SolverRun:
    """Decide schematic unifiability of a uniform problem.

    Returns the outcome together with the per-instance records (for trace
    emission); the records cover every completed iteration.
    """
    cls = problem.schema.classify()
    if cls not in (SchemaClass.UNIFORM, SchemaClass.PRIMITIVE):
        raise ValueError(
            f"schema must be uniform; classification is {cls.value}"
        )

    records: list[InstanceRecord] = []
    stab: Optional[int] = None  # set once instance 0 unifies
    for i, rec in enumerate(instances(problem)):
        if isinstance(rec, NotUnifiable):
            return SolverRun(rec, records, stab)
        if stab is None:
            stab = stab_index(problem, rec.step_sub)
            if cap is None:
                cap = _default_cap(problem, stab)
        records.append(rec)

        # Instance 0 has no earlier instance to rename onto.
        if i > 0 and i >= stab:
            denominator = max(r.metric for r in records[: stab + 1])
            # A degenerate problem (no live schema recursion) can have an
            # all-zero metric history; any non-growing metric counts as stable.
            records[-1] = rec = rec._replace(
                ratio=Fraction(rec.metric, denominator)
                if denominator > 0
                else Fraction(1 if rec.metric <= 0 else 2)
            )
            if rec.ratio > 1:
                return SolverRun(StabilityViolation(i, rec.ratio), records, stab)
            for j, other in enumerate(records[:i]):
                if var_disjoint(rec, other):
                    mu = check_for_map(
                        rec.fr, rec.simplified, other.fr, other.simplified
                    )
                    if mu is not None:
                        return SolverRun(CycleFound(i, j, mu), records, stab)
        if i >= cap:
            return SolverRun(Exhausted(cap), records, stab)
