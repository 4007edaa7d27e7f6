"""Decision procedure for uniform schematic unification problems.

Drives the engine instance by instance: the store of instance i, with every
schema variable unfolded one step, is the input for instance i+1.  Along the
way it accumulates the irrelevant bindings (checking them for hidden occurs
cycles), collapses variable-equality orbits, tracks which variables stay
relevant, and watches a stability metric.  Once past the stabilization
index, it scans earlier instances for a variable renaming that equates the
simplified stores — such a renaming proves the instance sequence loops, so
every instance is unifiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .engine import FinalConfiguration, th_unif
# Unused here; bench/tracing.py wraps solver.make_primitive (--trace 1 needs it).
from .schema import Schema, SchemaClass, make_primitive  # noqa: F401
from .terms import Term, Var, Variable, depth, variables
from .unify import (
    Equation,
    Substitution,
    UnifyFailure,
    eq_vars,
    sorted_eqs,
    unify,
)


@dataclass(frozen=True)
class SchematicProblem:
    equations: frozenset[Equation]
    schema: Schema

    def instance(self, i: int) -> frozenset[Equation]:
        return self.schema.instance_eqs(self.equations, i)


@dataclass
class InstanceRecord:
    """Snapshot of one solver iteration, sufficient for the later j-scan
    and for trace emission."""

    i: int
    store: frozenset[Equation]
    active: frozenset[Equation]
    irr: frozenset[Equation]
    irr_vars: frozenset[Variable]
    step_sub: Substitution
    eq_sub: Substitution
    fr: frozenset[Variable]
    simplified: frozenset[Equation]  # normalized store, eq_sub applied,
    # reflexive equations dropped
    metric: int  # |vars(U_Theta(i))| - |dom(eq_sub)| - |irrV|
    metric_live: int  # |vars(NStore.eq_sub)| - |irrV|
    ratio: Optional[Fraction] = None


@dataclass(frozen=True)
class CycleFound:
    i: int
    j: int
    mapping: dict[Variable, Variable]
    store_i: frozenset[Equation]
    eq_sub_i: Substitution
    store_j: frozenset[Equation]
    eq_sub_j: Substitution
    irr_i: frozenset[Equation]


@dataclass(frozen=True)
class NotUnifiable:
    instance: int
    cause: str  # "clash" | "cycle" | "irr-cycle"
    equation: Optional[Equation] = None


@dataclass(frozen=True)
class StabilityViolation:
    instance: int
    ratio: Fraction


@dataclass(frozen=True)
class Exhausted:
    cap: int


Outcome = Union[CycleFound, NotUnifiable, StabilityViolation, Exhausted]


@dataclass
class SolverRun:
    outcome: Outcome
    records: list[InstanceRecord]
    stab: Optional[int] = None  # unset when instance 0 already fails


def step_substitution(store: frozenset[Equation], schema: Schema) -> Substitution:
    """One-step unfolding of every schema variable occurring in the store."""
    bindings = {
        v: schema.binding(v) for v in eq_vars(store) if schema.contains(v)
    }
    return Substitution(bindings)


def irrelevant_set(
    active: frozenset[Equation], schema: Schema
) -> frozenset[Equation]:
    """Active-set bindings whose left side is not a schema variable."""
    return frozenset(
        e
        for e in active
        if isinstance(e.lhs, Var) and not schema.contains(e.lhs.var)
    )


def irrelevant_vars(
    irr: frozenset[Equation], store: frozenset[Equation], schema: Schema
) -> frozenset[Variable]:
    sv = eq_vars(store)
    return frozenset(
        x
        for x in eq_vars(irr)
        if not schema.contains(x) and x not in sv
    )


def cycle_check(
    irr: frozenset[Equation], schema: Schema
) -> Optional[UnifyFailure]:
    """Detect occurs cycles hidden in the irrelevant set by unfolding its
    schema variables until the index gap between binding left sides and the
    deepest recursion variable is covered, then unifying."""

    def rhs_schema_vars(eqs: frozenset[Equation]) -> frozenset[Variable]:
        out: set[Variable] = set()
        for e in eqs:
            out |= {v for v in variables(e.rhs) if schema.contains(v)}
        return frozenset(out)

    if not irr:
        return None
    recursion = rhs_schema_vars(irr)
    work = irr
    if recursion:
        i_max = max(
            e.lhs.var.index for e in irr if isinstance(e.lhs, Var)
        )
        r_min = min(v.index for v in recursion)
        gap = max(i_max - r_min + 1, 0)
        for _ in range(gap):
            current = rhs_schema_vars(work)
            if not current:
                break
            sub = Substitution({v: schema.binding(v) for v in current})
            work = sub.apply_eqs(work)
    result = unify(work)
    return result if isinstance(result, UnifyFailure) else None


def compute_eq_sub(store: frozenset[Equation], schema: Schema) -> Substitution:
    """Collapse each variable-equality orbit (x = y and y = x both stored)
    onto its maximal-index member; index ties break toward the
    lexicographically larger symbol."""
    pairs: set[tuple[Variable, Variable]] = set()
    store_set = set(store)
    for e in store:
        if (
            isinstance(e.lhs, Var)
            and isinstance(e.rhs, Var)
            and e.flip() in store_set
        ):
            pairs.add((e.lhs.var, e.rhs.var))
    # Union the orbits.
    parent: dict[Variable, Variable] = {}

    def find(v: Variable) -> Variable:
        while parent.get(v, v) != v:
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    classes: dict[Variable, set[Variable]] = {}
    for v in {x for p in pairs for x in p}:
        classes.setdefault(find(v), set()).add(v)
    bindings: dict[Variable, Term] = {}
    for members in classes.values():
        rep = max(members, key=lambda v: (v.index, v.symbol))
        for v in members:
            if v != rep:
                bindings[v] = Var(rep)
    return Substitution(bindings)


def future_relevant(
    store: frozenset[Equation], step_sub: Substitution, schema: Schema
) -> frozenset[Variable]:
    """Non-schema store variables whose index reaches a schema variable that
    the next unfolding expands, and whose symbol that unfolding re-emits."""
    out: set[Variable] = set()
    for x in eq_vars(store):
        if schema.contains(x):
            continue
        for y in step_sub.domain():
            if x.index >= y.index and x.symbol in {
                v.symbol for v in variables(schema.base(y.symbol))
            }:
                out.add(x)
                break
    return frozenset(out)


def normalized_store(
    store: frozenset[Equation], schema: Schema
) -> frozenset[Equation]:
    return frozenset(
        Equation(e.lhs, schema.normalize(e.rhs)) for e in store
    )


def simplified_store(
    store: frozenset[Equation], eq_sub: Substitution, schema: Schema
) -> frozenset[Equation]:
    out = set()
    for e in normalized_store(store, schema):
        e2 = eq_sub.apply_eq(e)
        if e2.lhs != e2.rhs:
            out.add(e2)
    return frozenset(out)


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
    shared = eq_vars(eqs1) & eq_vars(eqs2)
    left = sorted_eqs(eqs1)
    right = sorted_eqs(eqs2)

    def match_term(
        s: Term, t: Term, mu: dict[Variable, Variable]
    ) -> Optional[dict[Variable, Variable]]:
        if isinstance(s, Var):
            if not isinstance(t, Var):
                return None
            v, w = s.var, t.var
            if v.symbol != w.symbol:
                return None
            if v in mu:
                return mu if mu[v] == w else None
            if v in shared and v != w:
                return None
            if v in fr1 and w not in fr2:
                return None
            mu = dict(mu)
            mu[v] = w
            return mu
        if (
            not isinstance(t, Var)
            and s.head == t.head
            and len(s.args) == len(t.args)
        ):
            for a, b in zip(s.args, t.args):
                nxt = match_term(a, b, mu)
                if nxt is None:
                    return None
                mu = nxt
            return mu
        return None

    def go(
        idx: int, remaining: list[Equation], mu: dict[Variable, Variable]
    ) -> Optional[dict[Variable, Variable]]:
        if idx == len(left):
            return mu
        e = left[idx]
        for k, cand in enumerate(remaining):
            nxt = match_term(e.lhs, cand.lhs, mu)
            if nxt is not None:
                nxt = match_term(e.rhs, cand.rhs, nxt)
            if nxt is not None:
                rest = remaining[:k] + remaining[k + 1 :]
                found = go(idx + 1, rest, nxt)
                if found is not None:
                    return found
        return None

    return go(0, right, {})


def var_disjoint(rec_i: InstanceRecord, rec_j: InstanceRecord) -> bool:
    """The two instances share no store variables and no future-relevant
    variables.  (Sharing either would let a variable of the earlier
    instance still constrain the later one, invalidating the loop
    argument.)"""
    if eq_vars(rec_i.store) & eq_vars(rec_j.store):
        return False
    return not (rec_i.fr & rec_j.fr)


def stab_index(problem: SchematicProblem, psi0: Substitution) -> int:
    """Max of the largest variable index and the largest term depth over the
    once-unfolded instance 0."""
    eqs = psi0.apply_eqs(problem.equations)
    max_idx = 0
    max_dep = 0
    for e in eqs:
        for t in (e.lhs, e.rhs):
            max_dep = max(max_dep, depth(t))
            for v in variables(t):
                max_idx = max(max_idx, v.index)
    return max(max_idx, max_dep)


def _default_cap(problem: SchematicProblem, stab: int) -> int:
    return 10 * (stab + len(problem.schema.domain) + len(problem.equations))


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
    schema = problem.schema

    records: list[InstanceRecord] = []
    # Variable set of the directly instantiated problem, maintained
    # incrementally (the terms themselves grow too fast to materialize).
    inst_vars = eq_vars(problem.equations)

    def advance_inst_vars(vs: frozenset[Variable]) -> frozenset[Variable]:
        unfolded = {v for v in vs if schema.contains(v)}
        out = set(vs) - unfolded
        for v in unfolded:
            out |= variables(schema.binding(v))
        return frozenset(out)

    fc = th_unif(problem.equations, schema)
    if not fc.ok:
        return SolverRun(NotUnifiable(0, fc.verdict, fc.offending), records)

    irr: frozenset[Equation] = irrelevant_set(fc.active, schema)
    psi = step_substitution(fc.store, schema)
    stab = stab_index(problem, psi)
    if cap is None:
        cap = _default_cap(problem, stab)

    def make_record(i: int, fc: FinalConfiguration) -> InstanceRecord:
        eq_sub = compute_eq_sub(fc.store, schema)
        fr = future_relevant(fc.store, psi, schema)
        irrv = irrelevant_vars(irr, fc.store, schema)
        simplified = simplified_store(fc.store, eq_sub, schema)
        metric = len(inst_vars) - len(eq_sub.domain()) - len(irrv)
        live = len(eq_vars(eq_sub.apply_eqs(normalized_store(fc.store, schema))))
        return InstanceRecord(
            i=i,
            store=fc.store,
            active=fc.active,
            irr=irr,
            irr_vars=irrv,
            step_sub=psi,
            eq_sub=eq_sub,
            fr=fr,
            simplified=simplified,
            metric=metric,
            metric_live=live - len(irrv),
        )

    records.append(make_record(0, fc))

    prev_store = fc.store
    for i in range(1, cap + 1):
        prev_psi = psi
        inst_vars = advance_inst_vars(inst_vars)
        fc = th_unif(prev_psi.apply_eqs(prev_store), schema)
        if not fc.ok:
            return SolverRun(
                NotUnifiable(i, fc.verdict, fc.offending), records, stab
            )
        irr = prev_psi.apply_eqs(irr) | irrelevant_set(fc.active, schema)
        failure = cycle_check(irr, schema)
        if failure is not None:
            return SolverRun(
                NotUnifiable(i, "irr-cycle", failure.equation), records, stab
            )
        psi = step_substitution(fc.store, schema)
        rec = make_record(i, fc)
        records.append(rec)
        prev_store = fc.store

        if i >= stab:
            denominator = max(r.metric for r in records[: stab + 1])
            # A degenerate problem (no live schema recursion) can have an
            # all-zero metric history; any non-growing metric counts as stable.
            rec.ratio = (
                Fraction(rec.metric, denominator)
                if denominator > 0
                else Fraction(1 if rec.metric <= 0 else 2)
            )
            if rec.ratio > 1:
                return SolverRun(StabilityViolation(i, rec.ratio), records, stab)
            for j in range(i):
                other = records[j]
                mu = check_for_map(
                    rec.fr, rec.simplified, other.fr, other.simplified
                )
                if mu is not None and var_disjoint(rec, other):
                    return SolverRun(
                        CycleFound(
                            i=i,
                            j=j,
                            mapping=mu,
                            store_i=rec.store,
                            eq_sub_i=rec.eq_sub,
                            store_j=other.store,
                            eq_sub_j=other.eq_sub,
                            irr_i=rec.irr,
                        ),
                        records,
                        stab,
                    )
    return SolverRun(Exhausted(cap), records, stab)
