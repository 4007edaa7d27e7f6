"""Substitution schemas over indexed variables.

A schema finitely presents the infinite binding family
``{X[j] -> shift(j, base(X)) | j >= 0}`` by storing one base term per domain
symbol at shift 0.  This module covers classification (not-simple / simple /
uniform / primitive), restriction to a term (t-substitution), iterated
instantiation, folding of unfoldings back to schema variables
(normalization), and a uniform-to-primitive rewrite of the schema alone,
which the solver does not use.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .terms import App, Term, Var, Variable, shift, var, variables
from .unify import Equation, Substitution


class SchemaClass(enum.Enum):
    NOT_SIMPLE = "not-simple"
    SIMPLE = "simple"
    UNIFORM = "uniform"
    PRIMITIVE = "primitive"


class SchemaError(Exception):
    pass


@dataclass(frozen=True)
class Schema:
    """Finite map from domain symbol to its shift-0 base term."""

    rules: tuple[tuple[str, Term], ...]

    @staticmethod
    def of(rules: dict[str, Term] | Iterable[tuple[str, Term]]) -> "Schema":
        items = rules.items() if isinstance(rules, dict) else rules
        pairs = tuple(sorted(items, key=lambda st: st[0]))
        seen = [s for s, _ in pairs]
        if len(seen) != len(set(seen)):
            raise SchemaError("duplicate schema rule for a symbol")
        return Schema(pairs)

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(s for s, _ in self.rules)

    def base(self, symbol: str) -> Term:
        for s, t in self.rules:
            if s == symbol:
                return t
        raise SchemaError(f"unknown schema symbol: {symbol}")

    def base_set(self) -> list[Term]:
        return [t for _, t in self.rules]

    def contains(self, v: Variable) -> bool:
        return v.symbol in self.domain

    def binding(self, v: Variable) -> Term:
        """The binding X[j] -> shift(j, base(X)) instantiated at v."""
        return shift(v.index, self.base(v.symbol))

    def recursion_offsets(self, symbol: str) -> frozenset[int]:
        t = self.base(symbol)
        return frozenset(v.index for v in variables(t) if v.symbol == symbol)

    def classify(self) -> SchemaClass:
        dom = self.domain
        for t in self.base_set():
            syms = {v.symbol for v in variables(t)}
            if len(syms & dom) > 1:
                return SchemaClass.NOT_SIMPLE
        offsets = [self.recursion_offsets(s) for s in dom]
        if any(len(r) > 1 for r in offsets):
            return SchemaClass.SIMPLE
        if any(r - {0, 1} for r in offsets):
            return SchemaClass.UNIFORM
        return SchemaClass.PRIMITIVE

    def t_substitution(self, t: Term) -> Substitution:
        """Restriction of the schema's binding family to the variables of t."""
        return Substitution(
            {v: self.binding(v) for v in variables(t) if self.contains(v)}
        )

    def instance(self, t: Term, i: int) -> Term:
        """The i-th instance: i rounds of unfolding every schema variable."""
        for _ in range(i):
            t = self.t_substitution(t).apply(t)
        return t

    def instance_eqs(self, eqs: Iterable[Equation], i: int) -> frozenset[Equation]:
        return frozenset(
            Equation(self.instance(e.lhs, i), self.instance(e.rhs, i)) for e in eqs
        )

    # -- normalization ------------------------------------------------------

    def normalize(self, t: Term) -> Term:
        """Fold every maximal subterm equal to an unfolding of some L[d]
        back to L[d].  Children are folded first, so a k-fold unfolding
        collapses one layer at a time from the inside out."""
        if isinstance(t, Var):
            return t
        folded = App(t.head, tuple(self.normalize(a) for a in t.args))
        hit = self._match_one_step(folded)
        return hit if hit is not None else folded

    def _match_one_step(self, r: Term) -> Optional[Term]:
        # r folds to L[d] iff r == shift(d, base(L)) for some rule and d >= 0.
        for symbol, base in self.rules:
            d = self._match_shift(base, r)
            if d is not None:
                return var(symbol, d)
        return None

    @staticmethod
    def _match_shift(pattern: Term, r: Term) -> Optional[int]:
        d: Optional[int] = None

        def go(p: Term, s: Term) -> bool:
            nonlocal d
            if isinstance(p, Var):
                if not isinstance(s, Var) or s.var.symbol != p.var.symbol:
                    return False
                delta = s.var.index - p.var.index
                if delta < 0 or (d is not None and delta != d):
                    return False
                d = delta
                return True
            return (
                isinstance(s, App)
                and s.head == p.head
                and len(s.args) == len(p.args)
                and all(go(a, b) for a, b in zip(p.args, s.args))
            )

        return d if go(pattern, r) and d is not None else None

    def __str__(self) -> str:
        return "; ".join(f"{s}[i] -> {t}" for s, t in self.rules)


# -- uniform -> primitive rewrite -------------------------------------------


@dataclass
class _FreshNames:
    taken: set[str] = field(default_factory=set)

    def fresh(self, parameter: str, residue: int) -> str:
        name = f"{parameter}@{residue}"
        for n in itertools.count():
            candidate = name if n == 0 else f"{name}_{n}"
            if candidate not in self.taken:
                self.taken.add(candidate)
                return candidate
        raise AssertionError("unreachable")


def make_primitive(
    eqs: frozenset[Equation], schema: Schema
) -> tuple[frozenset[Equation], Schema, Substitution]:
    """Rewrite a uniform schema into a primitive one (schema-only).

    Each rule whose self-recursion offset m exceeds 1 is flattened: the
    recursion offset drops to 1 and every parameter variable Y at offset
    m*l + k is renamed to a fresh symbol (one per residue class k) at offset
    l.  The same renaming is applied across all bases and to the problem
    equations.  Returns (rewritten equations, primitive schema, composed
    renaming restricted to non-domain variables).

    Only the variables that occur in schema bases are renamed, and domain
    variables keep their indices, so a problem that mentions a parameter or
    a domain variable at another index loses its link to the rewritten
    schema: the rewritten problem is not equivalent to the original in
    general.  The solver does not use this rewrite; it handles any recursion
    offset directly.
    """
    cls = schema.classify()
    if cls not in (SchemaClass.UNIFORM, SchemaClass.PRIMITIVE):
        raise SchemaError(f"schema is {cls.value}; a uniform schema is required")

    names = _FreshNames()
    for t in schema.base_set():
        names.taken |= {v.symbol for v in variables(t)}

    acc = Substitution()
    while True:
        offenders = sorted(
            (s for s in schema.domain
             if (off := schema.recursion_offsets(s)) and max(off) > 1),
            key=lambda s: (-max(schema.recursion_offsets(s)), s),
        )
        if not offenders:
            break
        target = offenders[0]
        m = max(schema.recursion_offsets(target))
        sigma = _flattening_sub(schema, target, m, names)
        schema = Schema.of({s: sigma.apply(t) for s, t in schema.rules})
        acc = acc.compose(sigma)

    renaming = Substitution(
        {v: t for v, t in acc.mapping.items() if v.symbol not in schema.domain}
    )
    return renaming.apply_eqs(eqs), schema, renaming


def _flattening_sub(
    schema: Schema, target: str, m: int, names: _FreshNames
) -> Substitution:
    bindings: dict[Variable, Term] = {Variable(target, m): var(target, 1)}
    base_vars = set()
    for t in schema.base_set():
        base_vars |= variables(t)
    parameters = sorted(
        {v.symbol for v in variables(schema.base(target))} - {target}
    )
    for p in parameters:
        occurrences = sorted(v.index for v in base_vars if v.symbol == p)
        fresh_for_residue: dict[int, str] = {}
        for w in occurrences:
            k, l = w % m, w // m
            if k not in fresh_for_residue:
                fresh_for_residue[k] = names.fresh(p, k)
            bindings[Variable(p, w)] = var(fresh_for_residue[k], l)
    return Substitution(bindings)
