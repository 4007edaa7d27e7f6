"""Substitution schemas over indexed variables.

A schema finitely presents the infinite binding family
``{X[j] -> shift(j, base(X)) | j >= 0}`` by storing one base term per domain
symbol at shift 0.  This module covers classification (not-simple / simple /
uniform / primitive), one unfolding step of a set of variables, iterated
instantiation (it stops once a step has nothing left to unfold), the
variables that unfolding a set of schema variables reaches up to an index
bound, folding of unfoldings back to schema variables (normalization, a
rebuild that makes one identity test per rule, as terms are interned), and
``make_primitive``, a uniform-to-primitive rewrite of the schema alone in
one function, which only tests and the benchmark call.  It also holds
``SchematicProblem``, an equation set with its schema, so that the oracle
needs nothing of the solver.

A ``Schema`` builds its symbol -> base table and its domain once, when it
is made, so lookups are dict and set operations; nothing in it changes
after.  The reachability search keeps no memo: it grows a set that its
caller owns (the engine keeps one per call) and keeps closed under
unfolding, so it never searches on from a variable already in it.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple

from .terms import App, Term, Var, Variable, rebuild, shift, var
from .unify import Equation, Substitution, eq_vars


class SchemaClass(enum.Enum):
    NOT_SIMPLE = "not-simple"
    SIMPLE = "simple"
    UNIFORM = "uniform"
    PRIMITIVE = "primitive"


class SchemaError(Exception):
    pass


_set = object.__setattr__


class Schema:
    """Finite map from domain symbol to its shift-0 base term.

    Only ``rules`` is compared and hashed; ``domain`` and the base table
    are derived from it when the schema is made.  A schema is immutable:
    assigning or deleting an attribute raises ``AttributeError``.
    """

    __slots__ = ("rules", "domain", "_bases")

    def __init__(self, rules: tuple[tuple[str, Term], ...]):
        bases: dict[str, Term] = {}
        for s, t in rules:
            bases.setdefault(s, t)
        _set(self, "rules", rules)
        _set(self, "_bases", bases)
        _set(self, "domain", frozenset(bases))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        return type(other) is Schema and self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __reduce__(self):
        return (Schema, (self.rules,))

    def __repr__(self) -> str:
        return f"Schema(rules={self.rules!r})"

    @staticmethod
    def of(rules: dict[str, Term] | Iterable[tuple[str, Term]]) -> "Schema":
        items = rules.items() if isinstance(rules, dict) else rules
        pairs = tuple(sorted(items, key=lambda st: st[0]))
        seen = [s for s, _ in pairs]
        if len(seen) != len(set(seen)):
            raise SchemaError("duplicate schema rule for a symbol")
        return Schema(pairs)

    def base(self, symbol: str) -> Term:
        try:
            return self._bases[symbol]
        except KeyError:
            raise SchemaError(f"unknown schema symbol: {symbol}") from None

    def base_set(self) -> list[Term]:
        return [t for _, t in self.rules]

    def contains(self, v: Variable) -> bool:
        return v.symbol in self.domain

    def binding(self, v: Variable) -> Term:
        """The binding X[j] -> shift(j, base(X)) instantiated at v."""
        return shift(v.index, self.base(v.symbol))

    def recursion_offsets(self, symbol: str) -> frozenset[int]:
        return frozenset(
            v.index for v in self.base(symbol).vars if v.symbol == symbol
        )

    def unfold_into(
        self, reach: set[Variable], zs: Iterable[Variable], bound: int
    ) -> None:
        """Add zs to reach, and every variable of index at most bound that
        unfolding them reaches.

        reach is kept closed under unfolding up to bound, so a variable
        already in it is not searched again: what it reaches is there too.
        The search follows the variables of each binding; a binding never
        lowers an index, so none above bound leads to one at or below it.
        """
        bases = self._bases
        todo = [z for z in zs if z not in reach]
        reach.update(todo)
        while todo:
            w = todo.pop()
            base = bases.get(w.symbol)
            if base is None:  # not a schema variable
                continue
            for symbol, index in base.vars:
                index += w.index  # a variable of binding(w)
                if index <= bound:
                    u = Variable(symbol, index)
                    if u not in reach:
                        reach.add(u)
                        todo.append(u)

    def classify(self) -> SchemaClass:
        dom = self.domain
        for t in self.base_set():
            syms = {v.symbol for v in t.vars}
            if len(syms & dom) > 1:
                return SchemaClass.NOT_SIMPLE
        offsets = [self.recursion_offsets(s) for s in dom]
        if any(len(r) > 1 for r in offsets):
            return SchemaClass.SIMPLE
        if any(r - {0, 1} for r in offsets):
            return SchemaClass.UNIFORM
        return SchemaClass.PRIMITIVE

    def step(self, vs: Iterable[Variable]) -> Substitution:
        """One unfolding of every schema variable among vs."""
        return Substitution({v: self.binding(v) for v in vs if self.contains(v)})

    def instance_eqs(self, eqs: Iterable[Equation], i: int) -> frozenset[Equation]:
        """The i-th instance; it stops once nothing is left to unfold."""
        out = frozenset(eqs)
        for _ in range(i):
            sub = self.step(eq_vars(out))
            if not sub:
                break
            out = sub.apply_eqs(out)
        return out

    # -- normalization ------------------------------------------------------

    def normalize(self, t: Term) -> Term:
        """Fold every maximal subterm equal to an unfolding of some L[d]
        back to L[d].  Children are folded first, so a k-fold unfolding
        collapses one layer at a time from the inside out."""
        return rebuild({}, t.vars, Var, False, self._fold, t)

    def _fold(self, r: App) -> Term:
        """L[d] if ``shift(d, base(L)) is r``, else r.  One variable of the
        base fixes d, as the smallest index of its symbol in r less the one
        in the base.  A ground base never folds; rules are tried in order."""
        for symbol, base in self.rules:
            if not base.vars:
                continue
            v = min(base.vars)  # the smallest index of its symbol in base
            d = min(
                (w.index for w in r.vars if w.symbol == v.symbol), default=-1
            ) - v.index
            if d >= 0 and shift(d, base) is r:
                return var(symbol, d)
        return r

    def __str__(self) -> str:
        return "; ".join(f"{s}[i] -> {t}" for s, t in self.rules)


class SchematicProblem(NamedTuple):
    """Equations over schema and plain variables; instance i unfolds their
    schema variables i times."""

    equations: frozenset[Equation]
    schema: Schema


# -- uniform -> primitive rewrite -------------------------------------------


def make_primitive(
    eqs: frozenset[Equation], schema: Schema
) -> tuple[frozenset[Equation], Schema, Substitution]:
    """Rewrite a uniform schema into a primitive one (schema-only).

    Each rule whose self-recursion offset m exceeds 1 is flattened, the
    largest offset first: the recursion offset drops to 1 and every
    parameter variable Y at offset m*l + k is renamed to a fresh symbol
    ``Y@k`` (one per residue class k, suffixed ``_n`` if taken) at offset
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

    taken = {v.symbol for t in schema.base_set() for v in t.vars}  # + fresh names
    acc = Substitution()
    while True:
        offset = {s: max(schema.recursion_offsets(s), default=0) for s in schema.domain}
        target = min(offset, key=lambda s: (-offset[s], s), default=None)
        if target is None or offset[target] <= 1:
            break
        m = offset[target]
        base_vars = {v for t in schema.base_set() for v in t.vars}
        bindings: dict[Variable, Term] = {Variable(target, m): var(target, 1)}
        for p in sorted({v.symbol for v in schema.base(target).vars} - {target}):
            fresh: dict[int, str] = {}  # residue -> its symbol
            for w in sorted(v.index for v in base_vars if v.symbol == p):
                k = w % m
                if k not in fresh:
                    name, n = f"{p}@{k}", 0
                    while name in taken:
                        n += 1
                        name = f"{p}@{k}_{n}"
                    taken.add(name)
                    fresh[k] = name
                bindings[Variable(p, w)] = var(fresh[k], w // m)
        sigma = Substitution(bindings)
        schema = Schema.of({s: sigma.apply(t) for s, t in schema.rules})
        acc = acc.compose(sigma)

    renaming = Substitution(
        {v: t for v, t in acc.mapping.items() if v.symbol not in schema.domain}
    )
    return renaming.apply_eqs(eqs), schema, renaming
