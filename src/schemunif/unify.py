"""Classical substitutions and a most-general-unifier engine.

``unify`` is a Martelli-Montanari rule loop (delete / decompose / orient /
eliminate) over an equation set, with a mandatory occurs check, kept in
triangular form: a variable is bound to a term as it stands, and bindings
are followed ("walked") when a variable is looked at, never applied to one
another.  Over interned terms this keeps the work proportional to the
distinct subterms of the input, where a fully applied solved form can be
exponentially larger than it.  The mgu is resolved once, at the end, with
one memo shared by all bindings.  Failure is reported as a verdict (Clash
or Cycle) carrying the offending equation, not as an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .terms import App, Term, Var, Variable


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"

    def key(self) -> tuple:
        return (self.lhs.key, self.rhs.key)

    def flip(self) -> "Equation":
        return Equation(self.rhs, self.lhs)


def eq_vars(eqs: Iterable[Equation]) -> frozenset[Variable]:
    out: set[Variable] = set()
    for e in eqs:
        out |= e.lhs.vars
        out |= e.rhs.vars
    return frozenset(out)


def sorted_eqs(eqs: Iterable[Equation]) -> list[Equation]:
    return sorted(eqs, key=Equation.key)


class Substitution:
    """A finite map from variables to terms; self-bindings are dropped."""

    __slots__ = ("_map",)

    def __init__(self, bindings: Mapping[Variable, Term] | None = None):
        m: dict[Variable, Term] = {}
        if bindings:
            for v, t in bindings.items():
                if not (isinstance(t, Var) and t.var == v):
                    m[v] = t
        self._map = m

    @property
    def mapping(self) -> dict[Variable, Term]:
        return dict(self._map)

    def domain(self) -> frozenset[Variable]:
        return frozenset(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __str__(self) -> str:
        items = sorted(self._map.items(), key=lambda kv: (kv[0].symbol, kv[0].index))
        return "{" + ", ".join(f"{v} -> {t}" for v, t in items) + "}"

    def __call__(self, t: Term) -> Term:
        return self.apply(t)

    def apply(self, t: Term) -> Term:
        return self._applier()(t)

    def apply_eq(self, e: Equation) -> Equation:
        go = self._applier()
        return Equation(go(e.lhs), go(e.rhs))

    def apply_eqs(self, eqs: Iterable[Equation]) -> frozenset[Equation]:
        go = self._applier()
        return frozenset(Equation(go(e.lhs), go(e.rhs)) for e in eqs)

    def _applier(self) -> Callable[[Term], Term]:
        """The substitution as a function with a memo for one call: each
        distinct node is rebuilt at most once, and a subterm with no bound
        variable is returned as it is."""
        m = self._map
        domain = m.keys()
        memo: dict[int, Term] = {}

        def go(t: Term) -> Term:
            if domain.isdisjoint(t.vars):
                return t
            if isinstance(t, Var):
                return m[t.var]
            out = memo.get(id(t))
            if out is None:
                out = memo[id(t)] = App(t.head, tuple([go(a) for a in t.args]))
            return out

        return go

    def compose(self, other: "Substitution") -> "Substitution":
        """(self then other): x(self;other) = other(self(x))."""
        go = other._applier()
        m = {v: go(t) for v, t in self._map.items()}
        for v, t in other._map.items():
            m.setdefault(v, t)
        return Substitution(m)


EMPTY_SUB = Substitution()


@dataclass(frozen=True)
class UnifyFailure:
    kind: str  # "clash" | "cycle"
    equation: Equation


def unify(eqs: Iterable[Equation]) -> Substitution | UnifyFailure:
    """Most general unifier of an equation set, or a Clash/Cycle verdict.

    Equations are taken in ``Equation.key`` order, and the argument pairs of
    a decomposed equation before the rest, so the first failure met, and
    its kind, are those of the same loop over a fully applied solved form.
    """
    bound: dict[Variable, Term] = {}
    decomposed: set[tuple[int, int]] = set()

    def walk(t: Term) -> Term:
        while isinstance(t, Var):
            b = bound.get(t.var)
            if b is None:
                break
            t = b
        return t

    def occurs(x: Variable, t: Term) -> bool:
        """Does x occur in t once the bindings are applied?"""
        seen: set[Variable] = set()
        todo = [t.vars]
        while todo:
            vs = todo.pop()
            if x in vs:
                return True
            for v in vs:
                b = bound.get(v)
                if b is not None and v not in seen:
                    seen.add(v)
                    todo.append(b.vars)
        return False

    memo: dict[int, Term] = {}

    def resolve(t: Term) -> Term:
        """t with the bindings applied, memoized over nodes; only valid
        while no binding is added."""
        if bound.keys().isdisjoint(t.vars):
            return t
        out = memo.get(id(t))
        if out is None:
            if isinstance(t, Var):
                out = resolve(bound[t.var])
            else:
                out = App(t.head, tuple([resolve(a) for a in t.args]))
            memo[id(t)] = out
        return out

    work = [(e.lhs, e.rhs) for e in sorted_eqs(eqs)]
    work.reverse()
    while work:
        s, t = work.pop()
        s, t = walk(s), walk(t)
        if s is t:
            continue
        if isinstance(s, App) and isinstance(t, App):
            if s.head != t.head or len(s.args) != len(t.args):
                return UnifyFailure("clash", Equation(s, t))
            # A pair met again was solved in full the first time: bindings
            # are acyclic, so none of its argument pairs can lead back to it.
            pair = (id(s), id(t))
            if pair not in decomposed:
                decomposed.add(pair)
                work.extend(reversed(tuple(zip(s.args, t.args))))
            continue
        if isinstance(t, Var) and not isinstance(s, Var):
            s, t = t, s
        assert isinstance(s, Var)
        if isinstance(t, App) and occurs(s.var, t):
            return UnifyFailure("cycle", Equation(s, resolve(t)))
        bound[s.var] = t

    return Substitution({v: resolve(t) for v, t in bound.items()})


def unifiable(eqs: Iterable[Equation]) -> bool:
    return isinstance(unify(eqs), Substitution)


def mgu_or_none(eqs: Iterable[Equation]) -> Optional[Substitution]:
    r = unify(eqs)
    return r if isinstance(r, Substitution) else None
