"""Classical substitutions and a most-general-unifier engine.

``unify`` is a Martelli-Montanari rule loop (delete / decompose / orient /
eliminate) over an equation set, with a mandatory occurs check, kept in
triangular form: a variable is bound to a term as it stands, and bindings
are followed ("walked") when a variable is looked at, never applied to one
another.  Over interned terms this keeps the work proportional to the
distinct subterms of the input, where a fully applied solved form can be
exponentially larger than it.  The mgu is resolved on first read: a
successful ``unify`` returns a ``Substitution`` holding the triangular
bindings, and the first look at its map applies them all in one
``terms.rebuild``, whose memo all bindings share.  A caller that wants only
the verdict never pays for the map.  Failure is reported as a verdict
(Clash or Cycle) carrying the offending equation, not as an exception.

An ``Equation`` is a value tuple ``(lhs, rhs)``: over interned terms its
hash and equality are tuple operations on identities, all in C.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple

from .terms import App, Term, Var, Variable, rebuild


class Equation(NamedTuple):
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

    __slots__ = ("_map", "_triangular")

    def __init__(self, bindings: Mapping[Variable, Term] | None = None):
        m: dict[Variable, Term] = {}
        if bindings:
            for v, t in bindings.items():
                if not (isinstance(t, Var) and t.var == v):
                    m[v] = t
        self._map = m

    def __getattr__(self, name: str) -> dict[Variable, Term]:
        # Only a substitution made by ``unify`` gets here, on the first read
        # of its map: it holds triangular bindings until then.
        if name != "_map":
            raise AttributeError(name)
        self._map = m = _resolved(self._triangular)
        del self._triangular
        return m

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

    def apply(self, t: Term) -> Term:
        return self.applier()(t)

    def apply_eqs(self, eqs: Iterable[Equation]) -> frozenset[Equation]:
        go = self.applier()
        return frozenset(Equation(go(e.lhs), go(e.rhs)) for e in eqs)

    def applier(self) -> Callable[[Term], Term]:
        """The substitution as a ``terms.rebuild`` with one memo for all its
        calls: each distinct node is rebuilt at most once, and a subterm
        with no bound variable is returned as it is."""
        m = self._map
        return partial(rebuild, {}, m.keys(), m.__getitem__, False, None)

    def compose(self, other: "Substitution") -> "Substitution":
        """(self then other): x(self;other) = other(self(x))."""
        go = other.applier()
        m = {v: go(t) for v, t in self._map.items()}
        for v, t in other._map.items():
            m.setdefault(v, t)
        return Substitution(m)


class UnifyFailure(NamedTuple):
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
            return UnifyFailure("cycle", Equation(s, _resolver(bound)(t)))
        bound[s.var] = t

    mgu = object.__new__(Substitution)
    mgu._triangular = bound
    return mgu


def _resolver(bound: dict[Variable, Term]) -> Callable[[Term], Term]:
    """Triangular bindings applied to a term in full; valid until a
    binding is added."""
    return partial(rebuild, {}, bound.keys(), bound.__getitem__, True, None)


def _resolved(bound: dict[Variable, Term]) -> dict[Variable, Term]:
    """The mgu's map: every triangular binding applied in full, with one
    memo shared by all of them.  Bindings are acyclic, so none resolves to
    its own variable."""
    resolve = _resolver(bound)
    return {v: resolve(t) for v, t in bound.items()}
