"""Indexed first-order terms, hash-consed.

Variables carry a symbol and a natural-number index (``X[3]``); function
applications have a fixed head symbol and an ordered argument tuple.
Constants are arity-0 applications.

Terms are interned: ``Var(v)`` and ``App(head, args)`` return the one live
object with that structure, so structurally equal terms are the same
object, equality is identity, and a term that occurs many times is stored
once (a term is a DAG, however large its tree).  Each node caches its hash,
tree size, depth, variable set and sort key when it is built, from its
children's cached values, so reading any of them never walks the term.
Terms are immutable; copying or unpickling one yields the interned object.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterator, Union


@dataclass(frozen=True, order=True)
class Variable:
    symbol: str
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"negative variable index: {self.symbol}[{self.index}]")
        if not self.symbol:
            raise ValueError("empty variable symbol")

    def __str__(self) -> str:
        return f"{self.symbol}[{self.index}]"


class _Node:
    """What every interned term caches at construction.

    ``size`` is the tree size in nodes (a shared subterm counts once per
    occurrence), ``depth`` the height with leaves at 1, ``vars`` the
    frozenset of variables and ``key`` the canonical sort key (see
    ``term_key``).  Equality is identity, which interning makes structural.
    """

    __slots__ = ("_hash", "size", "depth", "vars", "key", "__weakref__")

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __copy__(self) -> "_Node":
        return self

    def __deepcopy__(self, memo: dict) -> "_Node":
        return self


_set = object.__setattr__

# Intern tables: structure -> the one live term with it.  Values are held
# weakly, so a term no one else references is dropped from its table.  The
# tables are process-wide and filled without a lock: build terms from one
# thread at a time.
_vars: "weakref.WeakValueDictionary[tuple[str, int], Var]" = (
    weakref.WeakValueDictionary()
)
_apps: "weakref.WeakValueDictionary[tuple, App]" = weakref.WeakValueDictionary()


class Var(_Node):
    __slots__ = ("var",)

    def __new__(cls, var: Variable) -> "Var":
        structure = (var.symbol, var.index)
        t = _vars.get(structure)
        if t is None:
            t = object.__new__(cls)
            _set(t, "var", var)
            _set(t, "_hash", hash(structure))
            _set(t, "size", 1)
            _set(t, "depth", 1)
            _set(t, "vars", frozenset((var,)))
            _set(t, "key", (0, var.symbol, var.index))
            _vars[structure] = t
        return t

    def __reduce__(self):
        return (Var, (self.var,))

    def __repr__(self) -> str:
        return f"Var(var={self.var!r})"

    def __str__(self) -> str:
        return str(self.var)


_NO_VARS: frozenset = frozenset()


class App(_Node):
    __slots__ = ("head", "args")

    def __new__(cls, head: str, args: tuple["Term", ...] = ()) -> "App":
        if type(args) is not tuple:
            args = tuple(args)
        structure = (head, args)
        t = _apps.get(structure)
        if t is None:
            size, depth, vs, keys = 1, 0, _NO_VARS, []
            for a in args:
                size += a.size
                if a.depth > depth:
                    depth = a.depth
                if a.vars is not vs:
                    # Keep an existing set when the union adds nothing to it.
                    union = vs | a.vars
                    if len(union) != len(vs):
                        vs = a.vars if len(union) == len(a.vars) else union
                keys.append(a.key)
            t = object.__new__(cls)
            _set(t, "head", head)
            _set(t, "args", args)
            _set(t, "_hash", hash(structure))
            _set(t, "size", size)
            _set(t, "depth", depth + 1)
            _set(t, "vars", vs)
            _set(t, "key", (1, head, len(args), tuple(keys)))
            _apps[structure] = t
        return t

    def __reduce__(self):
        return (App, (self.head, self.args))

    def __repr__(self) -> str:
        return f"App(head={self.head!r}, args={self.args!r})"

    def __str__(self) -> str:
        if not self.args:
            return self.head
        return f"{self.head}({', '.join(map(str, self.args))})"


Term = Union[Var, App]

# A position is a tuple of 1-based argument indices; () is the root.
Position = tuple[int, ...]


def var(symbol: str, index: int) -> Term:
    return Var(Variable(symbol, index))


def app(head: str, *args: Term) -> Term:
    return App(head, tuple(args))


def const(name: str) -> Term:
    return App(name, ())


def shift(d: int, t: Term) -> Term:
    """Add d to the index of every variable in t."""
    if d == 0 or not t.vars:
        return t
    if isinstance(t, Var):
        return Var(Variable(t.var.symbol, t.var.index + d))
    return App(t.head, tuple([shift(d, a) for a in t.args]))


def depth(t: Term) -> int:
    return t.depth


def positions(t: Term) -> list[Position]:
    out: list[Position] = [()]
    if isinstance(t, App):
        for i, a in enumerate(t.args, start=1):
            out.extend((i,) + p for p in positions(a))
    return out


def subterm_at(t: Term, p: Position) -> Term:
    for i in p:
        if isinstance(t, Var) or not (1 <= i <= len(t.args)):
            raise InvalidPosition(f"position {p} not valid in {t}")
        t = t.args[i - 1]
    return t


class InvalidPosition(Exception):
    pass


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def variables(t: Term) -> frozenset[Variable]:
    return t.vars


def var_sets(t: Term) -> tuple[frozenset[str], frozenset[int], frozenset[Variable]]:
    """(symbols, indices, variables) occurring in t."""
    vs = variables(t)
    return (
        frozenset(v.symbol for v in vs),
        frozenset(v.index for v in vs),
        vs,
    )


def term_key(t: Term) -> tuple:
    """Canonical sort key: a deterministic structural serialization.

    All equation-set iteration in the solver sorts by this key so traces are
    byte-stable from run to run.  A variable's key is (0, symbol, index), an
    application's (1, head, arity, argument keys).  Shared subterms share
    their keys, and comparing two keys skips, by identity, what they share.
    """
    return t.key
