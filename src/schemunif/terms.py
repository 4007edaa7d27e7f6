"""Indexed first-order terms, hash-consed.

Variables carry a symbol and a natural-number index (``X[3]``); a
``Variable`` is a value tuple ``(symbol, index)``, ordered by symbol then
index, and hashed and compared as a tuple.  Function applications have a
fixed head symbol and an ordered argument tuple.  Constants are arity-0
applications.

Terms are interned: ``Var(v)`` and ``App(head, args)`` return the one live
object with that structure, so structurally equal terms are the same
object, equality is identity, and hashing is by identity too (both run in
C).  A term that occurs many times is stored once (a term is a DAG, however
large its tree).  Each node caches its tree size, depth, variable set and
sort key when it is built, from its children's cached values, so reading
any of them never walks the term.  Its text (``str``) is cached lazily:
the first ``str`` builds it without recursion from its arguments' texts,
building and caching those it meets without one, and the text then lives
as long as the node, so each distinct node is rendered once.  Terms are
immutable: assigning or deleting an attribute raises ``AttributeError``.
Copying or unpickling a term yields the interned object.

``rebuild`` is the one memoized walk that rewrites terms: substitution, the
unifier's resolution of its bindings and normalization all call it.  It
recurses once per level, as does ``shift``, a walk of its own, unmemoized.

The intern tables are plain dicts from a structure to a weak reference to
its term.  A lookup finds no term when there is no entry or its term has
died.  When a term dies, its reference's callback deletes its entry, but
only if the entry is still that reference: a term that dies inside a
garbage-collected cycle can call back after a new term has taken its key.
"""

from __future__ import annotations

import weakref
from typing import AbstractSet, Callable, NamedTuple, Union


class _VariableFields(NamedTuple):
    symbol: str
    index: int


class Variable(_VariableFields):
    """An indexed variable ``symbol[index]``: a value tuple."""

    __slots__ = ()

    def __new__(cls, symbol: str, index: int) -> "Variable":
        if index < 0:
            raise ValueError(f"negative variable index: {symbol}[{index}]")
        if not symbol:
            raise ValueError("empty variable symbol")
        return tuple.__new__(cls, (symbol, index))

    @classmethod
    def _make(cls, iterable) -> "Variable":
        # Through __new__, so _replace checks its fields too.
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.symbol}[{self.index}]"


class _Node:
    """What every interned term caches at construction.

    ``size`` is the tree size in nodes (a shared subterm counts once per
    occurrence), ``depth`` the height with leaves at 1, ``vars`` the
    frozenset of variables and ``key`` the canonical sort key.  Equality
    and hashing are by identity, which interning makes structural.

    ``key`` is a deterministic structural serialization: all equation-set
    iteration in the solver sorts by it, so traces are byte-stable from run
    to run.  A variable's key is (0, symbol, index), an application's (1,
    head, arity, argument keys).  Shared subterms share their keys, and
    comparing two keys skips, by identity, what they share.

    ``_text`` is the node's text, unset until the first ``str`` (see
    ``_render``).
    """

    __slots__ = ("size", "depth", "vars", "key", "_text", "__weakref__")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self) -> "_Node":
        return self

    def __deepcopy__(self, memo: dict) -> "_Node":
        return self

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            return _render(self)


_set = object.__setattr__


def _render(t: _Node) -> str:
    """t's text, cached on t and on each node below it that had none: a
    node is rendered once its arguments are, from their cached texts, so
    nothing recurses and no text is built twice."""
    todo = [t]
    while todo:
        n = todo[-1]
        if hasattr(n, "_text"):  # met before on another path
            todo.pop()
        elif type(n) is Var:
            todo.pop()
            _set(n, "_text", str(n.var))
        else:
            waiting = [a for a in n.args if not hasattr(a, "_text")]
            if waiting:
                todo += waiting
                continue
            todo.pop()
            text = n.head
            if n.args:
                text = f"{text}({', '.join([a._text for a in n.args])})"
            _set(n, "_text", text)
    return t._text


# Intern tables (see the module docstring).  They are process-wide and
# filled without a lock: build terms from one thread at a time.


class _Ref(weakref.ref):
    """A weak reference to an interned term that carries the term's key."""

    __slots__ = ("key",)


def _forget(table: dict) -> Callable[[_Ref], None]:
    """The callback that deletes a dead term's entry from table, if the
    entry is still that term's reference."""

    def forget(ref: _Ref) -> None:
        if table.get(ref.key) is ref:
            del table[ref.key]

    return forget


_vars: dict[Variable, _Ref] = {}
_apps: dict[tuple, _Ref] = {}
_forget_var = _forget(_vars)
_forget_app = _forget(_apps)


class Var(_Node):
    __slots__ = ("var",)

    def __new__(cls, var: Variable) -> "Var":
        ref = _vars.get(var)
        t = ref and ref()
        if t is None:
            t = object.__new__(cls)
            _set(t, "var", var)
            _set(t, "size", 1)
            _set(t, "depth", 1)
            _set(t, "vars", frozenset((var,)))
            _set(t, "key", (0, var.symbol, var.index))
            _vars[var] = ref = _Ref(t, _forget_var)
            ref.key = var
        return t

    def __reduce__(self):
        return (Var, (self.var,))

    def __repr__(self) -> str:
        return f"Var(var={self.var!r})"


_NO_VARS: frozenset = frozenset()


class App(_Node):
    __slots__ = ("head", "args")

    def __new__(cls, head: str, args: tuple["Term", ...] = ()) -> "App":
        if type(args) is not tuple:
            args = tuple(args)
        structure = (head, args)
        ref = _apps.get(structure)
        t = ref and ref()
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
            _set(t, "size", size)
            _set(t, "depth", depth + 1)
            _set(t, "vars", vs)
            _set(t, "key", (1, head, len(args), tuple(keys)))
            _apps[structure] = ref = _Ref(t, _forget_app)
            ref.key = structure
        return t

    def __reduce__(self):
        return (App, (self.head, self.args))

    def __repr__(self) -> str:
        return f"App(head={self.head!r}, args={self.args!r})"


Term = Union[Var, App]


def var(symbol: str, index: int) -> Term:
    return Var(Variable(symbol, index))


def app(head: str, *args: Term) -> Term:
    return App(head, tuple(args))


def const(name: str) -> Term:
    return App(name, ())


def rebuild(
    memo: dict, touched: AbstractSet, image: Callable, chase: bool, fold, t: Term
) -> Term:
    """t with each variable x in touched replaced by image(x), memoized over
    nodes: a subterm with no variable in touched is returned as it is, any
    other node is rebuilt once per memo, and with chase an image is rebuilt
    in turn (acyclic triangular bindings).  Each rebuilt application goes
    through fold unless it is None.  Callers bind all but t with
    ``functools.partial``, so nothing refers back to the walk or its memo."""
    if touched.isdisjoint(t.vars):
        return t
    out = memo.get(t)
    if out is None:
        if type(t) is Var:
            out = image(t.var)
            if chase:
                out = rebuild(memo, touched, image, chase, fold, out)
        else:
            args = [rebuild(memo, touched, image, chase, fold, a) for a in t.args]
            out = App(t.head, tuple(args))
            if fold is not None:
                out = fold(out)
        memo[t] = out
    return out


def shift(d: int, t: Term) -> Term:
    """Add d to the index of every variable in t."""
    if d == 0 or not t.vars:
        return t
    if isinstance(t, Var):
        return Var(Variable(t.var.symbol, t.var.index + d))
    return App(t.head, tuple([shift(d, a) for a in t.args]))
