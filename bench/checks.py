"""Answer checks that do not trust the solver or the oracle.

`Reference` unfolds a parsed problem instance by instance into a
hash-consed term graph and decides each instance with a union-find
unifier (Huet's algorithm with one occurs check at the end), so deep
prefixes stay cheap where the library's fully applied solved form blows
up.  `certificate_errors` re-checks a cycle mapping by applying it
directly to the simplified stores.
"""

from __future__ import annotations

from typing import Optional

from schemunif.schema import Schema
from schemunif.terms import Term, Var, Variable

Node = tuple  # ("v", symbol, index) | ("f", head, child ids)


class Reference:
    """Instances 0, 1, ... of one problem as sets of (lhs id, rhs id)."""

    def __init__(self, equations, schema: Schema):
        self.rules = {sym: base for sym, base in schema.rules}
        self.nodes: list[Node] = []
        self.ids: dict[Node, int] = {}
        self.size: list[int] = []  # tree size in nodes
        self.depth: list[int] = []
        self.bindings: dict[tuple[str, int], int] = {}
        first = {(self.term(e.lhs), self.term(e.rhs)) for e in equations}
        self.instances: list[set[tuple[int, int]]] = [first]
        self.verdicts: list[bool] = []

    def node(self, key: Node) -> int:
        found = self.ids.get(key)
        if found is not None:
            return found
        if key[0] == "v":
            size = depth = 1
        else:
            kids = key[2]
            size = 1 + sum(self.size[c] for c in kids)
            depth = 1 + max((self.depth[c] for c in kids), default=0)
        self.ids[key] = len(self.nodes)
        self.nodes.append(key)
        self.size.append(size)
        self.depth.append(depth)
        return self.ids[key]

    def term(self, t: Term, shift: int = 0) -> int:
        if isinstance(t, Var):
            return self.node(("v", t.var.symbol, t.var.index + shift))
        return self.node(("f", t.head, tuple(self.term(a, shift) for a in t.args)))

    def _unfold(self, n: int, memo: dict[int, int]) -> int:
        done = memo.get(n)
        if done is not None:
            return done
        key = self.nodes[n]
        if key[0] == "v":
            sym, idx = key[1], key[2]
            if sym in self.rules:
                out = self.bindings.get((sym, idx))
                if out is None:
                    out = self.term(self.rules[sym], idx)
                    self.bindings[(sym, idx)] = out
            else:
                out = n
        else:
            out = self.node(
                ("f", key[1], tuple(self._unfold(c, memo) for c in key[2]))
            )
        memo[n] = out
        return out

    def instance(self, i: int) -> set[tuple[int, int]]:
        """Instance i: i simultaneous unfoldings of every schema variable."""
        while len(self.instances) <= i:
            memo: dict[int, int] = {}
            self.instances.append(
                {
                    (self._unfold(a, memo), self._unfold(b, memo))
                    for a, b in self.instances[-1]
                }
            )
        return self.instances[i]

    def sizes(self, i: int) -> tuple[int, int, int]:
        """(tree nodes, max depth, distinct variables) of instance i."""
        eqs = self.instance(i)
        nodes = sum(self.size[a] + self.size[b] for a, b in eqs)
        depth = max(max(self.depth[a], self.depth[b]) for a, b in eqs)
        variables = [n for n in self._reachable(eqs) if self.nodes[n][0] == "v"]
        return nodes, depth, len(variables)

    def unifiable(self, i: int) -> bool:
        while len(self.verdicts) <= i:
            self.verdicts.append(self._unify(self.instance(len(self.verdicts))))
        return self.verdicts[i]

    def first_failure(self, up_to: int) -> Optional[int]:
        for i in range(up_to + 1):
            if not self.unifiable(i):
                return i
        return None

    def _unify(self, eqs) -> bool:
        parent: dict[int, int] = {}

        def find(n: int) -> int:
            while parent.get(n, n) != n:
                parent[n] = parent.get(parent[n], parent[n])
                n = parent[n]
            return n

        # A class root is a function node whenever the class holds one.
        stack = list(eqs)
        while stack:
            a, b = stack.pop()
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            ka, kb = self.nodes[ra], self.nodes[rb]
            if ka[0] == "v":
                parent[ra] = rb
            elif kb[0] == "v":
                parent[rb] = ra
            elif ka[1] != kb[1] or len(ka[2]) != len(kb[2]):
                return False  # clash
            else:
                parent[ra] = rb
                stack.extend(zip(ka[2], kb[2]))
        # Occurs check: the graph of classes must be acyclic.
        edges: dict[int, set[int]] = {}
        for n in self._reachable(eqs):
            key = self.nodes[n]
            if key[0] == "f":
                edges.setdefault(find(n), set()).update(find(c) for c in key[2])
        state: dict[int, int] = {}  # 1 = on the DFS path, 2 = finished
        for root in edges:
            if root in state:
                continue
            state[root] = 1
            path = [(root, iter(edges[root]))]
            while path:
                n, it = path[-1]
                nxt = next(it, None)
                if nxt is None:
                    state[n] = 2
                    path.pop()
                elif state.get(nxt) == 1:
                    return False  # occurs cycle
                elif nxt not in state:
                    state[nxt] = 1
                    path.append((nxt, iter(edges.get(nxt, ()))))
        return True

    def _reachable(self, eqs) -> set[int]:
        seen: set[int] = set()
        stack = [n for e in eqs for n in e]
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                if self.nodes[n][0] == "f":
                    stack.extend(self.nodes[n][2])
        return seen


def depth_errors(ref: Reference, verdict: str, i: int, j: Optional[int]) -> list[str]:
    """A cycle must survive instances 0 .. i + 2(i - j); a not-unifiable
    verdict must be confirmed by a failing instance by i + 5."""
    if verdict == "cycle":
        need = i + 2 * (i - j)
        bad = ref.first_failure(need)
        if bad is not None:
            return [f"cycle i={i} j={j}, but instance {bad} is not unifiable"]
        return []
    if verdict == "not-unifiable":
        if ref.first_failure(i + 5) is None:
            return [f"not-unifiable at {i}, but instances 0..{i + 5} unify"]
        return []
    return [f"no verdict ({verdict})"]


# -- cycle certificates -----------------------------------------------------


def _tup(t: Term, ren: dict[Variable, Variable]) -> tuple:
    if isinstance(t, Var):
        v = ren.get(t.var, t.var)
        return ("v", v.symbol, v.index)
    return ("f", t.head, tuple(_tup(a, ren) for a in t.args))


def _store_vars(eqs: set[tuple]) -> set[Variable]:
    out, stack = set(), [t for e in eqs for t in e]
    while stack:
        t = stack.pop()
        if t[0] == "v":
            out.add(Variable(t[1], t[2]))
        else:
            stack.extend(t[2])
    return out


def simplified(record, schema: Schema) -> set[tuple]:
    """The record's store with right sides folded back to schema variables,
    its variable-orbit collapse applied, and reflexive equations dropped."""
    eq_sub = {}
    for v, t in record.eq_sub.mapping.items():
        if not isinstance(t, Var):
            raise ValueError(f"eq_sub binds {v} to a non-variable {t}")
        eq_sub[v] = t.var
    out = set()
    for e in record.store:
        lhs, rhs = _tup(e.lhs, eq_sub), _tup(schema.normalize(e.rhs), eq_sub)
        if lhs != rhs:
            out.add((lhs, rhs))
    return out


def certificate_errors(
    schema: Schema, rec_i, rec_j, mapping: dict[Variable, Variable]
) -> list[str]:
    """The mapping is symbol-preserving, fixes the variables the two
    simplified stores share, and maps store i onto store j."""
    errors = [
        f"{a} -> {b} changes the symbol"
        for a, b in mapping.items()
        if a.symbol != b.symbol
    ]
    s_i, s_j = simplified(rec_i, schema), simplified(rec_j, schema)
    for v in sorted(_store_vars(s_i) & _store_vars(s_j)):
        if mapping.get(v, v) != v:
            errors.append(f"shared variable {v} is moved to {mapping[v]}")
    image = {(_apply(s, mapping), _apply(t, mapping)) for s, t in s_i}
    if image != s_j:
        errors.append(
            f"mapping sends store {rec_i.i} to {len(image & s_j)} of"
            f" {len(s_j)} equations of store {rec_j.i}"
            f" ({len(image - s_j)} extra)"
        )
    return errors


def _apply(t: tuple, mapping: dict[Variable, Variable]) -> tuple:
    if t[0] == "v":
        v = mapping.get(Variable(t[1], t[2]))
        return t if v is None else ("v", v.symbol, v.index)
    return ("f", t[1], tuple(_apply(a, mapping) for a in t[2]))
