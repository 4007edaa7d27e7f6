import glob
import os
import sys
from collections import deque
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, Phase, given, seed, settings
from hypothesis import strategies as st

from schemunif.cli import parse_problem
from schemunif.engine import EngineClass, FinalConfiguration
from schemunif.schema import Schema
from schemunif.solver import SchematicProblem, compute_eq_sub
from schemunif.terms import App, Var, Variable, app, var
from schemunif.unify import (
    Equation,
    Substitution,
    UnifyFailure,
    eq_vars,
    sorted_eqs,
    unify,
)

sys.setrecursionlimit(100_000)

# Every property test draws the same examples on every run, with no example
# database to replay a failure on one machine only.  Solver examples can
# take seconds on a slow host, so there is no deadline.
settings.register_profile(
    "fixed",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fixed")

HERE = os.path.dirname(__file__)
PROBLEM_DIR = os.path.join(HERE, "..", "problems")
# For subprocesses: the checkout's sources ahead of anything inherited.
SRC_PATH = os.pathsep.join(
    [os.path.join(HERE, "..", "src")]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


def f(*args):
    return app("f", *args)


def h(*args):
    return app("h", *args)


def X(i):
    return var("X", i)


def Y(i):
    return var("Y", i)


def Z(i):
    return var("Z", i)


def L(i):
    return var("L", i)


def eq(lhs, rhs):
    return Equation(lhs, rhs)


def unifiable(eqs):
    return isinstance(unify(eqs), Substitution)


def instance(schema, t, i):
    """The i-th instance of one term: i rounds of unfolding every schema
    variable, through ``Schema.instance_eqs``."""
    (e,) = schema.instance_eqs([Equation(t, t)], i)
    return e.lhs


def problem_instance(problem, i):
    """The i-th instance of a problem's equations."""
    return problem.schema.instance_eqs(problem.equations, i)


def subterms(t):
    """Every subterm occurrence of t, in pre-order."""
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def positions(t):
    """Every position of t (a tuple of 1-based argument indices; () is the
    root), in pre-order."""
    out = [()]
    if isinstance(t, App):
        for i, a in enumerate(t.args, start=1):
            out.extend((i,) + p for p in positions(a))
    return out


GOLDEN_BASE = f(f(X(1), f(Z(0), f(X(1), f(X(0), f(Z(1), X(0)))))), L(1))


@pytest.fixture(scope="session")
def golden_problem():
    schema = Schema.of({"L": GOLDEN_BASE})
    lhs = f(X(4), L(0))
    rhs = f(f(Y(3), Y(3)), f(Y(0), f(Y(1), Y(0))))
    return SchematicProblem(frozenset([eq(lhs, rhs)]), schema)


@pytest.fixture(scope="session")
def golden_run(golden_problem):
    from schemunif.solver import u_sch_unif

    return u_sch_unif(golden_problem)


# h-schema of the worked two-instance example: one parameter repeated
# around the next parameter, recursing at offset 1.
EX_BASE = h(h(X(0), h(X(1), X(0))), L(1))


@pytest.fixture(scope="session")
def h_problem():
    schema = Schema.of({"L": EX_BASE})
    return SchematicProblem(
        frozenset([eq(L(0), h(Y(0), h(Y(1), Y(0))))]), schema
    )


def corpus_paths():
    return sorted(glob.glob(os.path.join(PROBLEM_DIR, "*.prob")))


@pytest.fixture(scope="session")
def corpus():
    out = []
    for path in corpus_paths():
        with open(path, encoding="utf-8") as fh:
            out.append((path, parse_problem(fh.read())))
    return out


# -- hypothesis strategies ---------------------------------------------------

SYMBOLS = ["X", "Y", "Z", "W", "V", "U"]
FUNS = [("f", 2), ("g", 1), ("a", 0), ("b", 0)]


def terms(max_depth=4, max_index=4, symbols=SYMBOLS):
    variables = st.builds(
        var,
        st.sampled_from(symbols),
        st.integers(min_value=0, max_value=max_index),
    )

    def extend(children):
        return st.one_of(
            *(
                st.builds(lambda *args, head=name: app(head, *args), *(
                    [children] * arity
                ))
                if arity
                else st.just(app(name))
                for name, arity in FUNS
            )
        )

    return st.recursive(variables, extend, max_leaves=2 ** (max_depth - 1))


def equations(max_eqs=5, **kw):
    return st.frozensets(
        st.builds(Equation, terms(**kw), terms(**kw)),
        min_size=1,
        max_size=max_eqs,
    )


def primitive_schemas():
    """Single-rule schemas recursing at offset 0 or 1."""

    def build(param_sym, idx1, idx2, offset, shape):
        rec = var("L", offset)
        p1 = var(param_sym, idx1)
        p2 = var(param_sym, idx2)
        if shape == 0:
            base = f(p1, rec)
        elif shape == 1:
            base = f(f(p1, p2), rec)
        else:
            base = f(p1, f(p2, rec))
        return Schema.of({"L": base})

    return st.builds(
        build,
        st.sampled_from(["X", "Y", "Z"]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=2),
    )


def uniform_problems(max_offset=3):
    """Single-rule uniform problems: L[i] recurses at offset 0..max_offset
    around parameters X[i+k]; one equation binds some L[k], and an optional
    second one relates two terms over L, X and Y."""
    def base_of(shape, k1, k2, offset):
        return shaped_base(shape, var("X", k1), var("X", k2), var("L", offset))

    leaves = st.builds(
        var, st.sampled_from(["L", "X", "Y"]), st.integers(0, 3)
    )

    def extend(children):
        return st.one_of(
            st.builds(f, children, children),
            st.builds(lambda t: app("g", t), children),
        )

    side = st.recursive(leaves | st.just(app("a")), extend, max_leaves=4)
    schema = st.builds(
        base_of,
        st.integers(0, 4),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, max_offset),
    ).map(lambda base: Schema.of({"L": base}))
    tie = st.builds(
        Equation, st.builds(var, st.just("L"), st.integers(0, 3)), side
    )
    eqs = st.builds(
        lambda first, rest: frozenset([first, *rest]),
        tie,
        st.lists(st.builds(Equation, side, side), max_size=1),
    )
    return st.builds(SchematicProblem, eqs, schema)


@st.composite
def carried_group_problems(draw):
    """Problems over a schema of uniform_problems with L[k] = f(W[0], L[m]),
    which puts L[m] (m > k) in the store, and Y[n] = t for a term t over
    L[m], and in half of them the equations of a problem of
    uniform_problems too.  Unless those put Y[n] in the store, Y[n]'s
    irrelevant group holds L[m] in a side, and the next step unfolds it."""
    problem = draw(uniform_problems())
    k, d, n = draw(st.tuples(st.integers(0, 3), st.integers(1, 3), st.integers(0, 3)))
    lm = var("L", k + d)
    t = draw(st.sampled_from([lm, app("g", lm), f(var("X", n), lm)]))
    eqs = {eq(var("L", k), f(var("W", 0), lm)), eq(var("Y", n), t)}
    if draw(st.booleans()):
        eqs |= problem.equations
    return SchematicProblem(frozenset(eqs), problem.schema)


def shaped_base(shape, p1, p2, slot):
    """One of the five base shapes of the generated problems, around the
    parameters p1, p2 and the schema variable slot."""
    return [
        f(p1, slot),
        f(f(p1, p2), slot),
        f(p1, f(p2, slot)),
        f(f(p1, app("g", p2)), slot),
        f(slot, app("g", p1)),
    ][shape]


def multi_rule_problems():
    """Uniform problems of two or three rules S[i] -> shape(P[i+a], P[i+b],
    T[i+o]) with a, b in 0..3 and the shapes of uniform_problems.  T is S
    itself with o in 1..3, or another rule with o in 0..3, so unfolding
    crosses rules.  One to three equations S[n] = side and an optional
    side = side follow, each side at most two deep over f, g, a and the
    variables."""
    return st.one_of(
        _multi_rule_problems(["L", "M"]), _multi_rule_problems(["L", "M", "N"])
    )


def _multi_rule_problems(rules):
    index = st.integers(0, 3)
    side = st.builds(var, st.sampled_from(rules + ["X", "Y", "Z"]), index)
    side = side | st.just(app("a"))
    for _ in range(2):  # at most two deep
        side = (
            side | st.builds(f, side, side) | st.builds(lambda t: app("g", t), side)
        )
    ties = st.lists(
        st.builds(Equation, st.builds(var, st.sampled_from(rules), index), side),
        min_size=1,
        max_size=3,
    )
    extra = st.lists(st.builds(Equation, side, side), max_size=1)

    @st.composite
    def problems(draw):
        bases = {}
        for s in rules:
            p = draw(st.sampled_from(["X", "Z"]))
            target = draw(st.sampled_from(rules))
            offset = draw(st.integers(1 if target == s else 0, 3))
            bases[s] = shaped_base(
                draw(st.integers(0, 4)),
                var(p, draw(index)),
                var(p, draw(index)),
                var(target, offset),
            )
        eqs = frozenset(draw(ties) + draw(extra))
        return SchematicProblem(eqs, Schema.of(bases))

    return problems()


def derandomized_examples(strategy, n):
    """The first n examples that hypothesis generates from strategy with a
    fixed seed: the same list on every run of one hypothesis version, for
    any text of this function (a derandomized test without ``@seed`` is
    seeded from a digest of its source)."""
    out = []

    @seed(0)
    @settings(
        database=None,
        max_examples=n,
        phases=[Phase.generate],
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(strategy)
    def collect(x):
        out.append(x)

    collect()
    return out


# -- reference printer -------------------------------------------------------


def reference_str(t):
    """The library's earlier term printer, kept as the reference: it
    renders the whole tree on every call, recursing per level."""
    if isinstance(t, Var):
        return f"{t.var.symbol}[{t.var.index}]"
    if not t.args:
        return t.head
    return f"{t.head}({', '.join(reference_str(a) for a in t.args)})"


# -- reference unifier -------------------------------------------------------


def reference_unify(eqs):
    """The library's earlier unifier, kept as the reference: the same rule
    loop as schemunif.unify.unify over a fully applied, idempotent solved
    form (every binding is rewritten on each elimination), which can grow
    exponentially on chain-shaped input."""
    work = sorted_eqs(eqs)
    sub = {}

    def resolve(t):
        while isinstance(t, Var) and t.var in sub:
            t = sub[t.var]
        return t

    def deep_apply(t):
        t = resolve(t)
        if isinstance(t, Var):
            return t
        return App(t.head, tuple(deep_apply(a) for a in t.args))

    while work:
        e = work.pop(0)
        s, t = resolve(e.lhs), resolve(e.rhs)
        if s == t:
            continue
        if isinstance(s, App) and isinstance(t, App):
            if s.head != t.head or len(s.args) != len(t.args):
                return UnifyFailure("clash", Equation(s, t))
            work = [Equation(a, b) for a, b in zip(s.args, t.args)] + work
            continue
        if isinstance(t, Var) and not isinstance(s, Var):
            s, t = t, s
        t = deep_apply(t)
        if s.var in t.vars:
            return UnifyFailure("cycle", Equation(s, t))
        sub[s.var] = t
        one = Substitution({s.var: t})
        for v in list(sub):
            if v != s.var:
                sub[v] = one.apply(sub[v])
    return Substitution(sub)


# -- reference store eligibility ---------------------------------------------
#
# The schema's earlier normalization, kept as the reference: it matches each
# base against a rebuilt node structurally, collecting the one index offset.


def _match_shift(pattern, r):
    """The d >= 0 with r == shift(d, pattern), or None (also for a ground
    pattern)."""
    d = None

    def go(p, s):
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


def reference_normalize(t, schema):
    """Fold every maximal subterm that is some base shifted by d >= 0 back
    to that rule's variable at index d, children first, rules in order."""
    if isinstance(t, Var):
        return t
    folded = App(t.head, tuple(reference_normalize(a, schema) for a in t.args))
    for symbol, base in schema.rules:
        d = _match_shift(base, folded)
        if d is not None:
            return var(symbol, d)
    return folded


# The engine's earlier per-candidate eligibility, kept as the reference: it
# rescans the store for every candidate and walks the schema for every store
# schema variable, with no memo.  Its reachability is the earlier semigroup
# walk: a search across rules that tests each parameter occurrence against
# the sums of the rule's own recursion offsets.  The engine searches the
# variables of the bindings instead, so this reference is independent of it.


def _semigroup_reachable(delta, generators):
    gens = sorted({g for g in generators if g > 0})
    if delta == 0:
        return True
    if not gens:
        return False
    can = [True] + [False] * delta
    for n in range(1, delta + 1):
        can[n] = any(g <= n and can[n - g] for g in gens)
    return can[delta]


def reference_reachable_by_unfolding(y, z, schema):
    seen = set()
    frontier = deque([z])
    while frontier:
        w = frontier.popleft()
        if w in seen or not schema.contains(w):
            continue
        seen.add(w)
        base = schema.base(w.symbol)
        own = schema.recursion_offsets(w.symbol)
        for v in base.vars:
            if v.symbol == y.symbol:
                delta = y.index - w.index - v.index
                if delta >= 0 and _semigroup_reachable(delta, own):
                    return True
            if v.symbol in schema.domain and v.symbol != w.symbol:
                nxt = Variable(v.symbol, w.index + v.index)
                if nxt.index <= y.index:
                    frontier.append(nxt)
    return False


def reference_store_eligible(eq, store, schema):
    if not isinstance(eq.lhs, Var):
        return False
    y = eq.lhs.var
    r = eq.rhs
    if schema.contains(y):
        return not (isinstance(r, Var) and not schema.contains(r.var))
    for stored in store:
        x = stored.lhs
        assert isinstance(x, Var)
        if y in stored.rhs.vars or r == x or y == x.var:
            return True
    store_vars = set()
    for stored in store:
        store_vars |= stored.lhs.vars | stored.rhs.vars
    return any(
        schema.contains(z) and reference_reachable_by_unfolding(y, z, schema)
        for z in sorted(store_vars)
    )


# -- reference saturation ----------------------------------------------------
#
# The engine's earlier saturation loop, kept as the reference: three rule
# queues (orient App = Var, decompose, orient Var = Var), a change buffer that
# is sorted and screened for clashes after every pass, and a queue of
# transitivity pairs; the move phase sorts the active set every round and
# judges each equation with reference_store_eligible.


def reference_th_unif(eqs, schema):
    active = set(eqs)
    store = set()
    changes = sorted_eqs(active)
    var_dict = {}
    orient1, decom, orient2, trans = deque(), deque(), deque(), deque()

    def update():
        nonlocal changes
        for e in changes:
            if (
                isinstance(e.lhs, App)
                and isinstance(e.rhs, App)
                and (e.lhs.head != e.rhs.head or len(e.lhs.args) != len(e.rhs.args))
            ):
                return e
        batch = sorted_eqs(changes)
        orient1.extend(
            e for e in batch if isinstance(e.lhs, App) and isinstance(e.rhs, Var)
        )
        decom.extend(
            e
            for e in batch
            if isinstance(e.lhs, App)
            and isinstance(e.rhs, App)
            and e.lhs.head == e.rhs.head
            and len(e.lhs.args) == len(e.rhs.args)
        )
        orient2.extend(
            e
            for e in batch
            if isinstance(e.lhs, Var)
            and isinstance(e.rhs, Var)
            and e.flip() not in active
        )
        for e in batch:
            if isinstance(e.lhs, Var):
                known = var_dict.setdefault(e.lhs.var, set())
                if e not in known:
                    trans.extend((e, other) for other in sorted_eqs(known))
                    known.add(e)
        changes = []
        return None

    def derive(new):
        if new not in active:
            active.add(new)
            changes.append(new)

    while True:
        clash = update()
        if clash is not None:
            # The partial set met before the clash is not kept.
            return FinalConfiguration((), "clash", clash)
        if not (orient1 or decom or orient2 or trans):
            break
        while orient1:
            e = orient1.popleft()
            if e in active:
                active.discard(e)
                derive(e.flip())
        while decom:
            e = decom.popleft()
            if e in active:
                active.discard(e)
                for a, b in zip(e.lhs.args, e.rhs.args):
                    if a != b:
                        derive(Equation(a, b))
        while orient2:
            e = orient2.popleft()
            if e in active:
                derive(e.flip())
        while trans:
            e1, e2 = trans.popleft()
            if e1 in active and e2 in active and e1.rhs != e2.rhs:
                derive(Equation(e1.rhs, e2.rhs))

    while True:
        movable = [
            e
            for e in sorted_eqs(active)
            if reference_store_eligible(e, store, schema)
        ]
        if not movable:
            break
        for e in movable:
            store.add(e)
            active.discard(e)

    gate = unify(list(store) + list(active))
    verdict, offending = "ok", None
    if isinstance(gate, UnifyFailure):
        verdict, offending = gate.kind, gate.equation
    return reference_configuration(store, active, schema, verdict, offending)


def reference_configuration(store, active, schema, verdict, offending):
    """A FinalConfiguration whose classes are read off a saturated set given
    as closure pairs: the variables joined by its Var = Var pairs, each class
    with the App sides and the x = x of its members, stored when one of its
    bindings is.  The classes must rebuild the pairs exactly."""
    pairs = store | active
    parent = {}  # non-roots only

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    for e in pairs:
        if isinstance(e.rhs, Var) and find(e.lhs) is not find(e.rhs):
            parent[find(e.lhs)] = find(e.rhs)
    members, sides, loops, stored = {}, {}, {}, set()
    for e in sorted_eqs(pairs):
        root = find(e.lhs)
        members.setdefault(root, {})[e.lhs] = None
        if isinstance(e.rhs, App):
            sides.setdefault(root, {})[e.rhs] = None
        elif e.rhs is e.lhs:
            loops.setdefault(root, {})[e.lhs] = None
        if e in store:
            stored.add(root)
    classes = tuple(
        EngineClass(
            tuple(x for x in xs if not schema.contains(x.var)),
            tuple(sides.get(root, ())),
            tuple(loops.get(root, ())),
            tuple(x for x in xs if schema.contains(x.var)),
            root in stored,
        )
        for root, xs in members.items()
    )
    fc = FinalConfiguration(classes, verdict, offending, eq_vars(store))
    assert fc.active == active, "the saturated set is not closure-shaped"
    assert {e for c in classes if c.stored for e in c.closure()} == store
    assert eq_sub_orbits(compute_eq_sub(classes)) == reference_orbits(store)
    return fc


def eq_sub_orbits(sub):
    """The orbits an eq_sub collapses: each representative with the
    variables sent to it."""
    orbits = {}
    for v, rep in sub.mapping.items():
        orbits.setdefault(rep.var, {rep.var}).add(v)
    return frozenset(frozenset(o) for o in orbits.values())


def assert_spanning_stands_for_closure(c, eq_sub=None):
    """A class's spanning set has its closure's variables and unify
    verdict, and, under the eq_sub of a store that holds the class, the
    closure's image less the reflexive pairs."""
    span, closure = c.spanning(), c.closure()
    assert eq_vars(span) == eq_vars(closure)
    verdicts = [getattr(unify(eqs), "kind", "ok") for eqs in (span, closure)]
    assert verdicts[0] == verdicts[1]
    if eq_sub is not None:
        images = [
            {e for e in eq_sub.apply_eqs(eqs) if e.lhs is not e.rhs}
            for eqs in (span, closure)
        ]
        assert images[0] == images[1]


def reference_orbits(store):
    """The solver's earlier orbit scan, kept as the reference: the pairs
    x = y stored both ways, joined by a union-find; the classes of at least
    two members."""
    pairs = [
        (e.lhs.var, e.rhs.var)
        for e in store
        if isinstance(e.lhs, Var) and isinstance(e.rhs, Var) and e.flip() in store
    ]
    parent = {}  # non-roots only

    def find(v):
        while v in parent:
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    classes = {}
    for v in {x for p in pairs for x in p}:
        classes.setdefault(find(v), set()).add(v)
    return frozenset(frozenset(c) for c in classes.values() if len(c) > 1)


# -- reference instance loop -------------------------------------------------
#
# The solver's earlier instance loop over closure pairs, kept as the
# reference: the reference engine's active set, the irrelevant set as the
# union of every active binding of a plain variable, carried through each
# step, the store's variables walked off its pairs, and the simplified store
# built from every stored pair with reference_normalize.


class ReferenceInstance(NamedTuple):
    eqs: frozenset  # the engine input
    store: frozenset
    active: frozenset
    irr: frozenset
    vars: frozenset
    simplified: frozenset
    live: int  # |vars(NStore) - dom(eq_sub)|
    depth: int  # the unfolding steps of the irr-cycle check
    irr_cycle: bool


def reference_instances(problem, n):
    """The first n instances of the closure-pair loop, up to the first that
    fails."""
    schema = problem.schema
    eqs, irr = frozenset(problem.equations), frozenset()
    out = []
    for i in range(n):
        fc = reference_th_unif(eqs, schema)
        if not fc.ok:
            break
        irr = irr | {e for e in fc.active if not schema.contains(e.lhs.var)}
        depth = 0
        if irr:
            i_max = max(e.lhs.var.index for e in irr)
            r_min = min(
                (v.index for v in eq_vars(irr) if schema.contains(v)),
                default=i_max + 1,
            )
            depth = max(i_max - r_min + 1, 0)
        irr_cycle = i > 0 and not unifiable(schema.instance_eqs(irr, depth))
        rep = {}
        for orbit in reference_orbits(fc.store):
            top = Var(max(orbit, key=lambda v: (v.index, v.symbol)))
            rep.update((v, top) for v in orbit if v != top.var)
        collapse = Substitution(rep)
        normalized = {
            Equation(e.lhs, reference_normalize(e.rhs, schema)) for e in fc.store
        }
        simplified = {
            Equation(collapse.apply(e.lhs), collapse.apply(e.rhs))
            for e in normalized
        }
        out.append(
            ReferenceInstance(
                eqs,
                fc.store,
                fc.active,
                irr,
                eq_vars(fc.store),
                frozenset(e for e in simplified if e.lhs is not e.rhs),
                len(eq_vars(normalized) - rep.keys()),
                depth,
                irr_cycle,
            )
        )
        if irr_cycle:
            break
        psi = schema.step(eq_vars(fc.store))
        eqs, irr = psi.apply_eqs(fc.store), psi.apply_eqs(irr)
    return out


def tied_ring(order, flips=()):
    """Rules Lc[i] -> f(Xc[i], Lc[i+1]) for c in order, their heads tied in
    a ring in that order; a tie whose position is in flips is written the
    other way round."""
    k = len(order)
    schema = Schema.of(
        {f"L{c}": f(var(f"X{c}", 0), var(f"L{c}", 1)) for c in order}
    )
    ties = []
    for pos, c in enumerate(order):
        a, b = var(f"L{c}", 0), var(f"L{order[(pos + 1) % k]}", 0)
        ties.append(eq(b, a) if pos in flips else eq(a, b))
    return SchematicProblem(frozenset(ties), schema)


def tied_rings(max_k=8):
    """Tied rings of 2..max_k rules in a random order, each tie in a random
    orientation."""
    return st.integers(2, max_k).flatmap(
        lambda k: st.builds(
            tied_ring,
            st.permutations(range(k)),
            st.sets(st.integers(0, k - 1)),
        )
    )

