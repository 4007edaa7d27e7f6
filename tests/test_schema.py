import copy
import os
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemunif.schema import Schema, SchemaClass, SchemaError, make_primitive
from schemunif.terms import app, shift, var
from schemunif.unify import Substitution, sorted_eqs

from .conftest import (
    EX_BASE,
    GOLDEN_BASE,
    L,
    X,
    Y,
    Z,
    eq,
    f,
    h,
    instance,
    primitive_schemas,
    reference_normalize,
)


def W(i):
    return var("W", i)


def E(i):
    return var("E", i)


def test_duplicate_rule_rejected():
    with pytest.raises(SchemaError):
        Schema.of([("L", X(0)), ("L", Y(0))])


def test_schemas_are_equal_by_their_rules():
    rules = [("L", f(X(0), L(1))), ("M", h(Y(0), M(2)))]
    schema = Schema.of(rules)
    same = Schema.of(rules[::-1])
    assert schema == same and hash(schema) == hash(same)
    assert schema != Schema.of(rules[:1]) and schema != rules
    assert repr(schema) == f"Schema(rules={tuple(rules)!r})"
    for copied in (copy.copy(schema), copy.deepcopy(schema)):
        assert copied == schema and copied.domain == {"L", "M"}
    assert pickle.loads(pickle.dumps(schema)) == schema


def test_binding_is_shifted_base():
    schema = Schema.of({"L": GOLDEN_BASE})
    assert schema.binding(L(3).var) == shift(3, GOLDEN_BASE)
    assert schema.binding(L(0).var) == GOLDEN_BASE


def test_unknown_symbol():
    schema = Schema.of({"L": GOLDEN_BASE})
    with pytest.raises(SchemaError):
        schema.base("M")


def test_classify_not_simple():
    # Two domain symbols inside one base term.
    schema = Schema.of({"L": f(var("M", 1), L(1)), "M": f(X(0), var("M", 1))})
    assert schema.classify() == SchemaClass.NOT_SIMPLE


def test_classify_simple():
    # Two distinct self-recursion offsets.
    schema = Schema.of({"L": f(L(1), L(2))})
    assert schema.classify() == SchemaClass.SIMPLE


def test_classify_uniform():
    schema = Schema.of({"L": f(X(0), f(X(1), L(2)))})
    assert schema.classify() == SchemaClass.UNIFORM


def test_classify_primitive():
    assert Schema.of({"L": GOLDEN_BASE}).classify() == SchemaClass.PRIMITIVE
    assert Schema.of({"L": f(X(0), L(0))}).classify() == SchemaClass.PRIMITIVE


def test_classify_nesting_is_monotone():
    order = [
        SchemaClass.NOT_SIMPLE,
        SchemaClass.SIMPLE,
        SchemaClass.UNIFORM,
        SchemaClass.PRIMITIVE,
    ]
    # Every primitive schema also satisfies the uniform and simple
    # conditions, by construction of classify's fall-through.
    schema = Schema.of({"L": EX_BASE})
    assert order.index(schema.classify()) >= order.index(SchemaClass.UNIFORM)


def test_step_unfolds_only_schema_variables():
    schema = Schema.of({"L": EX_BASE})
    t = h(L(2), Y(0))
    sub = schema.step(t.vars)
    assert sub.domain() == {L(2).var}
    assert sub.apply(L(2)) == shift(2, EX_BASE)


def test_instance_zero_is_identity():
    schema = Schema.of({"L": EX_BASE})
    t = h(L(0), Y(0))
    assert instance(schema, t, 0) == t


def test_instance_one_unfolds_each_schema_var_once():
    schema = Schema.of({"L": EX_BASE})
    t = instance(schema, L(0), 1)
    assert t == EX_BASE
    t2 = instance(schema, L(0), 2)
    assert t2 == h(h(X(0), h(X(1), X(0))), shift(1, EX_BASE))


def test_recursion_offsets():
    schema = Schema.of({"L": f(X(0), f(X(1), L(2)))})
    assert schema.recursion_offsets("L") == {2}
    assert Schema.of({"L": f(X(0), X(1))}).recursion_offsets("L") == frozenset()


def test_normalize_folds_one_unfolding():
    schema = Schema.of({"L": EX_BASE})
    assert schema.normalize(EX_BASE) == L(0)
    assert schema.normalize(shift(4, EX_BASE)) == L(4)


def test_normalize_leaves_non_instances_alone():
    schema = Schema.of({"L": EX_BASE})
    t = h(Y(0), h(Y(1), Y(0)))
    assert schema.normalize(t) == t


def test_normalize_folds_inside_context():
    schema = Schema.of({"L": EX_BASE})
    t = h(Y(9), shift(2, EX_BASE))
    assert schema.normalize(t) == h(Y(9), L(2))


@settings(max_examples=200)
@given(
    primitive_schemas(),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=4),
)
def test_normalize_inverts_instance(schema, d, k):
    t = instance(schema, L(d), k)
    assert schema.normalize(t) == L(d)


def M(i):
    return var("M", i)


NORMALIZE_SCHEMAS = [
    Schema.of({"L": f(f(X(1), X(0)), L(0))}),  # recursion offset 0
    Schema.of({"L": f(X(0), f(X(2), L(2)))}),  # offset 2
    Schema.of({"L": h(X(1), app("g", Y(0)), L(3))}),  # offset 3
    Schema.of({"K": f(app("a"), app("b")), "L": f(X(0), L(1))}),  # ground
    Schema.of({"V": X(1), "L": f(var("V", 0), L(2))}),  # a variable base
    Schema.of({"L": f(X(0), M(1)), "M": f(Y(2), L(1))}),  # cross-rule
    Schema.of({"L": f(X(1), Y(0)), "M": f(X(1), Y(0))}),  # rule order
]


@st.composite
def unfolded_terms(draw):
    """A schema, and a term with shifted bases (some of them unfolded
    further, or with a variable replaced by a subterm) at random depths."""
    schema = draw(st.sampled_from(NORMALIZE_SCHEMAS))
    rules = st.sampled_from(schema.rules)
    offsets = st.integers(0, 4)

    def unfolding(rule, d, k):
        return instance(schema, shift(d, rule[1]), k)

    def replace_one(rule, d, child, pick):
        t = shift(d, rule[1])
        vs = sorted(t.vars)
        if not vs:
            return t
        return Substitution({vs[pick % len(vs)]: child}).apply(t)

    leaves = st.one_of(
        st.builds(var, st.sampled_from(["X", "Y", "L", "M"]), st.integers(0, 6)),
        st.just(app("a")),
        st.builds(unfolding, rules, offsets, st.integers(0, 2)),
    )

    def extend(children):
        return st.one_of(
            st.builds(f, children, children),
            st.builds(lambda t: app("g", t), children),
            st.builds(replace_one, rules, offsets, children, st.integers(0, 5)),
        )

    return schema, draw(st.recursive(leaves, extend, max_leaves=6))


@settings(max_examples=200)
@given(unfolded_terms())
def test_normalize_matches_reference(case):
    schema, t = case
    assert schema.normalize(t) is reference_normalize(t, schema)


# -- uniform -> primitive rewrite -------------------------------------------


LSR_RULES = {
    "L": f(
        f(X(0), f(Z(1), f(E(3), f(X(1), f(W(11), X(1)))))),
        L(1),
    ),
    "S": f(f(E(0), f(W(3), E(2))), var("S", 4)),
    "R": f(f(W(0), W(4)), var("R", 7)),
}


def lsr_problem_eqs():
    return frozenset([eq(L(0), Y(0)), eq(var("S", 0), Y(1))])


def test_make_primitive_identity_on_primitive_input():
    schema = Schema.of({"L": GOLDEN_BASE})
    eqs = frozenset([eq(L(0), Y(0))])
    out_eqs, out_schema, renaming = make_primitive(eqs, schema)
    assert out_schema == schema
    assert out_eqs == eqs
    assert not renaming


def test_make_primitive_rejects_simple_but_not_uniform():
    schema = Schema.of({"L": f(L(1), L(2))})
    with pytest.raises(SchemaError):
        make_primitive(frozenset([eq(L(0), Y(0))]), schema)


def test_flatten_three_rule_schema():
    schema = Schema.of(LSR_RULES)
    out_eqs, prim, renaming = make_primitive(lsr_problem_eqs(), schema)
    assert prim.classify() == SchemaClass.PRIMITIVE
    assert prim.domain == schema.domain
    for sym in prim.domain:
        offsets = prim.recursion_offsets(sym)
        assert all(o <= 1 for o in offsets)


def _parameter_profile(schema, sym):
    """Multiset of parameter (non-recursion) variable indices of one base,
    plus the occurrence count; insensitive to fresh symbol names."""
    params = [
        v for v in _occurrences(schema.base(sym)) if v.symbol not in schema.domain
    ]
    return len(params), Counter(v.index for v in params)


def _occurrences(t):
    from schemunif.terms import App, Var

    if isinstance(t, Var):
        return [t.var]
    out = []
    for a in t.args:
        out.extend(_occurrences(a))
    return out


def test_flatten_parameter_profiles():
    _, prim, _ = make_primitive(lsr_problem_eqs(), Schema.of(LSR_RULES))
    # After flattening, each base keeps its parameter occurrences but their
    # indices drop to the quotient by the old recursion offset.
    count_l, idx_l = _parameter_profile(prim, "L")
    count_s, idx_s = _parameter_profile(prim, "S")
    count_r, idx_r = _parameter_profile(prim, "R")
    assert (count_l, count_s, count_r) == (6, 3, 2)
    assert idx_l == Counter({0: 2, 1: 4})
    assert idx_s == Counter({0: 3})
    assert idx_r == Counter({0: 2})


def test_flatten_renaming_excludes_domain_symbols():
    _, prim, renaming = make_primitive(lsr_problem_eqs(), Schema.of(LSR_RULES))
    for v in renaming.domain():
        assert v.symbol not in prim.domain


def test_flatten_instances_agree_with_original():
    """The rewritten problem has the same bounded unifiability profile."""
    from schemunif.oracle import bounded_check
    from schemunif.solver import SchematicProblem

    schema = Schema.of(LSR_RULES)
    eqs = frozenset(
        [eq(f(Y(0), Y(0)), f(L(0), Y(1)))]
    )
    out_eqs, prim, _ = make_primitive(eqs, schema)
    before = bounded_check(SchematicProblem(eqs, schema), n=6)
    after = bounded_check(SchematicProblem(out_eqs, prim), n=6)
    assert (before.first_failure is None) == (after.first_failure is None)


def test_fresh_names_avoid_existing_symbols():
    _, prim, renaming = make_primitive(lsr_problem_eqs(), Schema.of(LSR_RULES))
    original_syms = set()
    for t in Schema.of(LSR_RULES).base_set():
        original_syms |= {v.symbol for v in t.vars}
    introduced = set()
    for t in prim.base_set():
        introduced |= {v.symbol for v in t.vars}
    fresh = introduced - original_syms
    assert fresh  # flattening had to invent names
    assert all("@" in name for name in fresh)


def primitive_text(eqs, schema):
    """make_primitive's rewritten equations, rules and renaming as text."""
    out_eqs, prim, renaming = make_primitive(eqs, schema)
    return " | ".join(
        ["; ".join(map(str, sorted_eqs(out_eqs))), str(prim), str(renaming)]
    )


# make_primitive's output on the LSR schema and each corpus schema: the LSR
# schema's W[3] is renamed to W@3[0] as R is flattened, then to W@3@0[0] as
# S is, and the renaming keeps both steps.
PRIMITIVE_PINS = {
    "LSR": "L[0] = Y[0]; S[0] = Y[1]"
    " | L[i] -> f(f(X[0], f(Z[1], f(E@3[0], f(X[1], f(W@4[1], X[1]))))), L[1]);"
    " R[i] -> f(f(W@0[0], W@4[0]), R[1]);"
    " S[i] -> f(f(E@0[0], f(W@3@0[0], E@2[0])), S[1])"
    " | {E[0] -> E@0[0], E[2] -> E@2[0], E[3] -> E@3[0], W[0] -> W@0[0],"
    " W[3] -> W@3@0[0], W[4] -> W@4[0], W[11] -> W@4[1], W@3[0] -> W@3@0[0]}",
    "clash_in_schema": "L[0] = f(g(Y[0]), Y[1]); X[1] = a | L[i] -> f(X[0], L[1]) | {}",
    "const_clash": "L[0] = a | L[i] -> f(X[0], L[1]) | {}",
    "const_tail": "L[0] = f(Y[0], f(Y[1], Y[2])); Y[1] = c | L[i] -> f(c, L[1]) | {}",
    "cross_clash": "L[0] = M[0] | L[i] -> f(X[0], L[1]); M[i] -> g(X[0], M[1]) | {}",
    "deep_occurs": (
        "L[0] = f(Y[0], Y[1]); X[0] = f(Y[2], X[1]); Y[2] = X[0]"
        " | L[i] -> f(X[0], L[1])"
        " | {}"
    ),
    "double_rec": "L[0] = f(Y[0], Y[0]) | L[i] -> f(L[1], L[1]) | {}",
    "ex7": (
        "L[0] = h(Y[0], h(Y[1], Y[0]))"
        " | L[i] -> h(h(X[0], h(X[1], X[0])), L[1])"
        " | {}"
    ),
    "ex9_like": "L[0] = f(Y[0], Y[0]) | L[i] -> f(X[0], f(X[1], L[1])) | {}",
    "golden": (
        "f(X[4], L[0]) = f(f(Y[3], Y[3]), f(Y[0], f(Y[1], Y[0])))"
        " | L[i] -> f(f(X[1], f(Z[0], f(X[1], f(X[0], f(Z[1], X[0]))))), L[1])"
        " | {}"
    ),
    "ground_ok": "L[0] = f(Y[0], Y[1]); Y[0] = a | L[i] -> f(a, L[1]) | {}",
    "head_clash": "L[0] = g(Y[0], Y[1]) | L[i] -> f(X[0], L[1]) | {}",
    "late_clash": (
        "L[0] = f(Y[0], Y[1]); X[1] = g(Y[4]); Y[1] = f(Y[2], a); Y[2] = g(Y[3])"
        " | L[i] -> f(X[0], L[1])"
        " | {}"
    ),
    "mixed_offsets": (
        "L[0] = f(Y[0], f(Y[1], Y[2])); Y[0] = X[2]"
        " | L[i] -> f(X[2], f(Z[0], L[1]))"
        " | {}"
    ),
    "occurs_direct": "Y[0] = f(Y[0], L[0]) | L[i] -> f(X[0], L[1]) | {}",
    "occurs_late": (
        "L[0] = f(Y[0], Y[1]); Y[0] = X[2]; Y[1] = f(X[1], Y[0])"
        " | L[i] -> f(X[0], L[1])"
        " | {}"
    ),
    "occurs_offset_zero": (
        "X[0] = f(Y[0], Y[1]); Y[0] = X[0]"
        " | L[i] -> f(X[0], L[0])"
        " | {}"
    ),
    "offset_zero": "L[0] = f(Y[0], Y[1]) | L[i] -> f(X[0], L[0]) | {}",
    "pair_swap": (
        "L[0] = f(Y[0], f(Y[1], Y[2])); Y[0] = Z[1]"
        " | L[i] -> f(X[0], f(Z[1], L[1]))"
        " | {}"
    ),
    "shared_var": (
        "L[0] = g(Y[0], Y[1]); L[1] = g(Y[2], Y[3]); Y[0] = Y[2]"
        " | L[i] -> g(X[0], L[1])"
        " | {}"
    ),
    "triple_chain": (
        "L[0] = h(Y[0], h(Y[1], Y[0])); Y[1] = h(Y[2], h(Y[3], Y[2]))"
        " | L[i] -> h(h(X[0], h(X[1], X[0])), L[1])"
        " | {}"
    ),
    "two_rules": (
        "L[0] = f(Y[0], Y[1]); M[1] = g(Y[2], Y[3])"
        " | L[i] -> f(X[0], M[1]); M[i] -> g(Z[0], L[1])"
        " | {}"
    ),
    "uniform_two": (
        "L[0] = f(Y[0], f(Y[1], Y[2]))"
        " | L[i] -> f(X@0[0], f(X@1[0], L[1]))"
        " | {X[0] -> X@0[0], X[1] -> X@1[0]}"
    ),
    "var_only": "Y[0] = Y[1]; Y[1] = Y[2] | L[i] -> f(X[0], L[1]) | {}",
}


def test_make_primitive_output_is_pinned(corpus):
    got = {"LSR": primitive_text(lsr_problem_eqs(), Schema.of(LSR_RULES))}
    for path, parsed in corpus:
        name = os.path.basename(path)[: -len(".prob")]
        got[name] = primitive_text(parsed.problem.equations, parsed.problem.schema)
    assert got == PRIMITIVE_PINS
