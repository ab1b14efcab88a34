"""The compiled evaluation layer against its oracles.

Field add/neg against base-p digit arithmetic, Poly.compile against the
term-by-term reference evaluator and against exact rational evaluation
reduced mod p, and Formula.compile against a tree-walking evaluator.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galstrat.errors import DenominatorNotInvertible, MissingVariable
from galstrat.fields import FiniteField, make_field
from galstrat.fixtures import field_from_order
from galstrat.formulas import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Neq,
    Not,
    Or,
    eval_formula,
    parse_formula,
    to_prenex,
)
from galstrat.polynomials import Poly, parse_poly

EXTENSIONS = [4, 8, 9, 25, 27, 125, 3125]
PRIMES = [2, 3, 5, 7, 13]
VARS = ("x", "y", "z", "w")


# -- oracles --------------------------------------------------------------------

def digit_add(k, a, b):
    """Coefficient-wise addition of the base-p encodings."""
    p = k.p
    return sum(((a // p ** i + b // p ** i) % p) * p ** i for i in range(k.e))


def digit_neg(k, a):
    p = k.p
    return sum(((-(a // p ** i)) % p) * p ** i for i in range(k.e))


def reduce_mod_p(value: Fraction, p):
    return value.numerator * pow(value.denominator, -1, p) % p


def holds(node, env, k):
    """Tree-walking truth of a formula body, polynomials evaluated term by term."""
    if isinstance(node, (Eq, Neq)):
        equal = (node.left.eval_field_reference(env, k)
                 == node.right.eval_field_reference(env, k))
        return equal if isinstance(node, Eq) else not equal
    if isinstance(node, And):
        return holds(node.left, env, k) and holds(node.right, env, k)
    if isinstance(node, Or):
        return holds(node.left, env, k) or holds(node.right, env, k)
    if isinstance(node, Implies):
        return (not holds(node.left, env, k)) or holds(node.right, env, k)
    if isinstance(node, Not):
        return not holds(node.sub, env, k)
    if isinstance(node, Exists):
        return any(holds(node.sub, {**env, node.var: v}, k) for v in k.elements())
    if isinstance(node, Forall):
        return all(holds(node.sub, {**env, node.var: v}, k) for v in k.elements())
    raise TypeError(node)


def binders(node):
    """Every quantified name in a body, outermost first."""
    if isinstance(node, (Exists, Forall)):
        return [node.var] + binders(node.sub)
    if isinstance(node, (And, Or, Implies)):
        return binders(node.left) + binders(node.right)
    if isinstance(node, Not):
        return binders(node.sub)
    return []


def atoms_defined(node, env, k):
    """No atom can raise at env: every free name is bound and every
    coefficient's denominator is invertible in F_q."""
    if isinstance(node, (Eq, Neq)):
        polys = (node.left, node.right)
        return all(poly.used_variables() <= set(env)
                   and all(c.denominator % k.p for c in poly.terms.values())
                   for poly in polys)
    if isinstance(node, (Exists, Forall)):
        return atoms_defined(node.sub, {**env, node.var: 0}, k)
    if isinstance(node, Not):
        return atoms_defined(node.sub, env, k)
    return atoms_defined(node.left, env, k) and atoms_defined(node.right, env, k)


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (DenominatorNotInvertible, MissingVariable) as exc:
        return ("error", type(exc))


# -- strategies -------------------------------------------------------------------

def elements(k):
    return st.integers(0, k.q - 1)


coefficients = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def polys(draw, variables=VARS[:3], max_terms=4, max_exp=3):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exp) for _ in variables]),
        coefficients, max_size=max_terms))
    return Poly(variables, terms)


@st.composite
def formula_bodies(draw, quantifiers=2, size=3):
    atoms = ["eq", "neq"]
    kinds = atoms + (["not", "and", "or", "implies"] if size else [])
    kinds += ["exists", "forall"] if quantifiers else []
    kind = draw(st.sampled_from(kinds))
    if kind in atoms:
        left = draw(polys(VARS, max_terms=3, max_exp=2))
        right = draw(polys(VARS, max_terms=2, max_exp=2))
        return (Eq if kind == "eq" else Neq)(left, right)
    if kind == "not":
        return Not(draw(formula_bodies(quantifiers, size - 1)))
    if kind in ("exists", "forall"):
        var = draw(st.sampled_from(VARS))
        sub = draw(formula_bodies(quantifiers - 1, size))
        return (Exists if kind == "exists" else Forall)(var, sub)
    cls = {"and": And, "or": Or, "implies": Implies}[kind]
    return cls(draw(formula_bodies(quantifiers, size - 1)),
               draw(formula_bodies(quantifiers, size - 1)))


# -- fields -----------------------------------------------------------------------

@pytest.mark.parametrize("q", [q for q in EXTENSIONS if q <= 125])
def test_extension_add_and_neg_match_digit_oracle_exhaustively(q):
    k = field_from_order(q)
    for a in k.elements():
        assert k.neg(a) == digit_neg(k, a)
        for b in k.elements():
            assert k.add(a, b) == digit_add(k, a, b)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(EXTENSIONS), st.data())
def test_extension_field_axioms(q, data):
    k = field_from_order(q)
    a, b, c = (data.draw(elements(k)) for _ in range(3))
    assert k.add(a, b) == digit_add(k, a, b)
    assert k.neg(a) == digit_neg(k, a)
    assert k.add(a, b) == k.add(b, a)
    assert k.add(k.add(a, b), c) == k.add(a, k.add(b, c))
    assert k.add(a, 0) == a
    assert k.add(a, k.neg(a)) == 0
    assert k.sub(k.add(a, b), b) == a
    assert k.mul(a, b) == k.mul(b, a)
    assert k.mul(k.mul(a, b), c) == k.mul(a, k.mul(b, c))
    assert k.mul(a, k.add(b, c)) == k.add(k.mul(a, b), k.mul(a, c))
    assert k.mul(a, 1) == a
    if a:
        assert k.mul(a, k.inv(a)) == 1


def test_zech_table_is_built_on_first_extension_add_only():
    k = FiniteField(3, 3)
    assert k._zech is None
    k.mul(5, 7)
    k.neg(5)
    assert k._zech is None
    k.add(5, 7)
    assert len(k._zech) == k.q - 1


# -- polynomials ---------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(polys(), st.sampled_from(PRIMES + EXTENSIONS[:5]), st.data())
def test_compiled_poly_matches_reference(f, q, data):
    k = field_from_order(q)
    names = data.draw(st.lists(st.sampled_from(f.variables), unique=True))
    assign = {v: data.draw(elements(k)) for v in names}
    evaluate = f.compile(k)  # compiling never raises
    assert outcome(evaluate, assign) == outcome(f.eval_field_reference, assign, k)
    assert f.compile(k) is evaluate


@settings(max_examples=200, deadline=None)
@given(polys(), st.sampled_from(PRIMES + EXTENSIONS[:5]), st.data())
def test_compiled_poly_matches_rational_value_mod_p(f, q, data):
    # Values in 0..p-1 are the prime subfield in every F_q.
    k = field_from_order(q)
    assign = {v: data.draw(st.integers(0, k.p - 1)) for v in f.variables}
    got = outcome(f.eval_field, assign, k)
    if any(c.denominator % k.p == 0 for c in f.terms.values()):
        assert got == ("error", DenominatorNotInvertible)
    else:
        assert got == ("value", reduce_mod_p(f.eval_rational(assign), k.p))


def test_missing_variable_of_a_term_that_vanishes_mod_p():
    f = parse_poly("5*x + 1")
    k = make_field(5)
    assert f.eval_field({"x": 3}, k) == 1
    with pytest.raises(MissingVariable):
        f.eval_field({}, k)
    with pytest.raises(MissingVariable):
        parse_poly("x*y").eval_field({"x": 0}, make_field(3, 2))


def test_bad_denominator_raises_on_evaluation_not_compilation():
    f = parse_poly("x/5 + y")
    k = make_field(5)
    evaluate = f.compile(k)
    with pytest.raises(MissingVariable):
        evaluate({"x": 1})
    with pytest.raises(DenominatorNotInvertible):
        evaluate({"x": 1, "y": 2})
    assert f.eval_field({"x": 1, "y": 2}, make_field(7)) == (3 + 2) % 7


def test_compiled_poly_is_memoised_per_field():
    f = parse_poly("x^2 + 1")
    k5, k25 = make_field(5), make_field(5, 2)
    assert f.compile(k5) is f.compile(k5)
    assert f.compile(k5) is not f.compile(k25)
    assert f.eval_field({"x": 2}, k5) == 0


# -- formulas -------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(formula_bodies(), st.sampled_from([2, 3, 5, 7, 4, 8, 9]), st.data())
def test_compiled_formula_matches_holds(body, q, data):
    k = field_from_order(q)
    f = Formula(body, free_vars=VARS)
    names = data.draw(st.lists(st.sampled_from(VARS), unique=True, min_size=2))
    env = {v: data.draw(elements(k)) for v in names}
    want = outcome(holds, body, dict(env), k)
    compiled_env = dict(env)
    assert outcome(f.compile(k), compiled_env) == want
    if want[0] == "value":
        assert compiled_env == env  # quantifiers restore what they bind
    # Binders are standardized apart: each name bound once, none free.
    names = binders(f.body)
    assert len(set(names)) == len(names)
    assert not set(names) & set(VARS)
    # Prenexing reorders evaluation, so an atom that raises may be reached
    # on one side only; where no atom can raise, both sides have a value.
    prenex = outcome(to_prenex(f).compile(k), dict(env))
    if atoms_defined(body, env, k):
        assert want[0] == "value"
        assert prenex == want
    elif prenex[0] == want[0] == "value":
        assert prenex == want


def _eq(left, right):
    return Eq(parse_poly(left), parse_poly(right))


CAPTURE_TRAPS = [
    # Renaming the inner `E x` to `x_1` would capture the `x` of `x_1 = x + y`.
    pytest.param("E x (x = y & E x (x = 1 & E x_1 (x_1 = x + y)))",
                 Exists("x", And(_eq("x", "y"), Exists("x", And(
                     _eq("x", "1"), Exists("x_1", _eq("x_1", "x + y")))))),
                 ["x", "x_2", "x_1"], id="fresh_name_bound_below"),
    # Renaming the first binder must stop at the second, which shadows it.
    pytest.param("x = 0 & E x (x = 1 & E x (x = 2))",
                 And(_eq("x", "0"), Exists("x", And(_eq("x", "1"), Exists("x", _eq("x", "2"))))),
                 ["x_1", "x_2"], id="shadowed_below"),
]


@pytest.mark.parametrize("text,raw,names", CAPTURE_TRAPS)
def test_parse_renames_binders_without_capture(text, raw, names):
    f = parse_formula(text)
    assert binders(f.body) == names
    [free] = f.free_vars
    for q in (3, 5):
        k = field_from_order(q)
        want = {(a,) for a in k.elements() if holds(raw, {free: a}, k)}
        assert want  # each trap holds somewhere, so a capture shows
        assert eval_formula(f, {}, k).tuples == want
        assert eval_formula(to_prenex(f), {}, k).tuples == want


def test_eval_formula_matches_holds_over_every_point():
    f = Formula(Exists("y", Eq(parse_poly("y^2 - x*z"), Poly.constant(0))),
                free_vars=("x", "z"))
    for q in (5, 8, 9):
        k = field_from_order(q)
        want = {(x, z) for x in k.elements() for z in k.elements()
                if holds(f.body, {"x": x, "z": z}, k)}
        assert eval_formula(f, {}, k).tuples == want
