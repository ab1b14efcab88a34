"""The compiled evaluation layer against its oracles.

Field add/neg against base-p digit arithmetic, Poly.compile against the
term-by-term reference evaluator and against exact rational evaluation
reduced mod p, and Formula.compile and eval_formula (which solves linear
atoms) against a tree-walking evaluator.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galstrat import polynomials
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


def eval_reference(f, assign, k):
    """Term-by-term field arithmetic; the oracle for Poly.compile."""
    for v in f.used_variables():
        if v not in assign:
            raise MissingVariable(v)
    acc = 0
    for expo, coef in f.terms.items():
        val = k.embed_fraction(coef)
        for v, e in zip(f.variables, expo):
            if e:
                val = k.mul(val, k.pow(assign[v], e))
        acc = k.add(acc, val)
    return acc


def holds(node, env, k):
    """Tree-walking truth of a formula body, polynomials evaluated term by term."""
    if isinstance(node, (Eq, Neq)):
        equal = (eval_reference(node.left, env, k)
                 == eval_reference(node.right, env, k))
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


def definable_set(f, s_point, k):
    """{t : holds(body, t)} over every point of F_q^m."""
    return {point for point in itertools.product(k.elements(), repeat=len(f.free_vars))
            if holds(f.body, {**s_point, **dict(zip(f.free_vars, point))}, k)}


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
    assert outcome(evaluate, assign) == outcome(eval_reference, f, assign, k)
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
        assert eval_formula(f, {}, k).tuples == definable_set(f, {}, k)


# -- solving linear atoms ---------------------------------------------------------------

LINEAR_FREE = ("x", "y")
LINEAR_NAMES = LINEAR_FREE + ("u", "w", "s")  # u, w bound; s a base parameter
LINEAR_FIELDS = [2, 3, 4, 5, 8, 9]

# Numerators and denominators that the characteristics 2, 3 and 5 divide.
linear_coefficients = st.builds(Fraction, st.integers(-6, 6),
                                st.sampled_from([1, 1, 1, 1, 2, 3, 5]))


@st.composite
def linear_polys(draw):
    """Mostly sums of c*v and constants; sometimes a monomial of degree 2."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        expo = [0] * len(LINEAR_NAMES)
        kind = draw(st.sampled_from(["constant"] + ["linear"] * 4 + ["square"]))
        for _ in range({"constant": 0, "linear": 1, "square": 2}[kind]):
            expo[draw(st.integers(0, len(LINEAR_NAMES) - 1))] += 1
        terms[tuple(expo)] = terms.get(tuple(expo), 0) + draw(linear_coefficients)
    return Poly(LINEAR_NAMES, terms)


@st.composite
def linear_matrices(draw, size=2):
    kind = draw(st.sampled_from(["c*v", "c*v", "eq", "neq"]
                                + (["and", "and", "or", "not"] if size else [])))
    if kind == "c*v":
        v = draw(st.sampled_from(LINEAR_NAMES[:4]))
        return Eq(draw(linear_coefficients) * Poly.variable(v, LINEAR_NAMES), draw(linear_polys()))
    if kind in ("eq", "neq"):
        return (Eq if kind == "eq" else Neq)(draw(linear_polys()), draw(linear_polys()))
    if kind == "not":
        return Not(draw(linear_matrices(size - 1)))
    return (And if kind == "and" else Or)(draw(linear_matrices(size - 1)),
                                         draw(linear_matrices(size - 1)))


@st.composite
def linear_formulas(draw):
    """Mostly existential: u and w bound by E or, now and then, by A."""
    body = draw(linear_matrices())
    for var in ("w", "u"):
        kind = draw(st.sampled_from([Exists] * 5 + [Forall]))
        body = kind(var, body)
    return Formula(body, base_params=("s",), free_vars=LINEAR_FREE)


@settings(max_examples=200, deadline=None)
@given(linear_formulas(), st.sampled_from(LINEAR_FIELDS), st.data())
def test_eval_formula_matches_holds_on_linear_atoms(f, q, data):
    k = field_from_order(q)
    s_point = {"s": data.draw(elements(k))}
    got = outcome(lambda: eval_formula(f, s_point, k).tuples)
    assert got == outcome(definable_set, f, s_point, k)


def _linear_case(text, q, solves):
    return pytest.param(text, q, solves, id=f"{text} over F_{q}")


LINEAR_CASES = [
    # The coefficient of x vanishes mod 3, so y is solved.
    _linear_case("3*x = y", 3, "y"),
    _linear_case("3*x = y + 3*x^2", 3, "y"),
    # A denominator that p divides: the scan raises where it reaches it.
    _linear_case("E u (x = u/3 + y)", 3, None),
    _linear_case("E u (x = u/3 + y)", 5, "x"),
    _linear_case("A u (x*u = y)", 5, None),
    _linear_case("E u (u = x) & A w (w*x = y)", 5, None),
    _linear_case("(x = y + 1 | y = 2*x) & x != s", 5, "x"),
    # One conjunct has no linear atom.
    _linear_case("x = y | x^2 = y^2", 5, None),
    _linear_case("x*y = 1 | x = 1", 5, None),
    # Two conjuncts are not below q = 2.
    _linear_case("x = y | x = y + 1", 2, None),
    _linear_case("x = y | x = y + 1", 3, "x"),
    # A base parameter in rest, and a bound variable solved.
    _linear_case("E u (x + s*u = y & u^2 = s)", 9, "x"),
    _linear_case("E u (x*y = u + s & u != 1)", 8, "u"),
    # Sibling binders: the prefix is longer than the quantifier depth, and
    # the solve step would enumerate as many variables as the budget charges.
    _linear_case("E u (x = u + y) & E w (w = x)", 5, None),
    _linear_case("E u E w (x = u + y & w = x)", 5, "x"),
]


@pytest.mark.parametrize("text,q,solves", LINEAR_CASES)
def test_eval_formula_solves_or_scans(text, q, solves):
    f = parse_formula(text, base_params=("s",), free_vars=LINEAR_FREE)
    k = field_from_order(q)
    plan = f.solve_plan(k)
    assert (plan and plan[0][1]) == solves
    for s in range(k.q):
        assert (outcome(lambda: eval_formula(f, {"s": s}, k).tuples)
                == outcome(definable_set, f, {"s": s}, k))


def count_evaluations(monkeypatch):
    """Calls of the evaluators that Poly.compile builds from now on."""
    calls = []
    compile_poly = polynomials._compile

    def counting(f, k):
        evaluate = compile_poly(f, k)

        def counted(env):
            calls.append(None)
            return evaluate(env)
        return counted

    monkeypatch.setattr(polynomials, "_compile", counting)
    return calls


def test_solving_takes_one_evaluation_per_point_and_atom(monkeypatch):
    # The benchmark's translated formulas: the determined variable is free,
    # so without solving it, both are q^2 scans per fiber.
    calls = count_evaluations(monkeypatch)
    k = field_from_order(243)
    squares = parse_formula("E x (x^2 = (z + 577) & ~(x = 0))")
    got = eval_formula(squares, {}, k).tuples
    assert len(calls) <= 3 * k.q
    c = k.embed_fraction(Fraction(577))
    assert got == {(k.sub(k.mul(x, x), c),) for x in k.elements() if x}

    calls.clear()
    k = field_from_order(27)
    psi = parse_formula("(x1 + 367) = (x2 + 379) + 1", base_params=("z",))
    got = eval_formula(psi, {"z": 5}, k).tuples
    assert len(calls) <= 3 * k.q
    shift = k.embed_fraction(Fraction(379 + 1 - 367))
    assert got == {(k.add(x2, shift), x2) for x2 in k.elements()}


def test_sibling_existentials_are_scanned(monkeypatch):
    # One conjunct, linear in x; solving x would enumerate u, w, t and r
    # (q^4 tuples) where the budget charges q^2 and the scan makes at most
    # q^2 evaluations per atom.
    calls = count_evaluations(monkeypatch)
    k = field_from_order(16)
    f = parse_formula("E u (x = u^2) & E w (w^2 = x + 1) & E t (t^2 = x + 2)"
                      " & E r (r^2 = x + 3)")
    assert f.solve_plan(k) is None
    got = eval_formula(f, {}, k).tuples
    assert len(calls) <= 2 * 4 * k.q ** 2  # two sides per atom
    assert got == definable_set(f, {}, k)
