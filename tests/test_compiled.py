"""The compiled evaluation layer against its oracles.

Field add/neg against base-p digit arithmetic, Poly.compile against the
term-by-term reference evaluator and against exact rational evaluation
reduced mod p, Formula.compile and eval_formula (which solves linear
atoms) against a tree-walking evaluator, and the generated fiber scan of a
stratification against classifying each point with that evaluator.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galstrat import covers, polynomials
from galstrat.covers import CoverSpec
from galstrat.errors import (
    DenominatorNotInvertible,
    GalstratError,
    IncompatibleModulus,
    MissingVariable,
    PartitionViolation,
    PointOffStratum,
)
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
from galstrat.groups import ConjDomain, cyclic_group
from galstrat.polynomials import Poly, parse_poly
from galstrat.stratifications import GaloisStratification

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


# -- the generated fiber scan ----------------------------------------------------------

# Names that the scan's own source uses; as coordinates or base parameters
# they must not shadow anything.
SCAN_NAMES = ("for", "p", "q", "points", "v0", "c0")
SCAN_BASE = ("b0", "log")
SCAN_FIELDS = [2, 3, 5, 7, 11, 13, 31, 53, 97, 4, 8, 9, 16, 25, 27, 49, 125, 625, 3125]
Z3 = cyclic_group(3)


def scan_polys(variables, max_exp=2):
    """One to three terms, mostly in the coordinates; a denominator is now
    and then divisible by p."""
    exponents = [st.sampled_from([0, 0, 0, 1]) if v in SCAN_BASE else st.integers(0, max_exp)
                 for v in variables]
    terms = st.dictionaries(st.tuples(*exponents), linear_coefficients, min_size=1, max_size=3)
    return terms.map(lambda t: Poly(variables, t))


@st.composite
def scan_bodies(draw, free, bound, quantifiers, size=2):
    """Stratum bodies over `free`; a quantifier binds the next name of `bound`."""
    kinds = ["eq", "neq"] + (["not", "and", "or", "implies"] if size else [])
    kinds += ["exists", "forall"] if quantifiers and bound else []
    kind = draw(st.sampled_from(kinds))
    if kind in ("eq", "neq"):
        left, right = draw(scan_polys(free)), draw(scan_polys(free, max_exp=1))
        return (Eq if kind == "eq" else Neq)(left, right)
    if kind == "not":
        return Not(draw(scan_bodies(free, bound, quantifiers, size - 1)))
    if kind in ("exists", "forall"):
        var = bound[0]
        sub = draw(scan_bodies(free + (var,), bound[1:], quantifiers - 1, size))
        return (Exists if kind == "exists" else Forall)(var, sub)
    cls = {"and": And, "or": Or, "implies": Implies}[kind]
    return cls(draw(scan_bodies(free, bound, quantifiers, size - 1)),
               draw(scan_bodies(free, bound, quantifiers, size - 1)))


def parity_assign(s_point, a, k):
    return sum(a) % 3


@st.composite
def scan_covers(draw, stratum, coords):
    """A trivial, Kummer or tabulated cover of the stratum, and a domain."""
    kind = draw(st.sampled_from(["trivial", "kummer", "bare_kummer", "tabulated"]))
    if kind == "trivial":
        cover = CoverSpec.trivial(stratum)
    elif kind == "tabulated":
        cover = CoverSpec.tabulated(Z3, stratum, parity_assign)
    else:
        n = draw(st.sampled_from([2, 3, 4, 1]))
        f = draw(scan_polys(coords + SCAN_BASE))
        # Default admissibility is q = 1 mod n; with every q admitted, a q
        # with n not dividing q - 1 reaches the power residue.
        admissible = draw(st.sampled_from([None, covers.ALL_PRIMES]))
        if kind == "kummer":  # the stratum is conjoined with f != 0
            cover = CoverSpec.kummer(n, f, stratum, admissible=admissible)
        else:  # f may vanish on the stratum
            cover = CoverSpec("kummer", cyclic_group(n), stratum,
                              admissible or covers.AdmissiblePrimes([(n, 1 % n)]), n=n, f=f)
    subs = sorted(cover.group.cyclic_subgroups(), key=sorted)
    size = draw(st.sampled_from([1, 0]))
    return cover, ConjDomain(cover.group, draw(st.lists(st.sampled_from(subs), unique=True,
                                                         min_size=size)))


@st.composite
def scan_cases(draw):
    """(stratification, s_point, field): a decision list of bodies is a
    partition; now and then the raw bodies overlap or leave gaps."""
    k = field_from_order(draw(st.sampled_from(SCAN_FIELDS)))
    names = draw(st.permutations(SCAN_NAMES))
    m = min(draw(st.sampled_from([1, 2, 0])), 2 if k.q <= 31 else 1)
    coords = tuple(names[:m])
    quantifiers = 1 if k.q <= 27 else 0
    conds = [draw(scan_bodies(coords + SCAN_BASE, tuple(names[m:]), quantifiers))
             for _ in range(draw(st.sampled_from([1, 2, 0])))]
    if draw(st.sampled_from([True] * 4 + [False])):
        bodies, rest = [], None
        for cond in conds:
            bodies.append(cond if rest is None else And(rest, cond))
            rest = Not(cond) if rest is None else And(rest, Not(cond))
        bodies.append(rest if rest is not None else Eq(Poly.constant(0), Poly.constant(0)))
    else:
        bodies = conds
    strata = [draw(scan_covers(Formula(body, base_params=SCAN_BASE, free_vars=coords), coords))
              for body in bodies]
    if draw(st.booleans()):  # never reached: its cover may not be admissible
        never = Formula(Eq(Poly.constant(0), Poly.constant(1)), SCAN_BASE, coords)
        strata.append((CoverSpec.kummer(5, Poly.constant(1), never),
                       ConjDomain.full(cyclic_group(5))))
    s_point = {v: draw(elements(k)) for v in SCAN_BASE
               if draw(st.sampled_from([True] * 9 + [False]))}
    return GaloisStratification(coords, strata, base_params=SCAN_BASE), s_point, k


def residue_oracle(c, n, k):
    """The i in Z/n with c^((q-1)/n) = gen^(i (q-1)/n), by search."""
    if c == 0:
        raise PointOffStratum("Kummer function vanishes on the stratum")
    if (k.q - 1) % n:
        raise IncompatibleModulus(n)
    step = (k.q - 1) // n
    [i] = [i for i in range(n) if k.pow(c, step) == k.pow(k.gen, i * step)]
    return i


def classify(strat, s_point, k, point):
    """(stratum index, membership) of one point by tree-walking each stratum."""
    env = {**k.embed_point(s_point), **dict(zip(strat.coords, point))}
    hits = [i for i, (cover, _) in enumerate(strat.strata)
            if holds(cover.stratum.body, env, k)]
    if len(hits) != 1:
        raise PartitionViolation(point, len(hits))
    cover, con = strat.strata[hits[0]]
    if con.is_empty():
        return hits[0], False
    cover.admissible.require(k.q)
    if cover.kind == "trivial":
        element = 0
    elif cover.kind == "kummer":
        element = residue_oracle(eval_reference(cover.data["f"], env, k), cover.data["n"], k)
    else:
        element = cover.data["assign"](s_point, tuple(env[v] for v in cover.stratum.free_vars), k)
    return hits[0], cover.group.cyclic_subgroup(element) in con


def scan_outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except PartitionViolation as exc:
        return ("error", PartitionViolation, tuple(exc.point), exc.count)
    except GalstratError as exc:
        return ("error", type(exc))


@settings(max_examples=150, deadline=None)
@given(scan_cases(), st.data())
def test_fiber_scan_matches_pointwise_classification(case, data):
    strat, s_point, k = case
    points = list(itertools.product(range(k.q), repeat=len(strat.coords)))

    def oracle():
        return sorted(a for a in points if classify(strat, s_point, k, a)[1])

    assert (scan_outcome(lambda: sorted(strat.galois_set(s_point, k).tuples))
            == scan_outcome(oracle))
    a = data.draw(st.sampled_from(points))
    index = scan_outcome(lambda: classify(strat, s_point, k, a)[0])
    if index[0] == "value" or index[1] is PartitionViolation:
        assert scan_outcome(strat.stratum_of, s_point, a, k) == index
    assert (scan_outcome(strat.member, s_point, a, k)
            == scan_outcome(lambda: classify(strat, s_point, k, a)[1]))


def translated_strat(x, y, shift):
    """x + shift = y^2 with y != 0, under a Kummer cover of x + shift, and
    its complement."""
    atom = Eq(Poly.variable(x, (x, y)) + shift, Poly.variable(y, (x, y)) ** 2)
    inside = Formula(And(atom, Neq(Poly.variable(y), Poly.constant(0))), free_vars=(x, y))
    outside = Formula(Not(inside.body), free_vars=(x, y))
    return GaloisStratification((x, y), [
        (CoverSpec.kummer(2, Poly.variable(x) + shift, inside),
         ConjDomain(cyclic_group(2), [frozenset({0})])),
        (CoverSpec.trivial(outside), ConjDomain.empty(cyclic_group(1)))])


def test_translated_inputs_share_one_scan():
    # Names and coefficients are arguments, so a translated and renamed copy
    # of a stratification runs the same compiled scan.
    from galstrat.scan import ScanSource

    k = field_from_order(13)
    one, two = translated_strat("b", "a", 3), translated_strat("points", "for", 7)
    make_one, consts_one = ScanSource(one, k, ()).plan(False)
    make_two, consts_two = ScanSource(two, k, ()).plan(False)
    assert make_one is make_two and consts_one != consts_two
    shifted = {(b, a) for b, a in one.galois_set({}, k).tuples}
    assert shifted == {((b + 4) % 13, a) for b, a in two.galois_set({}, k).tuples}


def test_translated_extension_inputs_share_one_inlined_scan():
    # Over an extension field the atoms and the Kummer f are logarithms
    # computed in the scan itself, so no closure reads an env, and copies
    # over F_49 and F_3125 run one compiled scan.
    from galstrat.scan import ScanSource

    makes = set()
    for q, names, shift in [(49, ("b", "a"), 3), (49, ("points", "for"), 5),
                            (3125, ("b", "a"), 2), (3125, ("log", "zech"), 4)]:
        source = ScanSource(translated_strat(*names, shift), field_from_order(q), ())
        makes.add(source.plan(False)[0])
        assert not source.uses_env
    assert len(makes) == 1
    k, strat = field_from_order(49), translated_strat("b", "a", 3)
    points = itertools.product(range(k.q), repeat=2)
    assert strat.galois_set({}, k).tuples == {
        a for a in points if classify(strat, {}, k, a)[1]}


def test_kummer_zero_on_its_stratum_raises_like_the_oracle():
    # f = x - 1 vanishes at x = 1, which the stratum x != 2 holds: the
    # inlined residue raises where the oracle does, and nowhere else.
    from galstrat.scan import ScanSource

    k, x = field_from_order(25), Poly.variable("x")
    inside = Formula(Neq(x, Poly.constant(2)), free_vars=("x",))
    cover = CoverSpec("kummer", cyclic_group(2), inside, covers.AdmissiblePrimes([(2, 1)]),
                      n=2, f=x - 1)
    strat = GaloisStratification(("x",), [
        (cover, ConjDomain.full(cyclic_group(2))),
        (CoverSpec.trivial(Formula(Eq(x, Poly.constant(2)), free_vars=("x",))),
         ConjDomain.empty(cyclic_group(1)))])
    source = ScanSource(strat, k, ())
    source.plan(False)
    assert not source.uses_env

    def message(fn, *args):
        try:
            return ("value", fn(*args))
        except PointOffStratum as exc:
            return ("error", str(exc))

    assert message(strat.galois_set, {}, k) == ("error", covers.KUMMER_ZERO)
    for a in range(k.q):
        assert (message(strat.member, {}, (a,), k)
                == message(lambda: classify(strat, {}, k, (a,))[1]))
    assert message(strat.member, {}, (1,), k)[0] == "error"


def test_bad_denominator_over_an_extension_field_raises_at_the_same_point():
    # y/3 over F_9 is read only where x = 2 holds, through the stratum's
    # compiled closure: membership raises at those points and at no other.
    k = field_from_order(9)
    x, y = Poly.variable("x", ("x", "y")), Poly.variable("y", ("x", "y"))
    body = And(Eq(x, Poly.constant(2)), Eq(y * Fraction(1, 3), Poly.constant(0)))
    strat = GaloisStratification(("x", "y"), [
        (CoverSpec.trivial(Formula(body, free_vars=("x", "y"))),
         ConjDomain.full(cyclic_group(1))),
        (CoverSpec.trivial(Formula(Not(body), free_vars=("x", "y"))),
         ConjDomain.empty(cyclic_group(1)))])
    raised = set()
    for a in itertools.product(range(k.q), repeat=2):
        outcome = scan_outcome(strat.member, {}, a, k)
        assert outcome == scan_outcome(lambda: classify(strat, {}, k, a)[1])
        if outcome == ("error", DenominatorNotInvertible):
            raised.add(a)
    assert raised == {(2, y) for y in range(k.q)}
    assert scan_outcome(strat.galois_set, {}, k) == ("error", DenominatorNotInvertible)


@pytest.mark.parametrize("q", [97, 9])
def test_deep_stratum_scans_like_its_closure(q):
    # 250 atoms joined by & parse to a chain nested 250 deep, deeper than
    # CPython lets an expression nest; such a body is tested through its
    # compiled closure.
    k = field_from_order(q)
    x, y = Poly.variable("x", ("x", "y")), Poly.variable("y", ("x", "y"))
    body = Neq(x, y)
    for j in range(1, 250):
        body = And(body, Neq(x + j, y * j))
    inside = Formula(body, free_vars=("x", "y"))
    strat = GaloisStratification(("x", "y"), [
        (CoverSpec.trivial(inside), ConjDomain.full(cyclic_group(1))),
        (CoverSpec.trivial(Formula(Not(body), free_vars=("x", "y"))),
         ConjDomain.empty(cyclic_group(1)))])
    test = inside.compile(k)
    expected = [a for a in itertools.product(range(k.q), repeat=2)
                if test(dict(zip(("x", "y"), a)))]
    assert 0 < len(expected) < k.q ** 2
    assert strat.galois_set({}, k).tuples == frozenset(expected)
    assert strat.stratum_of({}, expected[0], k) == 0


def test_thousands_of_strata_scan():
    # The partition count adds one test per stratum; written as one flat
    # sum of 3001 terms it would exceed CPython's compiler recursion limit.
    k = field_from_order(3001)
    x = Poly.variable("x")
    strat = GaloisStratification(("x",), [
        (CoverSpec.trivial(Formula(Eq(x, Poly.constant(c)), free_vars=("x",))),
         ConjDomain.full(cyclic_group(1))) for c in range(k.q)])
    assert strat.stratum_of({}, (17,), k) == 17
    assert strat.member({}, (2999,), k)
