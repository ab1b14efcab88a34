"""Formula engine: parsing, prenex, brute-force semantics, bijections."""

import math
import random

import pytest

from galstrat.errors import (
    BudgetExceeded,
    FormulaSyntaxError,
    UnboundVariableCollision,
    VariableMismatch,
)
from galstrat import formulas
from galstrat.fields import make_field
from galstrat.formulas import (
    And,
    Eq,
    Exists,
    Forall,
    Neq,
    Not,
    Or,
    bijection_fiber_report,
    check_definable_bijection,
    eval_formula,
    parse_formula,
    substitute_formula,
    to_prenex,
)
from galstrat.polynomials import Poly


def test_parse_exists_conjunction():
    f = parse_formula("E x (x*x = z & ~(x = 0))")
    assert isinstance(f.body, Exists)
    assert isinstance(f.body.sub, And)
    assert f.free_vars == ("z",)


def test_parse_sentence():
    f = parse_formula("A y (y = y)")
    assert isinstance(f.body, Forall)
    assert f.is_sentence()


def test_parse_unbalanced_raises():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("E x (x = 0")


def test_parse_print_round_trip():
    for text in ["E x (x^2 = z & ~(x = 0))",
                 "A y (y = y)",
                 "(x = 0 | y != 1) -> E w (w*x = y)"]:
        f = parse_formula(text)
        assert str(parse_formula(str(f))) == str(f)


def test_quantifier_cannot_bind_base_param():
    with pytest.raises(UnboundVariableCollision):
        parse_formula("E z (z = 0)", base_params=("z",))


def test_duplicate_binders_renamed():
    f = parse_formula("E x (x = 0 & E x (x = 1))")
    k = make_field(3)
    assert eval_formula(f, {}, k).is_true_sentence()


def test_free_and_bound_same_name():
    f = parse_formula("x = 0 & E x (x = 1)")
    # the outer x stays free; the binder is renamed away from it
    assert f.free_vars == ("x",)
    k = make_field(3)
    assert eval_formula(f, {}, k).sorted_tuples() == [(0,)]


# -- prenex ---------------------------------------------------------------------

def test_prenex_negated_exists_becomes_forall():
    f = to_prenex(parse_formula("~(E x (x = z))"))
    assert isinstance(f.body, Forall)
    assert isinstance(f.body.sub, Neq)


def test_prenex_capture_avoiding():
    f = parse_formula("E x (x = z) & x = 1", free_vars=("z", "x"))
    p = to_prenex(f)
    assert isinstance(p.body, Exists)
    assert p.body.var != "x"  # fresh name for the bound variable
    for q in (3, 5):
        k = make_field(q)
        assert eval_formula(f, {}, k).tuples == eval_formula(p, {}, k).tuples


def test_prenex_idempotent_on_prenex_input():
    f = to_prenex(parse_formula("E x A y (x*y = z | y != 0)"))
    again = to_prenex(f)
    assert str(again) == str(f)


def test_prenex_matrix_is_dnf():
    def is_literal(node):
        return isinstance(node, (Eq, Neq))

    def is_conjunct(node):
        if isinstance(node, And):
            return is_conjunct(node.left) and is_conjunct(node.right)
        return is_literal(node)

    def is_dnf(node):
        if isinstance(node, Or):
            return is_dnf(node.left) and is_dnf(node.right)
        return is_conjunct(node)

    for text in ["(x = 0 | y = 1) & (x != 2 | y = 0)",
                 "~((x = 0 & y = 1) | x = 2)",
                 "E x ((x = z | x = 0) & (x != 1 -> z = 0))"]:
        p = to_prenex(parse_formula(text))
        matrix = p.body
        from galstrat.formulas import Exists, Forall
        while isinstance(matrix, (Exists, Forall)):
            matrix = matrix.sub
        assert is_dnf(matrix), text


def random_formula(rng, depth, variables):
    if depth == 0:
        def atom():
            coefs = [rng.randrange(-2, 3) for _ in range(3)]
            from galstrat.polynomials import Poly
            left = Poly(variables, {
                (1, 0): coefs[0], (0, 1): coefs[1], (0, 0): coefs[2]})
            right = Poly(variables, {(2, 0): rng.randrange(0, 2), (0, 0): rng.randrange(-1, 2)})
            return (Eq if rng.random() < 0.5 else Neq)(left, right)
        return atom()
    roll = rng.random()
    if roll < 0.3:
        return And(random_formula(rng, depth - 1, variables),
                   random_formula(rng, depth - 1, variables))
    if roll < 0.6:
        return Or(random_formula(rng, depth - 1, variables),
                  random_formula(rng, depth - 1, variables))
    if roll < 0.8:
        return Not(random_formula(rng, depth - 1, variables))
    return random_formula(rng, depth - 1, variables)


def test_boolean_soundness_randomized():
    from galstrat.formulas import Formula
    rng = random.Random(19)
    variables = ("x", "y")
    k = make_field(5)
    for _ in range(40):
        b1 = random_formula(rng, 2, variables)
        b2 = random_formula(rng, 2, variables)
        f1 = Formula(b1, free_vars=variables)
        f2 = Formula(b2, free_vars=variables)
        z1 = eval_formula(f1, {}, k).tuples
        z2 = eval_formula(f2, {}, k).tuples
        union = eval_formula(Formula(Or(b1, b2), free_vars=variables), {}, k).tuples
        inter = eval_formula(Formula(And(b1, b2), free_vars=variables), {}, k).tuples
        comp = eval_formula(Formula(Not(b1), free_vars=variables), {}, k).tuples
        assert union == z1 | z2
        assert inter == z1 & z2
        assert comp == {t for t in __import__("itertools").product(range(5), repeat=2)} - z1
        # Grothendieck counting relation for same free variables
        assert len(union) + len(inter) == len(z1) + len(z2)


def test_prenex_preserves_semantics_randomized():
    from galstrat.formulas import Formula
    rng = random.Random(23)
    texts = [
        "~(E x (x^2 = z)) -> A y (y = y)",
        "E x (x = z) & E x (x^2 = z)",
        "A x (x = 0 | x != 0) & (E y (y^2 = z) -> z = 0 | z != 0)",
        "~(A x E y (x*y = z))",
    ]
    for text in texts:
        f = parse_formula(text)
        p = to_prenex(f)
        for q in (2, 3, 5):
            k = make_field(q)
            assert eval_formula(f, {}, k).tuples == eval_formula(p, {}, k).tuples, text


# -- evaluation ---------------------------------------------------------------------

def test_eval_examples():
    phi = parse_formula("E x (x^2 = z & ~(x = 0))")
    assert eval_formula(phi, {}, make_field(5)).sorted_tuples() == [(1,), (4,)]
    assert eval_formula(phi, {}, make_field(3)).sorted_tuples() == [(1,)]
    sent = parse_formula("A x E y (y^3 = x)")
    k5 = make_field(5)
    # oracle: cubing is a bijection on F_5 because gcd(3, 4) = 1
    assert {k5.pow(y, 3) for y in k5.elements()} == set(k5.elements())
    assert eval_formula(sent, {}, k5).is_true_sentence()


def test_eval_budget():
    f = parse_formula("E a E b E c E d (a*b*c*d = z)")
    with pytest.raises(BudgetExceeded):
        eval_formula(f, {}, make_field(97), budget=24.0)


def test_missing_base_param():
    f = parse_formula("x = z", base_params=("z",))
    with pytest.raises(VariableMismatch):
        eval_formula(f, {}, make_field(5))


def test_substitute_does_not_capture_the_variables_of_values():
    # Captured, E y (y = s) with s -> y would be the sentence E y (y = y).
    f = parse_formula("E y (y = s)", base_params=("s",))
    with pytest.raises(VariableMismatch, match=r"\['y'\] not declared"):
        substitute_formula(f, {"s": Poly.variable("y")})
    f = parse_formula("E y (y*s = 1)", base_params=("s",), free_vars=("x",))
    with pytest.raises(VariableMismatch, match=r"\['y'\] not declared"):
        substitute_formula(f, {"s": Poly.variable("y")})
    # Without capture the value's variable must be declared too.
    with pytest.raises(VariableMismatch, match=r"\['t'\] not declared"):
        substitute_formula(f, {"s": Poly.variable("t")})
    # A declared variable is never a binder's name, so it stays free.
    g = substitute_formula(f, {"s": Poly.variable("x")})
    assert (str(g), g.free_vars, g.base_params) == ("E y (y*x = 1)", ("x",), ())
    assert eval_formula(g, {}, make_field(5)).sorted_tuples() == [(x,) for x in range(1, 5)]
    # A name that does not occur takes any value.
    f = parse_formula("x = s", base_params=("s", "t"))
    assert substitute_formula(f, {"t": Poly.variable("y")}).free_vars == ("x",)


# -- definable bijections --------------------------------------------------------------

def test_bijection_paper_instance_shifted_square():
    phi1 = parse_formula("x1^2 = z", base_params=("z",))
    phi2 = parse_formula("(x2 + 1)^2 = z", base_params=("z",))
    psi = parse_formula("x1 = x2 + 1", base_params=("z",))
    for q in (3, 5, 7):
        k = make_field(q)
        verdict = check_definable_bijection(
            psi, phi1, phi2, [k], [{"z": z} for z in range(q)])
        assert verdict.passed


def test_bijection_cardinality_failure():
    phi1 = parse_formula("x1 = 0")
    phi2 = parse_formula("x2 != 0")
    psi = parse_formula("x1 = x2")
    verdict = check_definable_bijection(psi, phi1, phi2, [make_field(5)], [{}])
    assert not verdict.passed
    field, s_point, witness = verdict.witness
    assert field.q == 5


def test_bijection_diagonal_identity():
    phi = parse_formula("x1^3 = x1", free_vars=("x1",))
    phi2 = parse_formula("x2^3 = x2", free_vars=("x2",))
    psi = parse_formula("x1 = x2")
    assert check_definable_bijection(psi, phi, phi2, [make_field(7)], [{}]).passed


def test_bijection_variable_mismatch():
    phi1 = parse_formula("x1 = 0")
    phi2 = parse_formula("x1 != 0")
    psi = parse_formula("x1 = x1")
    with pytest.raises(VariableMismatch):
        check_definable_bijection(psi, phi1, phi2, [make_field(5)], [{}])


def test_fiber_report_lists_every_fiber():
    phi1 = parse_formula("x1^2 = z", base_params=("z",))
    phi2 = parse_formula("(x2 + 1)^2 = z", base_params=("z",))
    psi = parse_formula("x1 = x2 + 1", base_params=("z",))
    k = make_field(5)
    report = bijection_fiber_report(psi, phi1, phi2, [(k, {"z": z}) for z in range(5)])
    assert len(report) == 5
    assert all(entry["passed"] for entry in report)
    sizes = [entry["sizes"] for entry in report]
    assert sizes[0] == (1, 1, 5)  # z=0: single root each; psi cuts the full line


def test_fiber_report_evaluates_a_parameter_free_formula_once_per_field(monkeypatch):
    phi1 = parse_formula("x1^2 = z", base_params=("z",))
    phi2 = parse_formula("(x2 + 1)^2 = z", base_params=("z",))
    psi = parse_formula("x1 = x2 + 1", base_params=("z",))
    fields = [make_field(5), make_field(2, 2)]
    points = [{"z": z} for z in range(4)]
    evaluated = []
    evaluate = formulas.eval_formula
    monkeypatch.setattr(formulas, "eval_formula",
                        lambda f, *args: evaluated.append(f) or evaluate(f, *args))
    report = bijection_fiber_report(psi, phi1, phi2, [(k, p) for k in fields for p in points])
    assert len(evaluated) == len(fields) * (1 + 2 * len(points))
    assert [(e["field"], e["s_point"]) for e in report] == [(k, p) for k in fields for p in points]
    for entry in report:
        fiber = (entry["s_point"], entry["field"])
        assert entry["passed"]
        assert entry["sizes"] == tuple(len(evaluate(f, *fiber)) for f in (phi1, phi2, psi))
    # A cached set still checks the base point of every fiber.
    with pytest.raises(VariableMismatch):
        bijection_fiber_report(parse_formula("x1 = x2", base_params=("z",)),
                               parse_formula("x1 = 0", base_params=("z",)),
                               parse_formula("x2 = 0", base_params=("z",)),
                               [(k, p) for k in fields for p in ({"z": 0}, {})])
