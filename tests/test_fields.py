"""Exact-algebra foundation: fields, power residues, factor profiles."""

import math
import random
from fractions import Fraction

import pytest

from galstrat import errors
from galstrat.errors import (
    CapExceeded,
    DenominatorNotInvertible,
    IncompatibleModulus,
    MissingVariable,
    NonPrime,
    NotSquarefree,
    ZeroInput,
)
from galstrat.fields import (
    distinct_degree_profile,
    is_prime,
    make_field,
    power_residue,
)
from galstrat.formulas import eval_formula, parse_formula
from galstrat.jets import JetTower, count_jets, jet_ideal
from galstrat.polynomials import parse_poly, poly_eval


# -- independent oracles -------------------------------------------------------

def multiplicative_order(k, g):
    n, x = 1, g
    while x != 1:
        x = k.mul(x, g)
        n += 1
        assert n <= k.q
    return n


def fp_poly_has_root_free_factorization(coeffs, p):
    """Trial division oracle: is the monic polynomial irreducible over F_p?"""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p ** d):
            divisor = []
            m = enc
            for _ in range(d):
                divisor.append(m % p)
                m //= p
            divisor.append(1)
            # long division
            rem = list(coeffs)
            while len(rem) >= len(divisor) and any(rem):
                lead = rem[-1]
                shift = len(rem) - len(divisor)
                for i, c in enumerate(divisor):
                    rem[shift + i] = (rem[shift + i] - lead * c) % p
                while rem and rem[-1] == 0:
                    rem.pop()
            if not any(rem):
                return False
    return True


def test_make_field_f5_generator_by_exhaustive_order_check():
    k = make_field(5)
    # oracle: orders of 2, 3, 4 in F_5^*
    orders = {g: multiplicative_order(k, g) for g in (2, 3, 4)}
    assert orders == {2: 4, 3: 4, 4: 2}
    assert k.gen == 2  # smallest primitive root


def test_make_field_f2_trivial_unit_group():
    assert make_field(2).gen == 1


def test_make_field_f9_smallest_irreducible_modulus():
    k = make_field(3, 2)
    assert k.q == 9
    # oracle: enumerate monic quadratics over F_3 in encoding order
    first = None
    for enc in range(9):
        coeffs = [enc % 3, enc // 3, 1]
        if fp_poly_has_root_free_factorization(coeffs, 3):
            first = tuple(coeffs)
            break
    assert first is not None
    assert k.modulus == first
    assert multiplicative_order(k, k.gen) == 8


def test_make_field_errors():
    with pytest.raises(NonPrime):
        make_field(6)
    with pytest.raises(CapExceeded):
        make_field(2, 17)  # 2^17 over the default cap


def test_field_axioms_small_extensions():
    for p, e in ((2, 2), (3, 2), (5, 2), (2, 3)):
        k = make_field(p, e)
        for a in k.elements():
            assert k.add(a, 0) == a
            assert k.mul(a, 1) == a
            assert k.add(a, k.neg(a)) == 0
            if a:
                assert k.mul(a, k.inv(a)) == 1
        for a in k.elements():
            for b in k.elements():
                assert k.add(a, b) == k.add(b, a)
                assert k.mul(a, b) == k.mul(b, a)


def test_frobenius_is_automorphism_fixing_prime_field():
    qs = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4),
          (5, 2), (7, 2)]
    for p, e in qs:
        k = make_field(p, e)
        assert k.q <= 81 or (p, e) in ((2, 5), (2, 6))
        for a in k.elements():
            for b in k.elements():
                assert k.frobenius(k.add(a, b)) == k.add(k.frobenius(a), k.frobenius(b))
                assert k.frobenius(k.mul(a, b)) == k.mul(k.frobenius(a), k.frobenius(b))
        fixed = {a for a in k.elements() if k.frobenius(a) == a}
        assert fixed == set(range(p))


def test_poly_eval_examples():
    k5 = make_field(5)
    f = parse_poly("x*y - 1")
    assert poly_eval(f, {"x": 2, "y": 3}, k5) == 0
    g = parse_poly("x^2 + 1")
    assert poly_eval(g, {"x": 2}, k5) == 0
    h = parse_poly("1/2*x")
    assert poly_eval(h, {"x": 3}, k5) == 4


def test_poly_eval_errors():
    k5 = make_field(5)
    f = parse_poly("x + y")
    with pytest.raises(MissingVariable):
        poly_eval(f, {"x": 1}, k5)
    g = parse_poly("1/5*x")
    with pytest.raises(DenominatorNotInvertible):
        poly_eval(g, {"x": 1}, k5)


def test_power_residue_examples():
    k7 = make_field(7)
    assert power_residue(4, 2, k7) == 0   # 4^3 = 64 = 1 mod 7
    assert power_residue(3, 2, k7) == 1   # 3^3 = 27 = -1 mod 7
    for n in (1, 2, 3, 6):
        assert power_residue(1, n, k7) == 0


def test_power_residue_errors():
    k7 = make_field(7)
    with pytest.raises(ZeroInput):
        power_residue(0, 2, k7)
    with pytest.raises(IncompatibleModulus):
        power_residue(3, 4, k7)  # 4 does not divide 6


def test_power_residue_additivity():
    rng = random.Random(7)
    for q, e in ((7, 1), (13, 1), (3, 2), (5, 2)):
        k = make_field(q, e)
        divisors = [n for n in range(1, k.q) if (k.q - 1) % n == 0]
        for _ in range(50):
            n = rng.choice(divisors)
            c = rng.randrange(1, k.q)
            d = rng.randrange(1, k.q)
            lhs = power_residue(k.mul(c, d), n, k)
            rhs = (power_residue(c, n, k) + power_residue(d, n, k)) % n
            assert lhs == rhs


def brute_force_factor_degrees(coeffs, k):
    """Oracle: degrees of irreducible factors by root-stripping over F_q
    extensions is too heavy; instead divide by all monic irreducibles of
    low degree found by root/irreducibility testing over F_q itself."""
    # count roots in F_q with multiplicity stripped by exact division
    from galstrat.fields import fq_divmod, fq_trim
    coeffs = fq_trim(coeffs)
    degrees = []
    # strip linear factors
    changed = True
    while changed and len(coeffs) > 1:
        changed = False
        for r in k.elements():
            val = 0
            for c in reversed(coeffs):
                val = k.add(k.mul(val, r), c)
            if val == 0:
                coeffs = fq_divmod(coeffs, [k.neg(r), 1], k)[0]
                degrees.append(1)
                changed = True
                break
    if len(coeffs) == 2:
        degrees.append(1)
        coeffs = [1]
    # whatever remains has no roots; try quadratic factors by brute force
    while len(coeffs) - 1 >= 2:
        deg = len(coeffs) - 1
        found = False
        for c0 in k.elements():
            for c1 in k.elements():
                q_, rem = fq_divmod(coeffs, [c0, c1, 1], k)
                if not rem:
                    degrees.append(2)
                    coeffs = q_
                    found = True
                    break
            if found:
                break
        if not found:
            degrees.append(deg)
            break
    return sorted(degrees)


def test_distinct_degree_profile_examples():
    k5 = make_field(5)
    assert distinct_degree_profile([k5.neg(1), 0, 1], k5) == [1, 1]   # x^2 - 1
    assert distinct_degree_profile([k5.neg(2), 0, 1], k5) == [2]      # x^2 - 2
    k3 = make_field(3)
    assert distinct_degree_profile([0, k3.neg(1), 0, 1], k3) == [1, 1, 1]  # x^3 - x


def test_distinct_degree_profile_against_trial_division_oracle():
    rng = random.Random(11)
    for q in (2, 3, 5, 7):
        k = make_field(q)
        for _ in range(30):
            deg = rng.randrange(1, 5)
            coeffs = [rng.randrange(k.q) for _ in range(deg)] + [1]
            from galstrat.fields import fq_gcd, fq_derivative
            if len(fq_gcd(coeffs, fq_derivative(coeffs, k), k)) != 1:
                continue  # not squarefree; profile precondition fails
            got = distinct_degree_profile(list(coeffs), k)
            assert sum(got) == deg
            want = brute_force_factor_degrees(list(coeffs), k)
            if max(want, default=0) <= 2 or deg <= 3:
                assert got == want


def test_distinct_degree_profile_rejects_non_squarefree():
    k5 = make_field(5)
    with pytest.raises(NotSquarefree):
        distinct_degree_profile([1, 2, 1], k5)  # (x+1)^2
    with pytest.raises(NotSquarefree):
        distinct_degree_profile([3], k5)  # constant


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


# -- the enumeration budget --------------------------------------------------------

SEARCHES = {
    "eval_formula": lambda k, budget: eval_formula(parse_formula("x = 0"), {}, k, budget),
    "JetTower.count": lambda k, budget: JetTower(jet_ideal([parse_poly("x*y")], 1),
                                                 {}, k, budget).count(1),
    "count_jets": lambda k, budget: count_jets(jet_ideal([parse_poly("x*y")], 1), {}, k, budget),
}


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_non_finite_budget_rejected(search, budget):
    # Each search is tiny, so only the budget check can stop it.
    SEARCHES[search](make_field(5), 24.0)
    with pytest.raises(errors.InvalidBudget):
        SEARCHES[search](make_field(5), budget)
