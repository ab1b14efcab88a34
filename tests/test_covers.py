"""Cover semantics: decomposition classes, factoring cross-check, density."""

import itertools

import pytest

from galstrat.covers import (
    AdmissiblePrimes,
    CoverSpec,
    fiber_decomposition_order,
    kummer_fiber_coeffs,
)
from galstrat.errors import (
    InadmissiblePrime,
    NotSquarefree,
    PointOffStratum,
    UnequalDegrees,
)
from galstrat.fields import is_prime, make_field
from galstrat.formulas import eval_formula, parse_formula
from galstrat.groups import ConjDomain, cyclic_group, trivial_group
from galstrat.stratifications import GaloisStratification, product


def admissible_orders(n, bound):
    """Prime powers q <= bound with q = 1 mod n."""
    out = []
    for q in range(3, bound + 1):
        p = 2
        while p * p <= q and q % p:
            p += 1
        if p * p > q:
            p = q
        m, e = q, 0
        while m % p == 0:
            m //= p
            e += 1
        if m == 1 and q % n == 1:
            out.append((p, e))
    return out


def test_decomposition_class_kummer_examples():
    k5 = make_field(5)
    gm = CoverSpec.kummer(2, "x", "~(x = 0)")
    assert gm.decomposition_class({}, (4,), k5) == frozenset({0})   # 4 = 2^2
    assert gm.decomposition_class({}, (2,), k5) == frozenset({0, 1})  # nonsquare
    triv = CoverSpec.trivial(parse_formula("x = x", free_vars=("x",)))
    assert triv.decomposition_class({}, (3,), k5) == frozenset({0})


def test_decomposition_class_off_stratum():
    k5 = make_field(5)
    gm = CoverSpec.kummer(2, "x", "~(x = 0)")
    with pytest.raises(PointOffStratum):
        gm.decomposition_class({}, (0,), k5)


def test_decomposition_class_inadmissible_prime():
    k = make_field(7)  # 7 != 1 mod 4
    quartic = CoverSpec.kummer(4, "x", "~(x = 0)")
    with pytest.raises(InadmissiblePrime):
        quartic.decomposition_class({}, (1,), k)


def test_fiber_decomposition_order_examples():
    k5 = make_field(5)
    assert fiber_decomposition_order([k5.neg(4), 0, 1], k5) == 1     # u^2 - 4 splits
    assert fiber_decomposition_order([k5.neg(2), 0, 1], k5) == 2     # u^2 - 2
    assert fiber_decomposition_order([k5.neg(2), 0, 0, 0, 1], k5) == 4  # u^4 - 2


def test_fiber_decomposition_order_rejects_unequal():
    k5 = make_field(5)
    # (u - 1)(u^2 - 2) has factor degrees {1, 2}
    coeffs = [2, k5.neg(2), k5.neg(1), 1]
    with pytest.raises(UnequalDegrees):
        fiber_decomposition_order(coeffs, k5)


def test_kummer_consistency_class_order_vs_factoring():
    """Power-residue route and fiber-factoring route agree on every point."""
    for n in (2, 3, 4):
        cover = CoverSpec.kummer(n, "x", "~(x = 0)")
        for p, e in admissible_orders(n, 100):
            k = make_field(p, e)
            for a in range(1, k.q):
                cls = cover.decomposition_class({}, (a,), k)
                order = fiber_decomposition_order(kummer_fiber_coeffs(cover, {}, (a,), k), k)
                assert len(cls) == order, (n, k.q, a)


def test_density_every_class_realized():
    """Every cyclic subgroup of Z/n is a decomposition class of some point."""
    for n in (2, 3, 4):
        group = cyclic_group(n)
        cover = CoverSpec.kummer(n, "x", "~(x = 0)")
        for p, e in admissible_orders(n, 100):
            k = make_field(p, e)
            if k.q < n + 2:
                continue
            seen = {cover.decomposition_class({}, (a,), k) for a in range(1, k.q)}
            assert seen == set(group.cyclic_subgroups()), (n, k.q)


def test_trivial_cover_galois_set_matches_formula_eval():
    """Ring-formula/Galois-formula agreement on trivial covers."""
    phi = parse_formula("x^2 != 2 & ~(x = 0)")
    comp = parse_formula("~(x^2 != 2 & ~(x = 0))")
    one = trivial_group()
    strat = GaloisStratification(("x",), [
        (CoverSpec.trivial(phi), ConjDomain(one, [frozenset({0})])),
        (CoverSpec.trivial(comp), ConjDomain.empty(one)),
    ])
    for q in (3, 5, 7, 9):
        p = 3 if q == 9 else q
        e = 2 if q == 9 else 1
        k = make_field(p, e)
        assert strat.galois_set({}, k).tuples == eval_formula(phi, {}, k).tuples


def test_tabulated_cover_lookup():
    z2 = cyclic_group(2)
    table = {(5, (a,)): (1 if a in (2, 3) else 0) for a in range(5)}

    def assign(s_point, a, k):
        return table[(k.q, a)]

    cover = CoverSpec.tabulated(z2, parse_formula("x = x", free_vars=("x",)), assign)
    k5 = make_field(5)
    assert cover.decomposition_class({}, (2,), k5) == frozenset({0, 1})
    assert cover.decomposition_class({}, (1,), k5) == frozenset({0})


def test_admissible_primes_json_round_trip():
    adm = AdmissiblePrimes.from_json({"mod": [4, 1], "exclude": [2]})
    assert adm.admits(5) and adm.admits(13)
    assert not adm.admits(7) and not adm.admits(2)
    again = AdmissiblePrimes.from_json(adm.to_json())
    assert again.congruences == adm.congruences and again.exclude == adm.exclude
    with pytest.raises(InadmissiblePrime):
        adm.require(7)


def test_kummer_stratum_entails_nonvanishing():
    cover = CoverSpec.kummer(2, "x", "x = x")
    k5 = make_field(5)
    assert not cover.on_stratum({}, (0,), k5)  # f != 0 was conjoined
    assert cover.on_stratum({}, (2,), k5)


# -- per-fiber Frobenius maps ------------------------------------------------------------

def kummer_yx(n):
    """u^n = x*y + 1 over y != 0; the stratum names y first, then x."""
    return CoverSpec.kummer(n, "x*y + 1", "~(y = 0)")


def cube_class_cover():
    z3 = cyclic_group(3)
    return CoverSpec.tabulated(z3, parse_formula("z = z", free_vars=("z",)),
                               lambda s_point, a, k: a[0] * a[0] % 3)


def product_cover():
    """The cover of the product of kummer_yx(4) over (x, y) with the tabulated one over z."""
    left = GaloisStratification(("x", "y"), [(kummer_yx(4), ConjDomain.empty(cyclic_group(4)))])
    right = GaloisStratification(("z",), [(cube_class_cover(), ConjDomain.empty(cyclic_group(3)))])
    [(cover, _)] = product(left, right).strata
    return cover


@pytest.mark.parametrize("p,e", [(5, 1), (13, 1), (5, 2), (29, 1)])
@pytest.mark.parametrize("make_cover", [
    pytest.param(lambda: kummer_yx(2), id="kummer2"),
    pytest.param(lambda: kummer_yx(4), id="kummer4"),
    pytest.param(cube_class_cover, id="tabulated"),
    pytest.param(product_cover, id="product"),
])
def test_frobenius_map_matches_frobenius_element(make_cover, p, e):
    cover, k = make_cover(), make_field(p, e)
    frob = cover.frobenius_map({}, k)
    points = [a for a in itertools.product(range(k.q), repeat=len(cover.stratum.free_vars))
              if cover.on_stratum({}, a, k)]
    assert points
    for a in points:
        assert frob(a) == cover.frobenius_element({}, a, k), a


def test_frobenius_map_checks_admissibility_and_kummer_zeros():
    with pytest.raises(InadmissiblePrime):
        kummer_yx(4).frobenius_map({}, make_field(7))
    frob = kummer_yx(2).frobenius_map({}, make_field(5))
    with pytest.raises(PointOffStratum):
        frob((1, 4))  # y = 1, x = 4: x*y + 1 = 0
