"""Jet spaces: generators, counts vs the substitution oracle, truncation
images, Poincare series, empirical Greenberg constants, base change."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from galstrat import cli, jets
from galstrat.errors import BudgetExceeded
from galstrat.fields import make_field
from galstrat.jets import (
    GeometricSeries,
    arithmetic_series,
    count_jets,
    geometric_series_counts,
    igusa_series,
    jet_ideal,
    substitute_base,
    truncation_image,
)
from galstrat.motives import CountTable, MotiveClass, lefschetz_power, specialize
from galstrat.polynomials import Poly, parse_poly

F2, F3, F5 = make_field(2), make_field(3), make_field(5)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# -- independent substitution oracle ------------------------------------------------

def truncated_product(a, b, n, k):
    """Coefficients of a(t)*b(t) mod t^(n+1) with explicit convolution."""
    out = [0] * (n + 1)
    for i in range(n + 1):
        acc = 0
        for j in range(i + 1):
            acc = k.add(acc, k.mul(a[j], b[i - j]))
        out[i] = acc
    return out


def oracle_count_xy(n, k):
    """Brute force x(t)*y(t) = 0 mod t^(n+1) over all truncated pairs."""
    count = 0
    for a in itertools.product(range(k.q), repeat=n + 1):
        for b in itertools.product(range(k.q), repeat=n + 1):
            if all(c == 0 for c in truncated_product(a, b, n, k)):
                count += 1
    return count


def test_jet_ideal_xy_level1():
    ideal = jet_ideal([parse_poly("x*y")], 1)
    assert [str(g) for g in ideal.gens] == ["x_0*y_0", "x_0*y_1 + x_1*y_0"]
    assert ideal.jet_vars == ("x_0", "x_1", "y_0", "y_1")


def test_jet_ideal_free_line():
    ideal = jet_ideal([], 3, x_vars=("x",))
    assert ideal.gens == ()
    assert count_jets(ideal, {}, F3) == 3 ** 4


def test_jet_ideal_level0_reproduces_equations():
    eqs = [parse_poly("x*y - 1"), parse_poly("x + y")]
    ideal = jet_ideal(eqs, 0)
    assert ideal.gens[0] == parse_poly("x_0*y_0 - 1")
    assert ideal.gens[1] == parse_poly("x_0 + y_0")


def test_count_jets_matches_oracle_and_closed_forms():
    eqs = [parse_poly("x*y")]
    for k in (F2, F3, F5):
        q = k.q
        closed = [2 * q - 1, q * (3 * q - 2), q * q * (4 * q - 3)]
        for n in range(3):
            got = count_jets(jet_ideal(eqs, n), {}, k)
            assert got == oracle_count_xy(n, k)
            assert got == closed[n]


def test_count_jets_budget():
    ideal = jet_ideal([parse_poly("x*y")], 9)
    with pytest.raises(BudgetExceeded):
        count_jets(ideal, {}, make_field(101), budget=24.0)


def test_truncation_image_examples():
    eqs = [parse_poly("x*y")]
    img0 = truncation_image(jet_ideal(eqs, 1), 0, {}, F2)
    assert len(img0) == 3  # all of X(F_2): every point lifts one level
    img1 = truncation_image(jet_ideal(eqs, 3), 1, {}, F2)
    assert len(img1) == 7  # 2*q^2 - 1 with q = 2
    assert img1 == {t for t in itertools.product(range(2), repeat=4)
                    if t[:2] == (0, 0) or t[2:] == (0, 0)}
    free = truncation_image(jet_ideal([], 2, x_vars=("x",)), 1, {}, F3)
    assert len(free) == 9  # smooth: surjective truncations


def test_tower_of_images_is_decreasing():
    eqs = [parse_poly("x*y")]
    for k in (F2, F3):
        for n in (0, 1, 2):
            prev = None
            for m in range(n + 1, 2 * n + 3):
                img = truncation_image(jet_ideal(eqs, m), n, {}, k)
                if prev is not None:
                    assert img <= prev
                prev = img


def test_igusa_series_counts_and_smooth():
    assert igusa_series([parse_poly("x*y")], 2, ("counts", F3, {})) == [5, 21, 81]
    smooth = igusa_series([], 2, ("smooth", lefschetz_power(1), 1), x_vars=("x",))
    assert [str(c) for c in smooth] == ["L", "L^2", "L^3"]
    level0 = igusa_series([parse_poly("x*y")], 0, ("counts", F3, {}))
    assert level0 == [5]


def test_igusa_counts_equal_smooth_specialized_on_cellular_fixtures():
    # affine line: class L, dimension 1
    for k in (F2, F3):
        counts = igusa_series([], 3, ("counts", k, {}), x_vars=("x",))
        symbolic = igusa_series([], 3, ("smooth", lefschetz_power(1), 1), x_vars=("x",))
        assert counts == [specialize(c, k.q) for c in symbolic]
    # torus xy = 1: class [Gm], dimension 1
    table = CountTable.for_torus(["Gm"], [2, 3, 5])
    for k in (F2, F3, F5):
        counts = igusa_series([parse_poly("x*y - 1")], 3, ("counts", k, {}))
        symbolic = igusa_series([parse_poly("x*y - 1")], 3,
                                ("smooth", MotiveClass.generator("Gm"), 1))
        assert counts == [specialize(c, k.q, table) for c in symbolic]


def test_smooth_fixtures_fibration_counts():
    """count(n+1) = q^d * count(n) for smooth fixtures, n <= 3."""
    fixtures = [
        ([], ("x",), 1),                      # A^1
        ([], ("x", "y"), 2),                  # A^2
        ([parse_poly("x*y - 1")], None, 1),   # Gm as a hyperbola
        ([parse_poly("x^2 + y^2 - 1")], None, 1),  # smooth conic, odd q
    ]
    for eqs, x_vars, d in fixtures:
        for k in (F3, F5):
            if eqs and "x^2" in str(eqs[0]) and k.p == 2:
                continue
            counts = [count_jets(jet_ideal(eqs, n, x_vars), {}, k, budget=40.0)
                      for n in range(4)]
            for n in range(3):
                assert counts[n + 1] == k.q ** d * counts[n], (eqs, k.q, n)


def test_geometric_series_xy():
    for k in (F2, F3):
        q = k.q
        gs = geometric_series_counts([parse_poly("x*y")], 2, k, {}, depth_cap=6)
        assert gs.coefficients == [2 * q - 1, 2 * q * q - 1, 2 * q ** 3 - 1]
        assert gs.stabilization == [1, 2, 4]
        assert all(m <= 2 * n + 1 for n, m in enumerate(gs.stabilization))
        assert (gs.c, gs.e) == (2, 1)


def test_geometric_series_smooth_plane():
    gs = geometric_series_counts([], 1, F3, {}, depth_cap=4, x_vars=("x", "y"))
    assert gs.coefficients == [9, 81]
    assert gs.stabilization == [1, 2]
    assert (gs.c, gs.e) == (1, 1)


def test_geometric_series_nonreduced_matches_reduced():
    for k in (F3, F5):
        doubled = geometric_series_counts([parse_poly("x^2")], 1, k, {}, depth_cap=4)
        line = geometric_series_counts([parse_poly("x")], 1, k, {}, depth_cap=4)
        assert doubled.coefficients == line.coefficients == [1, 1]


def test_geometric_series_depth_cap_guard():
    with pytest.raises(ValueError):
        geometric_series_counts([parse_poly("x*y")], 2, F2, {}, depth_cap=5)


def test_base_change_symbolic_identity():
    """Substituting the base parameter commutes with jet expansion, exactly."""
    eqs = [parse_poly("x*y - z"), parse_poly("z*x^2 + y")]
    for n in (0, 1, 2, 3):
        family = jet_ideal(eqs, n, x_vars=("x", "y"), base_params=("z",))
        for z0 in (Fraction(0), Fraction(2), Fraction(-1, 3)):
            specialized = substitute_base(family, {"z": z0})
            direct = jet_ideal([e.substitute({"z": z0}) for e in eqs], n,
                               x_vars=("x", "y"))
            assert [str(g) for g in specialized.gens] == [str(g) for g in direct.gens]


def test_base_change_pointwise_counts():
    eqs = [parse_poly("x*y - z")]
    family = jet_ideal(eqs, 1, x_vars=("x", "y"), base_params=("z",))
    for k in (F3, F5):
        for z0 in range(k.q):
            via_s_point = count_jets(family, {"z": z0}, k)
            via_subst = count_jets(substitute_base(family, {"z": z0}), {}, k)
            assert via_s_point == via_subst


def test_arithmetic_series_reuses_chi():
    """P_arith on the n = 0 truncation image of the square cone x^2 = y^2."""
    from galstrat.chi import kummer_quotient_data, QuotientClassData
    from galstrat.covers import CoverSpec
    from galstrat.formulas import parse_formula
    from galstrat.groups import ConjDomain, cyclic_group, trivial_group
    from galstrat.stratifications import GaloisStratification
    z2, one = cyclic_group(2), trivial_group()
    gm = CoverSpec.kummer(2, "x", "~(x = 0)")
    origin = CoverSpec.trivial(parse_formula("x = 0"))
    level0 = GaloisStratification(("x",), [
        (gm, ConjDomain.full(z2)),
        (origin, ConjDomain(one, [frozenset({0})])),
    ])
    data = {0: kummer_quotient_data(2, "Gm"),
            1: QuotientClassData(one, {frozenset({0}): MotiveClass.one()})}
    series = arithmetic_series([(level0, data)])
    assert series == [MotiveClass.one() + MotiveClass.generator("Gm")]


# -- one expansion serves every level ---------------------------------------------------

TRUNCATION_CASES = [
    pytest.param(["x*y"], None, (), id="xy"),
    pytest.param(["x^2 - y^3"], None, (), id="cusp"),
    pytest.param(["y^2 - x^2 - x^3"], None, (), id="node"),
    pytest.param(["y - x^2"], None, (), id="smooth"),
    pytest.param(["x*y - 1", "x^2 + y^2 - 2"], None, (), id="two_equations"),
    pytest.param(["x*y - z", "z*x^2 + y"], ("x", "y"), ("z",), id="base_family"),
]


@pytest.mark.parametrize("texts,x_vars,base_params", TRUNCATION_CASES)
def test_truncate_matches_direct_expansion(texts, x_vars, base_params):
    eqs = [parse_poly(t) for t in texts]
    top = jet_ideal(eqs, 6, x_vars, base_params)
    for m in range(7):
        direct = jet_ideal(eqs, m, x_vars, base_params)
        cut = top.truncate(m)
        assert cut.n == direct.n == m
        assert cut.jet_vars == direct.jet_vars
        assert (cut.x_vars, cut.base_params) == (direct.x_vars, direct.base_params)
        assert list(cut.gens) == list(direct.gens)


def test_truncate_rejects_levels_outside_the_ideal():
    top = jet_ideal([parse_poly("x*y")], 2)
    for m in (-1, 3):
        with pytest.raises(ValueError):
            top.truncate(m)


def test_cli_jets_expands_each_system_once(monkeypatch, capsys):
    """One expansion for the counts and one for the images, per fiber."""
    calls = []
    original = jets.jet_ideal

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(jets, "jet_ideal", counting)
    assert cli.main(["jets", str(FIXTURES / "xy_jets.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["results"]) == 2
    assert calls == [2, 6, 2, 6]  # level 2, depth_cap 6, over F_2 and F_3
