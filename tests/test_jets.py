"""Jet spaces: generators, counts vs the substitution oracle, truncation
images, Poincare series, empirical Greenberg constants, base change."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galstrat import cli, jets
from galstrat.errors import BudgetExceeded, NoStabilization
from galstrat.fields import make_field
from galstrat.jets import (
    GeometricSeries,
    JetTower,
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

F2, F3, F4, F5 = make_field(2), make_field(3), make_field(2, 2), make_field(5)
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
    """One expansion per op, at depth_cap, shared by every fiber and both series."""
    calls = []
    original = jets.jet_ideal

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(jets, "jet_ideal", counting)
    assert cli.main(["jets", str(FIXTURES / "xy_jets.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["results"]) == 2
    assert calls == [6]  # depth_cap 6, for F_2 and F_3 together


def test_cli_jets_does_not_use_the_search(monkeypatch, capsys):
    """The search is the tower's oracle, so the tower must not reach level 0 through it."""
    assert cli.main(["jets", str(FIXTURES / "xy_jets.json")]) == 0
    expected = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("the tower ran the exhaustive search")

    monkeypatch.setattr(jets, "_solutions", refuse)
    assert cli.main(["jets", str(FIXTURES / "xy_jets.json")]) == 0
    assert capsys.readouterr().out == expected


# -- the expansion against substitution -------------------------------------------------

def expand_by_substitution(eqs, n, x_vars):
    """Substitute x -> sum_j x_j*t^j with Poly.substitute and read off the
    t^0..t^n coefficients of each equation; base parameters stay constants."""
    t = Poly.variable("t")
    series = {x: sum((Poly.variable(f"{x}_{j}") * t ** j for j in range(n + 1)),
                     Poly.constant(0))
              for x in x_vars}
    gens = []
    for eq in eqs:
        expanded = eq.substitute(series)
        if "t" not in expanded.variables:
            expanded = expanded.with_variables(expanded.variables + ("t",))
        at = expanded.variables.index("t")
        rest = expanded.variables[:at] + expanded.variables[at + 1:]
        coefficients = [{} for _ in range(n + 1)]
        for expo, coef in expanded.terms.items():
            if expo[at] <= n:
                coefficients[expo[at]][expo[:at] + expo[at + 1:]] = coef
        gens.extend(Poly(rest, terms) for terms in coefficients)
    return gens


EXPANSION_CASES = [
    (["x*y"], ("x", "y"), ()),
    (["x^2 - y^3"], ("x", "y"), ()),
    (["(y + 5)^2 - (x + 7)^2 - (x + 7)^3"], ("x", "y"), ()),
    (["x*y - 1", "x^2 + y^2 - 2"], ("x", "y"), ()),
    (["x*y - z", "z*x^2 + y"], ("x", "y"), ("z",)),
    (["1/3*x^3 - 2/5*x*y + 7"], ("x", "y"), ()),
    (["3"], ("x",), ()),
]


@pytest.mark.parametrize("texts,x_vars,base_params", EXPANSION_CASES)
def test_jet_ideal_matches_substitution(texts, x_vars, base_params):
    eqs = [parse_poly(t) for t in texts]
    for n in range(5):
        got = jet_ideal(eqs, n, x_vars, base_params).gens
        assert list(got) == expand_by_substitution(eqs, n, x_vars)


# -- the Hensel-split tower against the exhaustive search -----------------------------------

def dfs_geometric(top, N, k, s_point):
    """Plateau search over whole truncation images, as one op did before the tower."""
    coefficients, stabilization = [], []
    for n in range(N + 1):
        prev = None
        for m in range(n + 1, top.n + 1):
            img = truncation_image(top.truncate(m), n, s_point, k)
            if prev is not None and img == prev:
                coefficients.append(len(prev))
                stabilization.append(m - 1)
                break
            prev = img
        else:
            raise NoStabilization(n, top.n)
    return coefficients, stabilization, jets._fit_linear_bound(stabilization)


def tower_geometric(top, N, k, s_point):
    gs = JetTower(top, s_point, k).geometric_series(N)
    return gs.coefficients, gs.stabilization, (gs.c, gs.e)


def assert_tower_matches_search(eqs, x_vars, base_params, k, s_point, top_level, N):
    top = jet_ideal(eqs, top_level, x_vars, base_params)
    tower = JetTower(top, s_point, k, budget=40.0)
    for n in range(top_level + 1):
        assert tower.count(n) == count_jets(top.truncate(n), s_point, k, 40.0), n
    for m in range(1, top_level + 1):
        for n in range(m):
            image = truncation_image(top.truncate(m), n, s_point, k, 40.0)
            assert tower.image_size(n, m) == len(image), (n, m)
    assert tower_geometric(top, N, k, s_point) == dfs_geometric(top, N, k, s_point)


ORACLE_FIELDS = [pytest.param(k, id=f"F{k.q}") for k in (F2, F3, F4, F5)]

ORACLE_CASES = TRUNCATION_CASES + [
    pytest.param(["x^2"], None, (), id="nonreduced"),
    pytest.param(["x*y", "x + y", "x - y"], None, (), id="more_equations_than_variables"),
]


@pytest.mark.parametrize("k", ORACLE_FIELDS)
@pytest.mark.parametrize("texts,x_vars,base_params", ORACLE_CASES)
def test_tower_matches_search(texts, x_vars, base_params, k):
    eqs = [parse_poly(t) for t in texts]
    top_level, N = (4, 1) if k.q <= 3 else (3, 0)
    for z in range(min(k.q, 3)) if base_params else [None]:
        s_point = {} if z is None else {"z": z}
        assert_tower_matches_search(eqs, x_vars, base_params, k, s_point, top_level, N)


@pytest.mark.parametrize("k", ORACLE_FIELDS)
@pytest.mark.parametrize("texts", [pytest.param([], id="free_plane"),
                                   pytest.param(["6*x*y + 6*y^2 - 30"], id="vanishes_mod_2_3_5")])
def test_tower_matches_search_on_the_whole_plane(texts, k):
    """The search walks all q^(2(level + 1)) jets here, so level 2 is the top."""
    assert_tower_matches_search([parse_poly(t) for t in texts], ("x", "y"), (), k, {}, 2, 0)


monomials = st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3))
equations = st.lists(monomials, min_size=1, max_size=3).map(
    lambda terms: parse_poly(" + ".join(f"{c}*x^{a}*y^{b}" for c, a, b in terms)))


@settings(max_examples=40, deadline=None)
@given(st.lists(equations, min_size=1, max_size=2), st.sampled_from([F2, F3, F4, F5]))
def test_tower_matches_search_on_random_systems(eqs, k):
    top_level, N = (3, 1) if k.q <= 3 else (2, 0)
    try:
        assert_tower_matches_search(eqs, ("x", "y"), (), k, {}, top_level, N)
    except NoStabilization:
        top = jet_ideal(eqs, top_level, ("x", "y"))
        with pytest.raises(NoStabilization):
            dfs_geometric(top, N, k, {})


def test_tower_and_search_raise_for_the_same_inputs():
    top = jet_ideal([parse_poly("x*y")], 6)
    with pytest.raises(BudgetExceeded) as search:
        dfs_geometric(top, 2, F5, {})
    with pytest.raises(BudgetExceeded) as tower:
        tower_geometric(top, 2, F5, {})
    assert str(tower.value) == str(search.value)
    # x*y^3 over F_2: the level-1 images still shrink at depth_cap 4
    top = jet_ideal([parse_poly("x*y^3")], 4)
    with pytest.raises(NoStabilization) as search:
        dfs_geometric(top, 1, F2, {})
    with pytest.raises(NoStabilization) as tower:
        tower_geometric(top, 1, F2, {})
    assert str(tower.value) == str(search.value)


def test_tower_charges_the_budget_per_level():
    tower = JetTower(jet_ideal([parse_poly("x*y")], 6), {}, F5)
    assert tower.count(4) == count_jets(jet_ideal([parse_poly("x*y")], 4), {}, F5)
    with pytest.raises(BudgetExceeded):
        tower.count(5)  # 12 coordinates over F_5: 27.9 bits
    with pytest.raises(BudgetExceeded):
        tower.image_size(0, 5)


def test_tower_nodes_per_level():
    smooth = JetTower(jet_ideal([parse_poly("y - x^2")], 6), {}, F3)
    assert smooth.count(6) == 3 ** 7
    assert smooth.nodes_per_level == [0] * 7  # every point smooth: nothing enumerated
    xy = JetTower(jet_ideal([parse_poly("x*y")], 3), {}, F3)
    assert xy.count(3) == 4 * 3 ** 3 + 189
    # the origin; all 9 (x_1, y_1); the 5 with x_1*y_1 = 0, times 9 for (x_2, y_2);
    # the 21 (x_1, y_1, x_2, y_2) with x_1*y_1 = x_1*y_2 + x_2*y_1 = 0, times 9
    assert xy.nodes_per_level == [1, 9, 45, 189]
