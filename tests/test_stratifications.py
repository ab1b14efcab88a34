"""Stratification calculus: all operations against brute-force semantics."""

import itertools
import json
import random
from pathlib import Path

import pytest

from galstrat import covers
from galstrat.cli import main
from galstrat.covers import CoverSpec
from galstrat.errors import (
    CommonRefinementRequired,
    InadmissiblePrime,
    MissingDatum,
    PartitionViolation,
    SemanticMismatch,
    VariableMismatch,
)
from galstrat.fields import make_field
from galstrat.fixtures import load_fixture
from galstrat.formulas import parse_formula
from galstrat.groups import (
    ConjDomain,
    GroupHom,
    cyclic_group,
    direct_product,
    product_projections,
    trivial_group,
)
from galstrat.polynomials import parse_poly
from galstrat.stratifications import (
    Case1Datum,
    Case2Datum,
    EliminationEntry,
    EliminationPlan,
    GaloisFormula,
    GaloisStratification,
    ProductWitness,
    RefinementChild,
    RefinementDatum,
    boolean_combine,
    check_pullback_contract,
    complement,
    eliminate_case1,
    eliminate_case2,
    eliminate_existential,
    inflate,
    inflate_domain,
    product,
    pullback,
    refine,
    same_galois_set,
)

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)
ONE = trivial_group()
F5 = make_field(5)
F13 = make_field(13)


def square_indicator(con_subs=({0},)):
    """The standard fixture: A^1 = {0} (trivial, empty) + Gm (degree-2 Kummer)."""
    gm = CoverSpec.kummer(2, "x", "~(x = 0)")
    origin = CoverSpec.trivial(parse_formula("x = 0"))
    return GaloisStratification(("x",), [
        (gm, ConjDomain(Z2, [frozenset(s) for s in con_subs])),
        (origin, ConjDomain.empty(ONE)),
    ], label="squares")


def test_partition_violation_detected():
    gm = CoverSpec.kummer(2, "x", "~(x = 0)")
    overlapping = CoverSpec.trivial(parse_formula("x = x", free_vars=("x",)))
    strat = GaloisStratification(("x",), [
        (gm, ConjDomain.empty(Z2)),
        (overlapping, ConjDomain.empty(ONE)),
    ])
    with pytest.raises(PartitionViolation):
        strat.galois_set({}, F5)


def test_support_and_admissibility():
    strat = square_indicator()
    assert strat.support() == (0,)
    assert not strat.admissible().admits(2)  # Kummer forces odd q
    assert strat.admissible().admits(5)


# -- inflate -----------------------------------------------------------------------

def test_inflate_examples():
    psi = GroupHom(Z4, Z2, [0, 1, 0, 1])
    gm4 = CoverSpec.kummer(4, "x", "~(x = 0)")
    gm2 = CoverSpec.kummer(2, "x", "~(x = 0)")

    _, con = inflate((gm2, ConjDomain(Z2, [frozenset({0, 1})])), psi, gm4)
    assert con.canonical_list() == [(0, 1, 2, 3)]

    _, con2 = inflate((gm2, ConjDomain(Z2, [frozenset({0})])), psi, gm4)
    assert con2.canonical_list() == [(0,), (0, 2)]

    ident = GroupHom(Z2, Z2, [0, 1])
    _, con3 = inflate((gm2, ConjDomain(Z2, [frozenset({0})])), ident, gm2)
    assert con3.canonical_list() == [(0,)]


def test_inflation_semantic_invariance():
    """Z unchanged when the degree-2 cover is dominated by the degree-4 one."""
    strat = square_indicator()
    psi = GroupHom(Z4, Z2, [0, 1, 0, 1])
    gm4 = CoverSpec.kummer(4, "x", "~(x = 0)")
    inflated = GaloisStratification(("x",), [
        inflate(strat.strata[0], psi, gm4),
        strat.strata[1],
    ])
    F17, F29 = make_field(17), make_field(29)
    assert same_galois_set(strat, inflated, [(F5, {}), (F13, {}), (F17, {}), (F29, {})])


# -- refine ------------------------------------------------------------------------

def test_refine_full_decomposition_group_keeps_domains():
    strat = square_indicator()
    child1 = RefinementChild(
        cover=CoverSpec.kummer(2, "x", "x = 1"),
        embed=GroupHom(Z2, Z2, [0, 1]))
    child2 = RefinementChild(
        cover=CoverSpec.kummer(2, "x", "~(x = 0) & ~(x = 1)"),
        embed=GroupHom(Z2, Z2, [0, 1]))
    refined = refine(strat, [RefinementDatum(0, [child1, child2])])
    assert refined.strata[0][1].canonical_list() == [(0,)]
    assert refined.strata[1][1].canonical_list() == [(0,)]
    assert same_galois_set(strat, refined, [(F5, {}), (F13, {})])


def test_refine_trivial_decomposition_group_empties_domain():
    strat = square_indicator(con_subs=({0, 1},))
    # over {x = 1} the fiber splits: decomposition subgroup {e}
    child1 = RefinementChild(
        cover=CoverSpec.trivial(parse_formula("x = 1")),
        embed=GroupHom(ONE, Z2, [0]))
    child2 = RefinementChild(
        cover=CoverSpec.kummer(2, "x", "~(x = 0) & ~(x = 1)"),
        embed=GroupHom(Z2, Z2, [0, 1]))
    refined = refine(strat, [RefinementDatum(0, [child1, child2])])
    assert refined.strata[0][1].is_empty()   # Z/2 not inside {e}
    assert refined.strata[1][1].canonical_list() == [(0, 1)]
    assert same_galois_set(strat, refined, [(F5, {}), (F13, {})])


# -- pullback -----------------------------------------------------------------------

def test_pullback_identity():
    strat = square_indicator()
    data = [
        (0, RefinementChild(CoverSpec.kummer(2, "x", "~(x = 0)"),
                            GroupHom(Z2, Z2, [0, 1]))),
        (1, RefinementChild(CoverSpec.trivial(parse_formula("x = 0")),
                            GroupHom(ONE, ONE, [0]))),
    ]
    var_map = {"x": parse_poly("x")}
    pb = pullback(strat, var_map, ("x",), data)
    check_pullback_contract(pb, strat, var_map, [(F5, {}), (F13, {})])
    assert same_galois_set(pb, strat, [(F5, {})])


def test_pullback_squaring_map():
    """y -> y^2 pulls the square-indicator back to all of Gm."""
    strat = square_indicator()
    var_map = {"x": parse_poly("y^2")}
    data = [
        (0, RefinementChild(CoverSpec.kummer(2, "y^2", "~(y = 0)"),
                            GroupHom(Z2, Z2, [0, 1]))),
        (1, RefinementChild(CoverSpec.trivial(parse_formula("y = 0")),
                            GroupHom(ONE, ONE, [0]))),
    ]
    pb = pullback(strat, var_map, ("y",), data)
    check_pullback_contract(pb, strat, var_map, [(F5, {}), (F13, {})])
    assert pb.galois_set({}, F5).sorted_tuples() == [(1,), (2,), (3,), (4,)]


def test_pullback_constant_into_empty_stratum():
    strat = square_indicator(con_subs=())  # empty domain everywhere
    var_map = {"x": parse_poly("3")}  # constant map into Gm
    data = [
        (0, RefinementChild(CoverSpec.kummer(2, "3", "y = y"),
                            GroupHom(Z2, Z2, [0, 1]))),
    ]
    pb = pullback(strat, var_map, ("y",), data)
    check_pullback_contract(pb, strat, var_map, [(F5, {})])
    assert len(pb.galois_set({}, F5)) == 0


# -- boolean combine / complement ------------------------------------------------------

def test_boolean_combine_examples():
    a = square_indicator(con_subs=({0},))
    b = square_indicator(con_subs=({0, 1},))
    union = boolean_combine(a, b, "or")
    inter = boolean_combine(a, b, "and")
    assert union.strata[0][1].canonical_list() == [(0,), (0, 1)]
    assert inter.strata[0][1].is_empty()
    zu = union.galois_set({}, F5)
    zi = inter.galois_set({}, F5)
    za, zb = a.galois_set({}, F5), b.galois_set({}, F5)
    assert zu.tuples == za.tuples | zb.tuples
    assert zi.tuples == za.tuples & zb.tuples
    assert len(zu) + len(zi) == len(za) + len(zb) == 4


def test_boolean_combine_requires_common_stratification():
    a = square_indicator()
    other = GaloisStratification(("x",), [
        (CoverSpec.kummer(2, "x + 1", "~(x + 1 = 0)"), ConjDomain(Z2, [frozenset({0})])),
        (CoverSpec.trivial(parse_formula("x + 1 = 0")), ConjDomain.empty(ONE)),
    ])
    with pytest.raises(CommonRefinementRequired):
        boolean_combine(a, other, "or")


def test_boolean_combine_tells_admissibility_apart():
    # The same Kummer cover, but declared inadmissible at q = 13.  Combining
    # used to keep the first operand's cover: one order raised at F_13, the
    # other returned six points.
    restricted = square_indicator()
    gm, con = restricted.strata[0]
    gm = CoverSpec.kummer(2, "x", "~(x = 0)",
                          admissible=covers.AdmissiblePrimes.from_json(
                              {"mod": [2, 1], "exclude": [13]}))
    restricted = restricted.with_strata([(gm, con), restricted.strata[1]])
    with pytest.raises(InadmissiblePrime):
        restricted.galois_set({}, F13)
    for left, right in ((square_indicator(), restricted), (restricted, square_indicator())):
        for mode in ("and", "or"):
            with pytest.raises(CommonRefinementRequired):
                boolean_combine(left, right, mode)
    # The same admissible set, merged in either order or with a repeated
    # condition, is the same cover.
    odd, not13 = covers.AdmissiblePrimes([(2, 1)]), covers.AdmissiblePrimes(exclude=[13])
    merged = [odd.merge(not13), not13.merge(odd), odd.merge(not13).merge(odd)]
    strats = [restricted.with_strata(
        [(CoverSpec.kummer(2, "x", "~(x = 0)", admissible=adm), con), restricted.strata[1]])
        for adm in merged]
    for left, right in itertools.product(strats, repeat=2):
        for mode in ("and", "or"):
            combined = boolean_combine(left, right, mode)
            with pytest.raises(InadmissiblePrime):
                combined.galois_set({}, F13)


def test_boolean_combine_tells_frobenius_data_apart():
    # Two Z/2 covers of the line that differ only in their Frobenius assignment.
    def parity(flip):
        def assign(s_point, a, k):
            return a[0] % 2 ^ flip
        return CoverSpec.tabulated(Z2, parse_formula("x = x"), assign)

    def strat(cover):
        return GaloisStratification(("x",), [(cover, ConjDomain(Z2, [frozenset({0})]))])

    even, odd = strat(parity(0)), strat(parity(1))
    assert even.galois_set({}, F5).tuples == {(0,), (2,), (4,)}
    assert odd.galois_set({}, F5).tuples == {(1,), (3,)}
    for mode in ("and", "or"):
        with pytest.raises(CommonRefinementRequired):
            boolean_combine(even, odd, mode)
    assert boolean_combine(even, even, "and").galois_set({}, F5).tuples == {(0,), (2,), (4,)}

    # Product covers: the factors count, and so does the embedding.
    line, second = parse_formula("x = x & y = y"), parity(0)

    def pair(first, embed):
        return CoverSpec.product((first, second), line, Z2, embed)

    def embed(e1, e2):
        return e1 ^ e2

    same = pair(even.strata[0][0], embed)
    assert same.signature() == pair(even.strata[0][0], embed).signature()
    assert same.signature() != pair(odd.strata[0][0], embed).signature()
    assert same.signature() != pair(even.strata[0][0], lambda e1, e2: e1 ^ e2).signature()


def test_complement_examples():
    a = square_indicator()
    c = complement(a)
    assert c.strata[0][1].canonical_list() == [(0, 1)]
    assert complement(c).strata[0][1] == a.strata[0][1]
    za, zc = a.galois_set({}, F5), c.galois_set({}, F5)
    assert len(za) + len(zc) == 5
    assert za.tuples & zc.tuples == set()


def test_de_morgan_at_domain_level():
    a = square_indicator(con_subs=({0},))
    b = square_indicator(con_subs=({0, 1},))
    lhs = complement(boolean_combine(a, b, "or"))
    rhs = boolean_combine(complement(a), complement(b), "and")
    for (c1, d1), (c2, d2) in zip(lhs.strata, rhs.strata):
        assert d1 == d2


# -- product ------------------------------------------------------------------------

def second_axis_squares():
    gm = CoverSpec.kummer(2, "y", "~(y = 0)")
    origin = CoverSpec.trivial(parse_formula("y = 0"))
    return GaloisStratification(("y",), [
        (gm, ConjDomain(Z2, [frozenset({0})])),
        (origin, ConjDomain.empty(ONE)),
    ], label="squares_y")


def test_product_example_conjugation_domain():
    a = square_indicator()
    b = second_axis_squares()
    prod = product(a, b)
    v4_stratum_con = prod.strata[0][1]
    assert v4_stratum_con.canonical_list() == [(0,)]  # only the trivial subgroup
    z = prod.galois_set({}, F5)
    assert len(z) == 4
    assert z.tuples == {(x, y) for x in (1, 4) for y in (1, 4)}


def test_product_empty_factor_has_empty_support():
    a = square_indicator()
    b = second_axis_squares().with_strata([
        (cov, ConjDomain.empty(cov.group)) for cov, _ in second_axis_squares().strata])
    prod = product(a, b)
    assert prod.support() == ()
    assert len(prod.galois_set({}, F5)) == 0


def test_product_cartesian_semantics():
    a = square_indicator(con_subs=({0, 1},))
    b = second_axis_squares()
    prod = product(a, b)
    za = a.galois_set({}, F5).tuples
    zb = b.galois_set({}, F5).tuples
    zp = prod.galois_set({}, F5).tuples
    assert zp == {x + y for x in za for y in zb}
    assert len(zp) == len(za) * len(zb)


def test_product_overlapping_coords_rejected():
    with pytest.raises(VariableMismatch):
        product(square_indicator(), square_indicator())


def test_product_with_explicit_witness():
    """Witness = full product supplied explicitly; same semantics as default."""
    a = square_indicator()
    b = second_axis_squares()
    v = direct_product(Z2, Z2)
    p1, p2 = product_projections(v, Z2, Z2)
    witnesses = {(0, 0): ProductWitness(v, p1, p2)}
    prod = product(a, b, witnesses)
    assert prod.galois_set({}, F5).tuples == product(a, b).galois_set({}, F5).tuples


def test_product_with_collapsing_witness():
    """A witness smaller than the full product works when one factor's
    Frobenius is constant: here the second factor has a trivial cover."""
    a = square_indicator()
    full_y = CoverSpec.trivial(parse_formula("y = y", free_vars=("y",)))
    b = GaloisStratification(("y",), [(full_y, ConjDomain(ONE, [frozenset({0})]))])
    wit = {(0, 0): ProductWitness(Z2, GroupHom(Z2, Z2, [0, 1]),
                                  GroupHom(Z2, ONE, [0, 0]))}
    prod = product(a, b, wit)
    z = prod.galois_set({}, F5)
    assert z.tuples == {(x, y) for x in (1, 4) for y in range(5)}


def test_product_witness_missing_frobenius_pair():
    """The diagonal subgroup cannot cover independent Frobenius pairs."""
    from galstrat.errors import WitnessInvalid
    a = square_indicator()
    b = second_axis_squares()
    diag = GroupHom(Z2, Z2, [0, 1])
    wit = {(0, 0): ProductWitness(Z2, diag, diag)}
    prod = product(a, b, wit)
    with pytest.raises(WitnessInvalid):
        prod.galois_set({}, F5)  # the pair (square, nonsquare) has no lift


# -- elimination --------------------------------------------------------------------

def case1_fixture():
    """Input over (b, a): the etale double cover {b = a^2, a != 0} -> Gm_b."""
    curve = CoverSpec.trivial(
        parse_formula("b = a^2 & ~(a = 0)", free_vars=("b", "a")))
    rest = CoverSpec.trivial(
        parse_formula("~(b = a^2 & ~(a = 0))", free_vars=("b", "a")))
    strat = GaloisStratification(("b", "a"), [
        (curve, ConjDomain(ONE, [frozenset({0})])),
        (rest, ConjDomain.empty(ONE)),
    ], label="case1-input")
    d_b = CoverSpec.kummer(2, "b", "~(b = 0)")
    b0 = CoverSpec.trivial(parse_formula("b = 0"))
    datum = Case1Datum(proj=GroupHom(ONE, ONE, [0]),
                       emb=GroupHom(ONE, Z2, [0]),
                       base_cover=d_b)
    plan = EliminationPlan([d_b, b0], [EliminationEntry(0, datum, 0)])
    return strat, plan


def test_eliminate_case1_squaring():
    strat, plan = case1_fixture()
    cover, con = eliminate_case1(strat.strata[0], plan.entries[0].datum)
    assert con.canonical_list() == [(0,)]
    gf = GaloisFormula(("E",), strat)
    out = eliminate_existential(gf, plan, sweep=[(F5, {}), (F13, {})])
    assert out.strat.galois_set({}, F5).sorted_tuples() == [(1,), (4,)]


def test_eliminate_case1_identity_map():
    gm = CoverSpec.kummer(2, "b", "~(b = 0)")
    con = ConjDomain(Z2, [frozenset({0})])
    datum = Case1Datum(proj=GroupHom(Z2, Z2, [0, 1]),
                       emb=GroupHom(Z2, Z2, [0, 1]), base_cover=gm)
    _, out_con = eliminate_case1((gm, con), datum)
    assert out_con == con


def test_eliminate_case1_empty_domain():
    gm = CoverSpec.kummer(2, "b", "~(b = 0)")
    datum = Case1Datum(proj=GroupHom(Z2, Z2, [0, 1]),
                       emb=GroupHom(Z2, Z2, [0, 1]), base_cover=gm)
    _, out_con = eliminate_case1((gm, ConjDomain.empty(Z2)), datum)
    assert out_con.is_empty()


def exists_nonsquare_fixture():
    """Sentence: exists x nonzero nonsquare; eliminates to a point."""
    gm = CoverSpec.kummer(2, "x", "~(x = 0)")
    origin = CoverSpec.trivial(parse_formula("x = 0"))
    strat = GaloisStratification(("x",), [
        (gm, ConjDomain(Z2, [frozenset({0, 1})])),
        (origin, ConjDomain.empty(ONE)),
    ], label="nonsquare-exists")
    point = CoverSpec.trivial(parse_formula("0 = 0"))
    datum = Case2Datum(res=GroupHom(Z2, ONE, [0, 0]), base_cover=point)
    plan = EliminationPlan([point], [EliminationEntry(0, datum, 0)])
    return strat, plan


def test_eliminate_case2_constants_collapse():
    strat, plan = exists_nonsquare_fixture()
    cover, con = eliminate_case2(strat.strata[0], plan.entries[0].datum)
    assert con.canonical_list() == [(0,)]  # the sentence is true
    gf = GaloisFormula(("E",), strat)
    from galstrat.fixtures import field_from_order
    sweep = [(field_from_order(q), {}) for q in (5, 7, 9, 13)]
    out = eliminate_existential(gf, plan, sweep=sweep)
    for k, s in sweep:
        assert out.strat.galois_set(s, k).is_true_sentence()


def pullback_cover_family_fixture():
    """Over (z, x): the cover only sees z; exists x iff z is a nonsquare."""
    sheet = CoverSpec.kummer(2, "z", "z = z", admissible=None)
    rest = CoverSpec.trivial(parse_formula("z = 0", free_vars=("z", "x")))
    # kummer() conjoined z != 0; widen the formula to mention both coords
    sheet = CoverSpec("kummer", Z2,
                      parse_formula("~(z = 0)", free_vars=("z", "x")),
                      sheet.admissible, "family-sheet", n=2, f=parse_poly("z"))
    strat = GaloisStratification(("z", "x"), [
        (sheet, ConjDomain(Z2, [frozenset({0, 1})])),
        (rest, ConjDomain.empty(ONE)),
    ], label="family-input")
    d_b = CoverSpec.kummer(2, "z", "~(z = 0)")
    z0 = CoverSpec.trivial(parse_formula("z = 0"))
    datum = Case2Datum(res=GroupHom(Z2, Z2, [0, 1]), base_cover=d_b)
    plan = EliminationPlan([d_b, z0], [EliminationEntry(0, datum, 0)])
    return strat, plan


def test_eliminate_case2_pullback_cover_family():
    strat, plan = pullback_cover_family_fixture()
    gf = GaloisFormula(("E",), strat)
    out = eliminate_existential(gf, plan, sweep=[(F5, {}), (F13, {})])
    assert out.strat.galois_set({}, F5).sorted_tuples() == [(2,), (3,)]
    assert out.strat.strata[0][1].canonical_list() == [(0, 1)]


def test_eliminate_case2_empty_domain():
    strat, plan = pullback_cover_family_fixture()
    pair = (strat.strata[0][0], ConjDomain.empty(Z2))
    _, con = eliminate_case2(pair, plan.entries[0].datum)
    assert con.is_empty()


def test_universal_via_complement():
    """A x ~(square condition): complement-eliminate-complement."""
    gm = CoverSpec.kummer(2, "x", "~(x = 0)")
    origin = CoverSpec.trivial(parse_formula("x = 0"))
    # member iff x = 0 or x square; the complement is the nonsquares
    strat = GaloisStratification(("x",), [
        (gm, ConjDomain(Z2, [frozenset({0})])),
        (origin, ConjDomain(ONE, [frozenset({0})])),
    ])
    point = CoverSpec.trivial(parse_formula("0 = 0"))
    plan = EliminationPlan([point], [
        EliminationEntry(0, Case2Datum(res=GroupHom(Z2, ONE, [0, 0]),
                                       base_cover=point), 0),
        EliminationEntry(1, Case2Datum(res=GroupHom(ONE, ONE, [0]),
                                       base_cover=point), 0),
    ])
    gf = GaloisFormula(("A",), strat)
    sweep = [(make_field(q), {}) for q in (5, 13)]
    out = eliminate_existential(gf, plan, sweep=sweep)
    # not every x satisfies (x = 0 or x is a square) over F_5
    for k, s in sweep:
        assert len(out.strat.galois_set(s, k)) == 0


def test_eliminate_missing_datum():
    strat, plan = case1_fixture()
    bad_plan = EliminationPlan(plan.output_covers, [])
    gf = GaloisFormula(("E",), strat)
    with pytest.raises(MissingDatum):
        eliminate_existential(gf, bad_plan)


def test_eliminate_semantic_mismatch_negative_control():
    strat, plan = case1_fixture()
    bad_datum = Case1Datum(proj=GroupHom(ONE, ONE, [0]),
                           emb=GroupHom(ONE, Z2, [0]),
                           base_cover=plan.output_covers[0])
    # wrong output wiring: squares stratum gets the full domain upstream
    bad_strat = GaloisStratification(strat.coords, [
        (strat.strata[0][0], ConjDomain(ONE, [frozenset({0})])),
        (strat.strata[1][0], ConjDomain.empty(ONE)),
    ])
    bad_plan = EliminationPlan(plan.output_covers, [
        EliminationEntry(0, bad_datum, 1)])   # lands on the {b = 0} stratum
    gf = GaloisFormula(("E",), bad_strat)
    with pytest.raises((SemanticMismatch, MissingDatum)):
        eliminate_existential(gf, bad_plan, sweep=[(F5, {})])


def test_empty_support_eliminates_to_empty_support():
    strat, plan = case1_fixture()
    empty_in = strat.with_strata([
        (cov, ConjDomain.empty(cov.group)) for cov, _ in strat.strata])
    gf = GaloisFormula(("E",), empty_in)
    out = eliminate_existential(gf, plan, sweep=[(F5, {})])
    assert out.strat.support() == ()


def test_eliminate_case1_nonabelian_closure():
    """Domains land in the base cover group closed under ITS conjugation:
    one transposition subgroup closes up to the whole class."""
    from galstrat.groups import symmetric_group
    s3 = symmetric_group(3)
    transp = next(rep for rep, _ in s3.cyclic_subgroup_classes() if len(rep) == 2)
    ordered = sorted(transp)
    emb = GroupHom(Z2, s3, ordered)
    gm = CoverSpec.kummer(2, "b", "~(b = 0)")
    base = CoverSpec.tabulated(s3, parse_formula("~(b = 0)"),
                               lambda s, a, k: 0)
    datum = Case1Datum(proj=GroupHom(Z2, Z2, [0, 1]), emb=emb, base_cover=base)
    _, con = eliminate_case1((gm, ConjDomain(Z2, [frozenset({0, 1})])), datum)
    assert len(con) == 3  # all three conjugate transposition subgroups
    assert all(len(s) == 2 for s in con.subs)


def test_eliminate_merge_by_inflation():
    """Two support strata over one output stratum with different piece
    groups, merged through a supplied surjection from the output group."""
    s1 = CoverSpec.trivial(parse_formula("b = a^2 & ~(a = 0)", free_vars=("b", "a")))
    s2 = CoverSpec.trivial(parse_formula("a = 0 & ~(b = 0)", free_vars=("b", "a")))
    s3 = CoverSpec.trivial(parse_formula(
        "~(b = a^2 & ~(a = 0)) & ~(a = 0 & ~(b = 0))", free_vars=("b", "a")))
    strat = GaloisStratification(("b", "a"), [
        (s1, ConjDomain(ONE, [frozenset({0})])),
        (s2, ConjDomain(ONE, [frozenset({0})])),
        (s3, ConjDomain.empty(ONE)),
    ])
    d_b = CoverSpec.kummer(2, "b", "~(b = 0)")
    b0 = CoverSpec.trivial(parse_formula("b = 0"))
    gm_triv = CoverSpec.trivial(parse_formula("~(b = 0)"))
    plan = EliminationPlan([d_b, b0], [
        EliminationEntry(0, Case1Datum(proj=GroupHom(ONE, ONE, [0]),
                                       emb=GroupHom(ONE, Z2, [0]),
                                       base_cover=d_b), 0),
        # the section over {a = 0} eliminates to a trivial-group piece over
        # Gm_b; the surjection Z2 ->> 1 inflates it into the Kummer output
        EliminationEntry(1, Case1Datum(proj=GroupHom(ONE, ONE, [0]),
                                       emb=GroupHom(ONE, ONE, [0]),
                                       base_cover=gm_triv), 0,
                         inflate=GroupHom(Z2, ONE, [0, 0])),
    ])
    gf = GaloisFormula(("E",), strat)
    out = eliminate_existential(gf, plan, sweep=[(F5, {}), (F13, {})])
    # projection: exists a with (b = a^2, a != 0) or (a = 0, b != 0) = all of Gm
    assert out.strat.galois_set({}, F5).sorted_tuples() == [(1,), (2,), (3,), (4,)]
    assert out.strat.strata[0][1] == ConjDomain.full(Z2)


def test_eliminate_all_two_quantifiers():
    """exists c exists a (b = a^2, a != 0, c = a): peel c, then a."""
    from galstrat.stratifications import eliminate_all
    graph = CoverSpec.trivial(parse_formula(
        "b = a^2 & ~(a = 0) & c = a", free_vars=("b", "a", "c")))
    rest = CoverSpec.trivial(parse_formula(
        "~(b = a^2 & ~(a = 0) & c = a)", free_vars=("b", "a", "c")))
    strat = GaloisStratification(("b", "a", "c"), [
        (graph, ConjDomain(ONE, [frozenset({0})])),
        (rest, ConjDomain.empty(ONE)),
    ])
    gf = GaloisFormula(("E", "E"), strat)

    # step 1: c is a section over the curve; nothing happens group-wise
    curve = CoverSpec.trivial(parse_formula(
        "b = a^2 & ~(a = 0)", free_vars=("b", "a")))
    off_curve = CoverSpec.trivial(parse_formula(
        "~(b = a^2 & ~(a = 0))", free_vars=("b", "a")))
    plan1 = EliminationPlan([curve, off_curve], [EliminationEntry(
        0, Case1Datum(proj=GroupHom(ONE, ONE, [0]),
                      emb=GroupHom(ONE, ONE, [0]), base_cover=curve), 0)])
    # step 2: the squaring projection, as in the one-variable fixture
    d_b = CoverSpec.kummer(2, "b", "~(b = 0)")
    b0 = CoverSpec.trivial(parse_formula("b = 0"))
    plan2 = EliminationPlan([d_b, b0], [EliminationEntry(
        0, Case1Datum(proj=GroupHom(ONE, ONE, [0]),
                      emb=GroupHom(ONE, Z2, [0]), base_cover=d_b), 0)])

    sweep = [(F5, {}), (F13, {})]
    out = eliminate_all(gf, [plan1, plan2], sweep=sweep)
    assert out.galois_set({}, F5).sorted_tuples() == [(1,), (4,)]
    for k, s in sweep:
        assert out.galois_set(s, k).tuples == gf.definable_set(s, k).tuples


# -- randomized semantic soundness -------------------------------------------------------

def random_domain(group, rng):
    reps = [rep for rep, _ in group.cyclic_subgroup_classes()]
    chosen = [rep for rep in reps if rng.random() < 0.5]
    return ConjDomain.closure(group, chosen) if chosen else ConjDomain.empty(group)


def random_square_indicator(rng):
    gm = CoverSpec.kummer(2, "x", "~(x = 0)")
    origin = CoverSpec.trivial(parse_formula("x = 0"))
    return GaloisStratification(("x",), [
        (gm, random_domain(Z2, rng)),
        (origin, random_domain(ONE, rng)),
    ])


def test_randomized_boolean_semantics():
    rng = random.Random(47)
    sweep = [(F5, {}), (F13, {})]
    for _ in range(20):
        a = random_square_indicator(rng)
        b = random_square_indicator(rng)
        za = {k.q: a.galois_set(s, k).tuples for k, s in sweep}
        zb = {k.q: b.galois_set(s, k).tuples for k, s in sweep}
        union = boolean_combine(a, b, "or")
        inter = boolean_combine(a, b, "and")
        comp = complement(a)
        for k, s in sweep:
            q = k.q
            assert union.galois_set(s, k).tuples == za[q] | zb[q]
            assert inter.galois_set(s, k).tuples == za[q] & zb[q]
            space = set(itertools.product(range(q), repeat=1))
            assert comp.galois_set(s, k).tuples == space - za[q]


# -- point order: covers read points in their stratum's free-variable order ------------

def is_square(v, q):
    """Euler's criterion in a prime field, independent of the engine."""
    return v % q != 0 and pow(v, (q - 1) // 2, q) == 1


def kummer_y(stratum, rest):
    """Over (x, y): squares in y on a Kummer stratum whose formula names y first."""
    gm = CoverSpec.kummer(2, "y", stratum)
    other = CoverSpec.trivial(parse_formula(rest))
    return GaloisStratification(("x", "y"), [
        (gm, ConjDomain(Z2, [frozenset({0})])),
        (other, ConjDomain.empty(ONE)),
    ], label="kummer_y")


KUMMER_Y_CASES = [
    # stratum, complement, oracle over (x, y), its size over F_13
    pytest.param("~(y = 0) & ~(x = 0)", "y = 0 | x = 0",
                 lambda x, y, q: x != 0 and is_square(y, q), 72, id="x_and_y_nonzero"),
    pytest.param("~(y = 0)", "y = 0", lambda x, y, q: is_square(y, q), 78, id="y_nonzero"),
]


@pytest.mark.parametrize("stratum,rest,oracle,size", KUMMER_Y_CASES)
def test_kummer_stratum_out_of_coord_order(stratum, rest, oracle, size):
    strat = kummer_y(stratum, rest)
    assert strat.strata[0][0].stratum.free_vars[0] == "y"  # not the coords' order
    for k in (F5, F13):
        want = {(x, y) for x in range(k.q) for y in range(k.q) if oracle(x, y, k.q)}
        assert strat.galois_set({}, k).tuples == want
    assert len(want) == size
    assert not strat.member({}, (1, 2), F13)  # x = 1 is a square, y = 2 is not
    assert strat.member({}, (2, 1), F13)


@pytest.mark.parametrize("stratum,rest,oracle,size", KUMMER_Y_CASES)
def test_product_of_kummer_strata_out_of_coord_order(stratum, rest, oracle, size):
    squares_z = GaloisStratification(("z",), [
        (CoverSpec.kummer(2, "z", "~(z = 0)"), ConjDomain(Z2, [frozenset({0})])),
        (CoverSpec.trivial(parse_formula("z = 0")), ConjDomain.empty(ONE)),
    ])
    prod = product(kummer_y(stratum, rest), squares_z)
    assert prod.coords == ("x", "y", "z")
    q = F13.q
    want = {(x, y, z) for x, y, z in itertools.product(range(q), repeat=3)
            if oracle(x, y, q) and is_square(z, q)}
    assert len(want) == size * 6  # six nonzero squares in F_13
    assert prod.galois_set({}, F13).tuples == want


def test_stratify_fixture_out_of_coord_order(tmp_path, capsys):
    doc = {
        "version": 1,
        "kind": "stratification",
        "stratification": {
            "coords": ["x", "y"],
            "strata": [
                {"cover": {"kind": "kummer", "n": 2, "f": "y",
                           "stratum": "~(y = 0) & ~(x = 0)"}, "con": [[0]]},
                {"cover": {"kind": "trivial", "stratum": "y = 0 | x = 0"}, "con": []},
            ],
        },
        "sweep": {"primes": [5, 13], "s_points": [{}]},
    }
    path = tmp_path / "kummer_y.json"
    path.write_text(json.dumps(doc))
    assert main(["stratify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    for row in report["results"]:
        q = row["q"]
        want = sorted([x, y] for x in range(1, q) for y in range(q) if is_square(y, q))
        assert row["tuples"] == want


def test_tabulated_cover_keys_in_stratum_order(tmp_path, capsys):
    """Tabulated assign keys list the point in its stratum's free-variable order."""
    q = 3
    # Frobenius 1 exactly when (y, x) = (1, 2)
    assign = {f"{y},{x}": int((y, x) == (1, 2)) for x in range(q) for y in range(q)}
    doc = {
        "version": 1,
        "kind": "stratification",
        "stratification": {
            "coords": ["x", "y"],
            "strata": [
                {"cover": {"kind": "tabulated", "group": {"cyclic": 2},
                           "stratum": "y = y & x = x", "assign": {str(q): assign}},
                 "con": [[0, 1]]},
            ],
        },
        "sweep": {"primes": [q], "s_points": [{}]},
    }
    path = tmp_path / "tabulated_yx.json"
    path.write_text(json.dumps(doc))
    assert main(["stratify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"][0]["tuples"] == [[2, 1]]


def test_cli_eliminate_classifies_each_fiber_twice(monkeypatch, capsys):
    """One galois_set call for the input set and one for the output, per fiber."""
    calls = []
    original = GaloisStratification.galois_set

    def counting(self, s_point, k):
        calls.append((k.q, tuple(sorted(s_point.items()))))
        return original(self, s_point, k)

    monkeypatch.setattr(GaloisStratification, "galois_set", counting)
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "case1_squaring.json"
    assert main(["eliminate", str(fixture)]) == 0
    report = json.loads(capsys.readouterr().out)
    fibers = [(row["q"], row["s_point"]) for row in report["results"]]
    assert fibers
    assert len(calls) == 2 * len(fibers)
    assert all(calls.count(c) == 2 for c in calls)


# -- stratum membership is decided once ---------------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_fiber_places_points_without_rechecking_the_stratum(monkeypatch):
    calls = []
    holds_at, on_stratum = covers.holds_at, CoverSpec.on_stratum
    monkeypatch.setattr(covers, "holds_at",
                        lambda *args: calls.append("holds_at") or holds_at(*args))
    monkeypatch.setattr(CoverSpec, "on_stratum",
                        lambda *args: calls.append("on_stratum") or on_stratum(*args))
    strat = load_fixture(FIXTURES / "square_indicator_strat.json").payload["stratification"]
    squares = {(x * x % 13,) for x in range(1, 13)}
    assert strat.galois_set({}, F13).tuples == squares
    assert calls == []


def test_frobenius_maps_are_built_when_a_point_arrives():
    """An inadmissible cover raises only for a fiber where one of its points lies."""
    quartic = CoverSpec.kummer(4, "x", "x^2 = 3")
    rest = CoverSpec.trivial(parse_formula("~(x^2 = 3)"))
    strat = GaloisStratification(("x",), [
        (quartic, ConjDomain.full(Z4)),
        (rest, ConjDomain.full(ONE)),
    ])
    assert len(strat.galois_set({}, make_field(7))) == 7  # 3 is no square mod 7
    with pytest.raises(InadmissiblePrime):
        strat.galois_set({}, make_field(11))  # 5^2 = 3 mod 11, and 11 != 1 mod 4
