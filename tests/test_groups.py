"""Groups, subgroup conjugacy, conjugation domains."""

import itertools

import pytest

from galstrat.errors import (
    GroupLawViolation,
    NotAHomomorphism,
    NotASubgroup,
    NotConjugationStable,
    NotCyclic,
    NotInjective,
    NotSurjective,
)
from galstrat.groups import (
    ConjDomain,
    FiniteGroup,
    GroupHom,
    all_homomorphisms,
    cyclic_group,
    direct_product,
    from_permutations,
    injective_homomorphisms,
    subgroup_embedding,
    symmetric_group,
    trivial_group,
)


def brute_force_cyclic_subgroup_classes(g):
    """Oracle: enumerate all subsets that are subgroups, keep the cyclic
    ones, and partition by conjugacy, independently of the implementation."""
    elements = list(g.elements())
    subgroups = []
    for r in range(1, len(elements) + 1):
        for subset in itertools.combinations(elements, r):
            s = set(subset)
            if 0 not in s:
                continue
            if any(g.mul(a, b) not in s for a in s for b in s):
                continue
            if not any({_power(g, x, i) for i in range(1, g.order(x) + 1)} == s for x in s):
                continue
            subgroups.append(frozenset(s))
    classes = []
    remaining = set(subgroups)
    while remaining:
        s = remaining.pop()
        cls = {frozenset(g.conj(x, h) for x in s) for h in elements}
        remaining -= cls
        classes.append(cls)
    return classes


def _power(g, x, n):
    out = 0
    for _ in range(n):
        out = g.mul(out, x)
    return out


def test_cyclic_subgroup_classes_s3():
    s3 = symmetric_group(3)
    got = s3.cyclic_subgroup_classes()
    assert len(got) == 3
    oracle = brute_force_cyclic_subgroup_classes(s3)
    assert len(oracle) == 3
    got_classes = [set(cls) for _, cls in got]
    assert all(cls in got_classes for cls in oracle)
    # representatives are the lexicographically least members
    for rep, cls in got:
        assert rep == min(cls, key=lambda t: tuple(sorted(t)))


def test_cyclic_subgroup_classes_z4():
    z4 = cyclic_group(4)
    got = z4.cyclic_subgroup_classes()
    assert [sorted(rep) for rep, _ in got] == [[0], [0, 2], [0, 1, 2, 3]]
    assert all(len(cls) == 1 for _, cls in got)  # abelian: class = subgroup


def test_cyclic_subgroup_classes_trivial():
    assert len(trivial_group().cyclic_subgroup_classes()) == 1


def test_group_law_verification():
    with pytest.raises(GroupLawViolation):
        FiniteGroup([[0, 1], [1, 1]])  # not a group
    with pytest.raises(GroupLawViolation):
        FiniteGroup([[1, 0], [0, 1]])  # 0 not identity


def test_klein_four_vs_z4_distinct():
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    z4 = cyclic_group(4)
    assert len(v4.cyclic_subgroups()) == 4  # {e}, three order-2 lines
    assert len(z4.cyclic_subgroups()) == 3


def test_symmetric_group_structure():
    s3 = symmetric_group(3)
    assert s3.n == 6
    assert sorted(s3.order(g) for g in s3.elements()) == [1, 2, 2, 2, 3, 3]


def test_hom_verification_and_flags():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    red = GroupHom(z4, z2, [0, 1, 0, 1])
    assert red.surjective and not red.injective
    with pytest.raises(NotAHomomorphism):
        GroupHom(z4, z2, [0, 1, 1, 0])
    with pytest.raises(NotInjective):
        red.require_injective()
    incl = GroupHom(z2, z4, [0, 2])
    assert incl.injective and not incl.surjective
    with pytest.raises(NotSurjective):
        incl.require_surjective()


def test_all_homomorphisms_counts():
    z2, z4 = cyclic_group(2), cyclic_group(4)
    s3 = symmetric_group(3)
    assert len(all_homomorphisms(z2, z4)) == 2        # 0 and x -> 2
    assert len(injective_homomorphisms(z2, z4)) == 1
    assert len(injective_homomorphisms(z2, s3)) == 3  # three transpositions
    assert len(injective_homomorphisms(z4, s3)) == 0  # no order-4 element
    v4 = direct_product(z2, z2)
    assert len(injective_homomorphisms(v4, s3)) == 0


def test_subgroup_embedding():
    s3 = symmetric_group(3)
    rot = next(rep for rep, _ in s3.cyclic_subgroup_classes() if len(rep) == 3)
    h, incl = subgroup_embedding(s3, rot)
    assert h.n == 3
    assert incl.injective
    assert incl.image() == rot


def test_normalizer():
    s3 = symmetric_group(3)
    transp = next(rep for rep, _ in s3.cyclic_subgroup_classes() if len(rep) == 2)
    assert len(s3.normalizer(transp)) == 2
    rot = next(rep for rep, _ in s3.cyclic_subgroup_classes() if len(rep) == 3)
    assert len(s3.normalizer(rot)) == 6


def test_conj_domain_invariants():
    s3 = symmetric_group(3)
    transp = next(rep for rep, _ in s3.cyclic_subgroup_classes() if len(rep) == 2)
    with pytest.raises(NotConjugationStable) as err:
        ConjDomain(s3, [transp])  # misses the conjugates
    assert sorted(err.value.subgroup)  # error names a subgroup
    full_class = ConjDomain.closure(s3, [transp])
    assert len(full_class) == 3
    rot = next(rep for rep, _ in s3.cyclic_subgroup_classes() if len(rep) == 3)
    with pytest.raises(NotCyclic):
        ConjDomain(s3, [frozenset(s3.elements())])  # S3 itself is not cyclic
    assert ConjDomain.closure(s3, [rot]).subs == {rot}


def test_conj_domain_boolean_structure():
    z4 = cyclic_group(4)
    a = ConjDomain(z4, [frozenset({0})])
    b = ConjDomain(z4, [frozenset({0, 2})])
    assert a.union(b).canonical_list() == [(0,), (0, 2)]
    assert a.intersection(b).is_empty()
    assert a.complement().canonical_list() == [(0, 2), (0, 1, 2, 3)]
    assert a.complement().complement() == a


def test_group_json_round_trip():
    s3 = symmetric_group(3)
    doc = s3.to_json()
    again = FiniteGroup.from_json(doc)
    assert again.cayley == s3.cayley
    z4 = cyclic_group(4)
    again2 = FiniteGroup.from_json(z4.to_json())
    assert again2.cayley == z4.cayley


def test_from_permutations_identity_first():
    g = from_permutations([(1, 2, 0)])
    assert g.n == 3
    assert g.permutations[0] == (0, 1, 2)


@pytest.mark.parametrize("gens", [[(0, 5)], [(1, 1)], [(1, 0), (0, 2, 1)]])
def test_from_permutations_rejects_non_permutations(gens):
    with pytest.raises(GroupLawViolation, match="not a permutation"):
        from_permutations(gens)


@pytest.mark.parametrize("subset", [{0, 7}, {0, -1}])
def test_elements_outside_the_group_are_rejected(subset):
    z2 = cyclic_group(2)
    with pytest.raises(NotASubgroup, match="not in 0..1"):
        z2.is_subgroup(subset)
    with pytest.raises(NotASubgroup):
        ConjDomain(z2, [subset])
