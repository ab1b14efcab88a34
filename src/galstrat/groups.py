"""Finite groups on integer element sets, conjugacy machinery for cyclic
subgroups, and conjugation domains.

Elements are 0..n-1 with 0 the identity.  The group law is a full Cayley
table, exhaustively verified at construction (orders are capped at 512, so
verification is always feasible).  Subgroups are frozensets of elements;
the canonical representative of a conjugacy class of subgroups is its
lexicographically least member under sorted-tuple comparison.
"""

from __future__ import annotations

import itertools

from .errors import (
    GroupLawViolation,
    GroupMismatch,
    NotAHomomorphism,
    NotASubgroup,
    NotConjugationStable,
    NotCyclic,
    NotInjective,
    NotSurjective,
)

MAX_ORDER = 512


class FiniteGroup:
    def __init__(self, cayley, name=None, perm_gens=None):
        self.cayley = tuple(tuple(row) for row in cayley)
        self.n = len(self.cayley)
        self.name = name or f"G{self.n}"
        self.perm_gens = perm_gens
        self._verify()
        self._inverse = tuple(self._find_inverse(a) for a in range(self.n))
        self._cyclic_cache = None
        self._class_cache = None

    def _verify(self):
        n = self.n
        if n < 1 or n > MAX_ORDER:
            raise GroupLawViolation(f"order {n} outside [1, {MAX_ORDER}]")
        for row in self.cayley:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise GroupLawViolation("Cayley table is not square over 0..n-1")
        for a in range(n):
            if self.cayley[0][a] != a or self.cayley[a][0] != a:
                raise GroupLawViolation("element 0 is not the identity")
        for a in range(n):
            if 0 not in self.cayley[a]:
                raise GroupLawViolation(f"element {a} has no inverse")
        for a in range(n):
            for b in range(n):
                ab = self.cayley[a][b]
                for c in range(n):
                    if self.cayley[ab][c] != self.cayley[a][self.cayley[b][c]]:
                        raise GroupLawViolation(f"associativity fails at ({a},{b},{c})")

    def _find_inverse(self, a):
        return self.cayley[a].index(0)

    # -- law ------------------------------------------------------------------

    def mul(self, a, b):
        return self.cayley[a][b]

    def inv(self, a):
        return self._inverse[a]

    def conj(self, g, x):
        """x^-1 g x."""
        return self.mul(self.mul(self.inv(x), g), x)

    def order(self, a):
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    def elements(self):
        return range(self.n)

    # -- subgroups ---------------------------------------------------------------

    def cyclic_subgroup(self, g):
        out = {0}
        x = g
        while x != 0:
            out.add(x)
            x = self.mul(x, g)
        return frozenset(out)

    def is_subgroup(self, s):
        s = frozenset(s)
        outside = sorted(x for x in s if not 0 <= x < self.n)
        if outside:
            raise NotASubgroup(f"elements {outside} are not in 0..{self.n - 1}")
        if 0 not in s:
            return False
        return all(self.mul(a, b) in s for a in s for b in s)

    def is_cyclic_subgroup(self, s):
        s = frozenset(s)
        return self.is_subgroup(s) and any(self.cyclic_subgroup(g) == s for g in s)

    def conjugate_subgroup(self, s, x):
        return frozenset(self.conj(g, x) for g in s)

    def cyclic_subgroups(self):
        if self._cyclic_cache is None:
            self._cyclic_cache = frozenset(self.cyclic_subgroup(g) for g in self.elements())
        return self._cyclic_cache

    def subgroup_conjugacy_class(self, s):
        return frozenset(self.conjugate_subgroup(s, x) for x in self.elements())

    def normalizer(self, s):
        s = frozenset(s)
        return frozenset(x for x in self.elements()
                         if self.conjugate_subgroup(s, x) == s)

    def cyclic_subgroup_classes(self):
        """Conjugacy classes of cyclic subgroups, canonical representative first.

        Classes are ordered by their representative's (size, sorted elements),
        so iteration order is deterministic.
        """
        if self._class_cache is None:
            remaining = set(self.cyclic_subgroups())
            classes = []
            while remaining:
                rep = min(remaining, key=lambda s: (len(s), tuple(sorted(s))))
                cls = self.subgroup_conjugacy_class(rep)
                rep = min(cls, key=lambda s: tuple(sorted(s)))
                classes.append((rep, cls))
                remaining -= cls
            classes.sort(key=lambda rc: (len(rc[0]), tuple(sorted(rc[0]))))
            self._class_cache = tuple(classes)
        return self._class_cache

    def canonical_rep(self, s):
        """Canonical representative of the conjugacy class of the subgroup s."""
        return min(self.subgroup_conjugacy_class(s), key=lambda t: tuple(sorted(t)))

    # -- serialization -------------------------------------------------------------

    def to_json(self):
        if self.perm_gens is not None:
            return {"name": self.name, "perm_gens": [list(p) for p in self.perm_gens]}
        return {"name": self.name, "cayley": [list(row) for row in self.cayley]}

    @classmethod
    def from_json(cls, doc):
        if "cayley" in doc:
            return cls(doc["cayley"], name=doc.get("name"))
        if "perm_gens" in doc:
            return from_permutations([tuple(p) for p in doc["perm_gens"]],
                                     name=doc.get("name"))
        raise NotAHomomorphism("group document needs 'cayley' or 'perm_gens'")

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.cayley == other.cayley

    def __hash__(self):
        return hash(self.cayley)

    def __repr__(self):
        return f"{self.name}(order {self.n})"


# -- constructors ------------------------------------------------------------------

def trivial_group():
    return FiniteGroup(((0,),), name="1")


def cyclic_group(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"Z{n}")


def direct_product(g1, g2):
    n1, n2 = g1.n, g2.n
    def idx(a, b):
        return a * n2 + b
    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1, b1 in itertools.product(range(n1), range(n2)):
        for a2, b2 in itertools.product(range(n1), range(n2)):
            table[idx(a1, b1)][idx(a2, b2)] = idx(g1.mul(a1, a2), g2.mul(b1, b2))
    g = FiniteGroup(table, name=f"{g1.name}x{g2.name}")
    g.factor_orders = (n1, n2)
    return g


def product_projections(g, g1, g2):
    """The two projection homs of a direct_product-built group."""
    n2 = g2.n
    p1 = GroupHom(g, g1, [e // n2 for e in g.elements()])
    p2 = GroupHom(g, g2, [e % n2 for e in g.elements()])
    return p1, p2


def _perm_mul(p, q):
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def from_permutations(gens, name=None):
    """Group generated by one-line permutations; elements sorted, identity first."""
    if not gens:
        raise GroupLawViolation("need at least one permutation")
    deg = len(gens[0])
    ident = tuple(range(deg))
    for g in gens:
        if sorted(g) != list(ident):
            raise GroupLawViolation(f"generator {list(g)} is not a permutation of 0..{deg - 1}")
    elems = {ident}
    frontier = [tuple(g) for g in gens]
    while frontier:
        g = frontier.pop()
        if g not in elems:
            elems.add(g)
        for h in list(elems):
            for prod in (_perm_mul(g, h), _perm_mul(h, g)):
                if prod not in elems:
                    elems.add(prod)
                    frontier.append(prod)
        if len(elems) > MAX_ORDER:
            raise GroupLawViolation(f"order exceeds {MAX_ORDER}")
    ordered = sorted(elems)
    assert ordered[0] == ident
    index = {p: i for i, p in enumerate(ordered)}
    table = [[index[_perm_mul(a, b)] for b in ordered] for a in ordered]
    g = FiniteGroup(table, name=name or f"Perm{len(ordered)}",
                    perm_gens=[tuple(x) for x in gens])
    g.permutations = tuple(ordered)
    return g


def symmetric_group(n, name=None):
    if n == 1:
        return trivial_group()
    gens = [tuple([1, 0] + list(range(2, n))), tuple(list(range(1, n)) + [0])]
    return from_permutations(gens, name=name or f"S{n}")


# -- homomorphisms -------------------------------------------------------------------

class GroupHom:
    def __init__(self, source, target, mapping, skip_checks=False):
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)
        if not skip_checks:
            if len(self.mapping) != source.n:
                raise NotAHomomorphism("map table length mismatch")
            if any(not (0 <= x < target.n) for x in self.mapping):
                raise NotAHomomorphism("map value out of range")
            for a in source.elements():
                for b in source.elements():
                    if self.mapping[source.mul(a, b)] != target.mul(self.mapping[a], self.mapping[b]):
                        raise NotAHomomorphism(f"fails at ({a},{b})")
        self.injective = len(set(self.mapping)) == source.n
        self.surjective = len(set(self.mapping)) == target.n

    def __call__(self, a):
        return self.mapping[a]

    def image(self, subset=None):
        if subset is None:
            subset = self.source.elements()
        return frozenset(self.mapping[a] for a in subset)

    def preimage(self, subset):
        subset = frozenset(subset)
        return frozenset(a for a in self.source.elements() if self.mapping[a] in subset)

    def require_injective(self):
        if not self.injective:
            raise NotInjective(f"{self} is not injective")
        return self

    def require_surjective(self):
        if not self.surjective:
            raise NotSurjective(f"{self} is not surjective")
        return self

    def __repr__(self):
        return f"Hom({self.source.name} -> {self.target.name})"


def all_homomorphisms(source, target):
    """Every homomorphism source -> target, by brute force over map tables.

    Exponential in |source|; fine for the fixture groups.
    """
    homs = []
    n = source.n
    for mapping in itertools.product(range(target.n), repeat=n - 1):
        table = (0,) + mapping
        ok = True
        for a in range(n):
            for b in range(n):
                if table[source.mul(a, b)] != target.mul(table[a], table[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            homs.append(GroupHom(source, target, table, skip_checks=True))
    return homs


def injective_homomorphisms(source, target):
    return [h for h in all_homomorphisms(source, target) if h.injective]


def subgroup_embedding(group, subgroup):
    """The subgroup as its own FiniteGroup plus the inclusion hom."""
    subgroup = frozenset(subgroup)
    if not group.is_subgroup(subgroup):
        raise NotASubgroup(f"{sorted(subgroup)} is not a subgroup")
    ordered = sorted(subgroup)
    assert ordered[0] == 0
    index = {e: i for i, e in enumerate(ordered)}
    table = [[index[group.mul(a, b)] for b in ordered] for a in ordered]
    h = FiniteGroup(table, name=f"{group.name}|{len(ordered)}")
    return h, GroupHom(h, group, ordered)


# -- conjugation domains ----------------------------------------------------------------

class ConjDomain:
    """A conjugation-stable family of cyclic subgroups of a fixed group."""

    def __init__(self, group: FiniteGroup, subs):
        self.group = group
        subs = frozenset(frozenset(s) for s in subs)
        for s in subs:
            if not group.is_cyclic_subgroup(s):
                raise NotCyclic(s)
        for s in subs:
            for x in group.elements():
                if group.conjugate_subgroup(s, x) not in subs:
                    raise NotConjugationStable(group.conjugate_subgroup(s, x))
        self.subs = subs

    @classmethod
    def closure(cls, group, subs):
        """Smallest conjugation domain containing the given cyclic subgroups."""
        out = set()
        for s in subs:
            s = frozenset(s)
            if not group.is_cyclic_subgroup(s):
                raise NotCyclic(s)
            out |= group.subgroup_conjugacy_class(s)
        return cls(group, out)

    @classmethod
    def full(cls, group):
        return cls(group, group.cyclic_subgroups())

    @classmethod
    def empty(cls, group):
        return cls(group, ())

    def __contains__(self, s):
        return frozenset(s) in self.subs

    def __len__(self):
        return len(self.subs)

    def __eq__(self, other):
        return (isinstance(other, ConjDomain)
                and self.group == other.group and self.subs == other.subs)

    def __hash__(self):
        return hash((self.group, self.subs))

    def is_empty(self):
        return not self.subs

    def union(self, other):
        self._require_same_group(other)
        return ConjDomain(self.group, self.subs | other.subs)

    def intersection(self, other):
        self._require_same_group(other)
        return ConjDomain(self.group, self.subs & other.subs)

    def complement(self):
        return ConjDomain(self.group, self.group.cyclic_subgroups() - self.subs)

    def _require_same_group(self, other):
        if self.group != other.group:
            raise GroupMismatch("conjugation domains live in different groups")

    def canonical_list(self):
        return sorted((tuple(sorted(s)) for s in self.subs), key=lambda t: (len(t), t))

    def __repr__(self):
        return f"Con({self.group.name}: {self.canonical_list()})"
