"""The motivic incarnation: from conjugation domains to motive classes.

The central-function route is used throughout: decompose a Q-central
function through the cyclic-subgroup Artin basis and replace each induced
trivial character by the class of the corresponding quotient of the cover.
Quotient classes are fixture data keyed by canonical subgroup
representatives (conjugate subgroups share a class).

The recursion for the class of the exact-decomposition-class formula on a
cyclic tower is solved over the subgroup lattice, and everything can be
cross-validated against brute-force point counts over declared primes.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import QCentralFunction, alpha_from_conj_domain, artin_decompose
from .errors import MissingData, MissingQuotient
from .groups import ConjDomain, FiniteGroup
from .motives import CountTable, MotiveClass, specialize
from .stratifications import GaloisStratification


class QuotientClassData:
    """Map {cyclic subgroup H (canonical rep) -> class of Y/H}."""

    def __init__(self, group: FiniteGroup, classes):
        self.group = group
        self.classes = {}
        for sub, cls in classes.items():
            rep = group.canonical_rep(frozenset(sub))
            if rep in self.classes and self.classes[rep] != cls:
                raise MissingQuotient(rep)  # conflicting data for conjugate subgroups
            self.classes[rep] = cls
        if frozenset({0}) not in self.classes:
            raise MissingData("quotient data must contain the trivial subgroup")

    def quotient(self, sub) -> MotiveClass:
        rep = self.group.canonical_rep(frozenset(sub))
        if rep not in self.classes:
            raise MissingQuotient(rep)
        return self.classes[rep]


def kummer_quotient_data(n: int, symbol: str = "Gm") -> QuotientClassData:
    """All quotients of the degree-n Kummer cover of the torus are tori."""
    from .groups import cyclic_group
    group = cyclic_group(n)
    cls = MotiveClass.generator(symbol)
    return QuotientClassData(group, {sub: cls for sub in group.cyclic_subgroups()})


def chi_c_alpha(alpha: QCentralFunction, data: QuotientClassData) -> MotiveClass:
    """Sum of c_H * [Y/H] over the Artin decomposition of alpha."""
    if alpha.group != data.group:
        raise MissingData("central function and quotient data on different groups")
    if alpha.is_zero():
        return MotiveClass.zero()
    out = MotiveClass.zero()
    for rep, coeff in artin_decompose(alpha).items():
        if coeff == 0:
            continue
        out = out + data.quotient(rep).scale(coeff)
    return out


def chi_formula_class(c_subgroup, data: QuotientClassData) -> MotiveClass:
    """Class of the exact-decomposition-class formula at a cyclic subgroup.

    Solved by the recursion |C|*[Y/C] = sum over subgroups A of C of
    |A| * (A-level class), peeling the proper subgroups off the lattice.
    """
    group = data.group
    c_subgroup = frozenset(c_subgroup)
    if not group.is_cyclic_subgroup(c_subgroup):
        raise MissingData(f"{sorted(c_subgroup)} is not a cyclic subgroup")
    cache = {}

    def level(sub):
        if sub in cache:
            return cache[sub]
        subs_of = sorted({group.cyclic_subgroup(g) for g in sub}, key=len)
        acc = data.quotient(sub).scale(len(sub))
        for a in subs_of:
            if a == sub:
                continue
            acc = acc - level(a).scale(len(a))
        out = acc.scale(Fraction(1, len(sub)))
        cache[sub] = out
        return out

    return level(c_subgroup)


def conjugation_class_chi(c_subgroup, data: QuotientClassData) -> MotiveClass:
    """chi of the single-class domain {conjugates of C} on the full cover."""
    con = ConjDomain.closure(data.group, [c_subgroup])
    return chi_c_alpha(alpha_from_conj_domain(con), data)


def chi_stratification(strat: GaloisStratification, data) -> MotiveClass:
    """Sum of per-stratum chi values; data maps stratum index -> QuotientClassData."""
    out = MotiveClass.zero()
    for i in strat.support():
        cover, con = strat.strata[i]
        if i not in data:
            raise MissingData(f"no quotient data for support stratum {i} ({cover.label})")
        if data[i].group != cover.group:
            raise MissingData(f"quotient data group mismatch on stratum {i}")
        alpha = alpha_from_conj_domain(con)
        out = out + chi_c_alpha(alpha, data[i])
    return out


class ChiReport:
    """Specialization-vs-count comparison across a prime/point sweep."""

    def __init__(self, symbolic: MotiveClass, rows):
        self.symbolic = symbolic
        self.rows = list(rows)

    @property
    def verdict(self) -> bool:
        return all(row["match"] for row in self.rows)

    def first_mismatch(self):
        for row in self.rows:
            if not row["match"]:
                return row
        return None

    def __repr__(self):
        return f"ChiReport({'Pass' if self.verdict else 'Fail'}, {len(self.rows)} rows)"


def verify_specialization(symbolic: MotiveClass, strat: GaloisStratification,
                          table: CountTable, sweep) -> ChiReport:
    """Compare specializations with brute-force counts; mismatches land in the report."""
    rows = []
    for k, s_point in sweep:
        spec = specialize(symbolic, k.q, table)
        count = len(strat.galois_set(s_point, k))
        rows.append({
            "q": k.q,
            "s_point": dict(s_point),
            "specialized": spec,
            "count": count,
            "match": spec == count,
        })
    return ChiReport(symbolic, rows)
