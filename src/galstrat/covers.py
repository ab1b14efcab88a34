"""Explicit cover descriptors and their Frobenius data at finite-field points.

Three kinds of cover are understood directly: the trivial cover, Kummer
covers u^n = f(x) (whose Frobenius through a point is read off from a power
residue), and tabulated covers (pure group-theoretic fixtures with the
Frobenius assignment supplied as data).  Product covers combine component
Frobenius elements through a witness group surjecting onto both factors.

The decomposition class of a point is the cyclic subgroup generated by its
Frobenius element; for Kummer covers an independent cross-check computes
the same order by factoring the fiber polynomial.
"""

from __future__ import annotations

from .errors import (
    InadmissiblePrime,
    PointOffStratum,
    SchemaError,
    UnequalDegrees,
    WitnessInvalid,
)
from .fields import FiniteField, distinct_degree_profile, power_residue
from .formulas import Formula, fresh_conjunction, holds_at, parse_formula, substitute_formula
from .groups import FiniteGroup, cyclic_group, trivial_group
from .polynomials import Poly, parse_poly

KUMMER_ZERO = "Kummer function vanishes on the stratum"


class AdmissiblePrimes:
    """Congruence conditions on the field order q plus an exclusion list."""

    def __init__(self, congruences=(), exclude=()):
        self.congruences = tuple((int(m), int(r)) for m, r in congruences)
        self.exclude = frozenset(int(x) for x in exclude)

    def admits(self, q: int) -> bool:
        if q in self.exclude:
            return False
        return all(q % m == r for m, r in self.congruences)

    def require(self, q: int):
        if not self.admits(q):
            raise InadmissiblePrime(f"q = {q} violates {self.describe()}")

    def merge(self, other: "AdmissiblePrimes") -> "AdmissiblePrimes":
        return AdmissiblePrimes(self.congruences + other.congruences,
                                self.exclude | other.exclude)

    def describe(self):
        conds = [f"q = {r} mod {m}" for m, r in self.congruences]
        if self.exclude:
            conds.append(f"q not in {sorted(self.exclude)}")
        return " and ".join(conds) if conds else "all q"

    @classmethod
    def from_json(cls, doc):
        """Read an admissible document whose shape the fixture schema has checked;
        a modulus m < 1 raises SchemaError."""
        doc = doc or {}
        mod = doc.get("mod", [])
        if mod and type(mod[0]) is int:  # one [m, r] pair rather than a list of pairs
            mod = [mod]
        if any(m < 1 for m, _ in mod):
            raise SchemaError([f"admissible mod needs every modulus m >= 1, got {doc['mod']!r}"])
        return cls(congruences=mod, exclude=doc.get("exclude", []))

    def to_json(self):
        return {"mod": [list(c) for c in self.congruences],
                "exclude": sorted(self.exclude)}

    def __repr__(self):
        return f"AdmissiblePrimes({self.describe()})"


ALL_PRIMES = AdmissiblePrimes()


class CoverSpec:
    """A Galois-cover descriptor over a locally closed stratum of A^m_S."""

    def __init__(self, kind, group: FiniteGroup, stratum: Formula,
                 admissible: AdmissiblePrimes = ALL_PRIMES, label=None, **data):
        self.kind = kind
        self.group = group
        self.stratum = stratum
        self.admissible = admissible
        self.label = label or kind
        self.data = data
        if kind == "kummer":
            if group.n != data["n"]:
                raise WitnessInvalid("Kummer cover group must be cyclic of order n")

    # -- constructors ------------------------------------------------------------

    @classmethod
    def trivial(cls, stratum: Formula, admissible=ALL_PRIMES, label=None):
        return cls("trivial", trivial_group(), stratum, admissible, label)

    @classmethod
    def kummer(cls, n: int, f: Poly | str, stratum: Formula | str,
               admissible=None, label=None):
        """u^n = f over the stratum; the stratum is conjoined with f != 0."""
        if isinstance(f, str):
            f = parse_poly(f)
        if isinstance(stratum, str):
            stratum = parse_formula(stratum)
        stratum = fresh_conjunction(stratum, f)
        if admissible is None:
            admissible = AdmissiblePrimes(congruences=[(n, 1 % n)])
        return cls("kummer", cyclic_group(n), stratum, admissible,
                   label or f"kummer(u^{n}={f})", n=n, f=f)

    @classmethod
    def tabulated(cls, group: FiniteGroup, stratum: Formula, assign,
                  admissible=ALL_PRIMES, label=None):
        """assign: callable (s_point, a, k) -> Frobenius element of group."""
        return cls("tabulated", group, stratum, admissible, label, assign=assign)

    @classmethod
    def product(cls, factors, stratum, group, embed_element,
                admissible=ALL_PRIMES, label=None):
        """Combined cover: embed_element(e1, e2, ...) -> element of group.

        The stratum's free variables are the factors' free variables, one
        block per factor, in factor order."""
        return cls("product", group, stratum, admissible, label,
                   factors=tuple(factors), embed_element=embed_element)

    # -- evaluation -----------------------------------------------------------------

    def on_stratum(self, s_point, a, k: FiniteField) -> bool:
        return holds_at(self.stratum, s_point, a, k)

    def frobenius_map(self, s_point, k: FiniteField):
        """a -> Frobenius element on the fiber (k, s_point), for a already on the
        stratum, in stratum.free_vars order; only a Kummer zero is caught."""
        self.admissible.require(k.q)
        if self.kind == "trivial":
            return lambda a: 0
        if self.kind == "kummer":
            value_at, n = _kummer_function(self, s_point, k), self.data["n"]

            def kummer(a):
                value = value_at(a)
                if value == 0:
                    raise PointOffStratum(KUMMER_ZERO)
                return power_residue(value, n, k)

            return kummer
        if self.kind == "tabulated":
            return lambda a: self.data["assign"](s_point, tuple(a), k)
        if self.kind == "product":
            embed, blocks, lo = self.data["embed_element"], [], 0
            for cover in self.data["factors"]:
                hi = lo + len(cover.stratum.free_vars)
                blocks.append((cover.frobenius_map(s_point, k), lo, hi))
                lo = hi
            return lambda a: embed(*(frob(a[lo:hi]) for frob, lo, hi in blocks))
        raise WitnessInvalid(f"unknown cover kind {self.kind!r}")

    def residue_leaf(self, k: FiniteField, con):
        """(f, n, residues) when frobenius_map reads its element at a as the
        power residue of f(a), which is log(f(a)) mod n (`power_residue`):
        a Kummer cover with n | q - 1, residues being the elements whose
        class lies in con.  None for any other cover.  A zero f(a) raises
        PointOffStratum(KUMMER_ZERO) in both readings."""
        if self.kind != "kummer" or (k.q - 1) % self.data["n"]:
            return None
        n = self.data["n"]
        return self.data["f"], n, frozenset(
            r for r in range(n) if self.group.cyclic_subgroup(r) in con)

    def frobenius_element(self, s_point, a, k: FiniteField) -> int:
        """The distinguished generator of the decomposition class at a.

        a lists the point's coordinates in the order of stratum.free_vars."""
        self.admissible.require(k.q)
        if not self.on_stratum(s_point, a, k):
            raise PointOffStratum(f"{a} does not satisfy {self.stratum}")
        return self.frobenius_map(s_point, k)(a)

    def decomposition_class(self, s_point, a, k: FiniteField) -> frozenset:
        """Cyclic subgroup generated by Frobenius (class = subgroup for abelian)."""
        return self.group.cyclic_subgroup(self.frobenius_element(s_point, a, k))

    def signature(self):
        """Kind, group, stratum, admissible primes and Frobenius data: two
        descriptors give the same cover exactly when their signatures are
        equal.  A callable in it (a tabulated assignment, a product's
        embedding) equals only itself."""
        sig = (self.kind, self.group.cayley, str(self.stratum),
               frozenset(self.admissible.congruences), self.admissible.exclude)
        if self.kind == "kummer":
            return sig + (self.data["n"], str(self.data["f"]))
        if self.kind == "tabulated":
            return sig + (self.data["assign"],)
        if self.kind == "product":
            return sig + (self.data["embed_element"],
                          tuple(cover.signature() for cover in self.data["factors"]))
        return sig

    def substitute_base(self, mapping) -> "CoverSpec":
        """Specialize base parameters inside the stratum formula and cover data."""
        stratum = substitute_formula(self.stratum, mapping)
        if self.kind == "trivial":
            return CoverSpec("trivial", self.group, stratum, self.admissible, self.label)
        if self.kind == "kummer":
            f = self.data["f"]
            if set(f.variables) & set(mapping):
                f = f.substitute(mapping)
            return CoverSpec("kummer", self.group, stratum, self.admissible,
                             self.label, n=self.data["n"], f=f)
        if self.kind == "tabulated":
            assign = self.data["assign"]

            def bound_assign(s_point, a, k, _assign=assign, _fixed=dict(mapping)):
                merged = dict(_fixed)
                merged.update(s_point)
                return _assign(merged, a, k)

            return CoverSpec("tabulated", self.group, stratum, self.admissible,
                             self.label, assign=bound_assign)
        if self.kind == "product":
            factors = tuple(c.substitute_base(mapping) for c in self.data["factors"])
            return CoverSpec("product", self.group, stratum, self.admissible, self.label,
                             factors=factors, embed_element=self.data["embed_element"])
        raise WitnessInvalid(f"unknown cover kind {self.kind!r}")

    def __repr__(self):
        return f"CoverSpec({self.label}, group={self.group.name}, stratum={self.stratum})"


def fiber_decomposition_order(coeffs, k: FiniteField) -> int:
    """Common irreducible-factor degree of a squarefree fiber polynomial.

    For a Galois fiber all residue degrees agree; unequal degrees signal
    non-Galois input and raise.
    """
    profile = distinct_degree_profile(coeffs, k)
    if len(set(profile)) != 1:
        raise UnequalDegrees(f"factor degrees {profile} are not all equal")
    return profile[0]


def _kummer_function(cover: CoverSpec, s_point, k: FiniteField):
    """a -> f(s_point, a) for the Kummer function f, compiled once per fiber."""
    f, names = cover.data["f"].compile(k), cover.stratum.free_vars
    env = k.embed_point(s_point)

    def value(a):
        env.update(zip(names, a))
        return f(env)

    return value


def kummer_fiber_coeffs(cover: CoverSpec, s_point, a, k: FiniteField):
    """Dense coefficients of u^n - f(a) over F_q, the factoring cross-check."""
    if cover.kind != "kummer":
        raise WitnessInvalid("fiber polynomial only defined for Kummer covers")
    value = _kummer_function(cover, s_point, k)(a)
    n = cover.data["n"]
    return [k.neg(value)] + [0] * (n - 1) + [1]
