"""Formal motive classes: the free commutative Q-algebra on named generator
symbols together with the Lefschetz symbol L.

Relations from geometry (projective bundles, blow-ups) are supplied by
constructors rather than by rewriting, and a point-count specialization
homomorphism sends L to q and each named generator to a tabulated count.
Printing is bit-exact: rationals as a/b, monomials as [Name]*L^k, named
monomials first, then powers of L in increasing order.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MissingCount, NegativeExponent


class MotiveClass:
    """Map {(names tuple sorted, L-exponent) -> Fraction}; no zero terms."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (names, k), coef in (terms or {}).items():
            coef = Fraction(coef)
            if coef == 0:
                continue
            names = tuple(sorted(names))
            if k < 0:
                raise NegativeExponent(f"L-exponent {k} < 0")
            key = (names, k)
            clean[key] = clean.get(key, Fraction(0)) + coef
            if clean[key] == 0:
                del clean[key]
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({((), 0): Fraction(1)})

    @classmethod
    def constant(cls, value):
        return cls({((), 0): Fraction(value)})

    @classmethod
    def generator(cls, name):
        return cls({((name,), 0): Fraction(1)})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MotiveClass.constant(other)
        terms = dict(self.terms)
        for key, coef in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + coef
        return MotiveClass(terms)

    __radd__ = __add__

    def __neg__(self):
        return MotiveClass({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MotiveClass.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MotiveClass.constant(other)
        terms = {}
        for (n1, k1), c1 in self.terms.items():
            for (n2, k2), c2 in other.terms.items():
                key = (tuple(sorted(n1 + n2)), k1 + k2)
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return MotiveClass(terms)

    __rmul__ = __mul__

    def scale(self, c):
        return MotiveClass({k: Fraction(c) * v for k, v in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MotiveClass.constant(other)
        return isinstance(other, MotiveClass) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        def key(item):
            names, k = item
            return (0 if names else 1, names, k)
        parts = []
        for names, k in sorted(self.terms, key=key):
            coef = self.terms[(names, k)]
            factors = [f"[{n}]" for n in names]
            if k == 1:
                factors.append("L")
            elif k > 1:
                factors.append(f"L^{k}")
            if not factors:
                parts.append(_frac(coef))
            elif coef == 1:
                parts.append("*".join(factors))
            else:
                parts.append(_frac(coef) + "*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MotiveClass({self})"

    def to_json(self):
        return [[list(names), k, str(coef)] for (names, k), coef
                in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, doc):
        return cls({(tuple(names), k): Fraction(coef) for names, k, coef in doc})


def _frac(fr: Fraction) -> str:
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


L = MotiveClass({((), 1): Fraction(1)})


def lefschetz_power(i: int) -> MotiveClass:
    if i < 0:
        raise NegativeExponent(f"L-exponent {i} < 0")
    return MotiveClass({((), i): Fraction(1)})


def projective_space_class(d: int) -> MotiveClass:
    """1 + L + ... + L^d, the class of P^d."""
    if d < 0:
        raise NegativeExponent(f"dimension {d} < 0")
    return MotiveClass({((), i): Fraction(1) for i in range(d + 1)})


def bundle_class(base: MotiveClass, r: int) -> MotiveClass:
    """Class of a projectivized rank-(r+1) bundle: base * (1 + ... + L^r)."""
    return base * projective_space_class(r)


def blowup_class(x: MotiveClass, z: MotiveClass, r: int) -> MotiveClass:
    """Class of the blow-up of x along a codimension-r center z.

    [X'] = [X] + [Z]*(L + ... + L^(r-1)); the exceptional divisor has class
    [Z]*(1 + ... + L^(r-1)), so [X] + [E] = [X'] + [Z] holds by construction.
    """
    if r < 1:
        raise NegativeExponent(f"codimension {r} < 1")
    ladder = MotiveClass({((), i): Fraction(1) for i in range(1, r)})
    return x + z * ladder


def exceptional_class(z: MotiveClass, r: int) -> MotiveClass:
    return z * projective_space_class(r - 1)


class CountTable:
    """Point counts per generator name and admissible q."""

    def __init__(self, counts=None):
        self.counts = {}
        for name, table in (counts or {}).items():
            self.counts[name] = {int(q): Fraction(v) for q, v in table.items()}

    def set(self, name, q, value):
        self.counts.setdefault(name, {})[int(q)] = Fraction(value)
        return self

    def get(self, name, q):
        try:
            return self.counts[name][q]
        except KeyError:
            raise MissingCount(f"no count for [{name}] at q={q}") from None

    @classmethod
    def for_torus(cls, names, qs):
        """Convenience: every name counts q-1 (the multiplicative group)."""
        table = cls()
        for name in names:
            for q in qs:
                table.set(name, q, q - 1)
        return table


def specialize(m: MotiveClass, q: int, table: CountTable | None = None) -> Fraction:
    """Ring homomorphism: L -> q, [Name] -> table count at q."""
    table = table or CountTable()
    acc = Fraction(0)
    for (names, k), coef in m.terms.items():
        val = coef * Fraction(q) ** k
        for name in names:
            val *= table.get(name, q)
        acc += val
    return acc
