"""Small finite fields F_q with q = p^e, exact and exhaustively verified.

Elements are plain ints 0..q-1.  For e > 1 the int encodes the coefficient
vector of a residue class mod the field's modulus, little-endian base p:
a_0 + a_1*p + ... + a_{e-1}*p^{e-1}  <->  a_0 + a_1*x + ... + a_{e-1}*x^{e-1}.

Construction is deterministic: the modulus is the first monic irreducible
polynomial of degree e in increasing order of its encoded coefficient vector,
and the generator is the smallest element (as an int) of multiplicative
order q-1.  All multiplicative structure is tabulated (q is capped), so
arithmetic is exact and reproducible bit for bit.  Addition in an extension
field is XOR for p = 2 and a Zech-logarithm lookup otherwise; the Zech
table is built on first use, never at construction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    CapExceeded,
    DenominatorNotInvertible,
    IncompatibleModulus,
    InvalidBudget,
    NonPrime,
    NotSquarefree,
    ZeroInput,
)

DEFAULT_CAP = 1 << 16

# Enumeration budget in bits: a search over F_q^n may visit at most
# 2^budget points, that is n * log2(q) <= budget.
DEFAULT_BUDGET = 24.0


def check_budget(num_vars, k, budget):
    """Refuse a search over F_q^num_vars of more than 2^budget points."""
    if not math.isfinite(budget):
        raise InvalidBudget(f"budget must be a finite number of bits, got {budget}")
    bits = num_vars * math.log2(k.q)
    if bits > budget:
        raise BudgetExceeded(f"{bits:.1f} bits exceeds budget {budget}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(n, p, e):
    out = []
    for _ in range(e):
        out.append(n % p)
        n //= p
    return out


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient lists, little-endian)

def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _pmod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _trim(a)


def _irreducible(m, p):
    """Trial division of a monic polynomial by every lower-degree monic."""
    deg = len(m) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for k in range(p ** d):
            cand = _digits(k, p, d) + [1]
            if not _pmod(m, cand, p):
                return False
    return True


class FiniteField:
    """The field F_q, q = p^e, with fixed modulus and generator."""

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise NonPrime(p)
        if e < 1:
            raise CapExceeded(f"extension degree must be >= 1, got {e}")
        q = p ** e
        if q > DEFAULT_CAP or q < 2:
            raise CapExceeded(f"q = {q} outside [2, {DEFAULT_CAP}]")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = self._find_modulus()
        self._build_tables()
        self.gen = self._find_generator()
        log = {}
        acc = 1
        for k in range(q - 1):
            log[acc] = k
            acc = self._raw_mul(acc, self.gen)
        self._exp = [0] * (q - 1)
        for elem, k in log.items():
            self._exp[k] = elem
        self._log = log
        self._zech = None  # built by zech() on first use

    # -- construction -------------------------------------------------------

    def _find_modulus(self):
        if self.e == 1:
            return (0, 1)
        for k in range(self.q):
            cand = _digits(k, self.p, self.e) + [1]
            if _irreducible(cand, self.p):
                return tuple(cand)
        raise CapExceeded("no irreducible modulus found")  # unreachable

    def _build_tables(self):
        # raw multiplication used only until the generator tables exist
        p, e = self.p, self.e
        if e == 1:
            self._raw_mul = lambda a, b: (a * b) % p
            return
        mod = list(self.modulus)

        def raw_mul(a, b):
            ca = _digits(a, p, e)
            cb = _digits(b, p, e)
            cc = _pmod(_pmul(ca, cb, p), mod, p)
            return sum(c * p ** i for i, c in enumerate(cc))

        self._raw_mul = raw_mul

    def _find_generator(self):
        n = self.q - 1
        if n == 1:
            return 1
        factors = set()
        m, d = n, 2
        while d * d <= m:
            while m % d == 0:
                factors.add(d)
                m //= d
            d += 1
        if m > 1:
            factors.add(m)
        for g in range(1, self.q):
            if all(self._raw_pow(g, n // r) != 1 for r in factors):
                return g
        raise CapExceeded("no generator found")  # unreachable

    def _raw_pow(self, a, n):
        out, base = 1, a
        while n:
            if n & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            n >>= 1
        return out

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        # Zech logarithm: g^i + g^j = g^(i + Z(j - i)), Z(n) = log(1 + g^n)
        la = self._log[a]
        z = self.zech()[(self._log[b] - la) % (self.q - 1)]
        return 0 if z < 0 else self._exp[(la + z) % (self.q - 1)]

    def zech(self):
        """Zech logarithms Z(n) = log(1 + g^n), n in 0..q-2, with -1 where
        1 + g^n = 0.  Built on first use: adding 1 only touches the
        constant digit of the base-p encoding."""
        if self._zech is None:
            p, log = self.p, self._log
            zech = []
            for x in self._exp:
                y = x + 1 if x % p != p - 1 else x - (p - 1)
                zech.append(log[y] if y else -1)
            self._zech = zech
        return self._zech

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        # -1 = g^((q-1)/2) for odd q
        return self._exp[(self._log[a] + (self.q - 1) // 2) % (self.q - 1)]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroInput("0 has no inverse")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a, n):
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroInput("0 has no inverse")
            return 0
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def frobenius(self, a):
        return self.pow(a, self.p)

    def elements(self):
        return range(self.q)

    def embed_fraction(self, fr: Fraction) -> int:
        den = fr.denominator % self.p
        if den == 0:
            raise DenominatorNotInvertible(f"denominator {fr.denominator} not invertible mod {self.p}")
        num = fr.numerator % self.p
        # inverse in the prime subfield
        inv = pow(den, self.p - 2, self.p)
        return (num * inv) % self.p

    def embed_point(self, s_point) -> dict:
        """Base-parameter values as field elements.

        An int in 0..q-1 is already an element (its base-p encoding); any
        other value is read as a rational and reduced into the prime field."""
        q = self.q
        return {name: (val if isinstance(val, int) and 0 <= val < q
                       else self.embed_fraction(Fraction(val)))
                for name, val in s_point.items()}

    def log(self, a: int) -> int:
        if a == 0:
            raise ZeroInput("log of 0")
        return self._log[a]

    def __repr__(self):
        return f"F_{self.q}" if self.e > 1 else f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))


_FIELD_CACHE: dict = {}


def make_field(p: int, e: int = 1) -> FiniteField:
    key = (p, e)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FiniteField(p, e)
    return _FIELD_CACHE[key]


def power_residue(c: int, n: int, k: FiniteField) -> int:
    """Index i in Z/n with c^((q-1)/n) = gen^(i*(q-1)/n).

    This is the discrete invariant of the Frobenius action on the degree-n
    Kummer cover through the point c; additive in c (mod n).  With c = gen^l,
    c^((q-1)/n) = gen^((l mod n)(q-1)/n), so the index is log(c) mod n.
    """
    if c == 0:
        raise ZeroInput("power residue of 0")
    if n < 1 or (k.q - 1) % n != 0:
        raise IncompatibleModulus(f"{n} does not divide q-1 = {k.q - 1}")
    return k.log(c) % n


# ---------------------------------------------------------------------------
# dense univariate polynomials over F_q (coefficient lists, little-endian)

def fq_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def fq_add(a, b, k):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = k.add(out[i], y)
    return fq_trim(out)


def fq_scale(a, s, k):
    return fq_trim([k.mul(x, s) for x in a])


def fq_mul(a, b, k):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = k.add(out[i + j], k.mul(x, y))
    return fq_trim(out)


def fq_divmod(a, b, k):
    a = list(a)
    if not b:
        raise ZeroInput("division by zero polynomial")
    inv_lead = k.inv(b[-1])
    quot = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        coef = k.mul(a[-1], inv_lead)
        shift = len(a) - len(b)
        if coef:
            quot[shift] = coef
            for i, c in enumerate(b):
                a[shift + i] = k.sub(a[shift + i], k.mul(coef, c))
        a.pop()
    return fq_trim(quot), fq_trim(a)


def fq_gcd(a, b, k):
    a, b = fq_trim(a), fq_trim(b)
    while b:
        a, b = b, fq_divmod(a, b, k)[1]
    if a:
        a = fq_scale(a, k.inv(a[-1]), k)  # monic
    return a


def fq_powmod(a, n, m, k):
    out = [1]
    base = fq_divmod(a, m, k)[1]
    while n:
        if n & 1:
            out = fq_divmod(fq_mul(out, base, k), m, k)[1]
        base = fq_divmod(fq_mul(base, base, k), m, k)[1]
        n >>= 1
    return out


def fq_derivative(a, k):
    return fq_trim([k.mul(c, i % k.p) for i, c in enumerate(a)][1:])


def distinct_degree_profile(g, k: FiniteField):
    """Multiset (sorted list) of degrees of the irreducible factors of g.

    g is a squarefree univariate polynomial over F_q given as a little-endian
    coefficient list of field elements.  Factors of degree d are detected by
    stripping gcd(x^(q^d) - x, g).
    """
    g = fq_trim(g)
    if len(g) < 2:
        raise NotSquarefree("degree must be >= 1")
    g = fq_scale(g, k.inv(g[-1]), k)
    if len(fq_gcd(g, fq_derivative(g, k), k)) != 1:
        raise NotSquarefree("gcd(g, g') != 1")
    degrees = []
    h = [0, 1]  # x
    d = 0
    while len(g) - 1 > 0:
        d += 1
        if 2 * d > len(g) - 1:
            degrees.extend([len(g) - 1])
            break
        h = fq_powmod(h, k.q, g, k)
        delta = fq_add(h, fq_scale([0, 1], k.neg(1), k), k)  # h - x
        common = fq_gcd(delta, g, k)
        if len(common) > 1:
            degrees.extend([d] * ((len(common) - 1) // d))
            g = fq_divmod(g, common, k)[0]
            h = fq_divmod(h, g, k)[1] if len(g) > 1 else [0]
    return sorted(degrees)
