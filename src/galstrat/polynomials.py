"""Sparse multivariate polynomials with exact rational coefficients.

A Poly is a map {exponent vector -> Fraction} over an ordered variable list.
Zero coefficients are never stored.  Text syntax: integers, identifiers,
`+ - * ^`, parentheses, and rationals written `a/b`; canonical printing
lists terms in graded-lexicographic order (total degree first), highest
term first.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DenominatorNotInvertible, FormulaSyntaxError, MissingVariable
from .fields import FiniteField


class Poly:
    __slots__ = ("variables", "terms", "_compiled")

    def __init__(self, variables, terms=None):
        self._compiled = None  # field -> evaluator, filled by compile()
        self.variables = tuple(variables)
        clean = {}
        for expo, coef in (terms or {}).items():
            coef = Fraction(coef)
            if coef == 0:
                continue
            expo = tuple(expo)
            if len(expo) != len(self.variables):
                raise ValueError("exponent vector length mismatch")
            clean[expo] = coef
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value, variables=()):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def variable(cls, name, variables=None):
        if variables is None:
            variables = (name,)
        variables = tuple(variables)
        expo = tuple(1 if v == name else 0 for v in variables)
        if name not in variables:
            raise MissingVariable(name)
        return cls(variables, {expo: Fraction(1)})

    def with_variables(self, variables):
        """Re-index onto a superset variable list."""
        variables = tuple(variables)
        idx = []
        for v in self.variables:
            if v not in variables:
                raise MissingVariable(v)
            idx.append(variables.index(v))
        terms = {}
        for expo, coef in self.terms.items():
            new = [0] * len(variables)
            for pos, exp in zip(idx, expo):
                new[pos] += exp
            terms[tuple(new)] = terms.get(tuple(new), Fraction(0)) + coef
        return Poly(variables, terms)

    # -- ring structure -------------------------------------------------------

    def _align(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self.variables)
        if self.variables == other.variables:
            return self, other
        merged = tuple(dict.fromkeys(self.variables + other.variables))
        return self.with_variables(merged), other.with_variables(merged)

    def __add__(self, other):
        a, b = self._align(other)
        terms = dict(a.terms)
        for expo, coef in b.terms.items():
            terms[expo] = terms.get(expo, Fraction(0)) + coef
        return Poly(a.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        a, b = self._align(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._align(other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                expo = tuple(x + y for x, y in zip(e1, e2))
                terms[expo] = terms.get(expo, Fraction(0)) + c1 * c2
        return Poly(a.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._align(other)
        return a.terms == b.terms

    def __hash__(self):
        key = tuple(sorted(
            (tuple(sorted((v, e) for v, e in zip(self.variables, expo) if e)), coef)
            for expo, coef in self.terms.items()))
        return hash(key)

    def is_zero(self):
        return not self.terms

    def used_variables(self):
        used = set()
        for expo in self.terms:
            for v, e in zip(self.variables, expo):
                if e:
                    used.add(v)
        return used

    # -- substitution and evaluation ------------------------------------------

    def substitute(self, mapping):
        """Replace variables by Poly or rational values; others kept."""
        kept = tuple(v for v in self.variables if v not in mapping)
        extra = []
        for value in mapping.values():
            if isinstance(value, Poly):
                for v in value.variables:
                    if v not in kept and v not in extra:
                        extra.append(v)
        out_vars = kept + tuple(extra)
        out = Poly.constant(0, out_vars)
        for expo, coef in self.terms.items():
            term = Poly.constant(coef, out_vars)
            for v, e in zip(self.variables, expo):
                if not e:
                    continue
                if v in mapping:
                    value = mapping[v]
                    if not isinstance(value, Poly):
                        value = Poly.constant(value, out_vars)
                    term = term * value ** e
                else:
                    term = term * Poly.variable(v, out_vars) ** e
            out = out + term
        return out

    def compile(self, k: FiniteField):
        """Evaluator env -> F_q element, built once per field.

        Coefficients are reduced into F_q and zero terms dropped up front;
        each monomial becomes (variable, exponent) pairs.  An unbound used
        variable raises MissingVariable and a coefficient whose denominator
        p divides raises DenominatorNotInvertible, both at evaluation time.
        """
        memo = self._compiled
        if memo is None:
            memo = self._compiled = {}
        fn = memo.get(k)
        if fn is None:
            fn = memo[k] = _compile(self, k)
        return fn

    def eval_field(self, assign, k: FiniteField):
        """Value at a point with coordinates in F_q (ints)."""
        return self.compile(k)(assign)

    def eval_rational(self, assign):
        acc = Fraction(0)
        for expo, coef in self.terms.items():
            val = coef
            for v, e in zip(self.variables, expo):
                if e:
                    val *= Fraction(assign[v]) ** e
            acc += val
        return acc

    # -- printing --------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        def key(expo):
            return (-sum(expo), tuple(-e for e in expo))
        parts = []
        for expo in sorted(self.terms, key=key):
            coef = self.terms[expo]
            factors = []
            for v, e in zip(self.variables, expo):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                parts.append(_frac_str(coef))
            elif coef == 1:
                parts.append("*".join(factors))
            elif coef == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(_frac_str(coef) + "*" + "*".join(factors))
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __repr__(self):
        return f"Poly({self})"


def _frac_str(fr: Fraction) -> str:
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def _compile(f: Poly, k: FiniteField):
    used = tuple(f.used_variables())
    terms = []
    for expo, coef in f.terms.items():
        if coef.denominator % k.p == 0:
            return _raiser(used, f"denominator {coef.denominator} not invertible mod {k.p}")
        c = k.embed_fraction(coef)
        if c:
            terms.append((c, tuple((v, e) for v, e in zip(f.variables, expo) if e)))
    # variables of terms that vanish mod p must be bound all the same
    kept = {v for _, factors in terms for v, _ in factors}
    unchecked = tuple(v for v in used if v not in kept)
    if k.e == 1:
        return _prime_evaluator(terms, k.p, used, unchecked)
    return _extension_evaluator(terms, k, used, unchecked)


def _require_bound(names, env):
    for v in names:
        if v not in env:
            raise MissingVariable(v)


def _raiser(used, message):
    def evaluate(env):
        _require_bound(used, env)
        raise DenominatorNotInvertible(message)
    return evaluate


def _prime_evaluator(terms, p, used, unchecked):
    """Integer arithmetic with a single reduction mod p at the end."""
    def evaluate(env):
        if unchecked:
            _require_bound(unchecked, env)
        acc = 0
        try:
            for c, factors in terms:
                for v, e in factors:
                    c *= env[v] ** e
                acc += c
        except KeyError:
            _require_bound(used, env)
            raise
        return acc % p
    return evaluate


def _extension_evaluator(terms, k: FiniteField, used, unchecked):
    """Monomials through the log/exp tables, where a zero factor kills the
    term.  The running sum is kept as a logarithm (None for 0) and terms
    are added to it through the field's Zech logarithms."""
    log, exp, zech, n = k._log, k._exp, k.zech(), k.q - 1
    log_terms = [(log[c], factors) for c, factors in terms]

    def evaluate(env):
        if unchecked:
            _require_bound(unchecked, env)
        acc = None
        try:
            for lc, factors in log_terms:
                zero = False
                for v, e in factors:
                    x = env[v]
                    if x:
                        lc += e * log[x]
                    else:
                        zero = True
                if zero:
                    continue
                if acc is None:
                    acc = lc % n
                else:
                    z = zech[(lc - acc) % n]
                    acc = None if z < 0 else (acc + z) % n
        except KeyError:
            _require_bound(used, env)
            raise
        return 0 if acc is None else exp[acc]
    return evaluate


def poly_eval(f: Poly, assign, k: FiniteField):
    """Evaluate f at a point of F_q^m, rational coefficients reduced mod p."""
    return f.eval_field(assign, k)


# ---------------------------------------------------------------------------
# parsing

class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None, self.pos
        ch = self.text[self.pos]
        if ch.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return self.text[self.pos:j], self.pos
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return self.text[self.pos:j], self.pos
        return ch, self.pos

    def next(self):
        tok, pos = self.peek()
        if tok is not None:
            self.pos = pos + len(tok)
        return tok, pos


def parse_poly(text: str) -> Poly:
    """Parse polynomial text; unknown identifiers become variables."""
    toks = _Tokens(text)
    poly = _parse_sum(toks)
    tok, pos = toks.peek()
    if tok is not None:
        raise FormulaSyntaxError(f"unexpected token {tok!r}", pos)
    return poly


def _parse_sum(toks):
    left = _parse_product(toks)
    while True:
        tok, _ = toks.peek()
        if tok == "+":
            toks.next()
            left = left + _parse_product(toks)
        elif tok == "-":
            save = toks.pos
            toks.next()
            nxt, _ = toks.peek()
            if nxt == ">":  # the '->' connective of the formula layer
                toks.pos = save
                return left
            left = left - _parse_product(toks)
        else:
            return left


def _parse_product(toks):
    left = _parse_power(toks)
    while True:
        tok, _ = toks.peek()
        if tok == "*":
            toks.next()
            left = left * _parse_power(toks)
        elif tok == "/":
            toks.next()
            tok2, pos2 = toks.next()
            if tok2 is None or not tok2.isdigit():
                raise FormulaSyntaxError("denominator must be an integer literal", pos2)
            den = int(tok2)
            if den == 0:
                raise FormulaSyntaxError("zero denominator", pos2)
            left = left * Fraction(1, den)
        else:
            return left


def _parse_power(toks):
    base = _parse_atom(toks)
    tok, _ = toks.peek()
    if tok == "^":
        toks.next()
        tok2, pos2 = toks.next()
        if tok2 is None or not tok2.isdigit():
            raise FormulaSyntaxError("exponent must be an integer literal", pos2)
        return base ** int(tok2)
    return base


def _parse_atom(toks):
    tok, pos = toks.next()
    if tok is None:
        raise FormulaSyntaxError("unexpected end of input", pos)
    if tok == "(":
        inner = _parse_sum(toks)
        tok2, pos2 = toks.next()
        if tok2 != ")":
            raise FormulaSyntaxError("expected ')'", pos2)
        return inner
    if tok == "-":
        return -_parse_power(toks)
    if tok.isdigit():
        return Poly.constant(int(tok))
    if tok[0].isalpha() or tok[0] == "_":
        return Poly.variable(tok)
    raise FormulaSyntaxError(f"unexpected token {tok!r}", pos)
