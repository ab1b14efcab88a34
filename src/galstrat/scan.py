"""The generated fiber scan of a Galois stratification.

`GaloisStratification` classifies the points of a fiber (F_q, s) with one
Python function per stratification shape, generated here and compiled once
per source text.  The module is imported on the first scan, so commands
that classify no fiber never compile it.
"""

from __future__ import annotations

import functools

from .covers import KUMMER_ZERO
from .errors import PartitionViolation, PointOffStratum
from .formulas import And, Eq, Implies, Neq, Not, Or

# Inlined bodies stay far below CPython's 200 nested parentheses and its
# compiler's recursion limit; a deeper or longer one is a closure.
MAX_DEPTH = 64
MAX_TERMS = 256


class ScanSource:
    """Source and arguments of the scan of one stratification over one field.

    The scan is one flat loop over the points.  Per point it evaluates every
    stratum test, checks that exactly one holds (`PartitionViolation`
    names the point and the count), and for a stratum with a non-empty
    domain builds the cover's Frobenius map on the stratum's first point.
    A cover for which `CoverSpec.residue_leaf` gives a leaf (Kummer, n | q - 1) reads
    its power residue inline as log f(a) mod n; any other cover calls its
    Frobenius map.

    A quantifier-free stratum whose atoms cannot raise in the fiber (every
    variable bound, every denominator prime to p) is inlined, over every
    field: per point the scan computes one value of each distinct
    polynomial, an atom l = r being l - r and a Kummer cover's f being f,
    keyed by its terms reduced mod p.  So `b - a^2` in a stratum and in its
    complement, or a Kummer f and the `f != 0` conjoined to its stratum,
    is computed once.  Over a prime field the value is the integer sum with
    a single `% p`.  Over an extension field it is the logarithm of the
    sum, None for 0: a monomial c x^e ... is log c + e log x + ... mod
    q - 1, or None when a factor is 0, and terms are added through the
    field's Zech logarithms.  A body nested deeper than MAX_DEPTH, or a
    polynomial of more than MAX_TERMS terms, is not inlined.  Any other
    stratum test or Kummer f is the existing compiled closure, called on an
    env that the scan keeps current, so it raises where it always has.

    Fixture text never reaches the source: coordinate i is `v<i>`, bound
    base parameter j is `b<j>`, and every reduced coefficient (or its
    logarithm), closure, name and domain is an argument `c<j>`.  A
    coefficient that depends on base parameters is reduced once per fiber,
    before the loop.  So translated inputs of one shape share their source
    and its compiled code, over every field of one kind (prime or not),
    which `_compile_scan` keeps process-wide.
    """

    def __init__(self, strat, k, bound):
        self.strat, self.k = strat, k
        self.slot = {name: f"b{j}" for j, name in enumerate(bound)}
        self.slot.update((v, f"v{i}") for i, v in enumerate(strat.coords))
        self.n_base = len(bound)
        self.consts, self.hoisted, self.uses_env = [], [], False
        # shared values: reduced terms -> name, and the lines computing them
        self.values, self.computed, self.n_hoisted = {}, [], 0
        self.logs = set()  # slots whose logarithm an extension-field value reads

    def const(self, value):
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def closure(self, evaluate):
        self.uses_env = True
        return f"{self.const(evaluate)}(env)"

    def inlinable(self, poly):
        return (len(poly.terms) <= MAX_TERMS
                and poly.used_variables().issubset(self.slot)
                and all(c.denominator % self.k.p for c in poly.terms.values()))

    def value(self, *signed):
        """The name of the value of the sum of sign * f over the (sign, f)
        pairs, computed once per point for every test and residue that
        reads it."""
        terms = {}
        for sign, f in signed:
            for expo, coef in f.terms.items():
                key = tuple(sorted((self.slot[v], e) for v, e in zip(f.variables, expo) if e))
                coef = coef if sign > 0 else -coef
                terms[key] = terms[key] + coef if key in terms else coef
        terms = {key: coef for key, coef in terms.items() if coef.numerator % self.k.p}
        reduced = tuple(sorted((key, self.k.embed_fraction(c)) for key, c in terms.items()))
        if reduced not in self.values:
            name = self.values[reduced] = f"e{len(self.values)}"
            if self.k.e == 1:
                self.computed.append(f"{name} = {self.prime_sum(terms)} % p")
            else:
                self.computed += self.log_sum(name, terms)
        return self.values[reduced]

    def hoist(self):
        """The name of a coefficient that is computed once per fiber."""
        self.n_hoisted += 1
        return f"h{self.n_hoisted - 1}"

    def groups(self, terms):
        """(coordinate monomial, [(base monomial, coefficient)]) in source order."""
        groups = {}
        for key, coef in terms.items():
            coord = tuple(factor for factor in key if factor[0][0] == "v")
            base = tuple(factor for factor in key if factor[0][0] == "b")
            groups.setdefault(coord, []).append((base, coef))
        return [(coord, sorted(groups[coord])) for coord in sorted(groups)]

    def prime_sum(self, terms):
        """An integer expression congruent mod p to the sum of the terms."""
        pieces = []
        for coord, group in self.groups(terms):
            sign, (base, coef) = "+", group[0]
            if len(group) > 1 or base:
                factor = self.hoist()
                inner = " + ".join(_monomial(self.const(self.k.embed_fraction(c)), b)
                                   for b, c in group)
                self.hoisted.append(f"{factor} = ({inner}) % p")
            elif coef == 1 or coef == -1:
                factor, sign = None, "-" if coef < 0 else "+"
            else:
                factor = self.const(self.k.embed_fraction(coef))
            pieces.append(f"{sign} {_monomial(factor, coord)}")
        if not pieces:
            return "0"
        return "(" + " ".join(pieces).removeprefix("+ ") + ")"

    def log_sum(self, name, terms):
        """Lines that set name to the logarithm of the sum of the terms, None
        for 0."""
        summands = []
        for coord, group in self.groups(terms):
            base, coef = group[0]
            if len(group) > 1 or base:
                factor = self.hoist()
                self.hoisted += _log_sum(factor, [self.log_monomial(c, b) for b, c in group])
                guards, logs = self.log_monomial(1, coord)
                summands.append(([factor] + guards, [factor] + logs))
            else:
                summands.append(self.log_monomial(coef, coord))
        return _log_sum(name, summands)

    def log_monomial(self, coef, powers):
        """(guards, logs) of coef * x^e ...: it is 0 unless every guard is
        not None, and its logarithm is the sum of the logs."""
        logs = [] if coef == 1 else [self.const(self.k.log(self.k.embed_fraction(coef)))]
        for slot, e in powers:
            self.logs.add(slot)
            logs.append(f"{e}*l{slot}" if e > 1 else f"l{slot}")
        return [f"l{slot}" for slot, _ in powers], logs

    def test(self, node):
        """A Python expression for a body that admits() admits."""
        if isinstance(node, (Eq, Neq)):
            return self.atom(node, isinstance(node, Eq))
        if isinstance(node, Not):
            if isinstance(node.sub, (Eq, Neq)):
                return self.atom(node.sub, isinstance(node.sub, Neq))
            return f"not ({self.test(node.sub)})"
        left, right = self.test(node.left), self.test(node.right)
        if left == right and isinstance(node, (And, Or)):  # a Kummer f and its f != 0
            return left
        if isinstance(node, And):
            return f"({left}) and ({right})"
        if isinstance(node, Or):
            return f"({left}) or ({right})"
        return f"not ({left}) or ({right})"

    def atom(self, node, zero):
        """Whether l - r of the atom l = r or l != r is 0 (zero) or not."""
        value = self.value((1, node.left), (-1, node.right))
        if self.k.e == 1:
            return f"{value} {'==' if zero else '!='} 0"
        return f"{value} is {'' if zero else 'not '}None"

    def admits(self, node, depth=0):
        """Whether the stratum body evaluates inline without raising."""
        if depth > MAX_DEPTH:
            return False
        if isinstance(node, (Eq, Neq)):
            return self.inlinable(node.left) and self.inlinable(node.right)
        if isinstance(node, Not):
            return self.admits(node.sub, depth + 1)
        if isinstance(node, (And, Or, Implies)):
            return self.admits(node.left, depth + 1) and self.admits(node.right, depth + 1)
        return False  # a quantifier

    def membership(self, i, cover, con):
        """Lines that add pt to out when its Frobenius class lies in con."""
        if cover.kind == "trivial":
            return ["out.append(pt)"] if cover.group.cyclic_subgroup(0) in con else []
        leaf = cover.residue_leaf(self.k, con)
        if leaf is not None:
            f, n, residues = leaf
            if not self.inlinable(f):
                lines, zero, residue = [f"fa = {self.closure(f.compile(self.k))}"], "not fa", "log[fa]"
            else:
                fa, lines = self.value((1, f)), []
                zero, residue = ((f"not {fa}", f"log[{fa}]") if self.k.e == 1
                                 else (f"{fa} is None", fa))
            return lines + [f"if {zero}:",
                            f"    raise PointOffStratum({self.const(KUMMER_ZERO)})",
                            f"if {residue} % {self.const(n)} in {self.const(residues)}:",
                            "    out.append(pt)"]
        point = "".join(f"{self.slot[v]}, " for v in cover.stratum.free_vars)
        return [f"if {self.const(cover.group.cyclic_subgroup)}(m{i}(({point}))) "
                f"in {self.const(con)}:",
                "    out.append(pt)"]

    def plan(self, locate):
        """(factory, arguments): factory(p, q, log, zech, env, base, consts,
        ready, maps) returns the scan; ready(i) builds stratum i's Frobenius
        map, and zech is the field's Zech table (None over a prime field)."""
        strata, tests, body = self.strat.strata, [], []
        for i, (cover, _) in enumerate(strata):
            if self.admits(cover.stratum.body):
                tests.append(f"t{i} = {self.test(cover.stratum.body)}")
            else:
                tests.append(f"t{i} = {self.closure(cover.stratum.compile(self.k))}")
        count = _sum([f"t{i}" for i in range(len(strata))] + ["0"] * (len(strata) < 2))
        lazy = []
        for i, (cover, con) in enumerate(strata):
            if locate:
                body += [f"if t{i}:", f"    return {i}"]
            elif not con.is_empty():
                lazy.append(f"m{i} = maps[{i}]")
                body += [f"if t{i}:",
                         f"    if m{i} is None:",
                         f"        m{i} = maps[{i}] = ready({i})"]
                body += ["    " + line for line in self.membership(i, cover, con)]
        coords = self.strat.coords
        loop = [_unpack("v", len(coords), "pt")] * bool(coords)
        if self.uses_env:
            loop += [f"env[{self.const(v)}] = v{j}" for j, v in enumerate(coords)]
        loop += [_log(slot) for slot in sorted(self.logs) if slot[0] == "v"]
        loop += self.computed + tests + [f"if {count} != 1:",
                                         f"    raise PartitionViolation(pt, {count})"] + body
        scan = (["out = []"] * (not locate) + lazy + ["for pt in points:"]
                + ["    " + line for line in loop] + ["return out"] * (not locate))
        head = [_unpack("b", self.n_base, "base"), _unpack("c", len(self.consts), "const")]
        if self.k.e > 1:
            head += ["Q = q - 1"] + [_log(slot) for slot in sorted(self.logs) if slot[0] == "b"]
        lines = (["def make(p, q, log, zech, env, base, const, ready, maps):"]
                 + ["    " + line for line in head + self.hoisted if line]
                 + ["    def scan(points):"] + ["        " + line for line in scan]
                 + ["    return scan"])
        return _compile_scan("\n".join(lines) + "\n"), tuple(self.consts)


def _log_sum(name, summands):
    """Lines that set name to the logarithm of a sum, None for 0.

    Each summand is (guards, logs): the monomial is 0 unless every guard is
    not None, and its logarithm is the sum of logs mod Q (0 for no logs).
    Terms are added through Zech logarithms, g^a + g^b = g^(a + Z(b - a))
    with Z(n) = zech[n], which is negative where 1 + g^n = 0."""
    lines, known = [], None  # None: name unset; True: not None; False: maybe None
    for guards, logs in sorted(summands, key=lambda s: bool(s[0])):
        raw = " + ".join(logs) or "0"
        reduced = raw if len(logs) < 2 and "*" not in raw else f"({raw}) % Q"
        guard = " and ".join(f"{g} is not None" for g in guards)
        if known is None:
            if len(logs) == 1 and guards == logs:  # one factor: its logarithm, or None
                lines.append(f"{name} = {raw}")
            else:
                lines.append(f"{name} = {reduced} if {guard} else None" if guard
                             else f"{name} = {reduced}")
            known = not guard
            continue
        add = [f"z = zech[({raw} - {name}) % Q]",
               f"{name} = None if z < 0 else ({name} + z) % Q"]
        if not known:
            add = [f"if {name} is None:", f"    {name} = {reduced}", "else:"] + [
                "    " + line for line in add]
        lines += [f"if {guard}:"] + ["    " + line for line in add] if guard else add
        known = False
    return lines or [f"{name} = None"]


def _log(slot):
    """The logarithm of an element, None for 0; like the compiled closures,
    a value that is no element raises KeyError."""
    return f"l{slot} = log[{slot}] if {slot} else None"


def _unpack(prefix, count, source):
    """`x0, x1, = source`, or nothing for count 0."""
    return "".join(f"{prefix}{j}, " for j in range(count)) + f"= {source}" if count else ""


def _sum(terms):
    """terms added as a balanced tree, nested log2(len(terms)) deep."""
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    return f"({_sum(terms[:half])} + {_sum(terms[half:])})"


def _monomial(factor, powers):
    out = [factor] if factor else []
    for token, e in powers:
        out += [token] * e if e <= 3 else [f"{token}**{e}"]
    return "*".join(out) or "1"


@functools.lru_cache(maxsize=512)
def _compile_scan(source):
    namespace = {}
    exec(compile(source, "<fiber scan>", "exec"),
         {"PartitionViolation": PartitionViolation, "PointOffStratum": PointOffStratum},
         namespace)
    return namespace["make"]
