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
    its power residue inline as log[f(a)] % n; any other cover calls its
    Frobenius map.

    Over a prime field, a quantifier-free stratum whose atoms cannot raise
    in the fiber (every variable bound, every denominator prime to p) is
    inlined: each atom l = r becomes one integer expression of l - r with a
    single `% p`, and so does a Kummer f.  A body nested deeper than
    MAX_DEPTH, or a polynomial of more than MAX_TERMS terms, is not.  Any other stratum test, and every
    polynomial over an extension field, is the existing compiled closure,
    called on an env that the scan keeps current, so it raises where it
    always has.

    Fixture text never reaches the source: coordinate i is `v<i>`, bound
    base parameter j is `b<j>`, and every reduced coefficient, closure,
    name and domain is an argument `c<j>`.  A coefficient that depends on
    base parameters is reduced once per fiber, before the loop.  So
    translated inputs of one shape share their source and its compiled
    code, which `_compile_scan` keeps process-wide.
    """

    def __init__(self, strat, k, bound):
        self.strat, self.k = strat, k
        self.slot = {name: f"b{j}" for j, name in enumerate(bound)}
        self.slot.update((v, f"v{i}") for i, v in enumerate(strat.coords))
        self.n_base = len(bound)
        self.consts, self.hoisted, self.uses_env = [], [], False

    def const(self, value):
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def closure(self, evaluate):
        self.uses_env = True
        return f"{self.const(evaluate)}(env)"

    def inlinable(self, poly):
        return (self.k.e == 1 and len(poly.terms) <= MAX_TERMS
                and poly.used_variables().issubset(self.slot)
                and all(c.denominator % self.k.p for c in poly.terms.values()))

    def poly(self, *signed):
        """An integer expression congruent mod p to the sum of sign * f over
        the (sign, f) pairs, terms grouped by their monomial in the
        coordinates."""
        terms = {}
        for sign, f in signed:
            for expo, coef in f.terms.items():
                key = tuple(sorted((self.slot[v], e) for v, e in zip(f.variables, expo) if e))
                coef = coef if sign > 0 else -coef
                terms[key] = terms[key] + coef if key in terms else coef
        groups = {}
        for key, coef in terms.items():
            if coef:
                coord = tuple(factor for factor in key if factor[0][0] == "v")
                base = tuple(factor for factor in key if factor[0][0] == "b")
                groups.setdefault(coord, []).append((base, coef))
        pieces = []
        for coord in sorted(groups):
            terms = sorted(groups[coord])
            sign, (base, coef) = "+", terms[0]
            if len(terms) > 1 or base:  # reduced once per fiber
                factor = f"h{len(self.hoisted)}"
                inner = " + ".join(_monomial(self.const(self.k.embed_fraction(c)), b)
                                   for b, c in terms)
                self.hoisted.append(f"{factor} = ({inner}) % p")
            elif coef == 1 or coef == -1:
                factor, sign = None, "-" if coef < 0 else "+"
            else:
                factor = self.const(self.k.embed_fraction(coef))
            pieces.append(f"{sign} {_monomial(factor, coord)}")
        if not pieces:
            return "0"
        return "(" + " ".join(pieces).removeprefix("+ ") + ")"

    def test(self, node):
        """A Python expression for a body that inlinable() admits."""
        if isinstance(node, (Eq, Neq)):
            relation = "==" if isinstance(node, Eq) else "!="
            return f"{self.poly((1, node.left), (-1, node.right))} % p {relation} 0"
        if isinstance(node, Not):
            return f"not ({self.test(node.sub)})"
        left, right = self.test(node.left), self.test(node.right)
        if isinstance(node, And):
            return f"({left}) and ({right})"
        if isinstance(node, Or):
            return f"({left}) or ({right})"
        return f"not ({left}) or ({right})"

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
            if self.inlinable(f):
                value = f"{self.poly((1, f))} % p"
            else:
                value = self.closure(f.compile(self.k))
            return [f"fa = {value}",
                    "if not fa:",
                    f"    raise PointOffStratum({self.const(KUMMER_ZERO)})",
                    f"if log[fa] % {self.const(n)} in {self.const(residues)}:",
                    "    out.append(pt)"]
        point = "".join(f"{self.slot[v]}, " for v in cover.stratum.free_vars)
        return [f"if {self.const(cover.group.cyclic_subgroup)}(m{i}(({point}))) "
                f"in {self.const(con)}:",
                "    out.append(pt)"]

    def plan(self, locate):
        """(factory, arguments): factory(p, log, env, base, consts, ready,
        maps) returns the scan; ready(i) builds stratum i's Frobenius map."""
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
        loop += tests + [f"if {count} != 1:",
                         f"    raise PartitionViolation(pt, {count})"] + body
        scan = (["out = []"] * (not locate) + lazy + ["for pt in points:"]
                + ["    " + line for line in loop] + ["return out"] * (not locate))
        head = [_unpack("b", self.n_base, "base"), _unpack("c", len(self.consts), "const")]
        lines = (["def make(p, log, env, base, const, ready, maps):"]
                 + ["    " + line for line in head + self.hoisted if line]
                 + ["    def scan(points):"] + ["        " + line for line in scan]
                 + ["    return scan"])
        return _compile_scan("\n".join(lines) + "\n"), tuple(self.consts)


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
