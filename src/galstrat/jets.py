"""Relative jet spaces: truncated-arc equations, point counts, truncation
images, and the three Poincare series.

An equation system in variables x_1..x_m (plus base parameters, which are
t-constant) is expanded by substituting x_i -> sum_j x_i|j t^j and reading
off the t-coefficients 0..n; those coefficients, as polynomials in the jet
coordinates, generate the jet ideal.  Counting and truncation images are
exhaustive over F_q.  Greenberg data is empirical: an image sequence is
declared stable at the first plateau of two consecutive equal images, and
(c, e) is the least linear bound on the stabilization levels, minimizing
the offset e first and then the slope c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded, NoStabilization
from .fields import FiniteField
from .motives import lefschetz_power
from .polynomials import Poly

DEFAULT_BUDGET = 24.0


def jet_var(name: str, j: int) -> str:
    return f"{name}_{j}"


class JetIdeal:
    def __init__(self, n, x_vars, base_params, gens, source_eqs):
        self.n = n
        self.x_vars = tuple(x_vars)
        self.base_params = tuple(base_params)
        self.gens = tuple(gens)
        self.source_eqs = tuple(source_eqs)
        self.jet_vars = tuple(jet_var(x, j) for x in self.x_vars
                              for j in range(n + 1))

    def truncate(self, m) -> "JetIdeal":
        """The level-m ideal, m <= n: each equation's generators of t-degree <= m."""
        if not 0 <= m <= self.n:
            raise ValueError(f"need 0 <= m <= n, got m={m}, n={self.n}")
        gens = [g for i in range(0, len(self.gens), self.n + 1) for g in self.gens[i:i + m + 1]]
        return JetIdeal(m, self.x_vars, self.base_params, gens, self.source_eqs)

    def __repr__(self):
        return (f"JetIdeal(n={self.n}, vars={self.x_vars}, "
                f"{len(self.gens)} generators)")


def _series_mul(a, b, n):
    out = [Poly.constant(0) for _ in range(n + 1)]
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if i + j > n:
                break
            if bj.is_zero():
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def _series_pow(a, e, n):
    out = [Poly.constant(1)] + [Poly.constant(0)] * n
    for _ in range(e):
        out = _series_mul(out, a, n)
    return out


def jet_ideal(eqs, n, x_vars=None, base_params=()) -> JetIdeal:
    """Generators of the level-n jet ideal, ordered by (equation, t-degree)."""
    if n < 0:
        raise ValueError("jet level must be >= 0")
    base_params = tuple(base_params)
    if x_vars is None:
        seen = []
        for eq in eqs:
            for v in eq.variables:
                if v in eq.used_variables() and v not in base_params and v not in seen:
                    seen.append(v)
        x_vars = tuple(seen)
    x_vars = tuple(x_vars)
    series_of = {}
    for x in x_vars:
        series_of[x] = [Poly.variable(jet_var(x, j)) for j in range(n + 1)]
    for s in base_params:
        series_of[s] = [Poly.variable(s)] + [Poly.constant(0)] * n
    gens = []
    for eq in eqs:
        total = [Poly.constant(0) for _ in range(n + 1)]
        for expo, coef in sorted(eq.terms.items()):
            term = [Poly.constant(coef)] + [Poly.constant(0)] * n
            for v, e in zip(eq.variables, expo):
                if not e:
                    continue
                if v not in series_of:
                    raise ValueError(f"equation uses unknown variable {v}")
                term = _series_mul(term, _series_pow(series_of[v], e, n), n)
            total = [a + b for a, b in zip(total, term)]
        gens.extend(total)
    return JetIdeal(n, x_vars, base_params, gens, eqs)


def substitute_base(ideal: JetIdeal, assignment) -> JetIdeal:
    """Specialize base parameters inside every generator (exact, symbolic)."""
    gens = [g.substitute(assignment) if set(g.used_variables()) & set(assignment) else g
            for g in ideal.gens]
    eqs = [e.substitute(assignment) if set(e.used_variables()) & set(assignment) else e
           for e in ideal.source_eqs]
    remaining = tuple(s for s in ideal.base_params if s not in assignment)
    return JetIdeal(ideal.n, ideal.x_vars, remaining, gens, eqs)


def _check_budget(num_vars, k, budget):
    bits = num_vars * math.log2(k.q)
    if bits > budget:
        raise BudgetExceeded(f"{bits:.1f} bits exceeds budget {budget}")


def _solutions(ideal: JetIdeal, s_point, k: FiniteField, budget):
    """Depth-first enumeration with prefix pruning.

    Variables are assigned level-major (all level-0 coordinates first), and
    every generator is checked as soon as its last variable is assigned; the
    triangular structure of jet equations makes the pruning effective.  The
    yielded tuples follow the ideal's variable-major layout.
    """
    _check_budget(len(ideal.jet_vars), k, budget)
    order = [jet_var(x, j) for j in range(ideal.n + 1) for x in ideal.x_vars]
    pos_of = {v: i for i, v in enumerate(order)}
    buckets = [[] for _ in range(len(order) + 1)]
    for g in ideal.gens:
        if g.is_zero():
            continue
        pos = max((pos_of[v] + 1 for v in g.used_variables() if v in pos_of), default=0)
        buckets[pos].append(g.compile(k))
    env = k.embed_point(s_point)
    n_vars = len(order)

    def passes(bucket):
        for g in bucket:
            if g(env):
                return False
        return True

    def rec(i):
        if not passes(buckets[i]):
            return
        if i == n_vars:
            yield tuple(env[v] for v in ideal.jet_vars)
            return
        var = order[i]
        for value in range(k.q):
            env[var] = value
            yield from rec(i + 1)
        del env[var]

    yield from rec(0)


def count_jets(ideal: JetIdeal, s_point, k: FiniteField,
               budget: float = DEFAULT_BUDGET) -> int:
    return sum(1 for _ in _solutions(ideal, s_point, k, budget))


def truncation_image(ideal: JetIdeal, n: int, s_point, k: FiniteField,
                     budget: float = DEFAULT_BUDGET) -> frozenset:
    """Projection of the level-m solution set onto the level-<=n coordinates.

    Tuples are laid out variable-major: (x_0..x_n, y_0..y_n, ...).
    """
    if not n < ideal.n:
        raise ValueError(f"need n < m, got n={n}, m={ideal.n}")
    keep = []
    for i, x in enumerate(ideal.x_vars):
        for j in range(n + 1):
            keep.append(i * (ideal.n + 1) + j)
    image = set()
    for sol in _solutions(ideal, s_point, k, budget):
        image.add(tuple(sol[i] for i in keep))
    return frozenset(image)


def igusa_series(eqs, N, mode, x_vars=None, base_params=(),
                 budget: float = DEFAULT_BUDGET):
    """Coefficients 0..N of the jet-class generating series.

    mode ("counts", k, s_point): exact point counts of each jet level.
    mode ("smooth", cls, d): cls * L^(n*d), the closed form for a smooth
    cellular total space of relative dimension d.
    """
    if mode[0] == "counts":
        _, k, s_point = mode
        top = jet_ideal(eqs, N, x_vars, base_params)
        return [count_jets(top.truncate(n), s_point, k, budget) for n in range(N + 1)]
    if mode[0] == "smooth":
        _, cls, d = mode
        return [cls * lefschetz_power(n * d) for n in range(N + 1)]
    raise ValueError(f"unknown mode {mode[0]!r}")


@dataclass
class GeometricSeries:
    coefficients: list      # |stable truncation image| per level 0..N
    stabilization: list     # first plateau level m(n) per n
    c: int
    e: int

    def to_json(self):
        return {"coefficients": self.coefficients,
                "stabilization": self.stabilization,
                "greenberg": {"c": self.c, "e": self.e},
                "note": "empirical: plateau of two consecutive equal images"}


def _fit_linear_bound(levels):
    """Least (e, then c) nonnegative integers with m(n) <= c*n + e."""
    top = max(levels)
    for e in range(top + 1):
        if levels[0] > e:
            continue
        c = 1
        for n, m in enumerate(levels):
            if n == 0:
                continue
            need = -(-(m - e) // n)  # ceil division
            c = max(c, need)
        if all(m <= c * n + e for n, m in enumerate(levels)):
            return c, e
    return 1, top  # unreachable: e = top always works


def geometric_series_counts(eqs, N, k, s_point, depth_cap,
                            x_vars=None, base_params=(),
                            budget: float = DEFAULT_BUDGET) -> GeometricSeries:
    """Stable truncation-image sizes and empirical Greenberg constants.

    For each n, images of the level-m solutions are computed for
    m = n+1, n+2, ... until two consecutive images agree; the plateau start
    is the recorded stabilization level.
    """
    if depth_cap < 2 * N + 2:
        raise ValueError(f"depth_cap must be >= 2N+2 = {2 * N + 2}")
    top = jet_ideal(eqs, depth_cap, x_vars, base_params)
    coefficients = []
    stabilization = []
    for n in range(N + 1):
        prev = None
        prev_m = None
        found = False
        for m in range(n + 1, depth_cap + 1):
            img = truncation_image(top.truncate(m), n, s_point, k, budget)
            if prev is not None and img == prev:
                coefficients.append(len(prev))
                stabilization.append(prev_m)
                found = True
                break
            prev, prev_m = img, m
        if not found:
            raise NoStabilization(n, depth_cap)
    c, e = _fit_linear_bound(stabilization)
    return GeometricSeries(coefficients, stabilization, c, e)


def arithmetic_series(entries) -> list:
    """P_arith coefficients: chi of user-supplied truncation-image
    stratifications, one (stratification, quotient-data) pair per level."""
    from .chi import chi_stratification
    return [chi_stratification(strat, data) for strat, data in entries]
