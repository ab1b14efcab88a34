"""Relative jet spaces: truncated-arc equations, point counts, truncation
images, and the three Poincare series.

An equation system in variables x_1..x_m (plus base parameters, which are
t-constant) is expanded by substituting x_i -> sum_j x_i|j t^j and reading
off the t-coefficients 0..n; those coefficients, as polynomials in the jet
coordinates, generate the jet ideal.  Counts and truncation images are
exact over F_q.  `JetTower` computes them level by level with a Hensel
split; the exhaustive search behind `count_jets` and `truncation_image` is
the reference it is checked against.  Greenberg data is empirical: an image
sequence is declared stable at the first plateau of two consecutive equal
images, and (c, e) is the least linear bound on the stabilization levels,
minimizing the offset e first and then the slope c.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add

from .errors import NoStabilization
from .fields import DEFAULT_BUDGET, FiniteField, check_budget
from .motives import lefschetz_power
from .polynomials import Poly


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
    """Product of two t-series truncated at t^n; each coefficient is a
    {exponent vector: coefficient} dict over one fixed variable tuple."""
    out = [{} for _ in range(n + 1)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(n + 1 - i):
            bj = b[j]
            if not bj:
                continue
            acc = out[i + j]
            for e1, c1 in ai.items():
                for e2, c2 in bj.items():
                    expo = tuple(map(add, e1, e2))
                    acc[expo] = acc.get(expo, 0) + c1 * c2
    return out


def jet_ideal(eqs, n, x_vars=None, base_params=()) -> JetIdeal:
    """Generators of the level-n jet ideal, ordered by (equation, t-degree).

    The expansion runs on exponent dicts over one variable tuple (jet
    variables, then base parameters), with each variable's series powers
    cached, and builds one Poly per generator.
    """
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
    variables = tuple(dict.fromkeys(
        tuple(jet_var(x, j) for x in x_vars for j in range(n + 1)) + base_params))
    pos = {v: i for i, v in enumerate(variables)}
    zero = (0,) * len(variables)

    def monomial(v):
        expo = list(zero)
        expo[pos[v]] = 1
        return {tuple(expo): 1}

    series_of = {x: [monomial(jet_var(x, j)) for j in range(n + 1)] for x in x_vars}
    for s in base_params:
        series_of[s] = [monomial(s)] + [{} for _ in range(n)]
    powers = {}  # (variable, e) -> series of variable^e

    def power(v, e):
        if e == 1:
            return series_of[v]
        key = (v, e)
        if key not in powers:
            powers[key] = _series_mul(power(v, e - 1), series_of[v], n)
        return powers[key]

    gens = []
    for eq in eqs:
        total = [{} for _ in range(n + 1)]
        for expo, coef in sorted(eq.terms.items()):
            term = [{zero: 1}] + [{} for _ in range(n)]
            for v, e in zip(eq.variables, expo):
                if not e:
                    continue
                if v not in series_of:
                    raise ValueError(f"equation uses unknown variable {v}")
                term = _series_mul(term, power(v, e), n)
            for acc, part in zip(total, term):
                for mono, c in part.items():
                    acc[mono] = acc.get(mono, 0) + coef * c
        gens.extend(Poly(variables, terms) for terms in total)
    return JetIdeal(n, x_vars, base_params, gens, eqs)


def substitute_base(ideal: JetIdeal, assignment) -> JetIdeal:
    """Specialize base parameters inside every generator (exact, symbolic)."""
    gens = [g.substitute(assignment) if set(g.used_variables()) & set(assignment) else g
            for g in ideal.gens]
    eqs = [e.substitute(assignment) if set(e.used_variables()) & set(assignment) else e
           for e in ideal.source_eqs]
    remaining = tuple(s for s in ideal.base_params if s not in assignment)
    return JetIdeal(ideal.n, ideal.x_vars, remaining, gens, eqs)


def _solutions(ideal: JetIdeal, s_point, k: FiniteField, budget):
    """Depth-first enumeration with prefix pruning.

    Variables are assigned level-major (all level-0 coordinates first), and
    every generator is checked as soon as its last variable is assigned; the
    triangular structure of jet equations makes the pruning effective.  The
    yielded tuples follow the ideal's variable-major layout.
    """
    check_budget(len(ideal.jet_vars), k, budget)
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


def _linear_solver(rows, k: FiniteField, width):
    """Rank of the matrix `rows` over F_q and a function b -> every x with
    rows * x = b (an empty tuple when there is none).

    One Gauss-Jordan pass on [rows | I] gives the pivot columns and the
    row operations T: rows * x = b is solvable exactly when (T b) vanishes
    below the rank.  All q^(width - rank) kernel vectors are listed once, so
    each solve is a few dot products.
    """
    height = len(rows)
    aug = [list(row) + [int(i == e) for i in range(height)] for e, row in enumerate(rows)]
    pivots = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, height) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = k.inv(aug[r][col])
        aug[r] = [k.mul(inv, a) for a in aug[r]]
        for i in range(height):
            f = aug[i][col]
            if i != r and f:
                aug[i] = [k.sub(a, k.mul(f, b)) for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
    rank = len(pivots)
    transform = [row[width:] for row in aug]
    kernel = [(0,) * width]
    for free in (c for c in range(width) if c not in pivots):
        basis = [0] * width
        basis[free] = 1
        for i, col in enumerate(pivots):
            basis[col] = k.neg(aug[i][free])
        kernel = [tuple(k.add(u, k.mul(c, v)) for u, v in zip(vec, basis))
                  for vec in kernel for c in range(k.q)]

    def dot(row, b):
        acc = 0
        for a, x in zip(row, b):
            if a and x:
                acc = k.add(acc, k.mul(a, x))
        return acc

    def solve(b):
        if not any(b):
            return kernel
        y = [dot(row, b) for row in transform]
        if any(y[rank:]):
            return ()
        base = [0] * width
        for col, v in zip(pivots, y):
            base[col] = v
        return [tuple(k.add(u, v) for u, v in zip(base, vec)) for vec in kernel]

    return rank, solve


class JetTower:
    """Exact jet counts and truncation-image sizes of one fiber, built level
    by level with a Hensel split.

    For m >= 1 the t^m generator of each equation is
    J(x_0) * x_m + c_m(x_0..x_(m-1)), with J the Jacobian at x_0.  A point
    x_0 where J has full row rank E (the number of equations) has exactly
    q^((|x| - E) * n) level-n jets, and each of them lifts to every level,
    so those points are only counted.  The other points are the roots of
    an explicit tree: a level-m node is a level-m jet over such a point,
    and its children solve J(x_0) * x_(m+1) = -c_(m+1).  `count(n)` and
    `image_size(n, m)` equal `count_jets` and `len(truncation_image)` on the
    same levels and run the same budget check, charged at (level + 1) * |x|
    coordinates.
    """

    def __init__(self, ideal: JetIdeal, s_point, k: FiniteField,
                 budget: float = DEFAULT_BUDGET):
        self.ideal = ideal
        self.k = k
        self.budget = budget
        self._env = k.embed_point(s_point)
        self._width = len(ideal.x_vars)
        self._equations = len(ideal.gens) // (ideal.n + 1)
        self._smooth = 0       # full-row-rank points x_0
        self._solvers = []     # per root: solve(b) for the Jacobian at x_0
        self._vectors = []     # per level m: each node's coordinates x_m
        self._parents = []     # per level m >= 1: each node's parent index

    @property
    def nodes_per_level(self):
        """Nodes enumerated at each level built so far (deterministic)."""
        return [len(vectors) for vectors in self._vectors]

    def _names(self, m):
        return [jet_var(x, m) for x in self.ideal.x_vars]

    def _generators(self, m):
        step = self.ideal.n + 1
        return [self.ideal.gens[e * step + m].compile(self.k)
                for e in range(self._equations)]

    def _build_root_level(self):
        """Scan F_q^|x| in the search's level-0 order; `_reach` charged the budget."""
        ideal, k, env = self.ideal, self.k, self._env
        names0, gens0 = self._names(0), self._generators(0)
        level0 = []
        for x0 in itertools.product(range(k.q), repeat=self._width):
            env.update(zip(names0, x0))
            if not any(g(env) for g in gens0):
                level0.append(x0)
        roots, solvers, smooth = [], [], 0
        if ideal.n == 0:
            roots.extend(level0)
        else:
            names1 = self._names(1)
            env.update(dict.fromkeys(names1, 0))
            gens = self._generators(1)
            for x0 in level0:
                env.update(zip(names0, x0))
                jacobian = [[0] * self._width for _ in gens]
                for i, name in enumerate(names1):
                    env[name] = 1
                    for e, g in enumerate(gens):
                        jacobian[e][i] = g(env)
                    env[name] = 0
                rank, solve = _linear_solver(jacobian, k, self._width)
                if rank == self._equations:
                    smooth += 1
                else:
                    roots.append(x0)
                    solvers.append(solve)
        self._smooth, self._solvers = smooth, solvers
        self._vectors.append(roots)
        self._parents.append([])

    def _build_next_level(self):
        """Lift every node of the top level.  Nodes are stored in tree order,
        so walking up from each node rewrites only the ancestors that differ
        from the previous node's; current[0] is then the node's root."""
        m = len(self._vectors)
        env, vectors, parents = self._env, self._vectors, self._parents
        names = [self._names(j) for j in range(m + 1)]
        env.update(dict.fromkeys(names[m], 0))
        gens = self._generators(m)
        neg = self.k.neg
        current = [-1] * m
        lifted, lifted_parents = [], []
        for index in range(len(vectors[m - 1])):
            j, i = m - 1, index
            while j >= 0 and current[j] != i:
                current[j] = i
                env.update(zip(names[j], vectors[j][i]))
                if j:
                    i = parents[j][i]
                j -= 1
            lifts = self._solvers[current[0]]([neg(g(env)) for g in gens])
            lifted.extend(lifts)
            lifted_parents.extend([index] * len(lifts))
        vectors.append(lifted)
        parents.append(lifted_parents)

    def _reach(self, m):
        check_budget((m + 1) * self._width, self.k, self.budget)
        if not self._vectors:
            self._build_root_level()
        while len(self._vectors) <= m:
            self._build_next_level()

    def _smooth_jets(self, n):
        if not self._smooth:
            return 0
        return self._smooth * self.k.q ** ((self._width - self._equations) * n)

    def count(self, n) -> int:
        """Number of level-n jets, n <= ideal.n."""
        if not 0 <= n <= self.ideal.n:
            raise ValueError(f"need 0 <= n <= {self.ideal.n}, got n={n}")
        self._reach(n)
        return self._smooth_jets(n) + len(self._vectors[n])

    def image_size(self, n, m) -> int:
        """Size of the projection of the level-m jets onto levels <= n."""
        if not 0 <= n < m <= self.ideal.n:
            raise ValueError(f"need 0 <= n < m <= {self.ideal.n}, got n={n}, m={m}")
        self._reach(m)
        ancestors = set(self._parents[m])
        for j in range(m - 1, n, -1):
            parents = self._parents[j]
            ancestors = {parents[i] for i in ancestors}
        return self._smooth_jets(n) + len(ancestors)

    def geometric_series(self, N) -> "GeometricSeries":
        """Stable image sizes for n = 0..N with the tower's level as depth cap.

        For each n the images of levels m = n+1, n+2, ... shrink, so two
        consecutive images are equal exactly when their sizes are; the
        first such plateau gives the coefficient and the stabilization level.
        """
        depth_cap = self.ideal.n
        coefficients = []
        stabilization = []
        for n in range(N + 1):
            prev = None
            for m in range(n + 1, depth_cap + 1):
                size = self.image_size(n, m)
                if size == prev:
                    coefficients.append(size)
                    stabilization.append(m - 1)
                    break
                prev = size
            else:
                raise NoStabilization(n, depth_cap)
        c, e = _fit_linear_bound(stabilization)
        return GeometricSeries(coefficients, stabilization, c, e)


def igusa_series(eqs, N, mode, x_vars=None, base_params=(),
                 budget: float = DEFAULT_BUDGET):
    """Coefficients 0..N of the jet-class generating series.

    mode ("counts", k, s_point): exact point counts of each jet level.
    mode ("smooth", cls, d): cls * L^(n*d), the closed form for a smooth
    cellular total space of relative dimension d.
    """
    if mode[0] == "counts":
        _, k, s_point = mode
        tower = JetTower(jet_ideal(eqs, N, x_vars, base_params), s_point, k, budget)
        return [tower.count(n) for n in range(N + 1)]
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
    return JetTower(top, s_point, k, budget).geometric_series(N)


def arithmetic_series(entries) -> list:
    """P_arith coefficients: chi of user-supplied truncation-image
    stratifications, one (stratification, quotient-data) pair per level."""
    from .chi import chi_stratification
    return [chi_stratification(strat, data) for strat, data in entries]
