"""Q-central functions on finite groups and their calculus.

A Q-central function takes a single rational value on every element whose
generated cyclic subgroup lies in a fixed conjugacy class; by Artin's
theorem these are exactly the Q-spans of the characters induced from
trivial characters on cyclic subgroups.  The Artin decomposition is solved
as an exact square linear system indexed by conjugacy classes of cyclic
subgroups, which is the engine behind every chi computation downstream.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    CentralInvariantViolation,
    GroupMismatch,
    SingularSystem,
    ZeroNorm,
)
from .groups import ConjDomain, FiniteGroup, GroupHom


class QCentralFunction:
    def __init__(self, group: FiniteGroup, values):
        self.group = group
        self.values = tuple(Fraction(v) for v in values)
        if len(self.values) != group.n:
            raise CentralInvariantViolation("value table length mismatch")
        seen = {}
        for g in group.elements():
            rep = group.canonical_rep(group.cyclic_subgroup(g))
            if rep in seen and seen[rep] != self.values[g]:
                raise CentralInvariantViolation(
                    f"values differ on the class of {sorted(rep)}")
            seen[rep] = self.values[g]

    @classmethod
    def from_class_values(cls, group, class_values):
        """Build from a map {canonical subgroup representative -> value}."""
        values = []
        for g in group.elements():
            rep = group.canonical_rep(group.cyclic_subgroup(g))
            values.append(class_values[rep])
        return cls(group, values)

    @classmethod
    def constant(cls, group, value):
        return cls(group, [Fraction(value)] * group.n)

    def __call__(self, g):
        return self.values[g]

    def __eq__(self, other):
        return (isinstance(other, QCentralFunction)
                and self.group == other.group and self.values == other.values)

    def __hash__(self):
        return hash((self.group, self.values))

    def __add__(self, other):
        self._require_same_group(other)
        return QCentralFunction(self.group,
                                [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._require_same_group(other)
        return QCentralFunction(self.group,
                                [a - b for a, b in zip(self.values, other.values)])

    def scale(self, c):
        c = Fraction(c)
        return QCentralFunction(self.group, [c * v for v in self.values])

    def is_zero(self):
        return all(v == 0 for v in self.values)

    def _require_same_group(self, other):
        if self.group != other.group:
            raise GroupMismatch("central functions on different groups")

    def __repr__(self):
        return f"QCentral({self.group.name}: {[str(v) for v in self.values]})"


def alpha_from_conj_domain(con: ConjDomain) -> QCentralFunction:
    """Indicator: 1 on g whenever <g> belongs to the domain."""
    group = con.group
    values = [Fraction(1) if group.cyclic_subgroup(g) in con else Fraction(0)
              for g in group.elements()]
    return QCentralFunction(group, values)


def restrict_central(psi: GroupHom, alpha: QCentralFunction) -> QCentralFunction:
    """(Res_psi alpha)(g) = alpha(psi(g)) for psi: G -> G', alpha on G'."""
    if alpha.group != psi.target:
        raise GroupMismatch("alpha must live on the hom's target")
    return QCentralFunction(psi.source, [alpha(psi(g)) for g in psi.source.elements()])


def induce_central(psi: GroupHom, alpha: QCentralFunction) -> QCentralFunction:
    """(Ind_psi alpha)(g) = (1/|H|) sum over x in G with x^-1 g x in psi(H)."""
    psi.require_injective()
    if alpha.group != psi.source:
        raise GroupMismatch("alpha must live on the hom's source")
    G = psi.target
    H = psi.source
    image = {psi(h): h for h in H.elements()}
    values = []
    for g in G.elements():
        acc = Fraction(0)
        for x in G.elements():
            c = G.conj(g, x)
            if c in image:
                acc += alpha(image[c])
        values.append(acc / H.n)
    return QCentralFunction(G, values)


def inner_product(alpha: QCentralFunction, beta: QCentralFunction) -> Fraction:
    if alpha.group != beta.group:
        raise GroupMismatch("inner product across different groups")
    G = alpha.group
    total = sum((alpha(g) * beta(G.inv(g)) for g in G.elements()), Fraction(0))
    return total / G.n


def trivial_character(group):
    return QCentralFunction.constant(group, 1)


def regular_character(group):
    values = [Fraction(group.n if g == 0 else 0) for g in group.elements()]
    return QCentralFunction(group, values)


def induced_trivial(group, subgroup) -> QCentralFunction:
    """Ind_H^G 1_H without building the subgroup as a separate group."""
    subgroup = frozenset(subgroup)
    values = []
    for g in group.elements():
        hits = sum(1 for x in group.elements() if group.conj(g, x) in subgroup)
        values.append(Fraction(hits, len(subgroup)))
    return QCentralFunction(group, values)


# -- exact linear algebra ---------------------------------------------------------

def solve_exact(matrix, rhs):
    """Gaussian elimination over Q; raises SingularSystem if not invertible."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem(f"no pivot in column {col}")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def artin_decompose(alpha: QCentralFunction):
    """Coefficients c_H with alpha = sum_H c_H Ind_H^G 1_H, H over cyclic classes.

    Returns a dict keyed by canonical class representatives.  The system is
    square because dim C(G,Q) equals the number of conjugacy classes of
    cyclic subgroups, with the induced-trivial characters as a basis.
    """
    group = alpha.group
    classes = group.cyclic_subgroup_classes()
    reps = [rep for rep, _ in classes]
    # one evaluation element per class: the least generator of the representative
    eval_elems = []
    for rep in reps:
        gen = min(g for g in rep if group.cyclic_subgroup(g) == rep)
        eval_elems.append(gen)
    basis = [induced_trivial(group, rep) for rep in reps]
    matrix = [[basis[j](eval_elems[i]) for j in range(len(reps))]
              for i in range(len(reps))]
    rhs = [alpha(eval_elems[i]) for i in range(len(reps))]
    coeffs = solve_exact(matrix, rhs)
    return {rep: c for rep, c in zip(reps, coeffs)}


def artin_reconstruct(group, coeffs) -> QCentralFunction:
    out = QCentralFunction.constant(group, 0)
    for rep, c in coeffs.items():
        out = out + induced_trivial(group, rep).scale(c)
    return out


# -- group algebra idempotents -------------------------------------------------------

def idempotent_coeffs(alpha: QCentralFunction, n_alpha) -> dict:
    """p_alpha = (n_alpha / (|G| <alpha,alpha>)) sum_g alpha(g^-1) [g]."""
    group = alpha.group
    norm = inner_product(alpha, alpha)
    if norm == 0:
        raise ZeroNorm("character has zero norm")
    scale = Fraction(n_alpha) / (group.n * norm)
    return {g: scale * alpha(group.inv(g)) for g in group.elements()}


def convolve(coeffs1, coeffs2, group):
    out = {g: Fraction(0) for g in group.elements()}
    for a, ca in coeffs1.items():
        if ca == 0:
            continue
        for b, cb in coeffs2.items():
            if cb == 0:
                continue
            out[group.mul(a, b)] += ca * cb
    return out
