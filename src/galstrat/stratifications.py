"""Galois stratifications of affine space and their calculus.

A stratification partitions A^m (over a parametrized base) into strata,
each carrying a cover descriptor and a conjugation domain.  The membership
set of a point is decided by whether its decomposition class lies in the
stratum's domain.  All operations here are pure data transforms on the
(cover, domain) pairs; geometric inputs (dominations, decomposition
subgroups of components, constant-field covers) arrive as fixture data and
every transform can be validated against brute-force finite-field
semantics with an explicit prime sweep.

Quantifier elimination is implemented as the two conjugation-domain
transforms of the one-variable projection step (finite-etale case and
fiber-dimension-one case), merged per base stratum, with the universal
quantifier handled by complementation on both sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .covers import ALL_PRIMES, AdmissiblePrimes, CoverSpec
from .errors import (
    CommonRefinementRequired,
    DimMismatch,
    EmbeddingInvalid,
    MissingDatum,
    PartitionViolation,
    SemanticMismatch,
    SurjectionInvalid,
    VariableMismatch,
    WitnessInvalid,
)
from .formulas import DefinableSet, conjunction
from .groups import ConjDomain, FiniteGroup, GroupHom, direct_product, product_projections


class GaloisStratification:
    def __init__(self, coords, strata, base_params=(), label=None):
        self.coords = tuple(coords)
        self.base_params = tuple(base_params)
        self.strata = tuple((cover, con) for cover, con in strata)
        self.label = label or "strat"
        for cover, con in self.strata:
            if con.group != cover.group:
                raise WitnessInvalid(
                    f"conjugation domain group differs from cover group on {cover.label}")
            extra = set(cover.stratum.free_vars) - set(self.coords)
            if extra:
                raise VariableMismatch(
                    f"stratum formula uses non-ambient variables {sorted(extra)}")
        # where each stratum's free variables sit in an ambient point
        self._slots = tuple(tuple(self.coords.index(v) for v in cover.stratum.free_vars)
                            for cover, _ in self.strata)

    @property
    def ambient_dim(self):
        return len(self.coords)

    def support(self):
        return tuple(i for i, (_, con) in enumerate(self.strata) if not con.is_empty())

    def admissible(self) -> AdmissiblePrimes:
        merged = ALL_PRIMES
        for cover, _ in self.strata:
            merged = merged.merge(cover.admissible)
        return merged

    def with_strata(self, strata, label=None):
        return GaloisStratification(self.coords, strata,
                                    base_params=self.base_params,
                                    label=label or self.label)

    # -- semantics ---------------------------------------------------------------

    def _fiber(self, s_point, k):
        """Membership test of one fiber (k, s_point), as a pair of closures.

        locate(a) is the index of the unique stratum holding the ambient
        point a; member(a) says whether a lies in the Galois set.  The base
        point is embedded and each stratum formula compiled once per fiber.
        Only a stratum with a non-empty domain builds its cover's Frobenius
        map, when its first point arrives, and reads a in its free-variable order.
        """
        env = k.embed_point(s_point)
        tests = [cover.stratum.compile(k) for cover, _ in self.strata]
        maps = [None] * len(self.strata)
        coords, strata, slots = self.coords, self.strata, self._slots

        def locate(a):
            env.update(zip(coords, a))
            hits = [i for i, holds in enumerate(tests) if holds(env)]
            if len(hits) != 1:
                raise PartitionViolation(a, len(hits))
            return hits[0]

        def member(a):
            i = locate(a)
            cover, con = strata[i]
            if con.is_empty():
                return False
            if maps[i] is None:
                maps[i] = cover.frobenius_map(s_point, k)
            element = maps[i](tuple(a[j] for j in slots[i]))
            return cover.group.cyclic_subgroup(element) in con

        return locate, member

    def stratum_of(self, s_point, a, k):
        locate, _ = self._fiber(s_point, k)
        return locate(a)

    def member(self, s_point, a, k) -> bool:
        _, member = self._fiber(s_point, k)
        return member(a)

    def galois_set(self, s_point, k) -> DefinableSet:
        _, member = self._fiber(s_point, k)
        tuples = [a for a in itertools.product(range(k.q), repeat=self.ambient_dim)
                  if member(a)]
        return DefinableSet(k, s_point, self.coords, tuples)

    def substitute_base(self, mapping) -> "GaloisStratification":
        strata = [(cover.substitute_base(mapping), con) for cover, con in self.strata]
        base = tuple(p for p in self.base_params if p not in mapping)
        return GaloisStratification(self.coords, strata, base_params=base,
                                    label=f"{self.label}|subst")

    def __repr__(self):
        return (f"GaloisStratification({self.label}, coords={self.coords}, "
                f"{len(self.strata)} strata)")


# -- refinement and pullback ------------------------------------------------------

@dataclass
class RefinementChild:
    cover: CoverSpec
    embed: GroupHom  # child cover group -> parent cover group, injective


@dataclass
class RefinementDatum:
    parent_index: int
    children: list


def _refined_domain(parent_con: ConjDomain, child: RefinementChild) -> ConjDomain:
    """Members of the parent domain inside the declared decomposition subgroup,
    transported to the child group through the embedding."""
    embed = child.embed
    embed.require_injective()
    if embed.target != parent_con.group:
        raise EmbeddingInvalid("embedding target is not the parent cover group")
    if embed.source != child.cover.group:
        raise EmbeddingInvalid("embedding source is not the child cover group")
    image = embed.image()
    subs = []
    for h in parent_con.subs:
        if h <= image:
            subs.append(embed.preimage(h))
    return ConjDomain(child.cover.group, subs)


def refine(strat: GaloisStratification, data) -> GaloisStratification:
    by_parent = {d.parent_index: d for d in data}
    new_strata = []
    for i, (cover, con) in enumerate(strat.strata):
        if i not in by_parent:
            new_strata.append((cover, con))
            continue
        for child in by_parent[i].children:
            new_strata.append((child.cover, _refined_domain(con, child)))
    return strat.with_strata(new_strata, label=f"{strat.label}|refined")


def pullback(strat: GaloisStratification, var_map, new_coords, data,
             label=None) -> GaloisStratification:
    """Stratification over the new coordinates induced through substitution.

    var_map sends each old coordinate to a polynomial in the new ones; data
    lists, per new stratum, the parent index, the child cover over the new
    coordinates, and the embedding of its group as the declared
    decomposition subgroup of the parent group.
    """
    new_coords = tuple(new_coords)
    for v in strat.coords:
        if v not in var_map:
            raise VariableMismatch(f"substitution missing coordinate {v}")
    new_strata = []
    for parent_index, child in data:
        _, parent_con = strat.strata[parent_index]
        new_strata.append((child.cover, _refined_domain(parent_con, child)))
    return GaloisStratification(new_coords, new_strata,
                                base_params=strat.base_params,
                                label=label or f"{strat.label}|pullback")


def check_pullback_contract(pb: GaloisStratification, strat: GaloisStratification,
                            var_map, sweep):
    """Brute-force the contract: a in Z(pullback) iff f(a) in Z(strat)."""
    for k, s_point in sweep:
        maps = [var_map[v].compile(k) for v in strat.coords]
        env = k.embed_point(s_point)
        _, in_pb = pb._fiber(s_point, k)
        _, in_strat = strat._fiber(s_point, k)
        for a in itertools.product(range(k.q), repeat=pb.ambient_dim):
            env.update(zip(pb.coords, a))
            fa = tuple(f(env) for f in maps)
            if in_pb(a) != in_strat(fa):
                raise SemanticMismatch("pullback contract fails", (k.q, s_point, a))


# -- inflation ---------------------------------------------------------------------

def inflate(stratum_pair, psi: GroupHom, new_cover: CoverSpec):
    """Replace a cover by a dominating one; the domain lifts through psi.

    psi is the surjection from the dominating group onto the old cover
    group; the new domain consists of the cyclic subgroups whose image
    belongs to the old domain.
    """
    _, con = stratum_pair
    if psi.source != new_cover.group:
        raise SurjectionInvalid("projection source is not the new cover group")
    return new_cover, inflate_domain(con, psi)


def inflate_domain(con: ConjDomain, psi: GroupHom) -> ConjDomain:
    """Cyclic subgroups of psi's source whose image lies in the domain."""
    psi.require_surjective()
    if psi.target != con.group:
        raise SurjectionInvalid("projection target mismatch")
    subs = [h for h in psi.source.cyclic_subgroups() if psi.image(h) in con]
    return ConjDomain(psi.source, subs)


# -- boolean operations ------------------------------------------------------------

def boolean_combine(a: GaloisStratification, b: GaloisStratification,
                    mode: str) -> GaloisStratification:
    if a.coords != b.coords:
        raise DimMismatch(f"coords differ: {a.coords} vs {b.coords}")
    if len(a.strata) != len(b.strata):
        raise CommonRefinementRequired("different number of strata")
    new_strata = []
    for (ca, cona), (cb, conb) in zip(a.strata, b.strata):
        if ca.signature() != cb.signature():
            raise CommonRefinementRequired(
                f"strata differ: {ca.label} vs {cb.label}; refine/inflate first")
        if mode == "or":
            new_strata.append((ca, cona.union(conb)))
        elif mode == "and":
            new_strata.append((ca, cona.intersection(conb)))
        else:
            raise ValueError(f"mode must be 'and' or 'or', got {mode!r}")
    return a.with_strata(new_strata, label=f"({a.label} {mode} {b.label})")


def complement(a: GaloisStratification) -> GaloisStratification:
    new_strata = [(cover, con.complement()) for cover, con in a.strata]
    return a.with_strata(new_strata, label=f"~({a.label})")


# -- products -----------------------------------------------------------------------

@dataclass
class ProductWitness:
    group: FiniteGroup
    onto_left: GroupHom
    onto_right: GroupHom


def product(a: GaloisStratification, b: GaloisStratification,
            witnesses=None) -> GaloisStratification:
    """Stratification of A^(m+m') with Con = meet of the two inflations.

    witnesses maps a stratum pair (i, j) to a ProductWitness; by default the
    full direct product of the factor groups with its projections is used.
    """
    if set(a.coords) & set(b.coords):
        raise VariableMismatch(f"coordinate overlap {set(a.coords) & set(b.coords)}")
    witnesses = witnesses or {}
    coords = a.coords + b.coords
    new_strata = []
    for (i, (ca, cona)), (j, (cb, conb)) in itertools.product(
            enumerate(a.strata), enumerate(b.strata)):
        wit = witnesses.get((i, j))
        if wit is None:
            v = direct_product(ca.group, cb.group)
            p1, p2 = product_projections(v, ca.group, cb.group)
            wit = ProductWitness(v, p1, p2)
        _check_witness(wit, ca.group, cb.group)
        stratum = conjunction(ca.stratum, cb.stratum)
        cover = CoverSpec.product(
            factors=(ca, cb), stratum=stratum, group=wit.group,
            embed_element=_element_finder(wit),
            admissible=ca.admissible.merge(cb.admissible),
            label=f"{ca.label}x{cb.label}")
        subs = [h for h in wit.group.cyclic_subgroups()
                if wit.onto_left.image(h) in cona and wit.onto_right.image(h) in conb]
        new_strata.append((cover, ConjDomain(wit.group, subs)))
    return GaloisStratification(coords, new_strata,
                                base_params=tuple(dict.fromkeys(a.base_params + b.base_params)),
                                label=f"({a.label} x {b.label})")


def _check_witness(wit: ProductWitness, g1, g2):
    if wit.onto_left.source != wit.group or wit.onto_right.source != wit.group:
        raise WitnessInvalid("witness surjections must start at the witness group")
    if wit.onto_left.target != g1 or wit.onto_right.target != g2:
        raise WitnessInvalid("witness surjections must land in the factor groups")
    wit.onto_left.require_surjective()
    wit.onto_right.require_surjective()


def _element_finder(wit: ProductWitness):
    def find(e1, e2):
        for v in wit.group.elements():
            if wit.onto_left(v) == e1 and wit.onto_right(v) == e2:
                return v
        raise WitnessInvalid(
            f"witness group has no element over the Frobenius pair ({e1}, {e2})")
    return find


# -- quantifier elimination -----------------------------------------------------------

@dataclass
class Case1Datum:
    """Finite-etale step: the stratum is finite etale over its image."""
    proj: GroupHom        # G(D/A) ->> G(C/A)
    emb: GroupHom         # G(D/A)  c-> G(D/B)
    base_cover: CoverSpec  # D/B


@dataclass
class Case2Datum:
    """Fiber-dimension-one step: constants of the cover descend to the base."""
    res: GroupHom          # G(C/A) ->> G(D/B)
    base_cover: CoverSpec  # D/B


def eliminate_case1(stratum_pair, datum: Case1Datum):
    cover, con = stratum_pair
    datum.proj.require_surjective()
    datum.emb.require_injective()
    if datum.proj.target != cover.group:
        raise EmbeddingInvalid("projection must land in the stratum cover group")
    if datum.proj.source != datum.emb.source:
        raise EmbeddingInvalid("projection and embedding must share their source")
    if datum.emb.target != datum.base_cover.group:
        raise EmbeddingInvalid("embedding must land in the base cover group")
    lifted = inflate_domain(con, datum.proj)
    images = [datum.emb.image(h) for h in lifted.subs]
    return datum.base_cover, ConjDomain.closure(datum.base_cover.group, images)


def eliminate_case2(stratum_pair, datum: Case2Datum):
    cover, con = stratum_pair
    datum.res.require_surjective()
    if datum.res.source != cover.group:
        raise SurjectionInvalid("restriction must start at the stratum cover group")
    if datum.res.target != datum.base_cover.group:
        raise SurjectionInvalid("restriction must land in the base cover group")
    images = [datum.res.image(h) for h in con.subs]
    return datum.base_cover, ConjDomain.closure(datum.base_cover.group, images)


@dataclass
class EliminationEntry:
    stratum_index: int
    datum: object              # Case1Datum or Case2Datum
    output_index: int
    inflate: GroupHom | None = None  # output cover group ->> piece group


@dataclass
class EliminationPlan:
    output_covers: list

    def __init__(self, output_covers, entries):
        self.output_covers = list(output_covers)
        self.entries = list(entries)


class GaloisFormula:
    """Prefix of quantifiers over the trailing coordinates of a stratification.

    prefix[i] ('E' or 'A') binds coords[n_free + i]; the innermost quantifier
    is the last entry and binds the last coordinate.
    """

    def __init__(self, prefix, strat: GaloisStratification):
        self.prefix = tuple(prefix)
        if any(qy not in ("E", "A") for qy in self.prefix):
            raise ValueError("prefix entries must be 'E' or 'A'")
        if len(self.prefix) > strat.ambient_dim:
            raise DimMismatch("more quantifiers than coordinates")
        self.strat = strat

    def definable_set(self, s_point, k) -> DefinableSet:
        full = self.strat.galois_set(s_point, k)
        tuples = set(full.tuples)
        n_free = self.strat.ambient_dim - len(self.prefix)
        for i, quant in reversed(list(enumerate(self.prefix))):
            arity = n_free + i
            projected = set()
            by_prefix = {}
            for t in tuples:
                by_prefix.setdefault(t[:arity], set()).add(t[arity])
            if quant == "E":
                projected = set(by_prefix)
            else:
                full_fiber = set(range(k.q))
                projected = {pre for pre, vals in by_prefix.items() if vals == full_fiber}
            tuples = projected
        return DefinableSet(k, s_point, self.strat.coords[:n_free], tuples)

    def __repr__(self):
        return f"GaloisFormula(prefix={self.prefix}, {self.strat!r})"


def _eliminate_exists_once(strat: GaloisStratification, plan: EliminationPlan,
                           label=None) -> GaloisStratification:
    out_coords = strat.coords[:-1]
    cons = [ConjDomain.empty(cover.group) for cover in plan.output_covers]
    by_stratum = {}
    for entry in plan.entries:
        by_stratum.setdefault(entry.stratum_index, []).append(entry)
    for i in strat.support():
        if i not in by_stratum:
            raise MissingDatum(f"support stratum {i} has no elimination datum")
    for entry in plan.entries:
        pair = strat.strata[entry.stratum_index]
        if pair[1].is_empty():
            continue
        if isinstance(entry.datum, Case1Datum):
            piece_cover, piece_con = eliminate_case1(pair, entry.datum)
        elif isinstance(entry.datum, Case2Datum):
            piece_cover, piece_con = eliminate_case2(pair, entry.datum)
        else:
            raise MissingDatum(f"unknown datum type {type(entry.datum)!r}")
        target_cover = plan.output_covers[entry.output_index]
        if entry.inflate is not None:
            piece_con = inflate_domain(piece_con, entry.inflate)
        elif piece_cover.group != target_cover.group:
            raise MissingDatum(
                "piece group differs from output cover group and no inflation was supplied")
        cons[entry.output_index] = cons[entry.output_index].union(
            ConjDomain(target_cover.group, piece_con.subs))
    strata = list(zip(plan.output_covers, cons))
    return GaloisStratification(out_coords, strata, base_params=strat.base_params,
                                label=label or f"{strat.label}|exists")


def validate_elimination(gf_in: GaloisFormula, gf_out: GaloisFormula, sweep):
    """Z(output) must equal Z(input) exactly on every (field, s_point).

    Returns one (k, s_point, count) row per fiber, count being the size of
    the common set."""
    rows = []
    for k, s_point in sweep:
        want = gf_in.definable_set(s_point, k)
        got = gf_out.definable_set(s_point, k)
        if want.tuples != got.tuples:
            diff = sorted(want.tuples ^ got.tuples)
            raise SemanticMismatch("elimination changes the definable set",
                                   (k.q, s_point, diff[0]))
        rows.append((k, s_point, len(want)))
    return rows


def eliminate_existential(gf: GaloisFormula, plan: EliminationPlan,
                          sweep=()) -> GaloisFormula:
    """Peel the innermost quantifier; 'A' goes through double complementation."""
    if not gf.prefix:
        raise MissingDatum("no quantifier to eliminate")
    quant = gf.prefix[-1]
    if quant == "E":
        out = _eliminate_exists_once(gf.strat, plan)
    else:
        flipped = _eliminate_exists_once(complement(gf.strat), plan)
        out = complement(flipped)
    result = GaloisFormula(gf.prefix[:-1], out)
    if sweep:
        validate_elimination(GaloisFormula(gf.prefix[-1:], gf.strat),
                             GaloisFormula((), out), sweep)
    return result


def eliminate_all(gf: GaloisFormula, plans, sweep=()) -> GaloisStratification:
    """Run the full prefix, innermost first; plans listed in elimination order."""
    current = gf
    for plan in plans:
        current = eliminate_existential(current, plan, sweep)
    if current.prefix:
        raise MissingDatum(f"{len(current.prefix)} quantifiers left but plans ran out")
    return current.strat


# -- semantic comparison helpers ---------------------------------------------------------

def same_galois_set(a: GaloisStratification, b: GaloisStratification, sweep) -> bool:
    for k, s_point in sweep:
        if a.galois_set(s_point, k).tuples != b.galois_set(s_point, k).tuples:
            return False
    return True
