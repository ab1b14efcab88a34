"""Layer micro-benchmarks, timed through galstrat's public calls only.

Each figure is nanoseconds per call, including the Python loop that makes
the calls: the best of REPEATS timed loops over fixed seeded inputs.
"""

from __future__ import annotations

import random
import statistics
import time

from galstrat.characters import alpha_from_conj_domain, artin_decompose
from galstrat.covers import CoverSpec
from galstrat.fixtures import field_from_order
from galstrat.formulas import holds_at
from galstrat.groups import ConjDomain, cyclic_group
from galstrat.jets import jet_ideal
from galstrat.polynomials import parse_poly

from workloads import translate_text

REPEATS = 7
PAIRS = 2000
# Extension fields of characteristic 2, 3 and 5, for a workload that runs none.
DEFAULT_EXTENSIONS = [4, 8, 9, 25]
KUMMER_Q = 97


def _ns_per_call(loop, n):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return min(times) / n * 1e9


def _field_op_ns(orders, op_name, rng):
    """Mean over the orders of the per-call time of one field operation."""
    figures = []
    for q in orders:
        k = field_from_order(q)
        op = getattr(k, op_name)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(PAIRS)]

        def loop():
            for a, b in pairs:
                op(a, b)

        figures.append(_ns_per_call(loop, len(pairs)))
    return statistics.fmean(figures)


def field_arithmetic(orders, seed):
    """fields.{add,mul}.ns_{prime,ext} at the given field orders."""
    rng = random.Random(f"micro:{seed}")
    primes = [q for q in orders if field_from_order(q).e == 1]
    extensions = [q for q in orders if field_from_order(q).e > 1] or DEFAULT_EXTENSIONS
    out = {}
    for op_name in ("add", "mul"):
        out[f"fields.{op_name}.ns_prime"] = _field_op_ns(primes, op_name, rng)
        out[f"fields.{op_name}.ns_ext"] = _field_op_ns(extensions, op_name, rng)
    return out


def eval_field(seed):
    """Poly.eval_field on the t^2 generator of the level-2 jets of a translated x*y."""
    rng = random.Random(f"micro:{seed}")
    eq = parse_poly(translate_text("x*y", {"x": rng.randint(1, 1000), "y": rng.randint(1, 1000)}))
    ideal = jet_ideal([eq], 2)
    gen = ideal.gens[2]
    k = field_from_order(3)
    points = [{v: rng.randrange(3) for v in ideal.jet_vars} for _ in range(PAIRS)]

    def loop():
        for point in points:
            gen.eval_field(point, k)

    return {"polynomials.eval_field.ns": _ns_per_call(loop, len(points))}


def kummer_layers(seed):
    """holds_at on a Kummer stratum, frobenius_element, and artin_decompose."""
    rng = random.Random(f"micro:{seed}")
    shift = {"x": rng.randint(1, 1000)}
    cover = CoverSpec.kummer(2, translate_text("x", shift), translate_text("~(x = 0)", shift))
    k = field_from_order(KUMMER_Q)
    points = [(rng.randrange(KUMMER_Q),) for _ in range(PAIRS)]
    on = [a for a in points if holds_at(cover.stratum, {}, a, k)]

    def strata():
        for a in points:
            holds_at(cover.stratum, {}, a, k)

    def frobenius():
        for a in on:
            cover.frobenius_element({}, a, k)

    group = cyclic_group(4)
    alpha = alpha_from_conj_domain(ConjDomain(group, [frozenset({0}), frozenset({0, 2})]))
    decompositions = 200

    def artin():
        for _ in range(decompositions):
            artin_decompose(alpha)

    return {
        "formulas.holds_at.ns": _ns_per_call(strata, len(points)),
        "covers.frobenius_element.ns": _ns_per_call(frobenius, len(on)),
        "characters.artin_decompose.ns": _ns_per_call(artin, decompositions),
    }
