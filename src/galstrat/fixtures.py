"""Fixture documents: JSON in, validated engine objects out.

A fixture bundles one computation's inputs: formulas, stratifications,
elimination plans, quotient-class data, or jet systems, together with the
admissible primes and the sweep to validate over.  Loading validates
everything it can reach (group laws, conjugation stability, formula
syntax, plan coherence) and reports all violations at once.
"""

from __future__ import annotations

import hashlib
import json

from .covers import ALL_PRIMES, AdmissiblePrimes, CoverSpec
from .errors import (
    GalstratError,
    IoError,
    NotConjugationStable,
    SchemaError,
)
from .fields import make_field
from .formulas import parse_formula
from .groups import ConjDomain, FiniteGroup, GroupHom, cyclic_group, trivial_group
from .motives import CountTable, MotiveClass
from .polynomials import parse_poly
from .stratifications import (
    Case1Datum,
    Case2Datum,
    EliminationEntry,
    EliminationPlan,
    GaloisStratification,
)

KINDS = ("formula", "stratification", "elimination", "chi", "jets")


class FixtureDoc:
    def __init__(self, version, kind, payload, admissible, sweep, raw, digest):
        self.version = version
        self.kind = kind
        self.payload = payload
        self.admissible = admissible
        self.sweep = sweep
        self.raw = raw
        self.digest = digest


def field_from_order(q: int):
    if q < 2:
        raise SchemaError([f"field order {q} < 2"])
    p = 2
    while p * p <= q and q % p != 0:
        p += 1
    if p * p > q:
        p = q
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise SchemaError([f"{q} is not a prime power"])
    return make_field(p, e)


def load_group(doc, errors, where):
    try:
        if isinstance(doc, dict) and "cyclic" in doc:
            n = doc["cyclic"]
            return cyclic_group(n) if n > 1 else trivial_group()
        if isinstance(doc, dict):
            return FiniteGroup.from_json(doc)
    except GalstratError as exc:
        errors.append(f"{where}: {exc}")
        return trivial_group()
    errors.append(f"{where}: unrecognized group document")
    return trivial_group()


def load_cover(doc, errors, where, base_params=()):
    kind = doc.get("kind")
    try:
        admissible = AdmissiblePrimes.from_json(doc.get("admissible"))
        if kind == "trivial":
            stratum = parse_formula(doc["stratum"], base_params=base_params)
            return CoverSpec.trivial(stratum, admissible, label=doc.get("label"))
        if kind == "kummer":
            stratum = parse_formula(doc["stratum"], base_params=base_params)
            f = parse_poly(doc["f"])
            n = doc["n"]
            if type(n) is not int or n < 1:
                raise SchemaError([f"kummer n must be an integer >= 1, got {n!r}"])
            adm = admissible if doc.get("admissible") else None
            return CoverSpec.kummer(n, f, stratum, adm, label=doc.get("label"))
        if kind == "tabulated":
            group = load_group(doc["group"], errors, where)
            stratum = parse_formula(doc["stratum"], base_params=base_params)
            table = {}
            for q_str, points in doc["assign"].items():
                if not isinstance(points, dict):
                    raise SchemaError([f"assign {q_str!r} must be an object from points "
                                       f"to group elements, got {points!r}"])
                for point_str, elem in points.items():
                    try:
                        point = tuple(int(x) for x in point_str.split(",")) if point_str else ()
                        key = (int(q_str), point)
                    except ValueError:
                        raise SchemaError(
                            [f"assign key {q_str!r}: {point_str!r} is not made of integers"]
                        ) from None
                    if type(elem) is not int or not 0 <= elem < group.n:
                        raise SchemaError([f"assign {q_str!r}: {point_str!r} maps to {elem!r}, "
                                           f"not a group element 0..{group.n - 1}"])
                    table[key] = elem

            def assign(s_point, a, k, _table=table):
                key = (k.q, tuple(a))
                if key not in _table:
                    raise SchemaError([f"tabulated cover has no entry for {key}"])
                return _table[key]

            return CoverSpec.tabulated(group, stratum, assign, admissible,
                                       label=doc.get("label"))
    except GalstratError as exc:
        errors.append(f"{where}: {exc}")
        return CoverSpec.trivial(parse_formula("0 = 0"))
    except KeyError as exc:
        errors.append(f"{where}: missing field {exc}")
        return CoverSpec.trivial(parse_formula("0 = 0"))
    errors.append(f"{where}: unknown cover kind {kind!r}")
    return CoverSpec.trivial(parse_formula("0 = 0"))


def _parse_element(token):
    """Subgroup elements may be ints, decimal strings, or 'e' for the identity."""
    if isinstance(token, int):
        return token
    if token == "e":
        return 0
    return int(token)


def load_stratification(doc, errors, where="stratification"):
    base_params = tuple(doc.get("base_params", ()))
    coords = tuple(doc.get("coords", ()))
    if not coords and "ambient" in doc:
        coords = tuple(f"x{i + 1}" for i in range(doc["ambient"]))
    strata = []
    for i, entry in enumerate(doc.get("strata", ())):
        cover = load_cover(entry.get("cover", {}), errors, f"{where}.strata[{i}].cover",
                           base_params=base_params)
        try:
            con = ConjDomain(cover.group,
                             [frozenset(_parse_element(x) for x in s)
                              for s in entry.get("con", ())])
        except NotConjugationStable as exc:
            errors.append(
                f"{where}.strata[{i}].con: not conjugation-stable, "
                f"missing conjugate {sorted(exc.subgroup)}")
            con = ConjDomain.empty(cover.group)
        except GalstratError as exc:
            errors.append(f"{where}.strata[{i}].con: {exc}")
            con = ConjDomain.empty(cover.group)
        strata.append((cover, con))
    try:
        return GaloisStratification(coords, strata, base_params=base_params,
                                    label=doc.get("label"))
    except GalstratError as exc:
        errors.append(f"{where}: {exc}")
        return None


def load_hom(table, source, target, errors, where):
    try:
        return GroupHom(source, target, table)
    except GalstratError as exc:
        errors.append(f"{where}: {exc}")
        return GroupHom(source, target, [0] * source.n, skip_checks=True)


def load_elimination_plan(doc, strat, errors, where="plan"):
    base_params = strat.base_params if strat else ()
    output_covers = [load_cover(c, errors, f"{where}.output_covers[{i}]", base_params)
                     for i, c in enumerate(doc.get("output_covers", ()))]
    entries = []
    for i, entry in enumerate(doc.get("entries", ())):
        loc = f"{where}.entries[{i}]"
        try:
            idx = entry["stratum"]
            out = entry["output"]
            stratum_group = strat.strata[idx][0].group if strat else trivial_group()
            out_group = output_covers[out].group
            if entry["case"] == 1:
                step = load_group(entry["step_group"], errors, f"{loc}.step_group")
                datum = Case1Datum(
                    proj=load_hom(entry["proj"], step, stratum_group, errors, f"{loc}.proj"),
                    emb=load_hom(entry["emb"], step, out_group, errors, f"{loc}.emb"),
                    base_cover=output_covers[out])
            elif entry["case"] == 2:
                datum = Case2Datum(
                    res=load_hom(entry["res"], stratum_group, out_group, errors, f"{loc}.res"),
                    base_cover=output_covers[out])
            else:
                errors.append(f"{loc}: case must be 1 or 2")
                continue
            entries.append(EliminationEntry(idx, datum, out))
        except (KeyError, IndexError) as exc:
            errors.append(f"{loc}: malformed entry ({exc})")
    return EliminationPlan(output_covers, entries)


def load_quotient_data(doc, strat, errors, where="quotient_data"):
    from .chi import QuotientClassData
    data = {}
    for i, entry in enumerate(doc):
        loc = f"{where}[{i}]"
        try:
            idx = entry["stratum"]
            group = strat.strata[idx][0].group
            classes = {}
            for sub_str, value in entry["classes"].items():
                sub = frozenset(int(x) for x in sub_str.split(",")) if sub_str else frozenset({0})
                if isinstance(value, str):
                    classes[sub] = MotiveClass.generator(value)
                else:
                    classes[sub] = MotiveClass.from_json(value)
            data[idx] = QuotientClassData(group, classes)
        except GalstratError as exc:
            errors.append(f"{loc}: {exc}")
        except (KeyError, IndexError, ValueError) as exc:
            errors.append(f"{loc}: malformed entry ({exc})")
    return data


def load_sweep(doc, errors, where="sweep"):
    doc = doc or {}
    primes = list(doc.get("primes", ()))
    if not primes:
        errors.append(f"{where}: no primes declared (the engine never picks primes)")
    s_points = doc.get("s_points", [{}])
    if s_points not in ("all", "nonzero") and not (
            isinstance(s_points, list) and all(isinstance(s, dict) for s in s_points)):
        errors.append(f"{where}: s_points must be \"all\", \"nonzero\" or a list of "
                      f"objects, got {s_points!r}")
    return {"primes": primes, "s_points": s_points}


def sweep_pairs(sweep, base_params, admissible=ALL_PRIMES):
    """Expand a sweep into (field, s_point) pairs, honoring admissibility."""
    pairs = []
    for q in sweep["primes"]:
        admissible.require(q)
        k = field_from_order(q)
        spec = sweep["s_points"]
        if spec == "all" or spec == "nonzero":
            import itertools
            ranges = range(k.q) if spec == "all" else range(1, k.q)
            for vals in itertools.product(ranges, repeat=len(base_params)):
                pairs.append((k, dict(zip(base_params, vals))))
        else:
            for s_point in spec:
                pairs.append((k, dict(s_point)))
    return pairs


def load_fixture(path) -> FixtureDoc:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError([f"invalid JSON: {exc}"]) from exc
    errors = []
    version = doc.get("version")
    if version != 1:
        errors.append(f"version must be 1, got {version!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        errors.append(f"kind must be one of {KINDS}, got {kind!r}")
        raise SchemaError(errors)
    try:
        admissible = AdmissiblePrimes.from_json(doc.get("admissible"))
    except SchemaError as exc:
        errors.extend(exc.violations)
        admissible = ALL_PRIMES
    sweep = load_sweep(doc.get("sweep"), errors)
    payload = {}

    if kind == "formula":
        base_params = tuple(doc.get("base_params", ()))
        payload["base_params"] = base_params
        for name in ("formula", "psi", "phi1", "phi2"):
            if name in doc:
                try:
                    payload[name] = parse_formula(doc[name], base_params=base_params)
                except GalstratError as exc:
                    errors.append(f"{name}: {exc}")
        if "formula" not in payload and "psi" not in payload:
            errors.append("formula fixture needs 'formula' or 'psi'/'phi1'/'phi2'")
        if "psi" in doc and not ("phi1" in payload and "phi2" in payload):
            errors.append("bijection fixture needs phi1 and phi2")

    elif kind == "stratification":
        strat = load_stratification(doc.get("stratification", {}), errors)
        payload["stratification"] = strat

    elif kind == "elimination":
        strat = load_stratification(doc.get("input", {}), errors, where="input")
        payload["input"] = strat
        prefix = tuple(doc.get("prefix", ()))
        if prefix not in (("E",), ("A",)):
            errors.append("fixture prefix must be exactly one quantifier, 'E' or 'A'")
        payload["prefix"] = prefix
        if strat is not None and "plan" in doc:
            payload["plan"] = load_elimination_plan(doc["plan"], strat, errors)
        elif "plan" not in doc:
            errors.append("elimination fixture needs a 'plan'")

    elif kind == "chi":
        strat = load_stratification(doc.get("stratification", {}), errors)
        payload["stratification"] = strat
        if strat is not None:
            payload["quotient_data"] = load_quotient_data(
                doc.get("quotient_data", ()), strat, errors)
            missing = [i for i in strat.support()
                       if i not in payload["quotient_data"]]
            if missing:
                errors.append(f"missing quotient data for support strata {missing}")
        payload["counts"] = CountTable(doc.get("counts", {}))

    elif kind == "jets":
        texts = doc.get("equations", [])
        payload["equations"] = []
        if not (isinstance(texts, list) and all(isinstance(e, str) for e in texts)):
            errors.append(f"equations must be a list of strings, got {texts!r}")
        else:
            try:
                payload["equations"] = [parse_poly(e) for e in texts]
            except GalstratError as exc:
                errors.append(f"equations: {exc}")
        x_vars = payload["x_vars"] = tuple(doc.get("x_vars", ())) or None
        base_params = payload["base_params"] = tuple(doc.get("base_params", ()))
        if x_vars is not None:
            for i, eq in enumerate(payload["equations"]):
                unknown = sorted(eq.used_variables() - set(x_vars) - set(base_params))
                if unknown:
                    errors.append(f"equations[{i}]: variables {unknown} are in neither "
                                  "x_vars nor base_params")
        level = payload["level"] = doc.get("level", 0)
        if type(level) is not int or level < 0:
            errors.append(f"level must be an integer >= 0, got {level!r}")
        else:
            depth_cap = payload["depth_cap"] = doc.get("depth_cap", 2 * level + 2)
            if type(depth_cap) is not int or depth_cap < 2 * level + 2:
                errors.append(f"depth_cap must be an integer >= 2*level + 2 = "
                              f"{2 * level + 2}, got {depth_cap!r}")

    if errors:
        raise SchemaError(errors)
    return FixtureDoc(version, kind, payload, admissible, sweep, doc, digest)
