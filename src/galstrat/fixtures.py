"""Fixture documents: JSON in, validated engine objects out.

A fixture bundles one computation's inputs: formulas, stratifications,
elimination plans, quotient-class data, or jet systems, together with the
admissible primes and the sweep to validate over.  The shape of each kind
of document is stated once, in `schemas/<kind>.json`, and every document is
checked against it before anything is built.  Loading then validates what a
schema cannot say (group laws, conjugation stability, formula syntax, plan
coherence) and reports all violations at once.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from fractions import Fraction

from .covers import ALL_PRIMES, AdmissiblePrimes, CoverSpec
from .errors import (
    CapExceeded,
    GalstratError,
    IoError,
    NotConjugationStable,
    SchemaError,
)
from .fields import DEFAULT_CAP, make_field
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


# -- the schema checker -------------------------------------------------------------
#
# The JSON-Schema subset the schema files use.  `definitions` holds named
# fragments for `$ref`, which is either local ("#/definitions/x") or names a
# sibling file ("common.json#/definitions/x").

SCHEMA_KEYWORDS = frozenset({
    "type", "required", "properties", "additionalProperties", "items",
    "minItems", "maxItems", "enum", "const", "minimum", "oneOf", "$ref",
    "$comment", "definitions",
})

_SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "schemas")
_JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int}

# What every document must be before its kind selects a schema.
_ENVELOPE = {"type": "object", "required": ["kind"],
             "properties": {"kind": {"enum": list(KINDS)}}}


@functools.cache
def _schema_file(name):
    with open(os.path.join(_SCHEMA_DIR, name)) as fh:
        return json.load(fh)


@functools.cache
def _resolve(ref, base):
    """The (file, schema) that `ref` names; a ref without a file stays in `base`."""
    name, _, pointer = ref.partition("#")
    name = name or base
    node = _schema_file(name)
    for step in pointer.split("/")[1:]:
        node = node[step]
    return name, node


def _same(a, b):
    """JSON equality: true is not 1, and 1.0 is not 1."""
    return type(a) is type(b) and a == b


def _show(value):
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _field(path, name):
    if name.isidentifier():
        return f"{path}.{name}" if path else name
    return f"{path}[{json.dumps(name)}]"


def schema_violations(value, schema, base="", path=""):
    """Every way `value` breaks `schema`, each as `<json path>: <problem>`.

    `base` is the schema file that local `$ref`s resolve in."""
    errors = []
    _check(value, schema, base, path, errors)
    return errors


def _check(value, schema, base, path, errors):
    where = path or "document"
    kind = type(value)
    if "$ref" in schema:
        ref_base, target = _resolve(schema["$ref"], base)
        _check(value, target, ref_base, path, errors)
    if "type" in schema and kind is not _JSON_TYPES[schema["type"]]:
        errors.append(f"{where}: expected {schema['type']}, got {_show(value)}")
        return
    if "const" in schema and not _same(value, schema["const"]):
        errors.append(f"{where}: expected {_show(schema['const'])}, got {_show(value)}")
    if "enum" in schema and not any(_same(value, v) for v in schema["enum"]):
        errors.append(f"{where}: {_show(value)} is not one of {_show(schema['enum'])}")
    if "minimum" in schema and kind is int and value < schema["minimum"]:
        errors.append(f"{where}: {value} is below the minimum {schema['minimum']}")
    if kind is dict:
        for name in schema.get("required", ()):
            if name not in value:
                errors.append(f"{_field(path, name)}: required, but missing")
        properties = schema.get("properties", {})
        other = schema.get("additionalProperties")
        for name, item in value.items():
            sub = properties.get(name, other)
            if sub is not None:
                _check(item, sub, base, _field(path, name), errors)
    elif kind is list:
        if len(value) < schema.get("minItems", 0):
            errors.append(f"{where}: needs at least {schema['minItems']} items, "
                          f"got {len(value)}")
        if len(value) > schema.get("maxItems", len(value)):
            errors.append(f"{where}: allows at most {schema['maxItems']} items, "
                          f"got {len(value)}")
        if "items" in schema:
            for i, item in enumerate(value):
                _check(item, schema["items"], base, f"{path}[{i}]", errors)
    if "oneOf" in schema:
        outcomes = [schema_violations(value, option, base, path)
                    for option in schema["oneOf"]]
        fits = outcomes.count([])
        if fits == 0:
            errors.append(f"{where}: {_show(value)} fits none of the allowed forms ("
                          + " | ".join("; ".join(o) for o in outcomes) + ")")
        elif fits > 1:
            errors.append(f"{where}: {_show(value)} fits {fits} of the allowed forms, "
                          "not exactly one")


def _require(doc, schema, base=""):
    errors = schema_violations(doc, schema, base)
    if errors:
        raise SchemaError(errors)


# -- documents to engine objects ------------------------------------------------------

class FixtureDoc:
    """A loaded document.  Its fibers are the sweep's points of `base_params`
    at the field orders `admissible` allows, its stratification's included."""

    def __init__(self, kind, payload, base_params, admissible, sweep, digest):
        self.kind = kind
        self.payload = payload
        self.base_params = base_params
        self.admissible = admissible
        self.sweep = sweep
        self.digest = digest


def field_from_order(q: int):
    return make_field(*prime_power(q))


def prime_power(q: int):
    """(p, e) with q = p^e; an order that names no field raises."""
    if q < 2:
        raise SchemaError([f"field order {q} < 2"])
    if q > DEFAULT_CAP:
        raise CapExceeded(f"q = {q} outside [2, {DEFAULT_CAP}]")
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
    return p, e


def load_group(doc, errors, where):
    try:
        if "cyclic" in doc:
            n = doc["cyclic"]
            return cyclic_group(n) if n > 1 else trivial_group()
        return FiniteGroup.from_json(doc)
    except GalstratError as exc:
        errors.append(f"{where}: {exc}")
        return trivial_group()


def load_cover(doc, errors, where, base_params=()):
    kind = doc["kind"]
    try:
        admissible = AdmissiblePrimes.from_json(doc.get("admissible"))
        if kind == "trivial":
            stratum = parse_formula(doc["stratum"], base_params=base_params)
            return CoverSpec.trivial(stratum, admissible, label=doc.get("label"))
        if kind == "kummer":
            stratum = parse_formula(doc["stratum"], base_params=base_params)
            f = parse_poly(doc["f"])
            adm = admissible if doc.get("admissible") else None
            return CoverSpec.kummer(doc["n"], f, stratum, adm, label=doc.get("label"))
        # the schema admits one more kind: tabulated
        group = load_group(doc["group"], errors, where)
        stratum = parse_formula(doc["stratum"], base_params=base_params)
        table = {}
        for q_str, points in doc["assign"].items():
            for point_str, elem in points.items():
                try:
                    point = tuple(int(x) for x in point_str.split(",")) if point_str else ()
                    key = (int(q_str), point)
                except ValueError:
                    raise SchemaError(
                        [f"assign key {q_str!r}: {point_str!r} is not made of integers"]
                    ) from None
                if elem >= group.n:
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
    except KeyError as exc:
        errors.append(f"{where}: missing field {exc}")
    return CoverSpec.trivial(parse_formula("0 = 0"))


def load_stratification(doc, errors, where="stratification"):
    base_params = tuple(doc.get("base_params", ()))
    strata = []
    for i, entry in enumerate(doc["strata"]):
        cover = load_cover(entry["cover"], errors, f"{where}.strata[{i}].cover",
                           base_params=base_params)
        try:
            con = ConjDomain(cover.group, entry["con"])
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
        return GaloisStratification(tuple(doc["coords"]), strata, base_params=base_params,
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
    output_covers = [load_cover(c, errors, f"{where}.output_covers[{i}]", strat.base_params)
                     for i, c in enumerate(doc["output_covers"])]
    entries = []
    for i, entry in enumerate(doc["entries"]):
        loc = f"{where}.entries[{i}]"
        try:
            idx = entry["stratum"]
            out = entry["output"]
            stratum_group = strat.strata[idx][0].group
            out_group = output_covers[out].group
            if entry["case"] == 1:
                step = load_group(entry["step_group"], errors, f"{loc}.step_group")
                datum = Case1Datum(
                    proj=load_hom(entry["proj"], step, stratum_group, errors, f"{loc}.proj"),
                    emb=load_hom(entry["emb"], step, out_group, errors, f"{loc}.emb"),
                    base_cover=output_covers[out])
            else:
                datum = Case2Datum(
                    res=load_hom(entry["res"], stratum_group, out_group, errors, f"{loc}.res"),
                    base_cover=output_covers[out])
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
        except (KeyError, IndexError, ValueError, TypeError, ZeroDivisionError) as exc:
            errors.append(f"{loc}: malformed entry ({exc})")
    return data


def load_counts(doc, errors, where="counts"):
    table = CountTable()
    for name, counts in doc.items():
        for q, value in counts.items():
            loc = _field(_field(where, name), q)
            try:
                q = int(q)
            except ValueError:
                errors.append(f"{loc}: the field order {q!r} is not an integer")
                continue
            try:
                table.set(name, q, value)
            except (ValueError, ZeroDivisionError):
                errors.append(f"{loc}: {value!r} is not an integer or a rational a/b")
    return table


def load_sweep(doc, errors, where="sweep"):
    s_points = doc.get("s_points", [{}])
    if s_points not in ("all", "nonzero"):
        for i, s_point in enumerate(s_points):
            for name, value in s_point.items():
                try:
                    Fraction(value)
                except (ValueError, ZeroDivisionError):
                    errors.append(f"{_field(f'{where}.s_points[{i}]', name)}: "
                                  f"{value!r} is not an integer or a rational a/b")
    return {"primes": list(doc["primes"]), "s_points": s_points}


def sweep_pairs(sweep, base_params, admissible=ALL_PRIMES):
    """Expand a sweep into (field, s_point) pairs, honoring admissibility;
    an order that names no field is reported before an inadmissible one,
    and a field is built only for an admissible order."""
    pairs = []
    for q in sweep["primes"]:
        p, e = prime_power(q)
        admissible.require(q)
        k = make_field(p, e)
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
    _require(doc, _ENVELOPE)
    kind = doc["kind"]
    _require(doc, _schema_file(f"{kind}.json"), f"{kind}.json")
    errors = []
    try:
        admissible = AdmissiblePrimes.from_json(doc.get("admissible"))
    except SchemaError as exc:
        errors.extend(exc.violations)
        admissible = ALL_PRIMES
    sweep = load_sweep(doc["sweep"], errors)
    base_params = tuple(doc.get("base_params", ()))
    payload = {}

    if kind == "formula":
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
        payload["stratification"] = load_stratification(doc["stratification"], errors)

    elif kind == "elimination":
        strat = load_stratification(doc["input"], errors, where="input")
        payload["input"] = strat
        payload["prefix"] = tuple(doc["prefix"])
        if strat is not None:
            payload["plan"] = load_elimination_plan(doc["plan"], strat, errors)

    elif kind == "chi":
        strat = load_stratification(doc["stratification"], errors)
        payload["stratification"] = strat
        if strat is not None:
            payload["quotient_data"] = load_quotient_data(doc["quotient_data"], strat, errors)
            missing = [i for i in strat.support()
                       if i not in payload["quotient_data"]]
            if missing:
                errors.append(f"missing quotient data for support strata {missing}")
        payload["counts"] = load_counts(doc["counts"], errors)

    elif kind == "jets":
        try:
            payload["equations"] = [parse_poly(e) for e in doc["equations"]]
        except GalstratError as exc:
            payload["equations"] = []
            errors.append(f"equations: {exc}")
        x_vars = payload["x_vars"] = tuple(doc.get("x_vars", ())) or None
        if x_vars is not None:
            for i, eq in enumerate(payload["equations"]):
                unknown = sorted(eq.used_variables() - set(x_vars) - set(base_params))
                if unknown:
                    errors.append(f"equations[{i}]: variables {unknown} are in neither "
                                  "x_vars nor base_params")
        level = payload["level"] = doc["level"]
        depth_cap = payload["depth_cap"] = doc.get("depth_cap", 2 * level + 2)
        if depth_cap < 2 * level + 2:
            errors.append(f"depth_cap must be >= 2*level + 2 = {2 * level + 2}, "
                          f"got {depth_cap!r}")

    if errors:
        raise SchemaError(errors)
    strat = payload.get("stratification", payload.get("input"))
    if strat is not None:
        base_params = strat.base_params
        admissible = admissible.merge(strat.admissible())
    return FixtureDoc(kind, payload, base_params, admissible, sweep, digest)
