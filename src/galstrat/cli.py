"""Batch command-line front end: fixture in, deterministic JSON report out.

Commands: eval, bijection, stratify, eliminate, chi, jets.  Exit status 0
means every verdict in the report is Pass; structured errors are emitted
as JSON on stdout with a nonzero exit status.  Reports embed the fixture
hash and the prime sweep actually used, and identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import jets
from .chi import chi_stratification, verify_specialization
from .errors import GalstratError, IoError, SchemaError
from .fields import DEFAULT_BUDGET
from .fixtures import load_fixture, sweep_pairs
from .formulas import bijection_fiber_report, eval_formula
from .stratifications import GaloisFormula, eliminate_existential, validate_elimination

COMMANDS = ("eval", "bijection", "stratify", "eliminate", "chi", "jets")


def _sweep(fixture, args):
    sweep = dict(fixture.sweep)
    if args.primes:
        try:
            sweep["primes"] = [int(x) for x in args.primes.split(",")]
        except ValueError:
            raise SchemaError(
                [f"--primes must be comma-separated integers, got {args.primes!r}"]) from None
    return sweep


def _payload(fixture, command, *names):
    """The named payload entries, which a fixture of the right kind may still lack."""
    missing = [name for name in names if name not in fixture.payload]
    if missing:
        raise SchemaError([f"command {command!r} needs {name!r} in the fixture"
                           for name in missing])
    return [fixture.payload[name] for name in names]


def _fiber_key(s_point):
    return ",".join(f"{k}={v}" for k, v in sorted(s_point.items())) or "-"


def run(command, fixture, options) -> dict:
    """Dispatch one command against a loaded fixture; returns the report."""
    budget = options.get("budget", DEFAULT_BUDGET)
    sweep = options["sweep"]
    report = {
        "command": command,
        "fixture_sha256": fixture.digest,
        "primes": list(sweep["primes"]),
        "results": [],
        "verdict": "Pass",
    }

    if command == "eval":
        [f] = _payload(fixture, command, "formula")
        pairs = sweep_pairs(sweep, f.base_params, fixture.admissible)
        for k, s_point in pairs:
            z = eval_formula(f, s_point, k, budget)
            report["results"].append({
                "q": k.q, "s_point": _fiber_key(s_point),
                "count": len(z), "tuples": [list(t) for t in z.sorted_tuples()],
            })

    elif command == "bijection":
        psi, phi1, phi2 = _payload(fixture, command, "psi", "phi1", "phi2")
        pairs = sweep_pairs(sweep, psi.base_params, fixture.admissible)
        points_by_q = {}
        for k, s_point in pairs:
            points_by_q.setdefault(k, []).append(s_point)
        for k, pts in points_by_q.items():
            fibers = bijection_fiber_report(psi, phi1, phi2, [k], pts, budget)
            for entry in fibers:
                report["results"].append({
                    "q": k.q, "s_point": _fiber_key(entry["s_point"]),
                    "passed": entry["passed"],
                    "sizes": list(entry["sizes"]),
                    "witness": list(entry["witness"]) if entry["witness"] else None,
                })
                if not entry["passed"]:
                    report["verdict"] = "Fail"
        report["caveat"] = ("verified on finitely many closed fibers only; "
                            "the generic fiber is out of reach of the proxy")

    elif command == "stratify":
        strat = fixture.payload["stratification"]
        admissible = fixture.admissible.merge(strat.admissible())
        pairs = sweep_pairs(sweep, strat.base_params, admissible)
        for k, s_point in pairs:
            z = strat.galois_set(s_point, k)
            report["results"].append({
                "q": k.q, "s_point": _fiber_key(s_point),
                "count": len(z), "tuples": [list(t) for t in z.sorted_tuples()],
            })

    elif command == "eliminate":
        strat = fixture.payload["input"]
        plan = fixture.payload["plan"]
        prefix = fixture.payload["prefix"]
        gf = GaloisFormula(prefix, strat)
        admissible = fixture.admissible.merge(strat.admissible())
        pairs = sweep_pairs(sweep, strat.base_params, admissible)
        out = eliminate_existential(gf, plan)
        # a fiber whose sets differ raises SemanticMismatch, so every row matches
        rows = validate_elimination(gf, out, pairs)
        report["output"] = {
            "coords": list(out.strat.coords),
            "strata": [
                {"cover": cover.label, "con": [list(s) for s in con.canonical_list()]}
                for cover, con in out.strat.strata
            ],
        }
        for k, s_point, count in rows:
            report["results"].append({
                "q": k.q, "s_point": _fiber_key(s_point),
                "projection_count": count, "output_count": count,
                "match": True,
            })

    elif command == "chi":
        strat = fixture.payload["stratification"]
        data = fixture.payload["quotient_data"]
        counts = fixture.payload["counts"]
        symbolic = chi_stratification(strat, data)
        admissible = fixture.admissible.merge(strat.admissible())
        pairs = sweep_pairs(sweep, strat.base_params, admissible)
        chi_report = verify_specialization(symbolic, strat, counts, pairs)
        report["class"] = str(symbolic)
        for row in chi_report.rows:
            report["results"].append({
                "q": row["q"], "s_point": _fiber_key(row["s_point"]),
                "specialized": str(row["specialized"]),
                "count": row["count"], "match": row["match"],
            })
        if not chi_report.verdict:
            report["verdict"] = "Fail"

    elif command == "jets":
        eqs = fixture.payload["equations"]
        level = fixture.payload["level"]
        x_vars = fixture.payload["x_vars"]
        base_params = fixture.payload["base_params"]
        depth_cap = fixture.payload["depth_cap"]
        pairs = sweep_pairs(sweep, base_params, fixture.admissible)
        # one expansion serves every fiber; the depth_cap ideal contains every level
        top = jets.jet_ideal(eqs, depth_cap, x_vars, base_params)
        for k, s_point in pairs:
            tower = jets.JetTower(top, s_point, k, budget)
            igusa = [tower.count(n) for n in range(level + 1)]
            geom = tower.geometric_series(level)
            report["results"].append({
                "q": k.q, "s_point": _fiber_key(s_point),
                "igusa": igusa,
                "geometric": geom.coefficients,
                "stabilization": geom.stabilization,
                "greenberg": {"c": geom.c, "e": geom.e},
            })

    else:
        raise SchemaError([f"unknown command {command!r}"])
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="galstrat",
        description="Galois stratification engine: batch fixture runner")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("fixture", help="path to a fixture JSON document")
    parser.add_argument("--primes", default=None,
                        help="comma-separated field orders overriding the fixture sweep")
    parser.add_argument("--budget", type=float, default=DEFAULT_BUDGET,
                        help=f"enumeration budget in bits (default {DEFAULT_BUDGET:g})")
    parser.add_argument("--out", default=None, help="also write the report to this path")
    args = parser.parse_args(argv)

    try:
        if not math.isfinite(args.budget):
            raise SchemaError([f"--budget must be a finite number of bits, got {args.budget}"])
        fixture = load_fixture(args.fixture)
        if fixture.kind != _expected_kind(args.command):
            raise SchemaError(
                [f"command {args.command!r} needs a {_expected_kind(args.command)!r} "
                 f"fixture, got {fixture.kind!r}"])
        options = {"budget": args.budget, "sweep": _sweep(fixture, args)}
        report = run(args.command, fixture, options)
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise IoError(str(exc)) from exc
    except GalstratError as exc:
        error = {
            "error": type(exc).__name__,
            "detail": (exc.violations if isinstance(exc, SchemaError) else str(exc)),
        }
        print(json.dumps(error, indent=2, sort_keys=True))
        return 2
    print(text)
    return 0 if report["verdict"] == "Pass" else 1


def _expected_kind(command):
    return {
        "eval": "formula",
        "bijection": "formula",
        "stratify": "stratification",
        "eliminate": "elimination",
        "chi": "chi",
        "jets": "jets",
    }[command]


if __name__ == "__main__":
    sys.exit(main())
