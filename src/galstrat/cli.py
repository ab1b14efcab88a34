"""Batch command-line front end: fixture in, deterministic JSON report out.

Commands: eval, bijection, stratify, eliminate, chi, jets.  Exit status 0
means every verdict in the report is Pass; structured errors are emitted
as JSON on stdout with a nonzero exit status.  Reports embed the fixture
hash and the prime sweep actually used, and identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
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

# The fixture kind each command consumes.
COMMANDS = {
    "eval": "formula",
    "bijection": "formula",
    "stratify": "stratification",
    "eliminate": "elimination",
    "chi": "chi",
    "jets": "jets",
}


def _sweep(fixture, args):
    sweep = dict(fixture.sweep)
    if args.primes is not None:
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


def _row(q, s_point, **found):
    """One report row: the fiber (q, s_point) and what the command found there."""
    key = ",".join(f"{name}={value}" for name, value in sorted(s_point.items())) or "-"
    return {"q": q, "s_point": key, **found}


def _set_row(k, s_point, z):
    return _row(k.q, s_point, count=len(z), tuples=[list(t) for t in z.sorted_tuples()])


def run(command, fixture, options) -> dict:
    """Dispatch one command against a loaded fixture; returns the report.

    Every command runs over the fixture's one fiber list, which `fibers`
    expands once.  A command first builds what it needs from the fixture,
    so a faulty input is reported before a faulty sweep.
    """
    budget = options.get("budget", DEFAULT_BUDGET)
    sweep = options["sweep"]
    fibers = functools.partial(sweep_pairs, sweep, fixture.base_params, fixture.admissible)
    payload = fixture.payload
    report = {
        "command": command,
        "fixture_sha256": fixture.digest,
        "primes": list(sweep["primes"]),
        "results": [],
        "verdict": "Pass",
    }
    rows = report["results"]

    if command == "eval":
        [f] = _payload(fixture, command, "formula")
        for k, s_point in fibers():
            rows.append(_set_row(k, s_point, eval_formula(f, s_point, k, budget)))

    elif command == "bijection":
        psi, phi1, phi2 = _payload(fixture, command, "psi", "phi1", "phi2")
        for entry in bijection_fiber_report(psi, phi1, phi2, fibers(), budget):
            rows.append(_row(entry["field"].q, entry["s_point"],
                             passed=entry["passed"], sizes=list(entry["sizes"]),
                             witness=list(entry["witness"]) if entry["witness"] else None))
            if not entry["passed"]:
                report["verdict"] = "Fail"
        report["caveat"] = ("verified on finitely many closed fibers only; "
                            "the generic fiber is out of reach of the proxy")

    elif command == "stratify":
        strat = payload["stratification"]
        for k, s_point in fibers():
            rows.append(_set_row(k, s_point, strat.galois_set(s_point, k)))

    elif command == "eliminate":
        gf = GaloisFormula(payload["prefix"], payload["input"])
        pairs = fibers()
        out = eliminate_existential(gf, payload["plan"])
        report["output"] = {
            "coords": list(out.strat.coords),
            "strata": [
                {"cover": cover.label, "con": [list(s) for s in con.canonical_list()]}
                for cover, con in out.strat.strata
            ],
        }
        # a fiber whose sets differ raises SemanticMismatch, so every row matches
        for k, s_point, count in validate_elimination(gf, out, pairs):
            rows.append(_row(k.q, s_point, projection_count=count, output_count=count,
                             match=True))

    elif command == "chi":
        strat = payload["stratification"]
        symbolic = chi_stratification(strat, payload["quotient_data"])
        chi_report = verify_specialization(symbolic, strat, payload["counts"], fibers())
        report["class"] = str(symbolic)
        for row in chi_report.rows:
            rows.append(_row(row["q"], row["s_point"], specialized=str(row["specialized"]),
                             count=row["count"], match=row["match"]))
        if not chi_report.verdict:
            report["verdict"] = "Fail"

    elif command == "jets":
        level = payload["level"]
        pairs = fibers()
        # one expansion serves every fiber; the depth_cap ideal contains every level
        top = jets.jet_ideal(payload["equations"], payload["depth_cap"], payload["x_vars"],
                             fixture.base_params)
        for k, s_point in pairs:
            tower = jets.JetTower(top, s_point, k, budget)
            igusa = [tower.count(n) for n in range(level + 1)]
            geom = tower.geometric_series(level)
            rows.append(_row(k.q, s_point, igusa=igusa, geometric=geom.coefficients,
                             stabilization=geom.stabilization,
                             greenberg={"c": geom.c, "e": geom.e}))

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
        kind = COMMANDS[args.command]
        if fixture.kind != kind:
            raise SchemaError([f"command {args.command!r} needs a {kind!r} fixture, "
                               f"got {fixture.kind!r}"])
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


if __name__ == "__main__":
    sys.exit(main())
