"""The galstrat benchmark: certification workloads run through the CLI entry point.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the root of a checkout.  Each workload runs in child processes of
its own (perfbench/worker.py), one op at a time, on one thread.

--trace 0 reports the end-to-end metrics of the workload, with tracing off.
Every time among them is scaled to the reference host speed of
perfbench/reference.py; the table also prints set-up and pass time as measured.
--trace 1 makes the traced run of every workload and reports every per-layer
metric, named `<workload>.<module>.<function>.<stat>`; a layer appears only
under the workloads it runs in.  Spans go to .perfbench/spans-<workload>.jsonl.

Every op's report is checked against perfbench/golden.json; the last line of
output is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = REPO / ".perfbench"
WORKLOADS = ("certify", "quantifiers", "jets")

# Fresh interpreters whose set-up time is measured per run, half of them before
# the measuring one and half after, so that they span the run's time.
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

_COMMON = [
    "fields.add.calls", "fields.mul.calls", "fields.pow.calls",
    "fields.make_field.self_s",
    "fields.add.ns_prime", "fields.add.ns_ext", "fields.mul.ns_prime", "fields.mul.ns_ext",
    "polynomials.eval_field.calls", "polynomials.eval_field.self_s",
    "polynomials.used_variables.calls",
]
_FRONT = ["fixtures.load_fixture.self_s", "fixtures.sweep_pairs.self_s", "cli.run.self_s",
          "trace.overhead_ratio"]

# Per-layer metrics of each workload: only layers that run in it.  Which
# end-to-end metric each should move is listed in perfbench/README.md.
PER_LAYER = {
    "certify": _COMMON + [
        "polynomials.eval_field.ns", "polynomials.parse_poly.self_s",
        "fields.power_residue.calls", "fields.power_residue.self_s",
        "formulas.holds_at.calls", "formulas.holds_at.self_s", "formulas.holds_at.ns",
        "formulas.parse_formula.self_s",
        "covers.frobenius_element.calls", "covers.frobenius_element.self_s",
        "covers.frobenius_element.ns", "covers.on_stratum.calls",
        "stratifications.galois_set.calls", "stratifications.galois_set.self_s",
        "stratifications.stratum_of.calls", "stratifications.definable_set.calls",
        "stratifications.eliminate_existential.self_s", "stratifications.reclassify_ratio",
        "groups.cyclic_subgroup.calls",
        "characters.artin_decompose.calls", "characters.artin_decompose.self_s",
        "characters.artin_decompose.ns",
        "chi.chi_stratification.self_s", "chi.verify_specialization.self_s",
        "motives.specialize.calls",
    ] + _FRONT,
    "quantifiers": _COMMON + [
        "formulas.eval_formula.calls", "formulas.eval_formula.self_s",
        "formulas.bijection_fiber_report.self_s", "formulas.parse_formula.self_s",
    ] + _FRONT,
    "jets": _COMMON + [
        "polynomials.eval_field.ns", "polynomials.parse_poly.self_s",
        "jets.jet_ideal.calls", "jets.jet_ideal.self_s",
        "jets.truncation_image.calls", "jets.truncation_image.self_s",
        "jets.count_jets.calls", "jets.count_jets.self_s",
        "jets.count_jets.us_per_solution", "jets.images_per_coefficient",
    ] + _FRONT,
}


def layer_unit(name):
    stat = name.rsplit(".", 1)[1]
    if stat == "calls":
        return "count"
    if stat.endswith("_s"):
        return "s"
    if stat.startswith("ns"):
        return "ns"
    if stat == "us_per_solution":
        return "us"
    return "ratio"


def per_layer_metrics():
    """[(metric name, unit)] in the order BENCHMARK.json lists them."""
    return [(f"{w}.{name}", layer_unit(name)) for w in WORKLOADS for name in PER_LAYER[w]]


class ChildFailed(Exception):
    pass


def child(mode, workload, seed, seconds):
    command = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--out", str(OUT)]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=REPO)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} {workload}: no result within {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise ChildFailed(f"{mode} {workload}: exit status {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(workload, seed, seconds):
    """(op runs, failures, metric values, passes, host figures) of one workload, tracing off."""
    setups = [child("setup", workload, seed, seconds) for _ in range(SETUP_RUNS // 2)]
    result = child("measure", workload, seed, seconds)
    setups.append(result)
    setups += [child("setup", workload, seed, seconds) for _ in range(SETUP_RUNS - len(setups))]
    # Every timing is at the reference host speed (perfbench/reference.py):
    # the host's speed swings by tens of percent in phases longer than a run,
    # and the reference loop timed around each op cancels them.  An op's
    # latency is the median over the run's passes; every op runs once per
    # pass, so the percentiles pool passes x ops samples.
    pooled = [t for times in result["op_s"].values() for t in times]
    cuts = statistics.quantiles(pooled, n=100, method="inclusive")
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": sum(statistics.median(times) for times in result["op_s"].values()),
        "op_p50_ms": cuts[49] * 1e3,
        "op_p90_ms": cuts[89] * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = {
        "setup_s": statistics.median(s["setup_raw_s"] for s in setups),
        "wall_s": sum(statistics.median(times) for times in result["raw_op_s"].values()),
    }
    return len(pooled), result["failures"], values, result["passes"], raw


def traced(seed, seconds):
    """(attempted, failures, per-layer values) of the traced run of every workload."""
    attempted, failures, values = 0, [], {}
    for workload in WORKLOADS:
        result = child("trace", workload, seed, seconds)
        attempted += result["ops"]
        failures += result["failures"]
        if result["layer_self_s"] > result["traced_op_s"]:
            failures.append(f"{workload}: layer self times {result['layer_self_s']} s exceed "
                            f"the traced op time {result['traced_op_s']} s")
        for name in PER_LAYER[workload]:
            values[f"{workload}.{name}"] = result["layers"][name]
        print(f"{workload}: {result['spans']} spans in {result['spans_path']}; layer self "
              f"time {result['layer_self_s']:.3f} s of {result['traced_op_s']:.3f} s traced")
    return attempted, failures, values


def missing_sources():
    needed = [REPO / "src" / "galstrat" / "cli.py", REPO / "fixtures", HERE / "golden.json"]
    return [str(path) for path in needed if not path.exists()]


def main():
    parser = argparse.ArgumentParser(description="galstrat certification benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = missing_sources()
    if missing:
        print(f"benchmark cannot run: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        if args.trace:
            attempted, failures, values = traced(args.seed, args.seconds)
            units = dict(per_layer_metrics())
        else:
            attempted, failures, values, units = 0, [], {}, {}
            selected = WORKLOADS if args.workload == "all" else (args.workload,)
            for workload in selected:
                n, failed, figures, passes, raw = end_to_end(workload, args.seed, args.seconds)
                attempted += n
                failures += failed
                print(f"{workload}: {n} ops in {passes} passes, "
                      f"failed_share {len(failed) / n:.4f}; as measured, without scaling to "
                      f"the reference speed: setup_s {raw['setup_s']:.4f}, "
                      f"wall_s {raw['wall_s']:.4f}")
                for name, value in figures.items():
                    key = name if args.workload != "all" else f"{workload}.{name}"
                    values[key] = value
                    units[key] = END_TO_END[name]
                    print(f"  {name:<12} {value:12.4f} {END_TO_END[name]}")
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for why in failures[:20]:
        print(f"FAILED {why}")
    if args.trace:
        for name, value in values.items():
            print(f"  {name:<56} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
