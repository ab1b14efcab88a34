"""Run one workload in a fresh interpreter and print its figures as one JSON line.

    python3 perfbench/worker.py --mode {setup,measure,trace} --workload W \
        --seed N --seconds S --out DIR

run.py starts one of these per workload, so that set-up time and peak memory
are the workload's own.  Modes:

- setup: import galstrat, generate and load pass 0's fixtures, build every
  field of the workload; report the time that took, as measured and scaled to
  the reference host speed (perfbench/reference.py).
- measure: set up, then run whole passes until --seconds have passed and at
  least MIN_SAMPLES ops have run.  Every op's report is checked, and every op
  time is also reported scaled by the reference loop timed around it.
- trace: set up and run one pass with timing wrappers installed, then one
  pass without them, then the layer micro-benchmarks; write the spans.

Ops run in this process, one at a time, through `galstrat.cli.main`.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

sys.path.insert(0, str(workloads.REPO / "src"))

import galstrat.cli  # noqa: E402
import galstrat.fixtures  # noqa: E402

import micro  # noqa: E402
import reference  # noqa: E402
from tracing import ROOT, Tracer  # noqa: E402

# At least 100 op runs, so that the 90th percentile has ten beyond it.
MIN_SAMPLES = 100


def set_up(workload, seed, workdir):
    """Write and load pass 0's fixtures, build every field."""
    generator = workloads.Generator(workload, seed)
    first = generator.make_pass(0, workdir)
    for path in sorted({op[2] for op in first[0]}):
        galstrat.fixtures.load_fixture(path)
    for q in workloads.field_orders(workload):
        galstrat.fixtures.field_from_order(q)
    return generator, first


def run_op(cmd, path, q):
    """One certification, as a user runs it: (seconds, exit status or exception, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = galstrat.cli.main([cmd, path, "--primes", str(q)])
    except (Exception, SystemExit) as exc:  # a raising op is a failed op
        status = exc
    return time.perf_counter() - start, status, out.getvalue()


def run_pass(ops, shifts, golden, tracer=None):
    """Every op of one pass: (op seconds, scaled op seconds, failure messages, reports).

    The reference loop runs before the first op and after each op; an op's
    scaled time is its time at the reference host speed, taken as the mean of
    the loop times just before and just after it.
    """
    times, scaled, failures, reports = [], [], [], []
    before = reference.timed()
    for index, (op_id, cmd, path, q, fixture) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        elapsed, status, text = run_op(cmd, path, q)
        after = reference.timed()
        times.append(elapsed)
        scaled.append(elapsed * reference.NOMINAL_S / ((before + after) / 2))
        before = after
        why = workloads.check_op(golden, op_id, cmd, fixture, q, shifts[fixture], status, text)
        if why:
            failures.append(why)
        else:
            reports.append((cmd, json.loads(text)))
    return times, scaled, failures, reports


def setup_figures():
    """Set-up time since START, as measured and at the reference host speed."""
    setup_s = time.perf_counter() - START
    return {"setup_raw_s": setup_s,
            "setup_s": setup_s * reference.NOMINAL_S / reference.speed_now()}


def measure(args, workdir):
    golden = workloads.load_goldens()
    generator, first = set_up(args.workload, args.seed, workdir)
    setup = setup_figures()
    by_op, raw_by_op, failures = {}, {}, []
    begin = time.perf_counter()
    index = 0
    while (time.perf_counter() - begin < args.seconds
           or sum(len(t) for t in by_op.values()) < MIN_SAMPLES):
        ops, shifts = first if index == 0 else generator.make_pass(index, workdir)
        times, scaled, failed, _ = run_pass(ops, shifts, golden)
        for op, elapsed, at_reference in zip(ops, times, scaled):
            raw_by_op.setdefault(op[0], []).append(elapsed)
            by_op.setdefault(op[0], []).append(at_reference)
        failures.extend(failed)
        index += 1
    return {
        **setup,
        "passes": index,
        "op_s": by_op,
        "raw_op_s": raw_by_op,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(args, workdir):
    golden = workloads.load_goldens()
    tracer = Tracer()
    tracer.install()
    tracer.op = "setup"
    generator, (ops, shifts) = set_up(args.workload, args.seed, workdir)
    _, traced, failures, reports = run_pass(ops, shifts, golden, tracer)
    tracer.uninstall()
    _, plain, plain_failures, _ = run_pass(*generator.make_pass(1, workdir), golden)
    failures += plain_failures

    op_time = tracer.op_time()
    layer_self = sum(own for name, own in tracer.op_own.items() if name != ROOT)
    layers = {}
    for name, calls in tracer.calls.items():
        layers[f"{name}.calls"] = calls
    for name, own in tracer.own.items():
        layers[f"{name}.self_s"] = own
    layers["stratifications.reclassify_ratio"] = (
        tracer.calls["stratifications.stratum_of"] / max(tracer.distinct_triples(), 1))
    layers["jets.count_jets.us_per_solution"] = (
        tracer.own["jets.count_jets"] / max(tracer.solutions, 1) * 1e6)
    coefficients = sum(len(row["geometric"]) for cmd, report in reports if cmd == "jets"
                       for row in report["results"])
    layers["jets.images_per_coefficient"] = (
        tracer.calls["jets.truncation_image"] / max(coefficients, 1))
    layers["trace.overhead_ratio"] = sum(traced) / sum(plain)

    orders = workloads.field_orders(args.workload)
    layers.update(micro.field_arithmetic(orders, args.seed))
    layers.update(micro.eval_field(args.seed))
    layers.update(micro.kummer_layers(args.seed))

    spans_path = Path(args.out) / f"spans-{args.workload}.jsonl"
    tracer.write(spans_path)
    return {
        "layers": layers,
        "ops": len(ops) * 2,
        "failures": failures,
        "traced_op_s": op_time,
        "layer_self_s": layer_self,
        "spans": len(tracer.spans),
        "spans_path": str(spans_path),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", required=True, help="directory for fixtures and spans")
    args = parser.parse_args()
    workdir = tempfile.mkdtemp(prefix=f"{args.mode}-{args.workload}-", dir=args.out)
    try:
        if args.mode == "setup":
            set_up(args.workload, args.seed, workdir)
            result = setup_figures()
        elif args.mode == "measure":
            result = measure(args, workdir)
        else:
            result = trace(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
