"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import copy
import gc
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import reference
import run
import workloads
from worker import run_op, run_pass

SEEDS = (1, 2, 3)


@pytest.fixture
def workdir():
    path = Path(tempfile.mkdtemp(prefix="perfbench-test-"))
    yield path
    shutil.rmtree(path)


def test_golden_check_rejects_a_wrong_count(workdir):
    golden = workloads.load_goldens()
    ops, shifts = workloads.Generator("certify", 7).make_pass(0, workdir)
    op_id, cmd, path, q, fixture = next(op for op in ops if op[0] == "chi:kummer_z2_chi:13")
    _, status, text = run_op(cmd, path, q)
    assert workloads.check_op(golden, op_id, cmd, fixture, q, shifts[fixture],
                              status, text) is None
    wrong = copy.deepcopy(golden)
    wrong[op_id]["rows"][0][1] += 1
    why = workloads.check_op(wrong, op_id, cmd, fixture, q, shifts[fixture], status, text)
    assert why is not None and "golden" in why


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_translations_keep_the_goldens(workload, workdir):
    golden = workloads.load_goldens()
    inputs = {}
    for seed in SEEDS:
        generator = workloads.Generator(workload, seed)
        for index in range(2 if seed == SEEDS[0] else 1):
            directory = workdir / f"{seed}-{index}"
            directory.mkdir()
            ops, shifts = generator.make_pass(index, directory)
            times, _, failures, _ = run_pass(ops, shifts, golden)
            assert failures == []
            assert len(times) == len(workloads.ops_of(workload))
            for fixture in shifts:
                text = (directory / f"pass{index}_{fixture}.json").read_text()
                inputs.setdefault(fixture, []).append(text)
    for fixture, texts in inputs.items():
        assert len(set(texts)) == len(texts), f"{fixture}: a pass repeats another's input"


def _traced_calls(ops, shifts):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        _, _, failures, _ = run_pass(ops, shifts, workloads.load_goldens(), tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    return tracer.calls


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_call_counts_repeat(workload, workdir):
    counts = []
    for seed in (5, 5, 6):
        directory = Path(tempfile.mkdtemp(dir=workdir))
        ops, shifts = workloads.Generator(workload, seed).make_pass(0, directory)
        counts.append(_traced_calls([op for op in ops if op[3] <= 17], shifts))
    assert counts[0]["cli.main"] > 0
    # A translation moves no work between layers, so other seeds count the same.
    assert counts[1] == counts[0] and counts[2] == counts[0]


def test_tracing_restores_every_original(workdir):
    import galstrat.cli
    import galstrat.covers
    import galstrat.fields

    before = (galstrat.cli.main, galstrat.covers.holds_at, galstrat.fields.FiniteField.add)
    ops, shifts = workloads.Generator("quantifiers", 1).make_pass(0, workdir)
    _traced_calls([op for op in ops if op[3] <= 5], shifts)
    assert (galstrat.cli.main, galstrat.covers.holds_at, galstrat.fields.FiniteField.add) \
        == before


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_pooled_median_falls_inside_one_op(workload):
    # Each op adds one latency per pass, so with an even number of ops the
    # pooled median would average two different ops' extreme runs.
    assert len(workloads.ops_of(workload)) % 2 == 1


def test_reference_loop_allocates_no_container():
    # Garbage collection starts only on container allocations, so none can
    # run inside the loop that sets the host speed.
    reference.run()
    gc.disable()
    try:
        before = gc.get_count()[0]
        reference.run()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(workdir):
    shutil.copy(run.REPO / "BENCHMARK.json", workdir)
    shutil.copytree(run.HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "jets",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
