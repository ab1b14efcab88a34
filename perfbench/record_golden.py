"""Record golden.json: every op's seed-invariant values, from untranslated fixtures.

    python3 perfbench/record_golden.py

Run it only when a workload gains or loses an op; the recorded values are the
reference that every benchmark run is checked against.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from worker import run_op  # noqa: E402


def record(directory):
    golden = {}
    for workload in workloads.WORKLOADS:
        generator = workloads.Generator(workload, 0)
        for op_id, cmd, fixture, q in workloads.ops_of(workload):
            path = Path(directory) / f"{fixture}.json"
            doc = workloads.base_document(fixture, sorted(generator.orders[fixture]))
            path.write_text(json.dumps(doc))
            _, status, text = run_op(cmd, str(path), q)
            if status != 0:
                raise SystemExit(f"{op_id}: exit status {status}: {text[:300]}")
            report = json.loads(text)
            identity = dict.fromkeys(workloads.FIXTURE_SPECS[fixture][1], 0)
            golden[op_id] = workloads.invariants(cmd, fixture, q, identity, report)
            print(op_id, file=sys.stderr)
    return golden


def main():
    with tempfile.TemporaryDirectory() as directory:
        golden = record(directory)
    lines = [f"{json.dumps(op_id)}: {json.dumps(golden[op_id], sort_keys=True)}"
             for op_id in sorted(golden)]
    workloads.GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
