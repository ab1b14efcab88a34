"""Workloads of the galstrat benchmark, their seeded generator and the golden check.

An op is one CLI command on one fixture at one field order q
(`galstrat <cmd> fixture.json --primes q`).  A workload is a fixed list of
ops; one pass runs every op once, in an order fixed by the seed.

Inputs differ per pass by an integer translation v -> v + c_v of every
coordinate and base parameter, applied to every formula, stratum, Kummer
function and jet equation of a fixture.  A translation is an automorphism of
affine space over Z, so every count, verdict, chi specialization, jet
coefficient and Greenberg (c, e) is unchanged, while no pass can reuse a
result an earlier pass computed.  Point sets move by c_v and are mapped back
before they are compared with the goldens.

This module imports nothing from galstrat: the checker is independent of the
code it checks.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Odd primes up to about 100 added to the shipped sweeps of `certify`.
STRETCH = [53, 61, 73, 89, 97]

# Jet curves: shape name -> (equation text, the same polynomial as a function).
# A translation keeps the number of terms unless it cancels the constant term
# f(c_x, c_y); the generator redraws such translations so that every pass
# evaluates polynomials of the same size.
CURVES = {
    "xy": ("x*y", lambda x, y: x * y),
    "cusp": ("x^2 - y^3", lambda x, y: x ** 2 - y ** 3),
    "node": ("y^2 - x^2 - x^3", lambda x, y: y ** 2 - x ** 2 - x ** 3),
    "smooth": ("y - x^2", lambda x, y: y - x ** 2),
}

# Fixture name -> (source, variables that are translated, tuple layout of
# reported point sets).  Source is a shipped fixture file or a jet curve at
# (level, depth_cap).
FIXTURE_SPECS = {
    "case1_squaring": ("file", ("b", "a"), None),
    "case2_fiberwise_exists": ("file", ("x",), None),
    "case2_pullback_family": ("file", ("z", "x"), None),
    "square_indicator_strat": ("file", ("x",), ("x",)),
    "kummer_z2_chi": ("file", ("x",), None),
    "kummer_z4_chi": ("file", ("x",), None),
    "squares_formula": ("file", ("z",), ("z",)),
    "shifted_square_bijection": ("file", ("x1", "x2", "z"), None),
    "xy_jets": ("file", ("x", "y"), None),
    "cusp_jets": (("cusp", 2, 6), ("x", "y"), None),
    "node_jets": (("node", 2, 6), ("x", "y"), None),
    "smooth_jets": (("smooth", 2, 6), ("x", "y"), None),
    "xy_jets_l1": (("xy", 1, 4), ("x", "y"), None),
    "node_jets_l1": (("node", 1, 4), ("x", "y"), None),
    "smooth_jets_l1": (("smooth", 1, 4), ("x", "y"), None),
}

# Workload -> list of (command, fixture, field orders).  Why each workload
# exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "certify": [
        ("eliminate", "case1_squaring", [5, 13, 29, 37, 41, 49] + STRETCH),
        ("eliminate", "case2_fiberwise_exists", [5, 7, 9, 13, 25, 49] + STRETCH),
        ("eliminate", "case2_pullback_family", [5, 13, 29, 37, 41, 53, 61]),
        ("stratify", "square_indicator_strat", [5, 13, 17] + STRETCH + [625, 3125]),
        ("chi", "kummer_z2_chi", [5, 13, 17] + STRETCH),
        ("chi", "kummer_z4_chi", [13, 17, 29, 37, 41, 53, 61, 73, 89, 97]),
    ],
    "quantifiers": [
        ("eval", "squares_formula",
         [3, 5, 7, 8, 9, 16, 25, 27, 32, 64, 81, 125, 128, 243, 256]),
        ("bijection", "shifted_square_bijection", [3, 5, 7, 8, 9, 16, 25, 27]),
    ],
    # xy_jets at level 2 is left out at q = 5: at the default 24-bit budget
    # it runs for seconds and then exits with BudgetExceeded.  The cusp is
    # left out at q = 5: that one op takes 1.8 s, a third of a pass, and a run
    # could not pool 100 op latencies within its time.
    "jets": [
        ("jets", name, [2, 3]) for name in ("xy_jets", "cusp_jets", "node_jets", "smooth_jets")
    ] + [
        ("jets", name, [5]) for name in ("xy_jets_l1", "node_jets_l1", "smooth_jets_l1")
    ],
}

_TEXT_KEYS = ("stratum", "f", "formula", "psi", "phi1", "phi2")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
MAX_SHIFT = 1000


def ops_of(workload):
    """Every op of a workload as (op_id, command, fixture, q), in listed order."""
    return [(f"{cmd}:{fixture}:{q}", cmd, fixture, q)
            for cmd, fixture, qs in WORKLOADS[workload] for q in qs]


def field_orders(workload):
    return sorted({q for _, _, qs in WORKLOADS[workload] for q in qs})


def smallest_prime_factor(q):
    p = 2
    while q % p:
        p += 1
    return p


def shift_element(v, c, q):
    """v + c in F_q, with v an element in galstrat's base-p digit encoding and
    c an integer (an element of the prime field)."""
    p = smallest_prime_factor(q)
    return v - v % p + (v % p + c) % p


# -- fixture generation --------------------------------------------------------

def translate_text(text, shift):
    return _IDENT.sub(
        lambda m: f"({m.group()} + {shift[m.group()]})" if m.group() in shift else m.group(),
        text)


def _translate_doc(node, shift):
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if key in _TEXT_KEYS and isinstance(value, str):
                out[key] = translate_text(value, shift)
            elif key == "equations":
                out[key] = [translate_text(e, shift) for e in value]
            else:
                out[key] = _translate_doc(value, shift)
        return out
    if isinstance(node, list):
        return [_translate_doc(v, shift) for v in node]
    return node


def base_document(fixture, orders):
    """The untranslated fixture document, with chi count tables extended to
    every order the workload sweeps (every generator counts q - 1 points)."""
    source = FIXTURE_SPECS[fixture][0]
    if source == "file":
        doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
    else:
        shape, level, depth_cap = source
        doc = {"version": 1, "kind": "jets", "equations": [CURVES[shape][0]],
               "x_vars": ["x", "y"], "level": level, "depth_cap": depth_cap,
               "sweep": {"primes": [2], "s_points": [{}]}}
    if doc["kind"] == "chi":
        for table in doc["counts"].values():
            for q in orders:
                table.setdefault(str(q), q - 1)
    return doc


def fixture_document(fixture, shift, orders):
    return _translate_doc(base_document(fixture, orders), shift)


class Generator:
    """Seeded translations and op orders, pass by pass.

    Pass i of seed s draws from its own random stream, so a pass can be
    regenerated without the passes before it.  Within one generator no
    translation of a fixture is drawn twice, and no shift c_v is 0 in any
    characteristic the workload runs: such a shift is the identity over that
    field, and it would also let zero coefficients short-cut field
    multiplications, so that the cost of a pass would depend on the seed.
    """

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.ops = ops_of(workload)
        self.orders = {}
        for cmd, fixture, qs in WORKLOADS[workload]:
            self.orders.setdefault(fixture, set()).update(qs)
        self._seen = {fixture: set() for fixture in self.orders}
        self._characteristics = {smallest_prime_factor(q) for q in field_orders(workload)}

    def _draw_shift(self, rng, fixture):
        names = FIXTURE_SPECS[fixture][1]
        curve = FIXTURE_SPECS[fixture][0]
        while True:
            shift = {v: rng.randint(1, MAX_SHIFT) for v in names}
            key = tuple(shift[v] for v in names)
            if key in self._seen[fixture]:
                continue
            if any(c % p == 0 for c in key for p in self._characteristics):
                continue
            if curve != "file" and CURVES[curve[0]][1](shift["x"], shift["y"]) == 0:
                continue
            self._seen[fixture].add(key)
            return shift

    def make_pass(self, index, directory):
        """Write this pass's fixtures into directory; return (ops, shifts).

        ops is the op list in this pass's order, each (op_id, cmd, path, q,
        fixture); shifts maps fixture -> translation.
        """
        rng = random.Random(f"galstrat-bench:{self.workload}:{self.seed}:{index}")
        shifts, paths = {}, {}
        for fixture in sorted(self.orders):
            shift = self._draw_shift(rng, fixture)
            shifts[fixture] = shift
            doc = fixture_document(fixture, shift, sorted(self.orders[fixture]))
            path = Path(directory) / f"pass{index}_{fixture}.json"
            path.write_text(json.dumps(doc, indent=1))
            paths[fixture] = path
        ops = [(op_id, cmd, str(paths[fixture]), q, fixture)
               for op_id, cmd, fixture, q in self.ops]
        rng.shuffle(ops)
        return ops, shifts


# -- seed-invariant values and the golden check ----------------------------------

def _digest(tuples):
    return hashlib.sha256(json.dumps(sorted(tuples)).encode()).hexdigest()[:16]


def _parse_fiber(key):
    if key == "-":
        return {}
    return {name: int(value) for name, value in (part.split("=") for part in key.split(","))}


def invariants(cmd, fixture, q, shift, report):
    """The values of one op's report that no translation changes.

    Point sets are mapped back through the translation and hashed; fibers
    are re-keyed by their untranslated base point.
    """
    rows = report["results"]
    if cmd in ("eval", "stratify"):
        layout = FIXTURE_SPECS[fixture][2]
        out = []
        for row in rows:
            back = [tuple(shift_element(v, shift[name], q) for v, name in zip(t, layout))
                    for t in row["tuples"]]
            out.append({"count": row["count"], "points": _digest(back)})
        return {"rows": out}
    if cmd == "bijection":
        out = []
        for row in rows:
            fiber = sorted([name, shift_element(v, shift[name], q)]
                           for name, v in _parse_fiber(row["s_point"]).items())
            out.append([fiber, row["passed"], row["sizes"]])
        return {"rows": sorted(out)}
    if cmd == "eliminate":
        return {
            "rows": [[r["projection_count"], r["output_count"], r["match"]] for r in rows],
            "con": [s["con"] for s in report["output"]["strata"]],
        }
    if cmd == "chi":
        return {"class": report["class"],
                "rows": [[r["specialized"], r["count"], r["match"]] for r in rows]}
    if cmd == "jets":
        return {"rows": [[r["igusa"], r["geometric"], r["stabilization"],
                          [r["greenberg"]["c"], r["greenberg"]["e"]]] for r in rows]}
    raise ValueError(f"unknown command {cmd!r}")


def load_goldens():
    return json.loads(GOLDEN_PATH.read_text())


def check_op(golden, op_id, cmd, fixture, q, shift, status, text):
    """None if the op passed, else why it failed.

    status is the CLI exit code, or the exception the op raised.
    """
    if isinstance(status, BaseException):
        return f"{op_id}: raised {type(status).__name__}: {status}"
    if status != 0:
        return f"{op_id}: exit status {status}: {text[:200]}"
    report = json.loads(text)
    if report.get("verdict") != "Pass":
        return f"{op_id}: verdict {report.get('verdict')}"
    got = invariants(cmd, fixture, q, shift, report)
    if op_id not in golden:
        return f"{op_id}: no golden values recorded"
    if got != golden[op_id]:
        return f"{op_id}: values differ from the golden record: {str(got)[:300]}"
    return None
