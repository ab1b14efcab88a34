"""Timing wrappers around galstrat's public callables, installed from outside.

Each call of a timed layer records its duration and self time: the duration
minus the time its timed child calls cover.  Calls of most timed layers are
also kept as spans (name, start, end, parent span, op id), in memory, and
written out when the run ends.  The four layers called tens to hundreds of
thousands of times per pass (`eval_field`, `holds_at`, `frobenius_element`,
`power_residue`) are kept as per-op totals instead, which keeps the traced
process small; their time still leaves their callers' self time.  Layers whose
time is not asked for (field arithmetic, `used_variables` and a few other
leaves) get a call counter only, so their time stays in their caller's.

A name imported with `from .x import y` is patched in every galstrat module
that holds it.  `uninstall` restores every original.
"""

from __future__ import annotations

import json
import sys
import time

# Timed layer name -> (module, attribute, class or None); the names follow
# `<module>.<function>`.
TIMED = {
    "cli.main": ("galstrat.cli", "main", None),
    "cli.run": ("galstrat.cli", "run", None),
    "fixtures.load_fixture": ("galstrat.fixtures", "load_fixture", None),
    "fixtures.sweep_pairs": ("galstrat.fixtures", "sweep_pairs", None),
    "fields.make_field": ("galstrat.fields", "make_field", None),
    "fields.power_residue": ("galstrat.fields", "power_residue", None),
    "polynomials.parse_poly": ("galstrat.polynomials", "parse_poly", None),
    "polynomials.eval_field": ("galstrat.polynomials", "eval_field", "Poly"),
    "formulas.parse_formula": ("galstrat.formulas", "parse_formula", None),
    "formulas.holds_at": ("galstrat.formulas", "holds_at", None),
    "formulas.eval_formula": ("galstrat.formulas", "eval_formula", None),
    "formulas.bijection_fiber_report": ("galstrat.formulas", "bijection_fiber_report", None),
    "covers.frobenius_element": ("galstrat.covers", "frobenius_element", "CoverSpec"),
    "stratifications.galois_set": ("galstrat.stratifications", "galois_set",
                                   "GaloisStratification"),
    "stratifications.eliminate_existential": ("galstrat.stratifications",
                                              "eliminate_existential", None),
    "characters.artin_decompose": ("galstrat.characters", "artin_decompose", None),
    "chi.chi_stratification": ("galstrat.chi", "chi_stratification", None),
    "chi.verify_specialization": ("galstrat.chi", "verify_specialization", None),
    "jets.jet_ideal": ("galstrat.jets", "jet_ideal", None),
    "jets.truncation_image": ("galstrat.jets", "truncation_image", None),
    "jets.count_jets": ("galstrat.jets", "count_jets", None),
}

# Layers whose calls are counted but not timed.
COUNTED = {
    "fields.add": ("galstrat.fields", "add", "FiniteField"),
    "fields.mul": ("galstrat.fields", "mul", "FiniteField"),
    "fields.pow": ("galstrat.fields", "pow", "FiniteField"),
    "polynomials.used_variables": ("galstrat.polynomials", "used_variables", "Poly"),
    "covers.on_stratum": ("galstrat.covers", "on_stratum", "CoverSpec"),
    "stratifications.stratum_of": ("galstrat.stratifications", "stratum_of",
                                   "GaloisStratification"),
    "stratifications.definable_set": ("galstrat.stratifications", "definable_set",
                                      "GaloisFormula"),
    "groups.cyclic_subgroup": ("galstrat.groups", "cyclic_subgroup", "FiniteGroup"),
    "motives.specialize": ("galstrat.motives", "specialize", None),
}

# Timed layers kept as per-op totals rather than one span per call.
TOTALLED = {"polynomials.eval_field", "formulas.holds_at", "covers.frobenius_element",
            "fields.power_residue"}

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.names = list(TIMED)
        self.spans = []           # (name index, start, end, parent span or -1, op)
        self.totals = {}          # (op, name) -> [calls, duration, self time] of TOTALLED
        self.calls = dict.fromkeys(list(TIMED) + list(COUNTED), 0)
        self.own = dict.fromkeys(TIMED, 0.0)      # self time per layer, whole run
        self.op_own = dict.fromkeys(TIMED, 0.0)   # self time per layer, inside ops
        self.op = None
        self.solutions = 0        # sum of count_jets return values
        self.triples = {}         # op -> distinct (q, s_point, point) given to stratum_of
        self._stack = []          # per open call: [time of timed children, nearest span]
        self._restore = []

    # -- installation ---------------------------------------------------------

    def install(self):
        for name, target in TIMED.items():
            self._patch(target, self._timed(name, self._original(target)))
        for name, target in COUNTED.items():
            self._patch(target, self._counted(name, self._original(target)))

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    @staticmethod
    def _original(target):
        module, attr, cls = target
        holder = getattr(sys.modules[module], cls) if cls else sys.modules[module]
        return holder.__dict__[attr]

    def _patch(self, target, wrapper):
        module, attr, cls = target
        if cls:
            holder = getattr(sys.modules[module], cls)
            self._restore.append((holder, attr, holder.__dict__[attr]))
            setattr(holder, attr, wrapper)
            return
        original = getattr(sys.modules[module], attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "galstrat" and not mod_name.startswith("galstrat."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    # -- wrappers ---------------------------------------------------------------

    def _timed(self, name, fn):
        index = self.names.index(name)
        spans, stack, calls = self.spans, self._stack, self.calls
        own, op_own, totals = self.own, self.op_own, self.totals
        clock = time.perf_counter
        keep_span = name not in TOTALLED
        is_count_jets = name == "jets.count_jets"

        def wrapper(*args, **kwargs):
            calls[name] += 1
            op = self.op
            parent = stack[-1][1] if stack else -1
            if keep_span:
                slot = len(spans)
                spans.append(None)
                frame = [0.0, slot]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time = duration - frame[0]
                own[name] += self_time
                if op != "setup":
                    op_own[name] += self_time
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    spans[slot] = (index, start, end, parent, op)
                else:
                    entry = totals.setdefault((op, name), [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += self_time
            if is_count_jets:
                self.solutions += result
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls
        if name == "stratifications.stratum_of":
            triples = self.triples

            def wrapper(strat, s_point, a, k):
                calls[name] += 1
                triples.setdefault(self.op, set()).add(
                    (k.q, tuple(sorted(s_point.items())), tuple(a)))
                return fn(strat, s_point, a, k)
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

        return wrapper

    # -- results -------------------------------------------------------------------

    def op_time(self):
        """Total duration of the ops, from their root spans."""
        root = self.names.index(ROOT)
        return sum(end - start for index, start, end, parent, op in self.spans
                   if index == root and parent == -1)

    def distinct_triples(self):
        return sum(len(s) for s in self.triples.values())

    def write(self, path):
        """JSON lines: a header, one array per span, then one per op total."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "span": ["name", "start", "end", "parent", "op"],
                       "total": ["op", "name", "calls", "duration", "self"]}, fh)
            fh.write("\n")
            for index, start, end, parent, op in self.spans:
                fh.write(f"[{index},{start!r},{end!r},{parent},{json.dumps(op)}]\n")
            for (op, name), (calls, duration, own) in self.totals.items():
                fh.write(f"[{json.dumps(op)},{json.dumps(name)},{calls},{duration!r},{own!r}]\n")
