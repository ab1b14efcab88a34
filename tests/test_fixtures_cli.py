"""Fixture loading, schema validation, and the batch command-line front end."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from galstrat import cli, fixtures, stratifications
from galstrat.cli import main, run
from galstrat.errors import SchemaError
from galstrat.fixtures import field_from_order, load_fixture

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write(tmp_path, doc):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_field_from_order():
    assert field_from_order(9).q == 9
    assert field_from_order(49).q == 49
    assert field_from_order(13).q == 13
    with pytest.raises(SchemaError):
        field_from_order(12)


def test_load_valid_chi_fixture():
    doc = load_fixture(FIXTURES / "kummer_z2_chi.json")
    assert doc.kind == "chi"
    strat = doc.payload["stratification"]
    assert strat.strata[0][0].group.n == 2  # group verified at load
    assert doc.digest


def test_unstable_con_schema_error_names_subgroup(tmp_path):
    doc = {
        "version": 1,
        "kind": "stratification",
        "stratification": {
            "coords": ["x", "y", "z"],
            "strata": [
                {"cover": {"kind": "tabulated",
                           "group": {"perm_gens": [[1, 0, 2], [1, 2, 0]]},
                           "stratum": "x = x", "assign": {}},
                 # one transposition subgroup without its conjugates
                 "con": [[0, 1]]}
            ],
        },
        "sweep": {"primes": [5], "s_points": [{}]},
    }
    with pytest.raises(SchemaError) as err:
        load_fixture(write(tmp_path, doc))
    assert any("conjugation-stable" in v for v in err.value.violations)
    assert any("[0," in v for v in err.value.violations)  # names the subgroup


def test_unknown_kind_schema_error(tmp_path):
    with pytest.raises(SchemaError):
        load_fixture(write(tmp_path, {"version": 1, "kind": "mystery"}))


def test_missing_primes_rejected(tmp_path):
    doc = {"version": 1, "kind": "formula", "formula": "x = 0",
           "sweep": {"s_points": [{}]}}
    with pytest.raises(SchemaError) as err:
        load_fixture(write(tmp_path, doc))
    assert any("primes" in v for v in err.value.violations)


def test_cli_eval_deterministic(capsys):
    code1 = main(["eval", str(FIXTURES / "squares_formula.json")])
    out1 = capsys.readouterr().out
    code2 = main(["eval", str(FIXTURES / "squares_formula.json")])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    report = json.loads(out1)
    assert report["fixture_sha256"]
    assert report["primes"] == [3, 5, 7]


def test_cli_all_commands_pass(capsys):
    cases = [
        ("eval", "squares_formula.json"),
        ("bijection", "shifted_square_bijection.json"),
        ("stratify", "square_indicator_strat.json"),
        ("eliminate", "case1_squaring.json"),
        ("chi", "kummer_z2_chi.json"),
        ("jets", "xy_jets.json"),
    ]
    for command, name in cases:
        code = main([command, str(FIXTURES / name)])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert code == 0, (command, report)
        assert report["verdict"] == "Pass"
        assert report["fixture_sha256"]


@pytest.mark.parametrize("command,name", [
    ("eval", "squares_formula.json"),
    ("bijection", "shifted_square_bijection.json"),
    ("stratify", "square_indicator_strat.json"),
    ("eliminate", "case1_squaring.json"),
    ("chi", "kummer_z2_chi.json"),
    ("jets", "xy_jets.json"),
])
def test_cli_expands_the_sweep_once(command, name, monkeypatch, capsys):
    calls = []

    def counting(*args):
        calls.append(args)
        return fixtures.sweep_pairs(*args)

    monkeypatch.setattr(cli, "sweep_pairs", counting)
    assert main([command, str(FIXTURES / name)]) == 0
    fixture = load_fixture(FIXTURES / name)
    [(sweep, base_params, admissible)] = calls
    assert (sweep, base_params) == (fixture.sweep, fixture.base_params)
    assert admissible.describe() == fixture.admissible.describe()


def test_cli_prime_override(capsys):
    code = main(["eval", str(FIXTURES / "squares_formula.json"), "--primes", "11,13"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["primes"] == [11, 13]
    assert [r["q"] for r in report["results"]] == [11, 13]


def test_cli_wrong_kind_for_command(capsys):
    code = main(["chi", str(FIXTURES / "squares_formula.json")])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "SchemaError"


def test_cli_inadmissible_prime_override(capsys):
    code = main(["stratify", str(FIXTURES / "square_indicator_strat.json"),
                 "--primes", "2,5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "InadmissiblePrime"


def test_cli_corrupted_chi_count_fails(tmp_path, capsys):
    doc = json.loads((FIXTURES / "kummer_z2_chi.json").read_text())
    doc["counts"]["Y"]["5"] = 3  # wrong count: specialization mismatch
    code = main(["chi", write(tmp_path, doc)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "Fail"


def test_cli_missing_elimination_datum(tmp_path, capsys):
    doc = json.loads((FIXTURES / "case1_squaring.json").read_text())
    doc["plan"]["entries"] = []
    code = main(["eliminate", write(tmp_path, doc)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "MissingDatum"


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "galstrat.cli", "eval",
         str(FIXTURES / "squares_formula.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "Pass"


def test_missing_variable_error_is_the_same_under_every_hash_seed(tmp_path):
    # The stratum uses two base parameters that the s_point leaves unbound;
    # the error names the first in the polynomial's variable order, not in
    # the iteration order of a set of strings.
    doc = {"version": 1, "kind": "stratification",
           "stratification": {"coords": ["x"], "base_params": ["t", "u"], "strata": [
               {"cover": {"kind": "trivial", "stratum": "x = t*u"}, "con": [[0]]},
               {"cover": {"kind": "trivial", "stratum": "~(x = t*u)"}, "con": []}]},
           "sweep": {"primes": [5], "s_points": [{}]}}
    path = write(tmp_path, doc)
    outputs = set()
    for seed in range(4):
        proc = subprocess.run([sys.executable, "-m", "galstrat.cli", "stratify", path],
                              capture_output=True, env={**os.environ, "PYTHONHASHSEED": str(seed)})
        assert proc.returncode == 2
        outputs.add(proc.stdout)
    [out] = outputs
    assert json.loads(out) == {"error": "MissingVariable", "detail": "t"}


def test_cli_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["eval", str(FIXTURES / "squares_formula.json"),
                 "--out", str(out_path)])
    shown = capsys.readouterr().out
    assert code == 0
    assert out_path.read_text().strip() == shown.strip()


@pytest.mark.parametrize("primes", ["abc", "5,,7", "5;7", ""])
def test_cli_malformed_primes_schema_error(primes, capsys):
    code = main(["eval", str(FIXTURES / "squares_formula.json"), "--primes", primes])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "SchemaError"
    assert "--primes" in report["detail"][0]


@pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
def test_cli_non_finite_budget_rejected(budget, capsys):
    code = main(["eval", str(FIXTURES / "squares_formula.json"), f"--budget={budget}"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "SchemaError"
    assert "--budget" in report["detail"][0]


def test_cli_finite_budget_still_guards(capsys):
    code = main(["eval", str(FIXTURES / "squares_formula.json"), "--budget", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "BudgetExceeded"


@pytest.mark.parametrize("command,name,primes,budget", [
    ("stratify", "square_indicator_strat.json", "3125", "1"),
    ("stratify", "square_indicator_strat.json", "3125", "-1"),
    # the input's two coordinates are charged (4.6 bits), not the output's one
    ("eliminate", "case1_squaring.json", "5", "4"),
    ("chi", "kummer_z2_chi.json", "5,13", "3"),
])
def test_cli_scanning_commands_charge_the_budget(command, name, primes, budget,
                                                 monkeypatch, capsys):
    def scan(*args, **kwargs):
        raise AssertionError("a fiber was scanned before the budget was charged")

    monkeypatch.setattr(stratifications.GaloisStratification, "_scan", scan)
    code = main([command, str(FIXTURES / name), "--primes", primes, "--budget", budget])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "BudgetExceeded"


@pytest.mark.parametrize("primes,error,detail", [
    ("6", "SchemaError", ["6 is not a prime power"]),
    ("0", "SchemaError", ["field order 0 < 2"]),
    ("70000", "CapExceeded", "q = 70000 outside [2, 65536]"),
    ("4096", "InadmissiblePrime", "q = 4096 violates q = 1 mod 2"),
])
def test_cli_field_order_is_checked_before_admissibility(primes, error, detail,
                                                         monkeypatch, capsys):
    # square_indicator_strat admits only q = 1 mod 2, which every order here
    # violates; none of them gets its field built
    def make_field(p, e):
        raise AssertionError(f"F_{p}^{e} was built")

    monkeypatch.setattr(fixtures, "make_field", make_field)
    code = main(["stratify", str(FIXTURES / "square_indicator_strat.json"), "--primes", primes])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert (report["error"], report["detail"]) == (error, detail)


@pytest.mark.parametrize("command,name,missing", [
    ("eval", "shifted_square_bijection.json", ["formula"]),
    ("bijection", "squares_formula.json", ["psi", "phi1", "phi2"]),
])
def test_cli_formula_fixture_lacking_command_input(command, name, missing, capsys):
    code = main([command, str(FIXTURES / name)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "SchemaError"
    assert report["detail"] == [f"command {command!r} needs {m!r} in the fixture"
                                for m in missing]


def test_cli_unwritable_out_is_io_error(tmp_path, capsys):
    out_path = tmp_path / "no_such_dir" / "report.json"
    code = main(["eval", str(FIXTURES / "squares_formula.json"), "--out", str(out_path)])
    report = json.loads(capsys.readouterr().out)  # the error alone, no report before it
    assert code == 2
    assert report["error"] == "IoError"
    assert not out_path.exists()


# -- malformed jets, admissible and cover documents ---------------------------------------

def jets_doc(**changes):
    doc = json.loads((FIXTURES / "xy_jets.json").read_text())
    doc.update(changes)
    return doc


def strat_doc(admissible=None, cover_admissible=None, kummer_n=2, con=None):
    doc = json.loads((FIXTURES / "square_indicator_strat.json").read_text())
    strata = doc["stratification"]["strata"]
    strata[0]["cover"]["n"] = kummer_n
    if con is not None:
        strata[0]["con"] = con
    if admissible is not None:
        doc["admissible"] = admissible
    if cover_admissible is not None:
        strata[1]["cover"]["admissible"] = cover_admissible
    return doc


def bijection_doc(s_points):
    doc = json.loads((FIXTURES / "shifted_square_bijection.json").read_text())
    doc["sweep"] = {"primes": [5], "s_points": s_points}
    return doc


def tabulated_doc(assign, q="5", group=None):
    return {
        "version": 1,
        "kind": "stratification",
        "stratification": {"coords": ["x"], "strata": [
            {"cover": {"kind": "tabulated", "group": group or {"cyclic": 2}, "stratum": "x = x",
                       "assign": {q: assign}},
             "con": [[0]]},
        ]},
        "sweep": {"primes": [5], "s_points": [{}]},
    }


def chi_doc(counts=None, classes=None):
    doc = json.loads((FIXTURES / "kummer_z2_chi.json").read_text())
    if counts is not None:
        doc["counts"] = counts
    if classes is not None:
        doc["quotient_data"][0]["classes"] = classes
    return doc


SQUARE_CLASSES = {"0": 0, "1": 0, "2": 1, "3": 1, "4": 0}

MALFORMED = [
    pytest.param("jets", jets_doc(level=-1), "level", id="jets_level_negative"),
    pytest.param("jets", jets_doc(level="2"), "level", id="jets_level_string"),
    pytest.param("jets", jets_doc(level=1.5), "level", id="jets_level_float"),
    pytest.param("jets", jets_doc(depth_cap=5), "depth_cap", id="jets_depth_cap_below_2n_plus_2"),
    pytest.param("jets", jets_doc(x_vars=["x"]), "['y']", id="jets_unknown_variable"),
    pytest.param("stratify", strat_doc(admissible={"mod": [[0, 1]]}), "mod",
                 id="admissible_modulus_zero"),
    pytest.param("stratify", strat_doc(admissible={"mod": [[2]]}), "mod",
                 id="admissible_pair_too_short"),
    pytest.param("stratify", strat_doc(admissible={"exclude": ["a"]}), "exclude",
                 id="admissible_exclude_not_integers"),
    pytest.param("stratify", strat_doc(cover_admissible={"mod": [[0, 1]]}), "mod",
                 id="cover_admissible_modulus_zero"),
    pytest.param("stratify", strat_doc(cover_admissible={"mod": [[2]]}), "mod",
                 id="cover_admissible_pair_too_short"),
    pytest.param("stratify", strat_doc(cover_admissible={"exclude": ["a"]}), "exclude",
                 id="cover_admissible_exclude_not_integers"),
    pytest.param("stratify", strat_doc(kummer_n=0), "cover.n", id="kummer_n_zero"),
    pytest.param("stratify", strat_doc(kummer_n="2"), "cover.n", id="kummer_n_string"),
    pytest.param("stratify", tabulated_doc({**SQUARE_CLASSES, "a": 0}), "'a'",
                 id="tabulated_point_key_not_integer"),
    pytest.param("stratify", tabulated_doc(SQUARE_CLASSES, q="five"), "'five'",
                 id="tabulated_field_key_not_integer"),
    pytest.param("stratify", tabulated_doc({**SQUARE_CLASSES, "2": 2}), "group element",
                 id="tabulated_element_out_of_range"),
    pytest.param("stratify", tabulated_doc({**SQUARE_CLASSES, "2": "1"}), 'assign["5"]["2"]',
                 id="tabulated_element_not_integer"),
    pytest.param("stratify", tabulated_doc([0, 0, 1, 1, 0]), 'assign["5"]',
                 id="tabulated_field_entry_not_an_object"),
    pytest.param("stratify", {**strat_doc(), "sweep": {"primes": [5], "s_points": "some"}},
                 "s_points", id="sweep_s_points_unknown_word"),
    pytest.param("jets", jets_doc(equations=[3]), "equations", id="jets_equation_not_a_string"),
    pytest.param("jets", jets_doc(sweep={"primes": ["a"]}), "sweep.primes[0]",
                 id="sweep_prime_not_an_integer"),
    pytest.param("jets", jets_doc(sweep={"primes": 5}), "sweep.primes",
                 id="sweep_primes_not_a_list"),
    pytest.param("jets", jets_doc(x_vars=3), "x_vars", id="jets_x_vars_not_a_list"),
    pytest.param("jets", jets_doc(x_vars="xy"), "x_vars", id="jets_x_vars_a_string"),
    pytest.param("jets", jets_doc(base_params=3), "base_params", id="jets_base_params_not_a_list"),
    pytest.param("jets", jets_doc(sweep=[]), "sweep", id="sweep_not_an_object"),
    pytest.param("jets", [jets_doc()], "document", id="document_not_an_object"),
    pytest.param("bijection", bijection_doc(s_points=[{"z": "a"}]), "sweep.s_points[0].z",
                 id="sweep_s_point_value_not_a_number"),
    pytest.param("chi", chi_doc(counts={"Y": 5}), "counts.Y", id="chi_counts_not_per_q"),
    pytest.param("chi", chi_doc(counts={"Y": {"5": "abc", "13": 12, "17": 16}}), "'abc'",
                 id="chi_count_not_a_number"),
    pytest.param("chi", chi_doc(counts={"Y": {"five": 4, "13": 12, "17": 16}}), "'five'",
                 id="chi_count_field_key_not_integer"),
    pytest.param("chi", chi_doc(classes={"0": 5, "0,1": "Y"}), 'classes["0"]',
                 id="chi_class_not_a_name_or_terms"),
    pytest.param("stratify", strat_doc(con=[[0, 7]]), "not in 0..1",
                 id="con_element_outside_group"),
    pytest.param("stratify", tabulated_doc(SQUARE_CLASSES, group={"perm_gens": [[0, 5]]}),
                 "not a permutation", id="tabulated_perm_gens_not_a_permutation"),
]


@pytest.mark.parametrize("command,doc,needle", MALFORMED)
def test_cli_malformed_document_schema_error(command, doc, needle, tmp_path, capsys):
    code = main([command, write(tmp_path, doc)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "SchemaError"
    assert any(needle in line for line in report["detail"]), report["detail"]


def test_cli_field_order_above_cap_fails_at_once(capsys):
    # 2^61 - 1 is prime: trial division up to its square root would run for minutes
    code = main(["eval", str(FIXTURES / "squares_formula.json"),
                 "--primes", "2305843009213693951"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "CapExceeded"


# -- the schema files are the format --------------------------------------------------

SCHEMAS = Path(fixtures.__file__).resolve().parent / "schemas"
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def schema_keywords(node):
    """Every keyword used in a schema node and in the schemas nested in it."""
    assert isinstance(node, dict), node
    yield from node
    for key, value in node.items():
        if key in ("properties", "definitions"):
            for sub in value.values():
                yield from schema_keywords(sub)
        elif key in ("items", "additionalProperties"):
            yield from schema_keywords(value)
        elif key == "oneOf":
            for sub in value:
                yield from schema_keywords(sub)


@pytest.mark.parametrize("name", sorted(p.name for p in SCHEMAS.glob("*.json")))
def test_schema_uses_only_checked_keywords(name):
    used = set(schema_keywords(json.loads((SCHEMAS / name).read_text())))
    assert used <= fixtures.SCHEMA_KEYWORDS, sorted(used - fixtures.SCHEMA_KEYWORDS)


def test_shipped_and_benchmark_documents_meet_their_schemas(tmp_path):
    paths = sorted(FIXTURES.glob("*.json"))
    workloads = load_workloads()
    for workload in workloads.WORKLOADS:
        directory = tmp_path / workload
        directory.mkdir()
        workloads.Generator(workload, seed=1).make_pass(0, directory)
        paths += sorted(directory.glob("*.json"))
    assert len(paths) > len(list(FIXTURES.glob("*.json")))
    for path in paths:
        load_fixture(path)


def test_each_schema_file_is_read_once(tmp_path):
    fixtures._schema_file.cache_clear()
    fixtures._resolve.cache_clear()
    for _ in range(2):
        load_fixture(FIXTURES / "case1_squaring.json")
        load_fixture(FIXTURES / "kummer_z2_chi.json")
    # elimination.json, chi.json and common.json, each parsed on first use only
    assert fixtures._schema_file.cache_info().misses == 3


@pytest.mark.parametrize("value,schema,expected", [
    (True, {"type": "integer"}, ["x: expected integer, got true"]),
    (2.0, {"type": "integer"}, ["x: expected integer, got 2.0"]),
    (True, {"const": 1}, ["x: expected 1, got true"]),
    (1.0, {"enum": [1, 2]}, ["x: 1.0 is not one of [1, 2]"]),
    (-1, {"type": "integer", "minimum": 0}, ["x: -1 is below the minimum 0"]),
    ([], {"type": "array", "minItems": 1}, ["x: needs at least 1 items, got 0"]),
    ([1, 2], {"type": "array", "maxItems": 1}, ["x: allows at most 1 items, got 2"]),
    ({"a": 1}, {"type": "object", "required": ["b"]}, ["x.b: required, but missing"]),
    ({"a": "1", "b c": 2}, {"type": "object", "properties": {"a": {"type": "string"}},
                            "additionalProperties": {"type": "string"}},
     ['x["b c"]: expected string, got 2']),
    ([1, "a"], {"type": "array", "items": {"type": "integer"}},
     ['x[1]: expected integer, got "a"']),
    (3, {"oneOf": [{"type": "integer"}, {"minimum": 0}]},
     ["x: 3 fits 2 of the allowed forms, not exactly one"]),
    ("s", {"oneOf": [{"type": "integer"}, {"type": "array"}]},
     ['x: "s" fits none of the allowed forms (x: expected integer, got "s" | '
      'x: expected array, got "s")']),
    ({"mod": [[1, 0], [4, 1]]}, {"$ref": "common.json#/definitions/admissible"}, []),
    ({"mod": [4, 1]}, {"$ref": "common.json#/definitions/admissible"}, []),
])
def test_schema_checker(value, schema, expected):
    assert fixtures.schema_violations(value, schema, path="x") == expected


def test_schema_errors_are_reported_together(tmp_path):
    doc = jets_doc(version=2, level="1", sweep={"primes": []})
    with pytest.raises(SchemaError) as err:
        load_fixture(write(tmp_path, doc))
    assert err.value.violations == [
        "version: expected 1, got 2",
        'level: expected integer, got "1"',
        "sweep.primes: needs at least 1 items, got 0",
    ]
