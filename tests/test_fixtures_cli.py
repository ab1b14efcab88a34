"""Fixture loading, schema validation, and the batch command-line front end."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_cli_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["eval", str(FIXTURES / "squares_formula.json"),
                 "--out", str(out_path)])
    shown = capsys.readouterr().out
    assert code == 0
    assert out_path.read_text().strip() == shown.strip()


@pytest.mark.parametrize("primes", ["abc", "5,,7", "5;7"])
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


def strat_doc(admissible=None, cover_admissible=None, kummer_n=2):
    doc = json.loads((FIXTURES / "square_indicator_strat.json").read_text())
    strata = doc["stratification"]["strata"]
    strata[0]["cover"]["n"] = kummer_n
    if admissible is not None:
        doc["admissible"] = admissible
    if cover_admissible is not None:
        strata[1]["cover"]["admissible"] = cover_admissible
    return doc


def tabulated_doc(assign, q="5"):
    return {
        "version": 1,
        "kind": "stratification",
        "stratification": {"coords": ["x"], "strata": [
            {"cover": {"kind": "tabulated", "group": {"cyclic": 2}, "stratum": "x = x",
                       "assign": {q: assign}},
             "con": [[0]]},
        ]},
        "sweep": {"primes": [5], "s_points": [{}]},
    }


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
    pytest.param("stratify", strat_doc(kummer_n=0), "kummer n", id="kummer_n_zero"),
    pytest.param("stratify", strat_doc(kummer_n="2"), "kummer n", id="kummer_n_string"),
    pytest.param("stratify", tabulated_doc({**SQUARE_CLASSES, "a": 0}), "'a'",
                 id="tabulated_point_key_not_integer"),
    pytest.param("stratify", tabulated_doc(SQUARE_CLASSES, q="five"), "'five'",
                 id="tabulated_field_key_not_integer"),
    pytest.param("stratify", tabulated_doc({**SQUARE_CLASSES, "2": 2}), "group element",
                 id="tabulated_element_out_of_range"),
    pytest.param("stratify", tabulated_doc({**SQUARE_CLASSES, "2": "1"}), "group element",
                 id="tabulated_element_not_integer"),
    pytest.param("stratify", tabulated_doc([0, 0, 1, 1, 0]), "assign '5'",
                 id="tabulated_field_entry_not_an_object"),
    pytest.param("stratify", {**strat_doc(), "sweep": {"primes": [5], "s_points": "some"}},
                 "s_points", id="sweep_s_points_unknown_word"),
    pytest.param("jets", jets_doc(equations=[3]), "equations", id="jets_equation_not_a_string"),
]


@pytest.mark.parametrize("command,doc,needle", MALFORMED)
def test_cli_malformed_document_schema_error(command, doc, needle, tmp_path, capsys):
    code = main([command, write(tmp_path, doc)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "SchemaError"
    assert any(needle in line for line in report["detail"]), report["detail"]
