import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import degenkit
from degenkit import jsonio
from degenkit.correlator import needed_keys
from degenkit.oracle import P1Conventions, build_p1_table, p1_problem
from degenkit.splitting import enumerate_splittings
from degenkit.twisting import TwistingChoice


# source root of the degenkit these tests import; the child process gets it
# on PYTHONPATH, since pytest's pythonpath setting does not reach children
SRC = str(Path(degenkit.__file__).resolve().parents[1])


def run_cli(*args, expect=0):
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "degenkit.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


@pytest.fixture()
def p1_files(tmp_path):
    conv = P1Conventions()
    problem, insertions = p1_problem(2, 0, conv)
    table = build_p1_table(2, 0, conv, max_legs=2)
    paths = {}
    for name, payload in (
        ("problem", jsonio.problem_to_dict(problem)),
        ("insertions", jsonio.insertions_to_list(problem, insertions)),
        ("table", jsonio.table_to_obj(table)),
    ):
        path = tmp_path / ("%s.json" % name)
        path.write_text(jsonio.dumps(payload))
        paths[name] = str(path)
    return paths


def test_fraction_round_trip():
    assert jsonio.fraction_to_str(Fraction(-3, 6)) == "-1/2"
    assert jsonio.fraction_from_str("-1/2") == Fraction(-1, 2)
    assert jsonio.fraction_to_str(Fraction(4)) == "4/1"


def test_problem_round_trip(p1_files):
    data = json.loads(open(p1_files["problem"]).read())
    problem = jsonio.problem_from_dict(data)
    again = jsonio.problem_to_dict(problem)
    assert again == data


def test_table_round_trip(p1_files):
    data = json.loads(open(p1_files["table"]).read())
    table = jsonio.table_from_obj(data)
    again = jsonio.table_to_obj(table)
    assert again == data


def test_twisting_round_trip():
    for rule in (
        TwistingChoice("lcm"),
        TwistingChoice("multiple", multiple=3),
        TwistingChoice("table", table=(((2, 3), 12),)),
    ):
        assert jsonio.twisting_from_obj(jsonio.twisting_to_obj(rule)) == rule


def test_splitting_round_trip(p1_files):
    problem = jsonio.problem_from_dict(json.loads(open(p1_files["problem"]).read()))
    for s in enumerate_splittings(problem):
        again = jsonio.splitting_from_dict(jsonio.splitting_to_dict(s))
        assert again.canonical_pair() == s.canonical_pair()


def test_cli_splittings_deterministic(p1_files):
    out1 = run_cli("splittings", p1_files["problem"], "--orbits").stdout
    out2 = run_cli("splittings", p1_files["problem"], "--orbits").stdout
    assert out1 == out2
    payload = json.loads(out1)
    assert isinstance(payload, list) and len(payload) == 6
    assert all("orbit" in row for row in payload)
    reps = [row for row in payload if row["orbit"]["representative"]]
    assert len(reps) == len({row["orbit"]["index"] for row in payload})


def test_cli_splittings_empty_omega_is_bare_array(tmp_path):
    problem = {
        "monoid": {
            "generators": [
                {"id": "a", "component": "X1", "d_degree": "1/1"},
                {"id": "b", "component": "X2", "d_degree": "1/1"},
            ]
        },
        "genus": 0,
        "legs": [],
        "beta": {"a": 2, "b": 1},
        "divisor": {
            "sectors": [{"id": "u", "band_order": 1, "involution_image": "u"}],
            "basis": [{"id": "pt", "sector": "u", "parity": "even"}],
            "pairing": [["1/1"]],
        },
        "c_max": 2,
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(problem))
    proc = run_cli("splittings", str(path))
    assert json.loads(proc.stdout) == []


def test_cli_evaluate_both_conventions(p1_files):
    std = run_cli(
        "evaluate",
        p1_files["problem"],
        p1_files["insertions"],
        p1_files["table"],
    )
    crn = run_cli(
        "evaluate",
        p1_files["problem"],
        p1_files["insertions"],
        p1_files["table"],
        "--convention",
        "chen_ruan",
    )
    v1 = json.loads(std.stdout)["value"]
    v2 = json.loads(crn.stdout)["value"]
    assert v1 == v2 == "1/2"


def test_cli_evaluate_twisting_flag(p1_files):
    base = run_cli(
        "evaluate", p1_files["problem"], p1_files["insertions"], p1_files["table"]
    )
    doubled = run_cli(
        "evaluate",
        p1_files["problem"],
        p1_files["insertions"],
        p1_files["table"],
        "--twisting",
        "2*lcm",
    )
    assert json.loads(base.stdout)["value"] == json.loads(doubled.stdout)["value"]


def test_cli_missing_keys_exit_code(p1_files, tmp_path):
    empty = tmp_path / "empty_table.json"
    empty.write_text("[]\n")
    proc = run_cli(
        "evaluate",
        p1_files["problem"],
        p1_files["insertions"],
        str(empty),
        expect=4,
    )
    payload = json.loads(proc.stderr)
    assert payload["error"] == "missing-table-keys"
    assert payload["keys"]


def test_cli_keys_match_api(p1_files):
    proc = run_cli("keys", p1_files["problem"], p1_files["insertions"])
    listed = json.loads(proc.stdout)
    problem = jsonio.problem_from_dict(json.loads(open(p1_files["problem"]).read()))
    insertions = jsonio.insertions_from_list(
        problem, json.loads(open(p1_files["insertions"]).read())
    )
    assert len(listed) == len(needed_keys(problem, insertions))


def test_cli_malformed_problem(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"genus\": 0}\n")
    proc = run_cli("splittings", str(bad), expect=2)
    assert "missing the field" in json.loads(proc.stderr)["error"]


def test_cli_broken_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{")
    proc = run_cli("splittings", str(bad), expect=2)
    assert "malformed JSON" in json.loads(proc.stderr)["error"]


def test_cli_budget_exit_code(p1_files):
    proc = run_cli(
        "splittings", p1_files["problem"], "--budget", "2", expect=3
    )
    payload = json.loads(proc.stderr)
    assert payload["error"] == "enumeration-budget-exceeded"


def test_cli_lift():
    proc = run_cli(
        "lift", "--contact", "2", "--target-index", "6", "--source-index", "3"
    )
    payload = json.loads(proc.stdout)
    assert payload == {
        "lifts": True,
        "representable": True,
        "transversal": True,
        "source_index": 3,
    }


def test_cli_ledger():
    proc = run_cli("ledger", "--contacts", "2,3")
    payload = json.loads(proc.stdout)
    assert payload["net"] == "3/1"


def test_cli_oracle_check():
    proc = run_cli("oracle", "check", "--degree", "2", "--genus", "0")
    payload = json.loads(proc.stdout)
    assert payload["equal"] is True


def test_cli_oracle_count_profiles():
    proc = run_cli(
        "oracle", "count", "--degree", "3", "--genus", "0", "--profiles", "3|3"
    )
    payload = json.loads(proc.stdout)
    assert payload["count"] == "1/3"


def test_cli_check_unknown_suite():
    run_cli("check", "nonsense", expect=2)


def test_cli_check_lifts():
    proc = run_cli("check", "lifts")
    assert "PASS lift-truth-table" in proc.stdout


def test_cli_evaluate_terms_breakdown(p1_files):
    proc = run_cli(
        "evaluate",
        p1_files["problem"],
        p1_files["insertions"],
        p1_files["table"],
        "--terms",
    )
    payload = json.loads(proc.stdout)
    assert payload["terms"]
    total = Fraction(0)
    for term in payload["terms"]:
        total += Fraction(term["term_value"])
    assert total == Fraction(payload["value"])


def test_docs_sample_problem_matches_brute_force():
    import pathlib
    import sys as _sys

    here = pathlib.Path(__file__).resolve().parent
    sample = here.parent / "docs" / "sample_problem.json"
    problem = jsonio.problem_from_dict(json.loads(sample.read_text()))
    from degenkit.splitting import enumerate_splittings as enum

    _sys.path.insert(0, str(here))
    from test_splitting import brute_force_splittings

    got = {s.canonical_pair() for s in enum(problem)}
    assert got == brute_force_splittings(problem)
    assert len(got) == 37


def test_cli_keys_fill_evaluate_workflow(tmp_path):
    # the intended loop: ask for the required keys, fill them, evaluate
    import pathlib

    docs = pathlib.Path(__file__).resolve().parent.parent / "docs"
    problem_path = str(docs / "sample_problem.json")
    insertions_path = str(docs / "sample_insertions.json")
    listed = json.loads(run_cli("keys", problem_path, insertions_path).stdout)
    assert listed
    table_rows = [
        {"key": row["key"], "value": "1/1"} for row in listed
    ]
    table_path = tmp_path / "filled.json"
    table_path.write_text(json.dumps(table_rows))
    std = run_cli("evaluate", problem_path, insertions_path, str(table_path))
    crn = run_cli(
        "evaluate",
        problem_path,
        insertions_path,
        str(table_path),
        "--convention",
        "chen_ruan",
    )
    assert json.loads(std.stdout)["value"] == json.loads(crn.stdout)["value"]


def test_cli_insertions_for_unknown_leg(p1_files, tmp_path):
    bad = tmp_path / "ins.json"
    bad.write_text(json.dumps([{"label": 999, "m": 0, "class": "brp"}]))
    run_cli("keys", p1_files["problem"], str(bad), expect=2)


def test_cli_manifest_determinism(p1_files, tmp_path):
    man1 = tmp_path / "m1.json"
    man2 = tmp_path / "m2.json"
    out1 = run_cli(
        "evaluate",
        p1_files["problem"],
        p1_files["insertions"],
        p1_files["table"],
        "--manifest",
        str(man1),
    ).stdout
    out2 = run_cli(
        "evaluate",
        p1_files["problem"],
        p1_files["insertions"],
        p1_files["table"],
        "--manifest",
        str(man2),
    ).stdout
    assert out1 == out2
    m1 = json.loads(man1.read_text())
    m2 = json.loads(man2.read_text())
    assert m1["inputs"] == m2["inputs"]
    assert m1["engine_version"] == m2["engine_version"]
