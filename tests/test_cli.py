import copy
import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import degenkit
from degenkit import cli, jsonio
from degenkit.correlator import needed_keys
from degenkit.errors import DegenkitError, EnumerationBudgetError
from degenkit.graphs import graph_from_canonical
from degenkit.oracle import build_p1_table, p1_problem
from degenkit.splitting import _Budget, enumerate_splittings, iter_structures
from degenkit.twisting import TwistingChoice
from helpers import (
    covariant_random_table,
    graphs_as_dicts,
    random_problem,
    splitting_from_dict,
    twisting_to_obj,
)


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
    problem, insertions = p1_problem(2, 0)
    table = build_p1_table(2, 0, max_legs=2)
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
        assert jsonio.twisting_from_obj(twisting_to_obj(rule)) == rule


def test_splitting_round_trip(p1_files):
    problem = jsonio.problem_from_dict(json.loads(open(p1_files["problem"]).read()))
    for s in enumerate_splittings(problem):
        (row,) = json.loads(jsonio.dumps(jsonio.splittings_to_obj([s])))
        again = splitting_from_dict(row)
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


def test_cli_splittings_orbit_annotations_on_the_sample():
    import math

    sample = Path(__file__).resolve().parents[1] / "docs" / "sample_problem.json"
    rows = json.loads(run_cli("splittings", str(sample), "--orbits").stdout)
    assert len(rows) == 37
    assert {len(row["m_labels"]) for row in rows} == {1, 2}
    by_index = {}  # in order of first appearance
    for row in rows:
        by_index.setdefault(row["orbit"]["index"], []).append(row["orbit"])
    assert list(by_index) == list(range(24))
    for index, blocks in by_index.items():
        # the first row of an orbit is its only representative
        assert [b["representative"] for b in blocks] == [True] + [False] * (len(blocks) - 1)
        assert all(b == {**blocks[0], "representative": b["representative"]} for b in blocks)
        assert len(blocks) == blocks[0]["size"]
    for row in rows:
        block = row["orbit"]
        assert block["size"] * block["stabilizer_order"] == math.factorial(len(row["m_labels"]))


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


DOCS = Path(__file__).resolve().parents[1] / "docs"


def _set_d_degree(problem, value):
    problem["monoid"]["generators"][0]["d_degree"] = value


def _drop(*path):
    """A mutation deleting the field at ``path`` (object keys and list
    indices)."""

    def mutate(obj):
        for step in path[:-1]:
            obj = obj[step]
        del obj[path[-1]]

    return mutate


def _set(*path, value):
    """A mutation setting the field at ``path`` to ``value``."""

    def mutate(obj):
        for step in path[:-1]:
            obj = obj[step]
        obj[path[-1]] = value

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda p: p.update(beta=[1, 2]), id="beta-list"),
        pytest.param(lambda p: p.update(legs=None), id="legs-null"),
        pytest.param(lambda p: _set_d_degree(p, "1/0"), id="d-degree-zero-denominator"),
        pytest.param(lambda p: p.update(c_max=2.5), id="c-max-float"),
        pytest.param(lambda p: p.update(genus="1"), id="genus-string"),
        pytest.param(lambda p: p.update(genus=True), id="genus-bool"),
        pytest.param(_drop("divisor", "sectors", 0, "id"), id="sector-without-id"),
        pytest.param(_drop("divisor", "basis", 0, "parity"), id="basis-without-parity"),
        pytest.param(_set("divisor", "basis", 0, "parity", value="foo"), id="parity-unknown"),
        pytest.param(_set("divisor", "pairing", 0, value=1), id="pairing-row-not-a-list"),
        pytest.param(_drop("monoid", "generators", 0, "id"), id="generator-without-id"),
        pytest.param(lambda p: p.update(monoid=[]), id="monoid-list"),
        pytest.param(lambda p: p.update(divisor=[]), id="divisor-list"),
        pytest.param(_drop("legs", 0, "e"), id="leg-without-e"),
        pytest.param(
            _drop("divisor", "basis_involution", 0, "image"), id="involution-without-image"
        ),
        pytest.param(_set("divisor", "sectors", 0, "id", value=[1]), id="sector-id-list"),
        pytest.param(_set("monoid", "generators", 0, "id", value=[1]), id="generator-id-list"),
        pytest.param(_set("divisor", "basis", 0, "id", value={}), id="basis-id-object"),
        pytest.param(
            _set("divisor", "sectors", 0, "involution_image", value=[1]),
            id="involution-image-list",
        ),
        pytest.param(_set("divisor", "basis", 0, "sector", value=[1]), id="basis-sector-list"),
        pytest.param(
            _set("divisor", "basis_involution", 0, "image", value=[1]), id="involution-map-list"
        ),
    ],
)
def test_cli_bad_problem_file_exits_2(mutate, tmp_path):
    problem = json.loads((DOCS / "sample_problem.json").read_text())
    mutate(problem)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(problem))
    for args in (
        ("splittings", str(bad)),
        ("keys", str(bad), str(DOCS / "sample_insertions.json")),
    ):
        proc = run_cli(*args, expect=2)
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"]


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(_drop(0, "class"), id="insertion-without-class"),
        pytest.param(_drop(0, "label"), id="insertion-without-label"),
        pytest.param(lambda rows: rows.append(dict(rows[0])), id="duplicate-insertion"),
    ],
)
def test_cli_bad_insertion_file_exits_2(mutate, tmp_path):
    insertions = json.loads((DOCS / "sample_insertions.json").read_text())
    mutate(insertions)
    bad = tmp_path / "insertions.json"
    bad.write_text(json.dumps(insertions))
    proc = run_cli("keys", str(DOCS / "sample_problem.json"), str(bad), expect=2)
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"]


def test_cli_broken_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{")
    proc = run_cli("splittings", str(bad), expect=2)
    assert "malformed JSON" in json.loads(proc.stderr)["error"]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


# deeper than the JSON decoder's recursion limit
_DEEP = "[" * 100_000 + "]" * 100_000


def _table_with(p1_files, tmp_path, mutate):
    """The P1 table file with its first key's graph given as a dict and
    changed by ``mutate(key)``."""
    rows = json.loads(open(p1_files["table"]).read())
    key = rows[0]["key"]
    key["graph"] = jsonio.graph_to_dict(graph_from_canonical(key["graph"]))
    mutate(key)
    return _write(tmp_path, "table.json", rows)


def _set_first(rows, field, value):
    rows[0][field] = value


@pytest.mark.parametrize(
    "probe",
    [
        pytest.param(lambda f, t: ("ledger", "--contacts", "2,a"), id="ledger-contacts"),
        pytest.param(
            lambda f, t: ("oracle", "count", "--degree", "3", "--genus", "0",
                          "--profiles", "3|2,x"),
            id="oracle-profiles",
        ),
        pytest.param(
            lambda f, t: ("ledger", "--contacts", "2,3", "--twisting", "x*lcm"),
            id="twisting-multiple-text",
        ),
        pytest.param(
            lambda f, t: ("ledger", "--contacts", "2,3", "--twisting",
                          _write(t, "k.json", {"rule": "multiple", "k": "two"})),
            id="twisting-k",
        ),
        pytest.param(
            lambda f, t: ("ledger", "--contacts", "2,3", "--twisting",
                          _write(t, "k.json", {"rule": "multiple", "k": True})),
            id="twisting-k-bool",
        ),
        pytest.param(
            lambda f, t: ("ledger", "--contacts", "2,3", "--twisting",
                          _write(t, "m.json", {"rule": "table", "entries": [
                              {"multiset": "2,x", "value": 6}]})),
            id="twisting-multiset",
        ),
        pytest.param(
            lambda f, t: ("ledger", "--contacts", "2,3", "--twisting",
                          _write(t, "v.json", {"rule": "table", "entries": [
                              {"multiset": "2,3", "value": "six"}]})),
            id="twisting-value",
        ),
        pytest.param(
            lambda f, t: ("evaluate", f["problem"], f["insertions"], _table_with(
                f, t, lambda key: _set_first(key["graph"]["vertices"], "genus", "0"))),
            id="table-graph-genus-string",
        ),
        pytest.param(
            lambda f, t: ("evaluate", f["problem"], f["insertions"], _table_with(
                f, t, lambda key: _set_first(key["graph"]["roots"], "label", True))),
            id="table-graph-root-bool",
        ),
        pytest.param(
            lambda f, t: ("evaluate", f["problem"], f["insertions"], _table_with(
                f, t, lambda key: _set_first(key["legs"], "m", True))),
            id="table-key-leg-m-bool",
        ),
    ],
)
def test_cli_bad_integer_text_exits_2(probe, p1_files, tmp_path):
    proc = run_cli(*probe(p1_files, tmp_path), expect=2)
    assert "Traceback" not in proc.stderr
    assert "must be an integer" in json.loads(proc.stderr)["error"]


def _twisting_probe(payload):
    return lambda t: ("ledger", "--contacts", "2,3", "--twisting",
                      _write(t, "twisting.json", payload))


# a one-vertex genus-0 key graph in canonical JSON
_KEY = {"side": "X1", "graph": '{"e":[],"l":[],"r":[],"v":[[0,[]]]}'}


def _table_probe(payload):
    return lambda t: ("evaluate", str(DOCS / "sample_problem.json"),
                      str(DOCS / "sample_insertions.json"),
                      _write(t, "table.json", payload))


@pytest.mark.parametrize(
    "probe",
    [
        pytest.param(_twisting_probe([1]), id="twisting-not-an-object"),
        pytest.param(
            _twisting_probe({"rule": "table", "entries": [{"value": 6}]}),
            id="twisting-entry-without-multiset",
        ),
        pytest.param(
            _twisting_probe({"rule": "table", "entries": [{"multiset": "2,3"}]}),
            id="twisting-entry-without-value",
        ),
        pytest.param(
            _twisting_probe({"rule": "table", "entries": {"multiset": "2,3", "value": 6}}),
            id="twisting-entries-not-a-list",
        ),
        pytest.param(_twisting_probe({"rule": "multiple"}), id="twisting-multiple-without-k"),
        pytest.param(_table_probe({"rows": []}), id="table-not-a-list"),
        pytest.param(_table_probe([{"key": "abc", "value": "1/1"}]), id="table-key-not-an-object"),
        pytest.param(_table_probe([{"key": _KEY}]), id="table-row-without-value"),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph": "{not json"}, "value": "1/1"}]),
            id="table-graph-not-canonical-json",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph": {"vertices": [1]}}, "value": "1/1"}]),
            id="table-graph-vertex-not-an-object",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph": {"vertices": [{}]}}, "value": "1/1"}]),
            id="table-graph-vertex-without-genus",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph": {
                "vertices": [{"genus": 0}],
                "roots": [{"label": 1, "c": 1, "vertex": 0}],
            }}, "value": "1/1"}]),
            id="table-graph-root-without-f",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph": {
                "vertices": [{"genus": 0}], "legs": "x"}}, "value": "1/1"}]),
            id="table-graph-legs-not-a-list",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph": {
                "vertices": [{"genus": 0}],
                "legs": [{"label": 1, "e": 1, "vertex": 0}],
                "roots": [{"label": 1, "f": 1, "c": 1, "vertex": 0}],
            }}, "value": "1/1"}]),
            id="table-one-vertex-duplicate-label",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph": {
                "vertices": [{"genus": 0}], "legs": [{"label": 1, "e": 1, "vertex": 1}],
            }}, "value": "1/1"}]),
            id="table-one-vertex-leg-on-a-missing-vertex",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph": {"vertices": [{"genus": -1}]}},
                           "value": "1/1"}]),
            id="table-one-vertex-negative-genus",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph": {
                "vertices": [{"genus": 0}], "legs": [{"label": 1, "e": 0, "vertex": 0}],
            }}, "value": "1/1"}]),
            id="table-one-vertex-leg-e-zero",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph":
                '{"e":[],"l":[[1,1,0],[1,2,0]],"r":[],"v":[[0,[]]]}'}, "value": "1/1"}]),
            id="table-one-vertex-canonical-duplicate-label",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph":
                '{"e":[],"l":[],"r":[[1,1,0,0]],"v":[[0,[]]]}'}, "value": "1/1"}]),
            id="table-one-vertex-canonical-root-c-zero",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "legs": [{"m": 0, "class": [1]}]}, "value": "1/1"}]),
            id="table-key-leg-class-a-list",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph":
                '{"e":[],"l":[[1,1.5,0]],"r":[],"v":[[0,[]]]}'}, "value": "1/1"}]),
            id="table-canonical-leg-e-float",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph":
                '{"e":[],"l":[],"r":[[1,1,1.5,0]],"v":[[0,[]]]}'}, "value": "1/1"}]),
            id="table-canonical-contact-float",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph":
                '{"e":[],"l":[],"r":[],"v":[[1.5,[]]]}'}, "value": "1/1"}]),
            id="table-canonical-genus-float",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph":
                '{"e":[],"l":[[1,true,0]],"r":[],"v":[[0,[]]]}'}, "value": "1/1"}]),
            id="table-canonical-leg-e-true",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph":
                '{"e":[],"l":[["a",1,0],[2,1,0]],"r":[],"v":[[0,[]]]}'}, "value": "1/1"}]),
            id="table-canonical-mixed-labels",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph":
                '{"e":[],"l":[],"r":[],"v":[[0,[[1,1]]]]}'}, "value": "1/1"}]),
            id="table-canonical-generator-not-a-string",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph":
                '{"e":[],"l":[],"r":[],"v":[[0,[["a",1.5]]]]}'}, "value": "1/1"}]),
            id="table-canonical-exponent-float",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph":
                '{"e":[],"l":[],"r":[],"v":[[0,[["a",1],["a",2]]]]}'}, "value": "1/1"}]),
            id="table-canonical-generator-twice",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph":
                '{"e":[],"l":[[1,1]],"r":[],"v":[[0,[]]]}'}, "value": "1/1"}]),
            id="table-canonical-leg-row-short",
        ),
        pytest.param(
            _table_probe([{"key": _KEY, "value": "1/1"}, {"key": _KEY, "value": "2/1"}]),
            id="table-key-twice-with-two-values",
        ),
        *[
            pytest.param(_table_probe([{"key": _KEY, "value": value}]), id="table-value-" + name)
            for name, value in (
                ("text", "abc"), ("true", True), ("float", 1.5), ("over-zero", "1/0"), ("a-list", [1]),
            )
        ],
        pytest.param(
            _table_probe([{"key": _KEY, "value": 1}, {"key": _KEY, "value": True}]),
            id="table-value-1-then-true",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "roots": [{"class": {"a": 1}}]}, "value": "1/1"}]),
            id="table-key-root-class-an-object",
        ),
        pytest.param(
            lambda t: ("keys", _write_text(t, "problem.json", _DEEP),
                       str(DOCS / "sample_insertions.json")),
            id="problem-nested-100000-deep",
        ),
        pytest.param(
            lambda t: ("evaluate", str(DOCS / "sample_problem.json"),
                       str(DOCS / "sample_insertions.json"), _write_text(t, "table.json", _DEEP)),
            id="table-nested-100000-deep",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph": _DEEP}, "value": "1/1"}]),
            id="table-graph-nested-100000-deep",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph":
                '{"e":[],"l":[[1,1,0]],"r":[],"v":[[0,[]]]}', "legs": []}, "value": "1/1"}]),
            id="table-one-vertex-key-without-its-leg",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "roots": [{"class": "u0"}]}, "value": "1/1"}]),
            id="table-one-vertex-key-with-an-extra-root",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph": {
                "vertices": [{"genus": 0}], "roots": [{"label": 1, "f": 1, "c": 1, "vertex": 0}],
            }, "roots": []}, "value": "1/1"}]),
            id="table-one-vertex-graph-object-key-without-its-root",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph":
                '{"e":[[0,1]],"l":[[1,1,1]],"r":[],"v":[[0,[]],[0,[]]]}', "legs": []},
                "value": "1/1"}]),
            id="table-two-vertex-key-without-its-leg",
        ),
        pytest.param(
            _table_probe([{"key": {**_KEY, "graph": {
                "vertices": [{"genus": 0}, {"genus": 1}], "edges": [[0, 1]],
                "legs": [{"label": 1, "e": 1, "vertex": 1}],
            }, "legs": [{"m": 0, "class": "pt"}] * 2}, "value": "1/1"}]),
            id="table-two-vertex-graph-object-key-with-an-extra-leg",
        ),
        pytest.param(
            lambda t: ("evaluate", str(DOCS / "sample_problem.json"),
                       str(DOCS / "sample_insertions.json"), str(t)),
            id="table-a-directory",
        ),
        pytest.param(
            lambda t: ("ledger", "--contacts", "2,3", "--twisting", str(t)),
            id="twisting-a-directory",
        ),
        pytest.param(
            lambda t: ("evaluate", str(DOCS / "sample_problem.json"),
                       str(DOCS / "sample_insertions.json"),
                       _write_bytes(t, "table.json", b"\xff\xfe[]")),
            id="table-not-utf-8",
        ),
    ],
)
def test_cli_malformed_twisting_or_table_file_exits_2(probe, tmp_path):
    proc = run_cli(*probe(tmp_path), expect=2)
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"]


def test_table_key_listed_twice():
    # an identical repeat is accepted; two values for one key name the key
    row = {"key": _KEY, "value": "1/1"}
    assert len(jsonio.table_from_obj([row, dict(row)])) == 1
    with pytest.raises(DegenkitError, match="two values") as err:
        jsonio.table_from_obj([row, {"key": _KEY, "value": "1/2"}])
    key = jsonio.key_to_dict(jsonio.key_from_dict(_KEY))
    assert json.dumps(key, sort_keys=True) in str(err.value)


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda key: key["legs"].pop(), id="one-of-two-legs-dropped"),
        pytest.param(lambda key: key["roots"].clear(), id="roots-emptied"),
        pytest.param(lambda key: key["legs"].append(dict(key["legs"][0])), id="leg-added"),
    ],
)
def test_cli_table_key_insertions_match_its_graph(mutate, p1_files, tmp_path, capsys):
    # a key whose insertion lists miss a leg or root of its graph, or name
    # one it lacks, is refused when the table is read, not left unused
    rows = json.loads(open(p1_files["table"]).read())
    key = next(row["key"] for row in rows if len(row["key"]["legs"]) == 2)
    mutate(key)
    table = _write(tmp_path, "table.json", rows)
    assert cli.main(["evaluate", p1_files["problem"], p1_files["insertions"], table]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith("table key lists") and key["graph"] in error


def _sample_docs() -> dict:
    """The sample problem and insertions, and a table giving each key they
    need the value 1."""
    problem = json.loads((DOCS / "sample_problem.json").read_text())
    insertions = json.loads((DOCS / "sample_insertions.json").read_text())
    parsed = jsonio.problem_from_dict(problem)
    keys = needed_keys(parsed, jsonio.insertions_from_list(parsed, insertions))
    table = [{"key": jsonio.key_to_dict(key), "value": "1/1"} for key in keys]
    return {"problem": problem, "insertions": insertions, "table": table}


def _commands(paths: dict) -> dict:
    """The commands that read each file, by the file's name."""
    p, i, t = paths["problem"], paths["insertions"], paths["table"]
    evaluate = [["evaluate", p, i, t], ["evaluate", p, i, t, "--terms"]]
    keys = [["keys", p, i]] + evaluate
    splittings = [["splittings", p], ["splittings", p, "--orbits"]]
    return {"problem": splittings + keys, "insertions": keys, "table": evaluate}


def test_cli_genus_of_a_million_stops_at_the_budget(tmp_path, capsys, monkeypatch):
    # the genus compositions are listed as the walks tick them, so the
    # budget stops a genus of 10**6 as early as a genus of 10
    docs = _sample_docs()
    docs["problem"]["genus"] = 10**6
    paths = {name: _write(tmp_path, name + ".json", doc) for name, doc in docs.items()}
    monkeypatch.setenv("DEGENKIT_BUDGET", "1000")
    for argv in _commands(paths)["problem"]:
        start = time.process_time()
        assert cli.main(argv) == 3, argv
        assert time.process_time() - start < 2, argv
        assert json.loads(capsys.readouterr().err)["error"] == "enumeration-budget-exceeded"


def test_keys_stop_at_the_budget_with_many_odd_legs():
    # 22 unpinned odd legs give a vertex 2^22 takes; they are listed as
    # the key walk ticks them, so the budget stops the walk
    problem = json.loads((DOCS / "sample_problem.json").read_text())
    problem["ambient"] = {
        "sectors": [{"id": "m", "band_order": 1, "involution_image": "m"}],
        "basis": [
            {"id": "p", "sector": "m", "parity": "odd"},
            {"id": "q", "sector": "m", "parity": "odd"},
        ],
        "pairing": [["0/1", "1/1"], ["-1/1", "0/1"]],
    }
    problem["legs"] = [{"label": i, "e": 1} for i in range(1, 23)]
    problem["budget"] = 1000
    parsed = jsonio.problem_from_dict(problem)
    insertions = jsonio.insertions_from_list(
        parsed, [{"label": i, "class": "p", "m": 0} for i in range(1, 23)]
    )
    start = time.process_time()
    with pytest.raises(EnumerationBudgetError):
        needed_keys(parsed, insertions)
    assert time.process_time() - start < 1


def test_cli_labeled_walk_stops_at_the_budget_with_24_roots(tmp_path, capsys, monkeypatch):
    # beta {a: 24, b: 24} with contact order 1 allows up to 24 roots; the
    # labeled walk of splittings and evaluate --terms lists the Bell(|M|)
    # partitions of the roots as it ticks each one and each pair of them,
    # so the budget stops it before it lists them all
    problem = json.loads((DOCS / "sample_problem.json").read_text())
    problem.update(beta={"a": 24, "b": 24}, c_max=1)
    p = _write(tmp_path, "problem.json", problem)
    i = str(DOCS / "sample_insertions.json")
    t = _write(tmp_path, "table.json", [])
    monkeypatch.setenv("DEGENKIT_BUDGET", "1000")
    for argv in (["splittings", p], ["evaluate", p, i, t, "--terms"]):
        start = time.process_time()
        assert cli.main(argv) == 3, argv
        assert time.process_time() - start < 1, argv
        assert json.loads(capsys.readouterr().err)["error"] == "enumeration-budget-exceeded"


def test_cli_basis_choices_stop_at_the_budget(tmp_path, capsys, monkeypatch):
    # two even divisor classes of band 1 and beta {a: 16, b: 16} over
    # degree-1 generators with contact order 1: the 16-root skeleton has
    # 2^16 basis choices, listed as keys and evaluate tick them, so the
    # budget stops both before they list them all
    problem = json.loads((DOCS / "sample_problem.json").read_text())
    problem.update(beta={"a": 16, "b": 16}, c_max=1, genus=0, legs=[])
    problem["monoid"] = {
        "generators": [
            {"id": "a", "component": "X1", "d_degree": "1/1"},
            {"id": "b", "component": "X2", "d_degree": "1/1"},
        ]
    }
    problem["divisor"] = {
        "sectors": [{"id": "u", "band_order": 1, "involution_image": "u"}],
        "basis": [{"id": c, "sector": "u", "parity": "even"} for c in ("u0", "u1")],
        "basis_involution": [{"id": c, "image": c, "sign": 1} for c in ("u0", "u1")],
        "pairing": [["1/1", "0/1"], ["0/1", "1/1"]],
    }
    p = _write(tmp_path, "problem.json", problem)
    i = _write(tmp_path, "insertions.json", [])
    t = _write(tmp_path, "table.json", [])
    monkeypatch.setenv("DEGENKIT_BUDGET", "1000")
    for argv in (["evaluate", p, i, t], ["keys", p, i]):
        start = time.process_time()
        assert cli.main(argv) == 3, argv
        assert time.process_time() - start < 1, argv
        assert json.loads(capsys.readouterr().err)["error"] == "enumeration-budget-exceeded"


def test_cli_too_many_roots_exit_2(tmp_path, capsys, monkeypatch):
    # beta {a: 2000, b: 2000} with contact order 1 allows 2,000 roots, past
    # splitting.MAX_ROOTS: every walk refuses it before it starts
    docs = _sample_docs()
    docs["problem"].update(beta={"a": 2000, "b": 2000}, c_max=1)
    paths = {name: _write(tmp_path, name + ".json", doc) for name, doc in docs.items()}
    commands = _commands(paths)["problem"]
    for budget in ("1000", None):
        if budget is None:
            monkeypatch.delenv("DEGENKIT_BUDGET", raising=False)
        else:
            monkeypatch.setenv("DEGENKIT_BUDGET", budget)
        # splittings last: without the bound it does not end
        for argv in commands[1:] + commands[:1]:
            assert cli.main(argv) == 2, argv
            assert "roots" in json.loads(capsys.readouterr().err)["error"], argv


_OTHER_TYPES = (None, True, 1.5, -1, "x", [], {})


def _spots(doc, path=()):
    """The path of every value in a JSON document, its own path () first."""
    yield path
    if isinstance(doc, (dict, list)):
        for step, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _spots(value, path + (step,))


def _mutated(rng: random.Random, doc):
    """A copy of ``doc`` with one value dropped, swapped for a value of
    another type, or wrapped in a list."""
    holder = [copy.deepcopy(doc)]
    path = (0,) + rng.choice(list(_spots(holder[0])))
    parent = holder
    for step in path[:-1]:
        parent = parent[step]
    value = parent[path[-1]]
    kind = rng.choice(("drop", "swap", "wrap") if len(path) > 1 else ("swap", "wrap"))
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "swap":
        parent[path[-1]] = rng.choice([x for x in _OTHER_TYPES if type(x) is not type(value)])
    else:
        parent[path[-1]] = [value]
    return holder[0]


# mutated catalogs warn that their pairing is not symmetric, as they should
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_cli_mutated_inputs_end_with_a_documented_exit_code(tmp_path, capsys, monkeypatch):
    # one mutation of one file at a time, through every command that reads
    # it: no traceback, and each failure is a JSON error with exit 2, 3 or 4
    monkeypatch.setenv("DEGENKIT_BUDGET", "20000")
    docs = _sample_docs()
    paths = {name: _write(tmp_path, name + ".json", doc) for name, doc in docs.items()}
    rng = random.Random(18)
    codes = {}
    for _ in range(600):
        name = rng.choice(sorted(docs))
        mutated = {**paths, name: _write(tmp_path, "mutated.json", _mutated(rng, docs[name]))}
        for argv in _commands(mutated)[name]:
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), argv
            assert code == 0 or json.loads(err)["error"], argv
            codes[code] = codes.get(code, 0) + 1
    assert codes.keys() >= {0, 2}, codes


def test_cli_grown_sample_problems_end_within_the_budget(tmp_path, capsys, monkeypatch):
    # the sample problem grown, draw by draw, up to beta {a: 40, b: 40},
    # genus 20, c_max 6 and 24 legs, half of them pinned to a random side.
    # Under a budget of 2,000 nodes every command ends within 1 s CPU, and
    # each failure is a JSON error with exit 2, 3 or 4
    monkeypatch.setenv("DEGENKIT_BUDGET", "2000")
    docs = _sample_docs()
    t = _write(tmp_path, "table.json", docs["table"])
    rng = random.Random(25)

    def size(draw: int, largest: int, least: int = 0) -> int:
        # draw d of 25 takes a size up to d/25 of the largest
        return rng.randint(least, max(least, largest * draw // 25))

    codes = {}
    for draw in range(1, 26):
        k, n = size(draw, 40, 1), size(draw, 24)
        problem = dict(
            docs["problem"],
            beta={"a": k, "b": k},
            genus=size(draw, 20),
            c_max=size(draw, 6, 1),
            legs=[{"label": lab, "e": 1} for lab in range(1, n + 1)],
        )
        for leg in rng.sample(problem["legs"], n // 2):
            leg["side"] = rng.choice(["X1", "X2"])
        insertions = [
            {"label": lab, "class": "pt", "m": rng.randint(0, 1)} for lab in range(1, n + 1)
        ]
        p = _write(tmp_path, "problem.json", problem)
        i = _write(tmp_path, "insertions.json", insertions)
        for argv in (
            ["splittings", p, "--orbits"],
            ["keys", p, i],
            ["evaluate", p, i, t],
            ["evaluate", p, i, t, "--terms"],
        ):
            start = time.process_time()
            code = cli.main(argv)
            assert time.process_time() - start < 1, argv
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), argv
            assert code == 0 or json.loads(err)["error"], argv
            codes[code] = codes.get(code, 0) + 1
    assert codes.keys() >= {0, 3, 4}, codes


_TWISTING_DOCS = (
    {"rule": "lcm"},
    {"rule": "multiple", "k": 3},
    {"rule": "table", "entries": [{"multiset": "1", "value": 2}, {"multiset": "1,2", "value": 4}]},
    "2*lcm",
)


def test_cli_mutated_twisting_files_end_with_a_documented_exit_code(tmp_path, capsys, monkeypatch):
    # one mutation of a twisting file at a time, read by evaluate --twisting
    # FILE: no traceback, and each failure is a JSON error with exit 2, 3 or 4
    monkeypatch.setenv("DEGENKIT_BUDGET", "20000")
    docs = _sample_docs()
    paths = {name: _write(tmp_path, name + ".json", doc) for name, doc in docs.items()}
    rng = random.Random(22)
    codes = {}
    for _ in range(200):
        twisting = _write(tmp_path, "twisting.json", _mutated(rng, rng.choice(_TWISTING_DOCS)))
        argv = ["evaluate", paths["problem"], paths["insertions"], paths["table"], "--twisting", twisting]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), argv
        assert code == 0 or json.loads(err)["error"], argv
        codes[code] = codes.get(code, 0) + 1
    assert codes.keys() >= {0, 2}, codes


def test_cli_bad_budget_variable_exits_2(monkeypatch):
    monkeypatch.setenv("DEGENKIT_BUDGET", "abc")
    proc = run_cli("splittings", str(DOCS / "sample_problem.json"), expect=2)
    assert "Traceback" not in proc.stderr
    assert "DEGENKIT_BUDGET" in json.loads(proc.stderr)["error"]


def _budget_refused(capsys, argv) -> str:
    """The error text of ``argv``, which must exit 2 with no traceback."""
    assert cli.main(argv) == 2
    return json.loads(capsys.readouterr().err)["error"]


def test_cli_negative_budget_option_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("DEGENKIT_BUDGET", raising=False)
    sample = str(DOCS / "sample_problem.json")
    assert "budget" in _budget_refused(capsys, ["splittings", sample, "--budget", "-1"])
    # a budget of 0 is valid: the first node exceeds it
    assert cli.main(["splittings", sample, "--budget", "0"]) == 3
    assert json.loads(capsys.readouterr().err)["visited"] == 1


def test_cli_negative_budget_in_the_problem_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DEGENKIT_BUDGET", raising=False)
    problem = json.loads((DOCS / "sample_problem.json").read_text())
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**problem, "budget": -1}))
    assert "budget" in _budget_refused(capsys, ["splittings", str(path)])
    assert "budget" in _budget_refused(
        capsys, ["keys", str(path), str(DOCS / "sample_insertions.json")]
    )


def test_cli_negative_budget_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("DEGENKIT_BUDGET", "-1")
    sample = str(DOCS / "sample_problem.json")
    assert "DEGENKIT_BUDGET" in _budget_refused(capsys, ["splittings", sample])
    monkeypatch.setenv("DEGENKIT_BUDGET", "0")
    assert cli.main(["splittings", sample]) == 3
    assert json.loads(capsys.readouterr().err)["visited"] == 1


@pytest.mark.parametrize("labels", [(3, 4), (1, 4), (5, 6)])
def test_cli_leg_labels_among_the_root_labels_exit_2(labels, tmp_path, capsys):
    # P1 degree 2, genus 0 gives roots the labels 3 and 4: legs labeled 3
    # and 4, or 1 and 4, are refused by every command that walks the
    # structures, exit 2, and legs labeled 5 and 6 are taken
    problem, insertions = p1_problem(2, 0)
    table = build_p1_table(2, 0, max_legs=2)
    legs = tuple(dataclasses.replace(l, label=lab) for l, lab in zip(problem.legs, labels))
    p, i, t = _terms_files(tmp_path, dataclasses.replace(problem, legs=legs), insertions, table)
    commands = [
        ["evaluate", p, i, t],
        ["evaluate", p, i, t, "--terms"],
        ["keys", p, i],
        ["splittings", p],
        ["splittings", p, "--orbits"],
    ]
    clash = 3 in labels or 4 in labels
    for argv in commands:
        capsys.readouterr()
        code = cli.main(argv)
        captured = capsys.readouterr()
        if clash:
            assert code == 2, argv
            error = json.loads(captured.err)["error"]
            assert error == "leg/root labels must be unique across the graph", argv
        else:
            assert code == 0 and captured.out, argv


def test_cli_budget_exit_code(p1_files):
    proc = run_cli(
        "splittings", p1_files["problem"], "--budget", "2", expect=3
    )
    payload = json.loads(proc.stderr)
    assert payload["error"] == "enumeration-budget-exceeded"


def test_cli_keys_and_evaluate_stop_at_the_budget(p1_files, tmp_path):
    # the structures fit the budget; the leg placements exceed it
    problem = jsonio.problem_from_dict(json.loads(open(p1_files["problem"]).read()))
    structures = _Budget(None)
    for _ in iter_structures(problem, structures):
        pass
    limited = tmp_path / "limited.json"
    limited.write_text(
        jsonio.dumps({**jsonio.problem_to_dict(problem), "budget": structures.visited})
    )
    for args in (
        ("keys", str(limited), p1_files["insertions"]),
        ("evaluate", str(limited), p1_files["insertions"], p1_files["table"]),
        ("evaluate", str(limited), p1_files["insertions"], p1_files["table"], "--terms"),
    ):
        proc = run_cli(*args, expect=3)
        assert json.loads(proc.stderr)["error"] == "enumeration-budget-exceeded"


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


_LEDGER_2_3 = """{
  "factors": [
    {
      "factor": "3/1",
      "note": "choices of twisted splitting divisor, divided by root relabelings",
      "stage": "split-target"
    },
    {
      "factor": "1/6",
      "note": "gluing gerbe of the two halves of the twisted target",
      "stage": "glue-target"
    },
    {
      "factor": "6/1",
      "note": "evaluation gerbes over the divisor inertia, one band order per root",
      "stage": "diagonal-gysin"
    }
  ],
  "net": "3/1"
}
"""


def test_cli_ledger():
    proc = run_cli("ledger", "--contacts", "2,3")
    assert proc.stdout == _LEDGER_2_3


def test_cli_oracle_check():
    # both values are written as p/q, as every rational output is
    for degree, value in ((2, "1/2"), (3, "4/1")):
        proc = run_cli("oracle", "check", "--degree", str(degree), "--genus", "0")
        payload = json.loads(proc.stdout)
        assert payload["equal"] is True
        assert payload["engine_value"] == payload["oracle_value"] == value


def test_cli_oracle_count_profiles():
    proc = run_cli(
        "oracle", "count", "--degree", "3", "--genus", "0", "--profiles", "3|3"
    )
    payload = json.loads(proc.stdout)
    assert payload["count"] == "1/3"


@pytest.mark.parametrize(
    "bounds",
    [
        ("--d-max", "2", "--g-max", "0", "--max-legs", "-1"),
        ("--d-max", "0", "--g-max", "1"),
        ("--d-max", "2", "--g-max", "-1"),
    ],
)
def test_cli_oracle_empty_table_rejected(bounds):
    proc = run_cli("oracle", "table", *bounds, expect=2)
    assert proc.stdout == ""
    assert "empty P1 table" in json.loads(proc.stderr)["error"]


@pytest.mark.parametrize(
    "bounds,digest",
    [
        (
            ("--d-max", "3", "--g-max", "1"),
            "485ee6e8d168d0c0a06f54333cd1ba50a82a01b980bbe7e4996169c491a2f42b",
        ),
        (
            ("--d-max", "2", "--g-max", "0", "--max-legs", "0"),
            "dcd8d01da7d7ebf94b09caa322bb5f10b08698d4b2847fc0b3bd82b28d73a9fd",
        ),
    ],
)
def test_cli_oracle_table_bytes(bounds, digest):
    # the bytes of a table storing every key: the lazy table lists the same
    proc = run_cli("oracle", "table", *bounds)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_cli_check_unknown_suite():
    run_cli("check", "nonsense", expect=2)


def test_cli_check_lets_a_suite_key_error_through(monkeypatch):
    # only an unknown suite name exits 2; a KeyError inside a suite is a fault
    def suite():
        raise KeyError("inside the suite")

    monkeypatch.setitem(cli.SUITES, "faulty", suite)
    with pytest.raises(KeyError, match="inside the suite"):
        cli.main(["check", "faulty"])


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
    assert m1["command"] == "degenkit evaluate %s %s %s --manifest %s" % (
        p1_files["problem"], p1_files["insertions"], p1_files["table"], man1
    )


def test_cli_manifest_records_the_argv_given_to_main(p1_files, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    argv = ["splittings", p1_files["problem"], "--orbits", "--manifest", str(manifest)]
    assert cli.main(argv) == 0
    assert json.loads(manifest.read_text())["command"] == "degenkit " + " ".join(argv)


def test_cli_manifest_in_a_missing_directory_exits_2(p1_files, tmp_path, capsys):
    # the result is already written when the manifest cannot be
    manifest = tmp_path / "missing" / "m.json"
    assert cli.main(["splittings", p1_files["problem"], "--manifest", str(manifest)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)
    assert "cannot write manifest" in json.loads(captured.err)["error"]


# SHA-256 of stdout for the P1 file sets (degree, genus, legs on X2) and the
# sample problem, recorded before the direct JSON writer, the stored
# canonical pairs and the one-vertex table-key path went in; the same
# sample digest is checked on the installed script in CI
PINNED_STDOUT = {
    (2, 2, 1): {
        "splittings": "9babd494fd8c05f2d8a9a1fc6b246a80cd1cad19f140b906349cd74fee653cb9",
        "keys": "c8a480854de4a83502a894bfd312e08ca4a41e813319b1d001be28199964b006",
        "terms": "16bf78f3acc1f29e1bc5fa59d6465bda78d4619a4b7e24653f597fe4cc583388",
        "chen_ruan": "8222f7fe9e894b36b4ebc71e0f304732a843534261443ccce233e1fbcc666235",
    },
    (3, 0, 0): {
        "splittings": "0ad18d7713e164e4a158bf82446322e62452a2d7312631b1ad3056a79c3b8dfb",
        "keys": "800e40b30b5402a8f518407fb2994f37a4fd6cb1e2fe82e2e075e09abfd00414",
        "terms": "f72869800bd2a51b6eeb18e4fd2276bc4a8b579ab0db339229bfbc81fe51d9d7",
        "chen_ruan": "c47acc00002479fdc011f72bfc50d0443fb0052389eff3ee623fea3aaf033f53",
    },
}
PINNED_SAMPLE_SPLITTINGS = "6fc41f00fd20f751b41474efe75092b5e025706e8ac3f6998bf355ac5b4cb2d3"
# `splittings --orbits` of P1 (degree, genus, legs on X2) = (3, 0, 2): 131
# rows with legs on both sides, recorded before twins were keyed from vertex
# keys; also checked on the installed script in CI
PINNED_P1_SPLITTINGS = "de92a9e5c04eb778681134a368bd941382082f7aa759137cfea12ceccb833cba"


def _stdout(capsys, argv) -> str:
    capsys.readouterr()
    assert cli.main(argv) == 0, argv
    return capsys.readouterr().out


def _stdout_digest(capsys, argv) -> str:
    return hashlib.sha256(_stdout(capsys, argv).encode()).hexdigest()


@pytest.mark.parametrize("cell", sorted(PINNED_STDOUT))
def test_cli_stdout_digests_are_pinned(cell, tmp_path, capsys):
    d, g, k = cell
    problem, insertions = p1_problem(d, g, second_side_legs=k)
    table = build_p1_table(d, g, max_legs=len(insertions))
    paths = []
    for part, payload in (
        ("problem", jsonio.problem_to_dict(problem)),
        ("insertions", jsonio.insertions_to_list(problem, insertions)),
        ("table", jsonio.table_to_obj(table)),
    ):
        path = tmp_path / ("%s.json" % part)
        path.write_text(jsonio.dumps(payload))
        paths.append(str(path))
    p, i, t = paths
    commands = {
        "splittings": ["splittings", p, "--orbits"],
        "keys": ["keys", p, i],
        "terms": ["evaluate", p, i, t, "--terms"],
        "chen_ruan": ["evaluate", p, i, t, "--convention", "chen_ruan"],
    }
    digests = {name: _stdout_digest(capsys, argv) for name, argv in commands.items()}
    assert digests == PINNED_STDOUT[cell]


def test_cli_sample_splittings_digest_is_pinned(capsys):
    argv = ["splittings", str(DOCS / "sample_problem.json"), "--orbits"]
    assert _stdout_digest(capsys, argv) == PINNED_SAMPLE_SPLITTINGS


def test_cli_p1_splittings_digest_is_pinned(tmp_path, capsys):
    problem, _ = p1_problem(3, 0, second_side_legs=2)
    path = _write(tmp_path, "problem.json", jsonio.problem_to_dict(problem))
    assert _stdout_digest(capsys, ["splittings", path, "--orbits"]) == PINNED_P1_SPLITTINGS


def _terms_files(tmp_path, problem, insertions, table) -> list[str]:
    return [
        _write_text(tmp_path, name + ".json", jsonio.dumps(payload))
        for name, payload in (
            ("problem", jsonio.problem_to_dict(problem)),
            ("insertions", jsonio.insertions_to_list(problem, insertions)),
            ("table", jsonio.table_to_obj(table)),
        )
    ]


def _p1_terms_files(tmp_path) -> list[str]:
    problem, insertions = p1_problem(3, 0, second_side_legs=2)
    table = build_p1_table(3, 0, max_legs=len(insertions))
    return _terms_files(tmp_path, problem, insertions, table)


def _sample_terms_files(tmp_path) -> list[str]:
    docs = _sample_docs()
    problem = jsonio.problem_from_dict(docs["problem"])
    insertions = jsonio.insertions_from_list(problem, docs["insertions"])
    keys = needed_keys(problem, insertions)
    table = covariant_random_table(keys, problem.divisor, problem.ambient, random.Random(22))
    return _terms_files(tmp_path, problem, insertions, table)


# SHA-256 of `evaluate --terms` stdout, recorded before each structure kept
# its sides and graphs were written straight from their fields: P1 (degree,
# genus, legs on X2) = (3, 0, 2), whose terms put legs on both sides (also
# checked on the installed script in CI), and the sample problem with a
# seeded covariant random table
PINNED_TERMS = {
    "p1_d3g0k2": (
        _p1_terms_files,
        "4a9d987babe7540c9d44fb9d208a6dde16bc832cc2156db69ff574db88ccfd07",
    ),
    "sample": (
        _sample_terms_files,
        "88c88af172e0ff929b48557341013987961015d2a2787f0a5b6d1296d6a3b47d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TERMS))
def test_cli_terms_digests_are_pinned(name, tmp_path, capsys):
    files, digest = PINNED_TERMS[name]
    argv = ["evaluate", *files(tmp_path), "--terms"]
    assert _stdout_digest(capsys, argv) == digest


def _mixed_sides_files(tmp_path) -> list[str]:
    """P1 (3, 0, 2) with leg 1's side constraint removed: its legs are free,
    on X1, on X2 and on X2, so both walks meet all three constraints."""
    problem, insertions = p1_problem(3, 0, second_side_legs=2)
    legs = (dataclasses.replace(problem.legs[0], side=None),) + problem.legs[1:]
    table = build_p1_table(3, 0, max_legs=len(insertions))
    return _terms_files(tmp_path, dataclasses.replace(problem, legs=legs), insertions, table)


# SHA-256 of `splittings --orbits` (278 rows) and `evaluate --terms` stdout
# for _mixed_sides_files, recorded before the kernel and enumerate_splittings
# read one leg-placement rule (splitting.leg_slots); also checked on the
# installed script in CI
PINNED_MIXED_SIDES = {
    "splittings": "f499b3973673bb69b038f9c1eecca2911bc8a4216d689847e4bf521c03365367",
    "terms": "83ba41f280f5ca0143584cacae939b06c86052be2093222cd9ca3fc729a574a5",
}


def test_cli_mixed_side_constraints_digests_are_pinned(tmp_path, capsys):
    p, i, t = _mixed_sides_files(tmp_path)
    rows = _stdout(capsys, ["splittings", p, "--orbits"])
    assert len(json.loads(rows)) == 278
    digests = {
        "splittings": hashlib.sha256(rows.encode()).hexdigest(),
        "terms": _stdout_digest(capsys, ["evaluate", p, i, t, "--terms"]),
    }
    assert digests == PINNED_MIXED_SIDES


def test_cli_rows_match_the_dict_path(tmp_path, capsys, monkeypatch):
    # splittings --orbits and evaluate --terms write their graphs straight
    # from the graph objects; the bytes are those of the dict path, each
    # graph as its graph_to_dict form through the writer test_jsonio checks
    # against json.dumps
    emitted = []
    dumps = jsonio.dumps
    monkeypatch.setattr(jsonio, "dumps", lambda obj: emitted.append(obj) or dumps(obj))
    rng = random.Random(22)
    rows = 0
    for _ in range(40):
        problem, insertions = random_problem(rng, max_legs=2)
        table = covariant_random_table(
            needed_keys(problem, insertions), problem.divisor, problem.ambient, rng
        )
        p, i, t = _terms_files(tmp_path, problem, insertions, table)
        for argv in (["splittings", p, "--orbits"], ["evaluate", p, i, t, "--terms"]):
            emitted.clear()
            out = _stdout(capsys, argv)
            (obj,) = emitted
            assert out == dumps(graphs_as_dicts(obj)), argv
            rows += len(obj) if argv[0] == "splittings" else len(obj["terms"])
    assert rows > 1000


def test_cli_main_reuses_one_parser_across_calls(capsys, monkeypatch):
    # several subcommands in one process, one of them rejected by argparse
    # (exit 2), all through the parser main built once; each gives the stdout
    # and exit code of a fresh process
    problem = str(DOCS / "sample_problem.json")
    insertions = str(DOCS / "sample_insertions.json")
    calls = [
        (["splittings", problem, "--orbits"], 0),
        (["evaluate", problem, insertions, "table.json", "--convention", "bogus"], 2),
        (["ledger", "--contacts", "2,3"], 0),
        (["keys", problem, insertions], 0),
        (["ledger", "--contacts", "2,a"], 2),
        (["lift", "--contact", "2", "--target-index", "6", "--source-index", "3"], 0),
        (["oracle", "count", "--degree", "3", "--genus", "0", "--profiles", "3|3"], 0),
    ]
    cli._parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    for argv, code in calls:
        capsys.readouterr()
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = exc.code
        out = capsys.readouterr().out
        assert (out, got) == (run_cli(*argv, expect=code).stdout, code), argv
