"""Manifest execution, report files, exit codes, and the console front end."""

import copy
import dataclasses
import inspect
import json
import math
import platform
import shutil
import subprocess
from pathlib import Path

import pytest

import lcskit.cli as cli
import lcskit.cohomology as coh
import lcskit.embed as embed
import lcskit.models as models
import lcskit.reduction as reduction
import lcskit.report as report


def write_manifest(tmp_path, payload, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


PLANE_CHART = {
    "coordinates": [
        {"name": "a", "lower": -1.0, "upper": 1.0},
        {"name": "b", "lower": -1.0, "upper": 1.0},
    ],
    "alpha": {"b": "1"},
    "lee": {"a": "2/2"},
    "phi": "twisted",
    "b_field": {"a": "1"},
    "anti_lee": {"b": "-1"},
}


def plane_manifest(lee="2/2"):
    chart = {**PLANE_CHART, "lee": {"a": lee}}
    return {
        "seed": 0,
        "structures": {"plane": {"chart": chart}},
        "tasks": [{"kind": "verify", "structure": "plane", "tol": 1e-9}],
    }


# ---------------------------------------------------------------------------
# manifest parsing


def test_missing_seed_is_an_input_error(tmp_path, capsys):
    path = write_manifest(tmp_path, {"tasks": []})
    assert cli.main(["run", path, "-q", "-o", str(tmp_path / "r.json")]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("key, nearest", [("sample", "samples"), ("task", "tasks"), ("Seed", "seed")])
def test_unknown_manifest_key_is_refused_before_any_task_runs(tmp_path, capsys, monkeypatch, key, nearest):
    ran = []
    monkeypatch.setitem(report._TASK_RUNNERS, "verify", lambda *args: ran.append(args) or [])
    payload = {**plane_manifest(), key: 1}
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unknown manifest key {key!r}" in err and f"did you mean {nearest!r}" in err
    assert ran == [] and not out.exists()


@pytest.mark.parametrize(
    "tasks", [plane_manifest()["tasks"], [{"kind": "cohomology", "n": 2, "m": 4}]], ids=["verify", "cohomology"]
)
@pytest.mark.parametrize("seed", [-3, 1.5, "7", True])
def test_manifest_seed_must_be_a_non_negative_integer(tmp_path, capsys, monkeypatch, tasks, seed):
    # a negative seed used to fail a sampling task as a red record, and pass a cohomology one
    ran = []
    for kind in ("verify", "cohomology"):
        monkeypatch.setitem(report._TASK_RUNNERS, kind, lambda *args: ran.append(args) or [])
    payload = {**plane_manifest(), "seed": seed, "tasks": tasks}
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 2
    assert f"seed must be an integer at least 0, got {seed!r}" in capsys.readouterr().err
    assert ran == [] and not out.exists()


def test_seed_override_must_be_a_non_negative_integer(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(report._TASK_RUNNERS, "verify", lambda *args: ran.append(args) or [])
    out = tmp_path / "r.json"
    path = write_manifest(tmp_path, plane_manifest())
    assert cli.main(["run", path, "-q", "-o", str(out), "--seed", "-3"]) == 2
    assert "--seed must be an integer at least 0, got -3" in capsys.readouterr().err
    assert ran == [] and not out.exists()


def test_huge_seeds_sample_as_numpy_does(tmp_path):
    path = write_manifest(tmp_path, {**plane_manifest(), "seed": 2**70})
    out = tmp_path / "r.json"
    assert cli.main(["run", path, "-q", "-o", str(out), "--samples", "20"]) == 0
    assert cli.main(["run", path, "-q", "-o", str(out), "--samples", "20", "--seed", str(2**70 + 3)]) == 0
    assert report.load_report(str(out)).seed == 2**70 + 3


@pytest.mark.parametrize(
    "task, key, nearest",
    [
        ({"kind": "verify", "structure": "plane", "tolerance": 1e-30}, "tolerance", "tol"),
        ({"kind": "cohomology", "n": 2, "m": 4, "expected_betti": [9, 9, 9]}, "expected_betti", "expect_betti"),
        ({"kind": "embed", "corpus": "circle", "pair": 3}, "pair", "pairs"),
        ({"kind": "reduce-chain", "input": "plane", "flow_sample": 3}, "flow_sample", "flow_samples"),
    ],
    ids=["verify", "cohomology", "embed", "reduce-chain"],
)
def test_unknown_task_keys_are_refused_before_any_task_runs(tmp_path, capsys, monkeypatch, task, key, nearest):
    # each of these used to be ignored: the task ran at its default and passed
    ran = []
    for kind in report._TASK_RUNNERS:
        monkeypatch.setitem(report._TASK_RUNNERS, kind, lambda *args: ran.append(args) or [])
    payload = {**plane_manifest(), "tasks": [task]}
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    allowed = ", ".join(report._TASK_KEYS[task["kind"]])
    assert f"task 0: unknown {task['kind']} task key {key!r} (expected {allowed}); did you mean {nearest!r}?" in err
    assert ran == [] and not out.exists()


def test_every_task_kind_declares_its_keys():
    assert set(report._TASK_KEYS) == set(report._TASK_RUNNERS)


def test_json_errors_carry_line_numbers(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "seed": 0,,\n}\n')
    assert cli.main(["run", str(path), "-q"]) == 2
    assert ":2:" in capsys.readouterr().err


def test_unknown_task_kind_rejected(tmp_path, capsys):
    path = write_manifest(tmp_path, {"seed": 0, "tasks": [{"kind": "frobnicate"}]})
    assert cli.main(["run", path, "-q"]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_unresolved_structure_name(tmp_path, capsys):
    path = write_manifest(
        tmp_path, {"seed": 0, "tasks": [{"kind": "verify", "structure": "ghost"}]}
    )
    assert cli.main(["run", path, "-q"]) == 2
    assert "ghost" in capsys.readouterr().err


def test_unknown_corpus_entry(tmp_path, capsys):
    path = write_manifest(tmp_path, {"seed": 0, "tasks": [{"kind": "embed", "corpus": "moon"}]})
    assert cli.main(["run", path, "-q"]) == 2
    assert "moon" in capsys.readouterr().err


def test_unknown_catalog_entry(tmp_path, capsys):
    path = write_manifest(
        tmp_path,
        {
            "seed": 0,
            "structures": {"x": {"catalog": "nonexistent"}},
            "tasks": [{"kind": "verify", "structure": "x"}],
        },
    )
    assert cli.main(["run", path, "-q"]) == 2
    assert "nonexistent" in capsys.readouterr().err


@pytest.mark.parametrize(
    "structure, message",
    [
        ({"catalog": "sphere_circle", "args": {"N": 2, "Q": 5.0}},
         "structure 'model': unknown sphere_circle argument 'Q' (expected N, q); did you mean 'q'?"),
        ({"catalog": "reduction_universal", "args": {"k": 1, "N": 2, "mu": [1.0], "nu": 3}},
         "structure 'model': unknown reduction_universal argument 'nu' (expected k, N, mu); did you mean 'N'?"),
        ({"catalog": "sphere-circle", "args": {"N": 2}},
         "structure 'model' catalog must be one of sphere_circle, reduction_universal, got 'sphere-circle'"),
        ({"catalog": "reduction_universal", "args": {"k": 1, "mu": [1.0]}},
         "structure 'model': missing reduction_universal argument 'N'"),
        # no task could use it: verify, embed and reduce-chain each failed on it at run time
        ({"catalog": "liouville", "args": {"n": 1}},
         "structure 'model' catalog must be one of sphere_circle, reduction_universal, got 'liouville'"),
    ],
    ids=["misspelled-q", "unknown-nu", "unknown-entry", "missing-N", "retired-liouville"],
)
def test_catalog_arguments_are_checked_before_any_task_runs(tmp_path, capsys, monkeypatch, structure, message):
    # a misspelled argument used to be ignored: sphere_circle ran green with q = 1
    ran = []
    monkeypatch.setitem(report._TASK_RUNNERS, "verify", lambda *args: ran.append(args) or [])
    payload = {"seed": 0, "structures": {"model": structure}, "tasks": [{"kind": "verify", "structure": "model"}]}
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert ran == [] and not out.exists()


def test_expression_parse_error_is_input_error(tmp_path, capsys):
    payload = plane_manifest(lee="1 +* 2")
    path = write_manifest(tmp_path, payload)
    assert cli.main(["run", path, "-q"]) == 2
    err = capsys.readouterr().err
    assert "lee[a]" in err


@pytest.mark.parametrize("value", [0, True])
def test_manifest_samples_must_be_a_positive_integer(tmp_path, capsys, value):
    path = write_manifest(tmp_path, {"seed": 0, "samples": value, "tasks": []})
    assert cli.main(["run", path, "-q", "-o", str(tmp_path / "r.json")]) == 2
    assert "samples must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("reduce-chain", "concat_samples", 0),
        ("reduce-chain", "verify_samples", 0),
        ("reduce-chain", "flow_samples", -3),
        ("reduce-chain", "samples", "40"),
        ("verify", "samples", 0),
        ("embed", "samples", "40"),
    ],
)
def test_task_sample_counts_must_be_positive_integers(tmp_path, capsys, kind, key, value):
    payload = plane_manifest()
    payload["structures"]["sphere2"] = {"catalog": "sphere_circle", "args": {"N": 2, "q": 1.0}}
    target = {"reduce-chain": {"input": "plane"}, "verify": {"structure": "plane"}, "embed": {"structure": "sphere2"}}
    payload["tasks"] = [{"kind": kind, **target[kind], key: value}]
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 2
    assert f"{kind} task {key} must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_samples_override_must_be_a_positive_integer(tmp_path, capsys):
    path = write_manifest(tmp_path, plane_manifest())
    assert cli.main(["run", path, "-q", "--samples", "0", "-o", str(tmp_path / "r.json")]) == 2
    assert "--samples must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("verify", "tol", "1e-9"),
        ("verify", "tol", 0.0),
        ("embed", "tol", True),
        ("reduce-chain", "tol", -1e-8),
        ("reduce-chain", "flow_tol", float("nan")),
        ("reduce-chain", "concat_tol", float("inf")),
        ("cohomology", "threshold", -1.0),
        ("cohomology", "threshold", "0.1"),
    ],
)
def test_task_tolerances_must_be_positive_finite_numbers(tmp_path, capsys, kind, key, value):
    # a threshold <= 0 used to make the obstruction record vacuously green
    payload = plane_manifest()
    payload["structures"]["sphere2"] = {"catalog": "sphere_circle", "args": {"N": 2, "q": 1.0}}
    target = {
        "reduce-chain": {"input": "plane"},
        "verify": {"structure": "plane"},
        "embed": {"structure": "sphere2"},
        "cohomology": {"n": 2, "m": 4, "obstruction": True},
    }
    payload["tasks"] = [{"kind": kind, **target[kind], key: value}]
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 2
    assert f"{kind} task {key} must be a positive finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n": 2.7}, "cohomology task n must be an integer at least 1, got 2.7"),
        ({"n": True}, "cohomology task n must be an integer at least 1, got True"),
        ({"n": 0}, "cohomology task n must be an integer at least 1, got 0"),
        ({"n": 1, "obstruction": True}, "cohomology task n must be an integer at least 2, got 1"),
        ({"m": "4"}, "cohomology task m must be an integer at least 2, got '4'"),
        ({"m": 1}, "cohomology task m must be an integer at least 2, got 1"),
        ({"m": 4.0}, "cohomology task m must be an integer at least 2, got 4.0"),
        ({"cuts": [0.9, 1.5]}, "cohomology task cuts must be an integer in [0, 4), got 0.9"),
        ({"cuts": [0, 4]}, "cohomology task cuts must be an integer in [0, 4), got 4"),
        ({"cuts": [0, -1]}, "cohomology task cuts must be an integer in [0, 4), got -1"),
        ({"cuts": [0, False]}, "cohomology task cuts must be an integer in [0, 4), got False"),
        ({"cuts": [0]}, "cohomology task cuts must be a list of 2 grid positions, got [0]"),
        ({"cuts": "0,1"}, "cohomology task cuts must be a list of 2 grid positions, got '0,1'"),
    ],
)
def test_cohomology_sizes_and_cuts_must_be_integers_in_range(tmp_path, capsys, fields, message):
    # int() used to truncate 2.7 to T2 and (0.9, 1.5) to cuts (0, 1), and run True as T1
    task = {"kind": "cohomology", "n": 2, "m": 4, **fields}
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, {"seed": 0, "tasks": [task]}), "-q", "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("window", 0, "window must be a positive finite number"),
        ("window", -1.0, "window must be a positive finite number"),
        ("window", float("inf"), "window must be a positive finite number"),
        ("window", "0.25", "window must be a positive finite number"),
        ("margin", -5.0, "margin must be a finite number in [0, 1)"),
        ("margin", 1.0, "margin must be a finite number in [0, 1)"),
        ("margin", float("nan"), "margin must be a finite number in [0, 1)"),
        ("margin", "x", "margin must be a finite number in [0, 1)"),
        ("margin", True, "margin must be a finite number in [0, 1)"),
    ],
)
def test_chain_window_and_margin_are_checked(tmp_path, capsys, key, value, message):
    # margin -5.0 used to spread the samples over six times the chart box and
    # still write green records; window 0 ended as an opaque FormError record
    payload = {"seed": 0, "tasks": [{"kind": "reduce-chain", "input": "plane", key: value}]}
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 2
    assert f"reduce-chain task {message}, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "task, structure, message",
    [
        # each of these used to be coerced: the Betti expectation truncated
        # to the answer, mu ran True as 1, rho parsed "1.5", pairs 2.7 ended
        # as a TargetTooSmallError record, chart_index True ran chart 1, and
        # the catalog ran int()/float() of its arguments
        ({"kind": "cohomology", "n": 2, "m": 4, "expect_betti": [1.9, 2.5, "1"]}, None,
         "cohomology task expect_betti must be an integer at least 0, got 1.9"),
        ({"kind": "cohomology", "n": 2, "m": 4, "mu": [True, 0.0]}, None,
         "cohomology task mu must be a finite number, got True"),
        ({"kind": "embed", "corpus": "circle", "rho": "1.5"}, None,
         "embed task rho must be a finite number above 1, got '1.5'"),
        ({"kind": "embed", "structure": "model", "pairs": 2.7}, {"catalog": "sphere_circle", "args": {"N": 2}},
         "embed task pairs must be an integer at least 1, got 2.7"),
        ({"kind": "reduce-chain", "structure": "model", "chart_index": True},
         {"catalog": "sphere_circle", "args": {"N": 2}},
         "reduce-chain task chart_index must be an integer at least 0, got True"),
        ({"kind": "verify", "structure": "model"},
         {"catalog": "reduction_universal", "args": {"k": 1, "N": 1.5, "mu": [1.0]}},
         "structure 'model' argument N must be an integer at least 0, got 1.5"),
        ({"kind": "verify", "structure": "model"}, {"catalog": "sphere_circle", "args": {"N": "2"}},
         "structure 'model' argument N must be an integer at least 2, got '2'"),
        ({"kind": "verify", "structure": "model"}, {"catalog": "sphere_circle", "args": {"N": 2, "q": "1.0"}},
         "structure 'model' argument q must be a finite number, got '1.0'"),
        ({"kind": "verify", "structure": "model"},
         {"catalog": "reduction_universal", "args": {"k": True, "N": 2, "mu": [1.0]}},
         "structure 'model' argument k must be an integer at least 0, got True"),
        ({"kind": "verify", "structure": "model"},
         {"catalog": "reduction_universal", "args": {"k": 1, "N": 2, "mu": ["1"]}},
         "structure 'model' argument mu must be a finite number, got '1'"),
    ],
    ids=["expect_betti", "mu", "rho", "pairs", "chart_index", "n", "N", "q", "k", "catalog-mu"],
)
def test_manifest_numbers_are_refused_not_coerced(tmp_path, capsys, task, structure, message):
    payload = {"seed": 0, "samples": 10, "tasks": [task]}
    if structure is not None:
        payload["structures"] = {"model": structure}
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rho", [1.0, 0.5])
def test_embed_rho_at_most_one_is_refused_at_load(tmp_path, capsys, rho):
    # it used to load and then write a failing record with RadiusError
    payload = {"seed": 0, "tasks": [{"kind": "embed", "corpus": "circle", "rho": rho}]}
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 2
    assert f"embed task rho must be a finite number above 1, got {rho!r}" in capsys.readouterr().err
    assert not out.exists()


def test_sphere_chain_builds_only_the_chart_it_reduces(tmp_path, monkeypatch):
    build, built = models._sphere_circle_chart, []

    def counted(label, *args):
        built.append(label)
        return build(label, *args)

    monkeypatch.setattr(models, "_sphere_circle_chart", counted)
    payload = {
        "seed": 0,
        "structures": {"sphere3": {"catalog": "sphere_circle", "args": {"N": 2}}},
        "tasks": [{"kind": "reduce-chain", "structure": "sphere3", "chart_index": 5, "samples": 60,
                   "verify_samples": 30, "flow_samples": 12, "concat_samples": 6}],
    }
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 0
    assert built == ["x2_minus"]


def test_chart_index_past_the_last_chart_exits_2(tmp_path, capsys):
    payload = {
        "seed": 0,
        "structures": {"sphere3": {"catalog": "sphere_circle", "args": {"N": 2}}},
        "tasks": [{"kind": "reduce-chain", "structure": "sphere3", "chart_index": 8}],
    }
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 2
    assert "reduce-chain task chart_index must be an integer in [0, 8), got 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1e-9", "nan", "inf"])
def test_tol_override_must_be_a_positive_finite_number(tmp_path, capsys, value):
    path = write_manifest(tmp_path, plane_manifest())
    assert cli.main(["run", path, "-q", f"--tol={value}", "-o", str(tmp_path / "r.json")]) == 2
    assert "--tol must be a positive finite number" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the manifest schema: every declared key checked before any task runs

# A manifest that gives every declared key a valid value, on one structure or
# task per schema table.
SCHEMA_BASE = {
    "seed": 0,
    "samples": 10,
    "structures": {
        "sphere": {"catalog": "sphere_circle", "args": {"N": 2, "q": 1.0}},
        "universal": {"catalog": "reduction_universal", "args": {"k": 1, "N": 1, "mu": [1.0]}},
        "plane": {"chart": {
            "coordinates": [{"name": "a", "kind": "linear", "lower": -1.0, "upper": 1.0}, {"name": "b"}],
            "alpha": {"b": "1"}, "lee": {"a": "1"}, "phi": {"a^b": "-1"},
            "b_field": {"a": "1"}, "anti_lee": {"b": "-1"},
        }},
    },
    "tasks": [
        {"kind": "verify", "structure": "plane", "samples": 10, "tol": 1e-9},
        {"kind": "embed", "corpus": "circle", "samples": 10, "tol": 1e-9, "rho": 1.2, "pairs": 3,
         "literal_defect": True},
        {"kind": "embed", "structure": "sphere"},
        {"kind": "reduce-chain", "input": "sphere_circle", "structure": "sphere", "chart_index": 0, "samples": 10,
         "tol": 1e-8, "flow_tol": 1e-6, "window": 0.25, "margin": 0.5, "flow_samples": 4, "verify_samples": 4,
         "concat_samples": 4, "concat_tol": 1e-6},
        {"kind": "cohomology", "n": 2, "m": 4, "mu": [0.0, 0.0], "cuts": [0, 1], "expect_betti": [1, 2, 1],
         "euler": True, "refine": False, "obstruction": False, "threshold": 0.1},
    ],
}

# Each schema table: where SCHEMA_BASE holds it, and its declared keys.
SCHEMA_TABLES = {
    "manifest": ((), report._MANIFEST_KEYS),
    "structure": (("structures", "sphere"), report._STRUCTURE_KEYS),
    **{
        entry: (("structures", name, "args"), report._CATALOG_ARGS[entry])
        for name, entry in (("sphere", "sphere_circle"), ("universal", "reduction_universal"))
    },
    "chart": (("structures", "plane", "chart"), report._CHART_KEYS),
    "coordinate": (("structures", "plane", "chart", "coordinates", 0), report._COORDINATE_KEYS),
    **{kind: (("tasks", i), report._TASK_KEYS[kind]) for i, kind in ((0, "verify"), (1, "embed"), (3, "reduce-chain"),
                                                                   (4, "cohomology"))},
}

# For every declared key: a value of the wrong type, and one out of range (a
# cross-key rule counts) or None where the key has no range.
SCHEMA_VALUES = {
    "manifest": {"seed": ("7", -1), "samples": ("10", 0), "structures": ([], None), "tasks": ({}, None)},
    "structure": {"catalog": (5, "moon"), "args": ([], None), "chart": ("x", None)},
    "sphere_circle": {"N": ("2", 1), "q": ("1", 0.0)},
    "reduction_universal": {"k": ("1", -1), "N": ("1", -1), "mu": ("1", [1.0, 2.0])},
    "chart": {
        "coordinates": ("a", []), "alpha": ("b", {"z": "1"}), "lee": ("a", {"z": "1"}), "phi": (5, {"a-b": "1"}),
        "b_field": ("a", {"z": "1"}), "anti_lee": ("b", {"a^b": "1"}),
    },
    "coordinate": {"name": (5, "b"), "kind": (5, "polar"), "lower": ("-1", 2.0), "upper": ("1", -2.0)},
    "verify": {"kind": (5, "frobnicate"), "structure": (5, "ghost"), "samples": ("10", 0), "tol": ("1e-9", 0)},
    "embed": {
        "kind": (5, "frobnicate"), "corpus": (5, "moon"), "structure": (5, "ghost"), "samples": (10.0, 0),
        "tol": ("1e-9", -1.0), "rho": ("1.2", 0), "pairs": ("3", 0), "literal_defect": ("no", None),
    },
    "reduce-chain": {
        "kind": (5, "frobnicate"), "input": (5, "torus"), "structure": (5, "ghost"), "chart_index": ("0", -1),
        "samples": ("10", 0), "tol": ("1e-8", 0), "flow_tol": ("1e-6", 0), "window": ("0.25", 0),
        "margin": ("0.5", 1.5),
        "flow_samples": ("4", 0), "verify_samples": ("4", 0), "concat_samples": (True, 0), "concat_tol": ("1e-6", 0),
    },
    "cohomology": {
        "kind": (5, "frobnicate"), "n": ("x", 0), "m": ("4", 1), "mu": ("0", [0.0]), "cuts": ("0,1", [0, 4]),
        "expect_betti": ("1", [-1, 0, 0]), "euler": ("false", None), "refine": ("true", None),
        "obstruction": (1, None), "threshold": ("0.1", 0),
    },
}


def _misspelled(key):
    return key[0].swapcase() + key[1:]


def _schema_cases():
    for table, (path, keys) in SCHEMA_TABLES.items():
        for key in keys:
            wrong_type, out_of_range = SCHEMA_VALUES[table].get(key, (None, None))
            for how, value in (("wrong-type", wrong_type), ("out-of-range", out_of_range), ("misspelled", None)):
                if how == "out-of-range" and value is None:
                    continue
                payload = copy.deepcopy(SCHEMA_BASE)
                target = payload
                for step in path:
                    target = target[step]
                if how == "misspelled":
                    target[_misspelled(key)] = target.pop(key) if key in target else 1
                else:
                    target[key] = value
                nearest = key if how == "misspelled" and key != "kind" else None
                yield pytest.param(payload, nearest, id=f"{table}:{key}:{how}")
    plane = {"seed": 0, "structures": {"plane": {"chart": PLANE_CHART}}}
    verify = {"kind": "verify", "structure": "plane"}
    doubled = {**PLANE_CHART, "Phi": {"a^b": "-2"}}
    del doubled["phi"]
    named = {
        # a doubled two-form under a misspelled key used to be ignored, and phi
        # fell back to "twisted": the record read "9 identities certified"
        "Phi": ({**plane, "structures": {"plane": {"chart": doubled}}, "tasks": [verify]}, "phi"),
        "literal-defect-no": (
            {**plane, "tasks": [{"kind": "embed", "corpus": "circle", "literal_defect": "no"}]}, None),
        "euler-false": ({**plane, "tasks": [{"kind": "cohomology", "n": 2, "m": 4, "euler": "false"}]}, None),
        "catalog-and-chart": (
            {**plane, "structures": {"x": {"catalog": "sphere_circle", "args": {"N": 2}, "chart": PLANE_CHART}},
             "tasks": []}, None),
        # each of these used to exit 2 only after the verify task had run
        "verify-then-n-x": ({**plane, "tasks": [verify, {"kind": "cohomology", "n": "x", "m": 4}]}, None),
        "verify-then-unknown-corpus": ({**plane, "tasks": [verify, {"kind": "embed", "corpus": "moon"}]}, None),
        "verify-then-unknown-structure": (
            {**plane, "tasks": [verify, {"kind": "verify", "structure": "ghost"}]}, None),
        # the plane chain used to run, green, in place of the named structure's chart
        "plane-with-structure": (
            {"seed": 0, "structures": {"sphere3": {"catalog": "sphere_circle", "args": {"N": 2}}},
             "tasks": [{"kind": "reduce-chain", "input": "plane", "structure": "sphere3", "chart_index": 5}]}, None),
        "verify-then-margin": (
            {**plane, "tasks": [verify, {"kind": "reduce-chain", "input": "plane", "margin": 1.5}]}, None),
    }
    for name, (payload, nearest) in named.items():
        yield pytest.param(payload, nearest, id=name)


def _record_runs(monkeypatch) -> list:
    ran = []
    for kind in report._TASK_RUNNERS:
        monkeypatch.setitem(report._TASK_RUNNERS, kind, lambda *args: ran.append(args) or [])
    return ran


def test_schema_values_cover_every_declared_key():
    tables = {name: set(keys) for name, (_, keys) in SCHEMA_TABLES.items()}
    assert {name: set(values) for name, values in SCHEMA_VALUES.items()} == tables
    assert set(report._CATALOG_ARGS) | set(report._TASK_KEYS) <= set(SCHEMA_TABLES)


def test_schema_base_runs_every_task(tmp_path, monkeypatch):
    ran = _record_runs(monkeypatch)
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, SCHEMA_BASE), "-q", "-o", str(out)]) == 0
    assert [task["kind"] for _, task, _ in ran] == [task["kind"] for task in SCHEMA_BASE["tasks"]]


@pytest.mark.parametrize("payload, nearest", _schema_cases())
def test_every_declared_key_is_checked_before_any_task_runs(tmp_path, capsys, monkeypatch, payload, nearest):
    ran = _record_runs(monkeypatch)
    out = tmp_path / "r.json"
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if nearest is not None:
        assert f"did you mean {nearest!r}?" in err
    assert ran == [] and not out.exists()


def test_schema_defaults_are_those_of_the_functions_they_feed():
    for record, keys in ((reduction.ChainSettings, report._CHAIN_ARGS), (embed.EmbedSettings, report._EMBED_ARGS)):
        fields = {field.name: field.default for field in dataclasses.fields(record)}
        assert fields.pop("seed") == 0
        assert {key: default for key, (_, default) in keys.items()} == fields
    for entry, keys in report._CATALOG_ARGS.items():
        factory = inspect.signature(getattr(models, f"model_{entry}")).parameters
        assert list(factory) == list(keys)
        assert all(factory[key].default == default for key, (_, default) in keys.items()
                   if default is not report._REQUIRED)
    corpus = report._TASK_KEYS["embed"]["corpus"][0]
    assert all(callable(getattr(embed, f"problem_{entry}")) for entry in corpus.what[len("one of "):].split(", "))


def schema_markdown() -> str:
    """The README's list of manifest keys, as the schema declares them."""
    tables = [("The manifest", report._MANIFEST_KEYS), ("A structure declaration", report._STRUCTURE_KEYS)]
    tables += [(f"`{entry}` catalog `args`", keys) for entry, keys in report._CATALOG_ARGS.items()]
    tables += [("An inline `chart`", report._CHART_KEYS), ("A chart coordinate", report._COORDINATE_KEYS)]
    tables += [(f"`{kind}` task", keys) for kind, keys in report._TASK_KEYS.items()]
    lines = []
    for title, keys in tables:
        lines += [f"{title}:", ""]
        for key, (check, default) in keys.items():
            given = (
                "required" if default is report._REQUIRED
                else "optional" if default is None
                else f"default `{json.dumps(default)}`"
            )
            lines.append(f"- `{key}`: {check.what}; {given}")
        lines.append("")
    return "\n".join(lines)


def test_readme_lists_the_schema():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert schema_markdown() in readme


@pytest.mark.parametrize(
    "structures, task, name",
    [
        ({}, {"kind": "embed", "corpus": "sphere3", "tol": 5e-16}, "embed:corpus:sphere3"),
        ({"sphere2": {"catalog": "sphere_circle", "args": {"N": 2}}},
         {"kind": "embed", "structure": "sphere2", "tol": 1e-18, "samples": 40, "pairs": 4}, "embed:product:sphere2"),
    ],
    ids=["corpus", "product"],
)
def test_a_certificate_that_raises_keeps_its_record(tmp_path, structures, task, name):
    # it used to become a task[0]:embed record with no residual and no tolerance
    out = tmp_path / "r.json"
    payload = {"seed": 7, "structures": structures, "tasks": [task]}
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 1
    [record] = report.load_report(str(out)).records
    assert record.name == name and not record.passed
    assert record.tolerance == task["tol"] and record.max_residual > record.tolerance
    assert record.detail.endswith(f"residual {record.max_residual:.3g} exceeds {record.tolerance:g}")


def test_product_record_reads_the_sphere_pipeline_residuals(tmp_path, monkeypatch):
    # build_lcs_embedding runs and certifies a sphere pipeline inside it; a
    # residual planted among that pipeline's checks is the record's residual
    planted, build = 3e-9, embed.build_lcs_embedding

    def with_planted(*args, **kwargs):
        res = build(*args, **kwargs)
        (label, check), *rest = res.solution.certifications
        certs = ((label, dataclasses.replace(check, max_residual=planted)), *rest)
        return dataclasses.replace(res, solution=dataclasses.replace(res.solution, certifications=certs))

    monkeypatch.setattr(embed, "build_lcs_embedding", with_planted)
    out = tmp_path / "r.json"
    payload = {
        "seed": 7,
        "structures": {"sphere2": {"catalog": "sphere_circle", "args": {"N": 2}}},
        "tasks": [{"kind": "embed", "structure": "sphere2", "tol": 1e-8, "samples": 40, "pairs": 10}],
    }
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 0
    [record] = report.load_report(str(out)).records
    assert record.passed and record.max_residual == planted


def test_product_embedding_at_a_loose_tolerance_is_full(tmp_path):
    # the lattice height bound is floored at 2, so the period lattices
    # (1.0,) of the product still equal each other at tol 0.05
    out = tmp_path / "r.json"
    payload = {
        "seed": 7,
        "structures": {"sphere2": {"catalog": "sphere_circle", "args": {"N": 2}}},
        "tasks": [{"kind": "embed", "structure": "sphere2", "tol": 0.05, "samples": 40, "pairs": 10}],
    }
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 0
    [record] = report.load_report(str(out)).records
    assert record.passed and record.detail == "morphism strict=True full=True"


# ---------------------------------------------------------------------------
# runs and exit codes


def test_empty_task_list_is_green(tmp_path):
    path = write_manifest(tmp_path, {"seed": 3, "tasks": []})
    out = tmp_path / "empty.report.json"
    assert cli.main(["run", path, "-q", "-o", str(out)]) == 0
    rep = report.load_report(str(out))
    assert rep.green and rep.records == [] and rep.seed == 3


def test_inline_structure_verifies_green(tmp_path):
    path = write_manifest(tmp_path, plane_manifest())
    out = tmp_path / "plane.report.json"
    assert cli.main(["run", path, "-q", "-o", str(out)]) == 0
    rep = report.load_report(str(out))
    assert len(rep.records) == 1
    record = rep.records[0]
    assert record.passed and record.max_residual < 1e-12
    assert record.rank_data["min_two_form_rank"] == 2
    assert not list(tmp_path.glob(".report-*"))


def test_wrong_lee_weight_fails_with_one_record(tmp_path):
    path = write_manifest(tmp_path, plane_manifest(lee="2"))
    out = tmp_path / "bad.report.json"
    assert cli.main(["run", path, "-q", "-o", str(out)]) == 1
    rep = report.load_report(str(out))
    assert len(rep.records) == 1
    assert not rep.records[0].passed
    assert "lee(B) - 1" in rep.records[0].detail


def test_degenerate_two_form_names_the_rank_failure(tmp_path):
    # the plane chart's identities on R^4: all nine hold, but phi = da ^ db
    # has rank 2 on a 4-dimensional chart
    chart = {**PLANE_CHART, "lee": {"a": "1"}}
    chart["coordinates"] = [{"name": n, "lower": -1.0, "upper": 1.0} for n in "abcd"]
    payload = plane_manifest()
    payload["structures"] = {"p4": {"chart": chart}}
    payload["tasks"] = [{"kind": "verify", "structure": "p4", "tol": 1e-9}]
    path = write_manifest(tmp_path, payload)
    out = tmp_path / "p4.report.json"
    assert cli.main(["run", path, "-q", "-o", str(out)]) == 1
    [record] = report.load_report(str(out)).records
    assert record.name == "verify:p4" and not record.passed
    assert record.rank_data["min_two_form_rank"] == 2
    assert record.detail == "two-form rank 2 < dimension 4"


def test_overflowing_chart_constant_fails_one_record_with_domain_error(tmp_path):
    payload = plane_manifest()
    payload["structures"]["plane"]["chart"]["alpha"] = {"b": "exp(1000)*a"}
    path = write_manifest(tmp_path, payload)
    out = tmp_path / "overflow.report.json"
    assert cli.main(["run", path, "-q", "-o", str(out)]) == 1
    rep = report.load_report(str(out))
    assert len(rep.records) == 1 and not rep.records[0].passed
    assert rep.records[0].detail.startswith("EvaluationDomainError: non-finite value evaluating")


def test_oversized_torus_fails_one_record(tmp_path):
    path = write_manifest(tmp_path, {"seed": 0, "tasks": [{"kind": "cohomology", "n": 2, "m": 5000}]})
    out = tmp_path / "oversized.report.json"
    assert cli.main(["run", path, "-q", "-o", str(out)]) == 1
    rep = report.load_report(str(out))
    assert len(rep.records) == 1 and not rep.records[0].passed
    assert rep.records[0].detail.startswith(
        "CohomologyError: 25000000 blocks of 2 x 1 (50000000 entries) exceed the budget of 40000000 entries"
    )


def test_unusable_holonomy_exponent_fails_one_record(tmp_path):
    task = {"kind": "cohomology", "n": 2, "m": 4, "mu": [1000.0, 0.0]}
    path = write_manifest(tmp_path, {"seed": 0, "tasks": [task]})
    out = tmp_path / "mu.report.json"
    assert cli.main(["run", path, "-q", "-o", str(out)]) == 1
    rep = report.load_report(str(out))
    assert len(rep.records) == 1 and not rep.records[0].passed
    assert rep.records[0].detail.startswith("CohomologyError: holonomy weight e^(-mu[0]) for mu[0] = 1000.0")


def test_fail_fast_stops_after_first_red_task(tmp_path):
    payload = plane_manifest(lee="2")
    payload["structures"]["good"] = {"chart": PLANE_CHART}
    payload["tasks"].append({"kind": "verify", "structure": "good"})
    path = write_manifest(tmp_path, payload)
    out = tmp_path / "ff.report.json"
    assert cli.main(["run", path, "-q", "-o", str(out), "--fail-fast"]) == 1
    assert len(report.load_report(str(out)).records) == 1


def test_cohomology_expectation_mismatch(tmp_path):
    path = write_manifest(
        tmp_path,
        {
            "seed": 0,
            "tasks": [
                {"kind": "cohomology", "n": 2, "m": 4, "mu": [1.0, 0.0], "expect_betti": [1, 2, 1]}
            ],
        },
    )
    out = tmp_path / "coh.report.json"
    assert cli.main(["run", path, "-q", "-o", str(out)]) == 1
    rep = report.load_report(str(out))
    betti_record = rep.records[0]
    assert not betti_record.passed
    assert "expected" in betti_record.detail
    assert betti_record.rank_data["betti"] == [0, 0, 0]


def test_strong_twist_has_the_kunneth_betti_numbers(tmp_path):
    # e^30 on one cut edge used to swamp the rank threshold: [7, 7] was reported
    task = {"kind": "cohomology", "n": 1, "m": 8, "mu": [-30.0], "expect_betti": [0, 0]}
    path = write_manifest(tmp_path, {"seed": 0, "tasks": [task]})
    out = tmp_path / "strong.report.json"
    assert cli.main(["run", path, "-q", "-o", str(out)]) == 0
    assert report.load_report(str(out)).records[0].rank_data["betti"] == [0, 0]


@pytest.mark.parametrize("extra_rank", [0, 1])
def test_euler_record_fails_on_inconsistent_ranks(tmp_path, monkeypatch, extra_rank):
    # b_k = c_k - r_k - r_(k-1) keeps the alternating sum at 0 for any ranks,
    # so only b_k >= 0 can catch ranks that over-count
    exact = coh.matrix_rank_qr
    monkeypatch.setattr(coh, "matrix_rank_qr", lambda *args, **kwargs: exact(*args, **kwargs) + extra_rank)
    task = {"kind": "cohomology", "n": 2, "m": 4, "mu": [1.0, 0.0]}
    path = write_manifest(tmp_path, {"seed": 0, "tasks": [task]})
    rep = report.run_manifest(report.load_manifest(path))
    euler = next(r for r in rep.records if r.name.endswith(":euler"))
    assert euler.rank_data["alternating_sum"] == 0
    assert euler.passed == (extra_rank == 0)
    betti = next(r for r in rep.records if r.name.endswith(":betti")).rank_data["betti"]
    assert betti == ([0, 0, 0] if extra_rank == 0 else [-1, -2, -1])


def test_task_exceptions_become_failing_records(tmp_path, monkeypatch):
    # a task whose structure cannot be built fails, but the run continues to
    # the next task
    def broken(N, q):
        raise models.ModelError(f"no sphere_circle model at N={N}")

    monkeypatch.setattr(models, "model_sphere_circle", broken)
    payload = {
        "seed": 0,
        "structures": {"sphere": {"catalog": "sphere_circle", "args": {"N": 2}}},
        "tasks": [
            {"kind": "verify", "structure": "sphere"},
            {"kind": "cohomology", "n": 1, "m": 4, "expect_betti": [1, 1]},
        ],
    }
    path = write_manifest(tmp_path, payload)
    out = tmp_path / "exc.report.json"
    assert cli.main(["run", path, "-q", "-o", str(out)]) == 1
    rep = report.load_report(str(out))
    assert len(rep.records) == 3
    assert not rep.records[0].passed
    assert "ModelError" in rep.records[0].detail
    assert all(r.passed for r in rep.records[1:])


def test_default_output_is_named_after_the_manifest(tmp_path, monkeypatch):
    path = write_manifest(tmp_path, plane_manifest(), name="plane.json")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", path, "-q"]) == 0
    assert report.load_report("plane.report.json").green


def test_a_number_stands_for_its_expression(tmp_path):
    # a component may be a finite number instead of an expression string
    numbers = plane_manifest()
    numbers["structures"]["plane"]["chart"] = {**PLANE_CHART, "alpha": {"b": 1}, "lee": {"a": 1.0},
                                               "b_field": {"a": 1}, "anti_lee": {"b": -1}}
    reports = []
    for name, payload in (("strings.json", plane_manifest()), ("numbers.json", numbers)):
        rep = report.run_manifest(report.load_manifest(write_manifest(tmp_path, payload, name=name)))
        reports.append({**rep.stable_dict(), "manifest": None})
    assert reports[0] == reports[1] and reports[0]["records"]


def test_seed_tol_threads_overrides(tmp_path):
    path = write_manifest(tmp_path, plane_manifest())
    out = tmp_path / "ov.report.json"
    code = cli.main(
        ["run", path, "-q", "-o", str(out), "--seed", "5", "--tol", "1e-7"]
    )
    assert code == 0
    rep = report.load_report(str(out))
    assert rep.seed == 5
    assert rep.records[0].tolerance == 1e-7


def test_subcommands_filter_task_kinds(tmp_path):
    payload = plane_manifest()
    payload["tasks"].append({"kind": "cohomology", "n": 1, "m": 4, "expect_betti": [1, 1]})
    path = write_manifest(tmp_path, payload)
    out = tmp_path / "filtered.report.json"
    assert cli.main(["cohomology", path, "-q", "-o", str(out)]) == 0
    rep = report.load_report(str(out))
    assert [r.name.startswith("cohomology:") for r in rep.records] == [True, True]


# ---------------------------------------------------------------------------
# report files


def test_report_round_trips_losslessly(tmp_path):
    path = write_manifest(tmp_path, plane_manifest())
    out = tmp_path / "rt.report.json"
    cli.main(["run", path, "-q", "-o", str(out)])
    rep = report.load_report(str(out))
    assert report.RunReport.from_json(rep.to_json()) == rep


def test_report_subcommand_pretty_prints(tmp_path, capsys):
    path = write_manifest(tmp_path, plane_manifest())
    out = tmp_path / "show.report.json"
    cli.main(["run", path, "-q", "-o", str(out)])
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "[PASS] verify:plane" in shown and "green" in shown


def test_report_subcommand_flags_red_reports(tmp_path, capsys):
    path = write_manifest(tmp_path, plane_manifest(lee="2"))
    out = tmp_path / "red.report.json"
    cli.main(["run", path, "-q", "-o", str(out)])
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 1
    assert "RED" in capsys.readouterr().out


def test_report_subcommand_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "not-a-report.json"
    bad.write_text("{}")
    assert cli.main(["report", str(bad)]) == 2
    assert "lcskit-report" in capsys.readouterr().err



def test_environment_stamp_names_the_platform_as_platform_platform_does():
    # the stamp is part of stable_dict(), so it must not move; it leaves out
    # the processor field, which runs `uname -p` in a subprocess
    if platform.uname().processor not in ("", platform.machine()):
        pytest.skip("this platform's processor field adds to platform.platform()")
    assert report.environment_stamp()["platform"] == platform.platform()


def test_task_wall_times_are_volatile_and_sum_within_the_run(tmp_path, capsys):
    payload = plane_manifest()
    payload["tasks"].append({"kind": "cohomology", "n": 1, "m": 4, "expect_betti": [1, 1]})
    out = tmp_path / "timed.report.json"
    assert cli.main(["run", write_manifest(tmp_path, payload), "-q", "-o", str(out)]) == 0
    rep = report.load_report(str(out))
    assert len(rep.task_wall_s) == 2 and all(t >= 0 for t in rep.task_wall_s)
    # whole microseconds: the sum may exceed the total only by float round-off
    assert math.fsum(rep.task_wall_s) <= rep.wall_time_s + 1e-12
    assert set(rep.stable_dict()) == {"format", "seed", "manifest", "environment", "green", "records"}
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 0
    shown = capsys.readouterr().out
    assert all(f"task[{i}] wall time: {t}s" in shown for i, t in enumerate(rep.task_wall_s))


def test_fail_fast_times_only_the_tasks_that_ran(tmp_path):
    payload = plane_manifest(lee="2")
    payload["tasks"].append({"kind": "cohomology", "n": 1, "m": 4})
    path = write_manifest(tmp_path, payload)
    full, stopped = tmp_path / "full.json", tmp_path / "stopped.json"
    assert cli.main(["run", path, "-q", "-o", str(full)]) == 1
    assert cli.main(["run", path, "-q", "-o", str(stopped), "--fail-fast"]) == 1
    assert len(report.load_report(str(full)).task_wall_s) == 2
    assert len(report.load_report(str(stopped)).task_wall_s) == 1


def test_report_without_task_times_loads_with_an_empty_list(tmp_path):
    path = write_manifest(tmp_path, plane_manifest())
    out = tmp_path / "old.report.json"
    cli.main(["run", path, "-q", "-o", str(out)])
    raw = json.loads(out.read_text())
    del raw["task_wall_s"]
    out.write_text(json.dumps(raw))
    rep = report.load_report(str(out))
    assert rep.task_wall_s == [] and raw["format"] == report.REPORT_FORMAT == "lcskit-report-v2"

# ---------------------------------------------------------------------------
# determinism


def test_repeat_runs_identical_modulo_timestamps(tmp_path):
    payload = plane_manifest()
    payload["tasks"].append({"kind": "cohomology", "n": 2, "m": 4, "expect_betti": [1, 2, 1]})
    payload["tasks"].append({"kind": "cohomology", "n": 2, "m": 4, "obstruction": True})
    path = write_manifest(tmp_path, payload)
    first, second = tmp_path / "one.json", tmp_path / "two.json"
    assert cli.main(["run", path, "-q", "-o", str(first)]) == 0
    assert cli.main(["run", path, "-q", "-o", str(second)]) == 0
    a = report.load_report(str(first)).stable_dict()
    b = report.load_report(str(second)).stable_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    raw_a = json.loads(first.read_text())
    assert "started_utc" in raw_a and "wall_time_s" in raw_a


# ---------------------------------------------------------------------------
# bundled selftest and console script


def test_bundled_selftest_parses_and_lists_all_kinds():
    manifest = report.load_manifest("selftest")
    kinds = {t["kind"] for t in manifest.tasks}
    assert kinds == {"verify", "embed", "reduce-chain", "cohomology"}
    assert manifest.seed == 0


def test_console_script_is_installed():
    binary = shutil.which("lcskit")
    assert binary is not None
    done = subprocess.run([binary, "--help"], capture_output=True, text=True)
    assert done.returncode == 0
    assert "reduce-chain" in done.stdout
