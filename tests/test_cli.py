"""Manifest execution, report files, exit codes, and the console front end."""

import json
import shutil
import subprocess

import pytest

import lcskit.cli as cli
import lcskit.cohomology as coh
import lcskit.models as models
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
         "embed task rho must be a positive finite number, got '1.5'"),
        ({"kind": "embed", "structure": "model", "pairs": 2.7}, {"catalog": "sphere_circle", "args": {"N": 2}},
         "embed task pairs must be an integer at least 1, got 2.7"),
        ({"kind": "reduce-chain", "structure": "model", "chart_index": True},
         {"catalog": "sphere_circle", "args": {"N": 2}},
         "reduce-chain task chart_index must be an integer in [0, 8), got True"),
        ({"kind": "verify", "structure": "model"}, {"catalog": "liouville", "args": {"n": 1.5}},
         "structure 'model' argument n must be an integer at least 1, got 1.5"),
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


def test_task_exceptions_become_failing_records(tmp_path):
    # a structure without distinguished fields cannot be verified; the task
    # fails but the run continues to the next task
    payload = {
        "seed": 0,
        "structures": {"liou": {"catalog": "liouville", "args": {"n": 1}}},
        "tasks": [
            {"kind": "verify", "structure": "liou"},
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
