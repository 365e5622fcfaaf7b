"""Start-up contract: importing lcskit, loading a manifest or a report and
running a task kind load only the modules that the work uses.

``import lcskit``, ``load_manifest`` and ``lcskit report`` load neither numpy
nor a computational module; each task kind loads its own module and what
that imports.  Building structures is symbolic, so numpy runs only at the
first sampled evaluation.  No run loads ``subprocess`` (the report's platform
stamp runs no ``uname -p``) or ``numpy.polynomial`` (the quadrature nodes are
literals).  No run loads ``numpy.random``, ``secrets`` or ``hashlib``:
sample points come from the package's own stream.  No run loads a heavy
scipy subpackage: the package integrates, ranks and projects with numpy
alone, and a flow run loads no scipy module at all.  Each check runs in a
fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lcskit import lazy_import, report

SRC = Path(__file__).resolve().parent.parent / "src"
SELFTEST = SRC / "lcskit" / "manifests" / "selftest.json"
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")
LIGHT = {"lcskit", "lcskit.cli", "lcskit.report"}


def modules_after(code: str) -> set[str]:
    """Every module loaded after ``code`` runs in a fresh interpreter with
    ``src`` on the path."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def scipy_modules_after(code: str) -> list[str]:
    return sorted(m for m in modules_after(code) if m == "scipy" or m.startswith("scipy."))


def lcskit_modules_after(code: str) -> set[str]:
    return {m for m in modules_after(code) if m == "lcskit" or m.startswith("lcskit.")}


def run_code(command: str, out) -> str:
    """Code that runs ``command`` on the bundled selftest, green, into ``out``."""
    return (
        "from lcskit import cli\n"
        f"assert cli.main([{command!r}, {str(SELFTEST)!r}, '-q', '-o', {str(out)!r}]) == 0\n"
    )


def heavy_modules_after(code: str) -> list[str]:
    """The heavy scipy subpackages loaded after ``code`` runs in a fresh
    interpreter with ``src`` on the path."""
    return sorted(set(HEAVY) & set(scipy_modules_after(code)))


def test_import_load_and_build_load_no_scipy_subpackage():
    code = (
        "import lcskit.cli\n"
        "from lcskit import report\n"
        f"manifest = report.load_manifest({str(SELFTEST)!r})\n"
        "assert manifest.structures\n"
        "for name in manifest.structures:\n"
        "    manifest.structure(name)\n"
    )
    assert heavy_modules_after(code) == []


def test_cohomology_run_loads_no_heavy_subpackage(tmp_path):
    # Koszul stacks are ranked and the obstruction projected with numpy alone
    assert heavy_modules_after(run_code("cohomology", tmp_path / "cohomology.report.json")) == []


@pytest.mark.parametrize("command", ["verify", "embed", "reduce-chain"])
def test_symbolic_embedding_and_flow_runs_load_no_heavy_subpackage(tmp_path, command):
    # flows and loop periods are integrated in numpy
    assert heavy_modules_after(run_code(command, tmp_path / f"{command}.report.json")) == []


def test_import_load_and_reduce_chain_run_load_no_scipy_at_all(tmp_path):
    # the report's environment stamp names numpy only, and flows are numpy
    out = tmp_path / "reduce-chain.report.json"
    code = (
        "import lcskit\n"
        "from lcskit import cli, report\n"
        f"assert report.load_manifest({str(SELFTEST)!r}).structures\n"
        f"assert cli.main(['reduce-chain', {str(SELFTEST)!r}, '-q', '-o', {str(out)!r}]) == 0\n"
    )
    assert scipy_modules_after(code) == []


# -- what each start loads --------------------------------------------------


@pytest.mark.parametrize(
    "code",
    [
        "import lcskit\n",
        f"from lcskit import report\nassert report.load_manifest({str(SELFTEST)!r}).tasks\n",
    ],
    ids=["import", "load_manifest"],
)
def test_import_and_manifest_load_need_no_numpy_or_computational_module(code):
    loaded = modules_after(code)
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("lcskit.")} <= LIGHT


def test_report_command_needs_no_numpy_or_computational_module(tmp_path):
    path = tmp_path / "shown.report.json"
    record = report.CheckRecord("verify:x", "anchor", 1e-16, 1e-9, {}, True)
    report.RunReport(
        seed=0, manifest="m.json", environment={}, started_utc="now", wall_time_s=0.5,
        records=[record], task_wall_s=[0.25],
    ).write(str(path))
    code = f"from lcskit import cli\nassert cli.main(['report', {str(path)!r}]) == 0\n"
    loaded = modules_after(code)
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("lcskit.")} <= LIGHT


def test_cohomology_run_loads_only_its_own_modules(tmp_path):
    loaded = lcskit_modules_after(run_code("cohomology", tmp_path / "c.report.json"))
    assert loaded == LIGHT | {"lcskit.cohomology", "lcskit.numeric"}


@pytest.mark.parametrize(
    "command, unused",
    [
        ("verify", {"embed", "reduction", "cohomology"}),
        ("embed", {"reduction", "cohomology"}),
        ("reduce-chain", {"embed", "cohomology"}),
    ],
)
def test_each_run_leaves_other_task_kinds_unloaded(tmp_path, command, unused):
    loaded = lcskit_modules_after(run_code(command, tmp_path / "r.report.json"))
    assert not loaded & {f"lcskit.{name}" for name in unused}


@pytest.mark.parametrize("command", ["run", "verify", "embed", "reduce-chain", "cohomology"])
def test_no_run_loads_numpy_random(tmp_path, command):
    # sample points come from the package's own PCG64 stream; numpy.random
    # would bring secrets, hashlib and libcrypto with it
    loaded = modules_after(run_code(command, tmp_path / "r.report.json"))
    assert not loaded & {"numpy.random", "secrets", "hashlib"}


def numpy_ran(loaded: set[str]) -> bool:
    """Whether numpy's own code has run: the symbolic layers register numpy
    lazily in ``sys.modules``, and its submodules load only when it runs."""
    return any(m.startswith("numpy.") for m in loaded)


INLINE = {
    "coordinates": [{"name": "a", "lower": -1.0, "upper": 1.0}, {"name": "b", "lower": -1.0, "upper": 1.0}],
    "alpha": {"b": "sqrt(2 - a^2)"},
    "lee": {"a": "1"},
    "phi": "twisted",
    "b_field": {"a": "1"},
    "anti_lee": {"b": "-1/sqrt(2 - a^2)"},
}


def test_building_structures_runs_no_numpy_until_the_first_evaluation(tmp_path):
    path = tmp_path / "inline.json"
    path.write_text(json.dumps({"seed": 0, "structures": {"plane": {"chart": INLINE}}, "tasks": []}))
    build = (
        "from lcskit import models, report\n"
        "structures = [models.model_liouville(2), models.model_sphere_circle(3, 2.0),\n"
        "              models.model_reduction_universal(2, 1, [1.0, 0.5])]\n"
        f"for path in ({str(SELFTEST)!r}, {str(path)!r}):\n"
        "    manifest = report.load_manifest(path)\n"
        "    structures += [manifest.structure(name) for name in manifest.structures]\n"
        "assert len(structures) == 9\n"
        "assert all(len(S.charts[:]) == len(S.charts) for S in structures)\n"
    )
    built = modules_after(build)
    assert not numpy_ran(built)
    assert not built & {"lcskit.numeric", "lcskit.pcg64"}
    evaluated = modules_after(build + "from lcskit import symexpr as sx\nsx.evaluate(sx.var('x'), {'x': 0.5})\n")
    assert numpy_ran(evaluated)


def test_lazy_import_returns_an_imported_module_and_refuses_a_missing_one():
    assert lazy_import("json") is json
    with pytest.raises(ModuleNotFoundError, match="lcskit_absent"):
        lazy_import("lcskit_absent")


@pytest.mark.parametrize("command", ["run", "verify", "embed", "reduce-chain", "cohomology"])
def test_no_run_loads_subprocess_or_numpy_polynomial(tmp_path, command):
    loaded = modules_after(run_code(command, tmp_path / "r.report.json"))
    assert not loaded & {"subprocess", "numpy.polynomial"}


def test_refused_catalog_arguments_load_no_model_code(tmp_path):
    path = tmp_path / "typo.json"
    structure = {"catalog": "sphere_circle", "args": {"N": 2, "Q": 5.0}}
    path.write_text(json.dumps({"seed": 0, "structures": {"s": structure},
                                "tasks": [{"kind": "verify", "structure": "s"}]}))
    code = (
        "from lcskit import cli\n"
        f"assert cli.main(['run', {str(path)!r}, '-q', '-o', {str(tmp_path / 'r.json')!r}]) == 2\n"
    )
    assert "lcskit.models" not in lcskit_modules_after(code)


def test_module_run_of_the_cli_prints_no_warning():
    # runpy warns when the package has already imported the module it runs
    proc = subprocess.run(
        [sys.executable, "-m", "lcskit.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "reduce-chain" in proc.stdout
