"""Start-up contract: importing lcskit, loading a manifest and building its
structures load no heavy scipy subpackage; a task imports the one it needs
when it first runs.  Each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SELFTEST = SRC / "lcskit" / "manifests" / "selftest.json"
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")


def heavy_modules_after(code: str) -> list[str]:
    """The heavy scipy subpackages loaded after ``code`` runs in a fresh
    interpreter with ``src`` on the path."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(set({HEAVY!r}) & set(sys.modules))))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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


def test_cohomology_run_never_loads_the_integrators(tmp_path):
    out = tmp_path / "cohomology.report.json"
    code = (
        "from lcskit import cli\n"
        f"assert cli.main(['cohomology', {str(SELFTEST)!r}, '-q', '-o', {str(out)!r}]) == 0\n"
    )
    loaded = heavy_modules_after(code)
    assert "scipy.linalg" in loaded and "scipy.integrate" not in loaded


@pytest.mark.parametrize("command", ["verify", "embed", "reduce-chain"])
def test_symbolic_embedding_and_flow_runs_load_no_heavy_subpackage(tmp_path, command):
    # flows and loop periods are integrated in numpy; only cohomology needs scipy
    out = tmp_path / f"{command}.report.json"
    code = (
        "from lcskit import cli\n"
        f"assert cli.main([{command!r}, {str(SELFTEST)!r}, '-q', '-o', {str(out)!r}]) == 0\n"
    )
    assert heavy_modules_after(code) == []
