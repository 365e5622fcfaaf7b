"""Start-up contract: importing lcskit, loading a manifest, building its
structures and running any task kind load no heavy scipy subpackage; the
package integrates, ranks and projects with numpy alone, and a flow run
loads no scipy module at all.  Each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SELFTEST = SRC / "lcskit" / "manifests" / "selftest.json"
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")


def scipy_modules_after(code: str) -> list[str]:
    """Every scipy module loaded after ``code`` runs in a fresh interpreter
    with ``src`` on the path."""
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
    out = tmp_path / "cohomology.report.json"
    code = (
        "from lcskit import cli\n"
        f"assert cli.main(['cohomology', {str(SELFTEST)!r}, '-q', '-o', {str(out)!r}]) == 0\n"
    )
    assert heavy_modules_after(code) == []


@pytest.mark.parametrize("command", ["verify", "embed", "reduce-chain"])
def test_symbolic_embedding_and_flow_runs_load_no_heavy_subpackage(tmp_path, command):
    # flows and loop periods are integrated in numpy
    out = tmp_path / f"{command}.report.json"
    code = (
        "from lcskit import cli\n"
        f"assert cli.main([{command!r}, {str(SELFTEST)!r}, '-q', '-o', {str(out)!r}]) == 0\n"
    )
    assert heavy_modules_after(code) == []


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
