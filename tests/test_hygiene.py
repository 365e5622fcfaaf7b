"""Source hygiene checks over ``src/lcskit``, written on the stdlib ``ast`` module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lcskit"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with the line that binds them."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded_names(tree: ast.AST) -> set[str]:
    """Names loaded anywhere in ``tree``, including inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _loaded_names(ast.parse(node.value, mode="eval"))
    return used


def _exported_names(tree: ast.Module) -> set[str]:
    """Entries of a module-level ``__all__`` list (re-exports count as uses)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _loaded_names(tree) | _exported_names(tree)
    return sorted((name, line) for name, line in _imported_names(tree).items() if name not in used)


def test_scanner_sees_string_annotations_and_flags_dead_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import Sequence\n"
        "from .symexpr import Expr, ZeroCheck\n"
        "def f(x: 'Sequence[Expr]') -> 'int':\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == [("ZeroCheck", 4), ("os", 2)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _names_rank_rtol(node: ast.expr | None) -> bool:
    return (isinstance(node, ast.Name) and node.id == "RANK_RTOL") or (
        isinstance(node, ast.Attribute) and node.attr == "RANK_RTOL"
    )


def lstsq_without_rank_rule(source: str) -> list[int]:
    """Lines of ``lstsq`` calls whose ``rcond`` is not ``RANK_RTOL``.

    numpy's default cutoff (machine epsilon times the larger dimension) would
    be a second, implicit rank rule next to ``numeric.count_significant``.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "lstsq":
            rcond = next((kw.value for kw in node.keywords if kw.arg == "rcond"), None)
            if not _names_rank_rtol(rcond):
                lines.append(node.lineno)
    return lines


def test_lstsq_scanner_flags_default_and_none_cutoffs():
    source = (
        "import numpy as np\n"
        "from .numeric import RANK_RTOL\n"
        "from . import numeric\n"
        "np.linalg.lstsq(A, b)\n"
        "np.linalg.lstsq(A, b, rcond=None)\n"
        "np.linalg.lstsq(A, b, rcond=1e-10)\n"
        "np.linalg.lstsq(A, b, rcond=RANK_RTOL)\n"
        "np.linalg.lstsq(A, b, rcond=numeric.RANK_RTOL)\n"
    )
    assert lstsq_without_rank_rule(source) == [4, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_lstsq_cuts_at_rank_rtol(path):
    assert lstsq_without_rank_rule(path.read_text()) == []


def _runs_on_import(body: list[ast.stmt]):
    """Statements of ``body`` that run when the module is imported: function
    bodies and ``if TYPE_CHECKING:`` blocks are skipped, other compound
    statements (classes, ``if``, ``try``, ``with``) are entered."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            yield from _runs_on_import(node.orelse)
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _runs_on_import(getattr(node, field, []))


def scipy_subpackage_imports(source: str) -> list[int]:
    """Lines that load a scipy subpackage when the module is imported.

    A bare ``import scipy`` is cheap and loads no subpackage; ``scipy.integrate``
    and friends are imported inside the functions that use them.
    """
    lines = []
    for node in _runs_on_import(ast.parse(source).body):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("scipy.") for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module == "scipy" or node.module.startswith("scipy."):
                lines.append(node.lineno)
    return lines


def test_scipy_scanner_flags_module_level_subpackages_only():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import scipy\n"
        "import scipy as sp\n"
        "import numpy, scipy.linalg\n"
        "from scipy import sparse\n"
        "from scipy.integrate import quad\n"
        "if TYPE_CHECKING:\n"
        "    from scipy import sparse\n"
        "else:\n"
        "    import scipy.optimize\n"
        "try:\n"
        "    import scipy.special\n"
        "except ImportError:\n"
        "    pass\n"
        "class A:\n"
        "    from scipy.sparse import csr_matrix\n"
        "    def f(self):\n"
        "        from scipy.linalg import qr\n"
        "def g():\n"
        "    import scipy.integrate\n"
        "    from scipy import sparse\n"
    )
    assert scipy_subpackage_imports(source) == [4, 5, 6, 10, 12, 16]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_scipy_subpackage_imports(path):
    assert scipy_subpackage_imports(path.read_text()) == []
