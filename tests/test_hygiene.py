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



BANNED_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")


def _names_banned_scipy(module: str) -> bool:
    return any(module == b or module.startswith(b + ".") for b in BANNED_SCIPY)


def banned_scipy_imports(source: str) -> list[int]:
    """Lines that import a banned scipy subpackage anywhere: at module
    level, in functions and classes, or by ``import_module`` / ``__import__``
    of a literal name.  The package integrates its flows and periods and
    ranks its torus complexes with numpy; ``scipy.integrate``,
    ``scipy.optimize``, ``scipy.sparse`` (with ``csgraph``) and ``scipy.linalg``
    serve as oracles in the tests only."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            names = [str(node.args[0].value)] if called in ("import_module", "__import__") else []
        else:
            continue
        if any(_names_banned_scipy(name) for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_banned_scipy_scanner_finds_imports_at_any_depth():
    source = (
        "import scipy\n"
        "import scipy.integrate\n"
        "from scipy import optimize\n"
        "from scipy.integrate import solve_ivp as ivp\n"
        "import numpy, scipy.optimize.linesearch\n"
        "from scipy import sparse, linalg\n"
        "import scipy.integrated_stuff\n"
        "def f():\n"
        "    from scipy.integrate import quad\n"
        "    class A:\n"
        "        def g(self):\n"
        "            import scipy.optimize as so\n"
        "    import importlib\n"
        "    importlib.import_module('scipy.integrate')\n"
        "    __import__('scipy.optimize')\n"
        "    importlib.import_module('scipy.linalg')\n"
        "    from .integrate import quad\n"
        "from scipy.sparse import csgraph\n"
        "import scipy.sparse.csgraph as cg\n"
        "from scipy.linalg import lapack\n"
        "def h():\n"
        "    from scipy.linalg.lapack import get_lapack_funcs\n"
        "    from scipy import special\n"
        "    import scipy.linalgebra\n"
    )
    assert banned_scipy_imports(source) == [2, 3, 4, 5, 6, 9, 12, 14, 15, 16, 18, 19, 20, 22]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy_integrate_or_optimize(path):
    assert banned_scipy_imports(path.read_text()) == []


# -- reachability ------------------------------------------------------------

# Every run enters through the command line; module-level statements run on import.
ROOTS = ("cli.main",)

# Top-level names that no run reaches but that stay, each with its reason.
ALLOWED_UNREACHED = {
    "twisted.extract_lee": "perfbench/tracer.py wraps it by name, and `--trace 1` "
    "raises CoverageError when a target is missing",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SCOPES = (*_DEFS, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _import_targets(node: ast.Import | ast.ImportFrom, modules: set[str]) -> dict[str, str | None]:
    """Names an import binds: sibling module ``m`` as ``"m"``, name ``f`` of
    sibling ``m`` as ``"m.f"``, anything else as ``None``."""
    if not (isinstance(node, ast.ImportFrom) and node.level == 1):
        return {(a.asname or a.name.split(".")[0]): None for a in node.names}
    if node.module is None:
        return {(a.asname or a.name): (a.name if a.name in modules else None) for a in node.names}
    return {(a.asname or a.name): f"{node.module}.{a.name}" for a in node.names}


def _own_nodes(scope: ast.AST):
    """Nodes of ``scope`` outside its nested scopes (a nested scope node itself
    is yielded: its name binds here)."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_nodes(child)


def _bindings(scope: ast.AST, modules: set[str]) -> dict[str, str | None]:
    """Names bound in the namespace of ``scope``: imports map as in
    ``_import_targets``, every other binding maps to ``None``."""
    bound: dict[str, str | None] = {}
    declared_outer: set[str] = set()
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound[node.id] = None
        elif isinstance(node, ast.arg):
            bound[node.arg] = None
        elif isinstance(node, _DEFS):
            bound[node.name] = None
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound[node.name] = None
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(_import_targets(node, modules))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared_outer.update(node.names)
    return {name: target for name, target in bound.items() if name not in declared_outer}


class _References(ast.NodeVisitor):
    """Qualified names (``"m.f"`` or ``"m"``) that a statement loads, each
    resolved in the scopes that enclose the load."""

    def __init__(self, module_scope: dict[str, str | None], modules: set[str]):
        self.modules = modules
        self.scopes = [(module_scope, False)]  # (bindings, is a class body)
        self.found: set[str] = set()

    def _resolve(self, name: str) -> str | None:
        innermost = len(self.scopes) - 1
        for depth in range(innermost, -1, -1):
            bound, is_class = self.scopes[depth]
            # A class body's names are not visible inside its methods.
            if name in bound and not (is_class and depth < innermost):
                return bound[name]
        return None

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and (target := self._resolve(node.id)):
            self.found.add(target)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and (module := self._resolve(node.value.id)) in self.modules:
            self.found.add(f"{module}.{node.attr}")
        self.generic_visit(node)

    def _annotation(self, node: ast.expr | None) -> None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval")
        if node is not None:
            self.visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        self._annotation(node.annotation)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._annotation(node.annotation)
        for child in (node.target, node.value):
            if child is not None:
                self.visit(child)

    def _enter(self, scope: ast.AST, body: list[ast.AST]) -> None:
        self.scopes.append((_bindings(scope, self.modules), isinstance(scope, ast.ClassDef)))
        for node in body:
            self.visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for child in (*node.decorator_list, node.args):
            self.visit(child)
        self._annotation(node.returns)
        self._enter(node, node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.args)
        self._enter(node, [node.body])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for child in (*node.decorator_list, *node.bases, *node.keywords):
            self.visit(child)
        self._enter(node, node.body)

    def visit_ListComp(self, node: ast.expr) -> None:
        self._enter(node, list(ast.iter_child_nodes(node)))

    visit_SetComp = visit_DictComp = visit_GeneratorExp = visit_ListComp


def unreachable(sources: dict[str, str], roots=ROOTS, allowed=()) -> list[str]:
    """Top-level functions and classes of ``sources`` (module name to source
    text, one package) that no root, no allowed name and no module-level
    statement reaches, as ``"module.name"``."""
    modules = set(sources)
    trees = {module: ast.parse(source) for module, source in sources.items()}
    scopes, defs, statements = {}, {}, []
    for module, tree in trees.items():
        scopes[module] = _bindings(tree, modules)
        for node in tree.body:
            if isinstance(node, _DEFS):
                scopes[module][node.name] = f"{module}.{node.name}"
                defs[f"{module}.{node.name}"] = (module, node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                statements.append((module, node))

    def canonical(name: str) -> str:
        """Follow a re-export (``"m.f"`` that ``m`` imports) to its definition."""
        module, _, attr = name.partition(".")
        target = scopes.get(module, {}).get(attr)
        return canonical(target) if name not in defs and target and target != name else name

    def references(module: str, node: ast.AST) -> set[str]:
        visitor = _References(scopes[module], modules)
        visitor.visit(node)
        return {canonical(name) for name in visitor.found}

    todo = [*roots, *allowed]
    for module, node in statements:
        todo.extend(references(module, node))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo.extend(references(*defs[name]))
    return sorted(set(defs) - reached)


def test_reachability_scanner_resolves_names_per_module_and_scope():
    sources = {
        "cli": (
            "from . import forms as fm\n"
            "from .symexpr import add\n"
            "def main():\n"
            "    return fm.wedge(add(1))\n"
            "if __name__ == '__main__':\n"
            "    main()\n"
        ),
        "symexpr": (
            "def add(*terms):\n"
            "    flat = []\n"  # a local that shares a dead function's name
            "    return [flat for flat in terms]\n"
            "def variables(e): ...\n"
        ),
        "forms": (
            "from __future__ import annotations\n"
            "def flat(x): ...\n"
            "def sharp(x):\n"
            "    return flat(x)\n"
            "def wedge(x) -> 'Form':\n"
            "    def inner(flat):\n"
            "        return flat\n"
            "    from .symexpr import add as plus\n"
            "    return Form(inner(plus(x)))\n"
            "class Form:\n"
            "    part: 'Part'\n"
            "    _tag = 1\n"
            "    def f(self):\n"
            "        return _tag\n"  # the module's function: class names are not in scope here
            "class Part: ...\n"
            "def _tag(): ...\n"
            "def _kind(): ...\n"
            "KINDS = {'k': _kind}\n"
            "def _allowed():\n"
            "    return _helper()\n"
            "def _helper(): ...\n"
        ),
    }
    dead = ["forms.flat", "forms.sharp", "symexpr.variables"]
    assert unreachable(sources) == sorted([*dead, "forms._allowed", "forms._helper"])
    assert unreachable(sources, allowed=["forms._allowed"]) == dead


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in MODULES}


def test_every_top_level_name_is_reached_from_the_cli_or_allowed():
    assert unreachable(_package_sources(), allowed=ALLOWED_UNREACHED) == []


def test_allowed_names_are_defined_and_otherwise_unreached():
    assert set(ALLOWED_UNREACHED) <= set(unreachable(_package_sources()))
