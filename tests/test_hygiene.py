"""Source hygiene checks over ``src/lcskit``: scans written on the stdlib
``ast`` module, and a census of the functions that the bundled runs enter."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from run_census import code_location, executable_lines, line_ranges

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


def second_rank_rules(source: str) -> list[int]:
    """Lines of calls that would bring a second rank rule next to
    ``numeric.count_significant``: ``lstsq`` whose ``rcond`` is not
    ``RANK_RTOL`` (numpy's default cutoff is machine epsilon times the larger
    dimension), and any ``matrix_rank`` or ``pinv``, whose cutoffs are their
    own whatever their arguments.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr in ("matrix_rank", "pinv"):
            lines.append(node.lineno)
        elif node.func.attr == "lstsq":
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
    assert second_rank_rules(source) == [4, 5, 6]


def test_rank_rule_scanner_flags_matrix_rank_and_pinv():
    source = (
        "import numpy as np\n"
        "from .numeric import RANK_RTOL\n"
        "np.linalg.matrix_rank(A)\n"
        "np.linalg.matrix_rank(A, rtol=RANK_RTOL)\n"
        "np.linalg.pinv(A)\n"
        "np.linalg.pinv(A, rcond=RANK_RTOL)\n"
        "x = np.linalg.svd(A, compute_uv=False)\n"
        "numeric.numerical_rank(A)\n"
    )
    assert second_rank_rules(source) == [3, 4, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_lstsq_cuts_at_rank_rtol(path):
    assert second_rank_rules(path.read_text()) == []


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



# Modules that must import light: the front end and the report model load no
# numpy and no computational sibling when imported, the numerical layers
# that a cohomology run loads do not pull in the symbolic ones, and the
# symbolic layers that build structures load neither numpy nor the numerical
# layer nor the sample stream.
COMPUTATIONAL = (
    "cohomology", "embed", "forms", "models", "numeric", "pcg64", "reduction", "symexpr", "twisted",
)
LOADS_LIGHT = {
    "__init__.py": ("numpy", *COMPUTATIONAL),
    "cli.py": ("numpy", *COMPUTATIONAL),
    "report.py": ("numpy", *COMPUTATIONAL),
    "numeric.py": ("forms", "symexpr"),
    "cohomology.py": ("forms", "symexpr"),
    "symexpr.py": ("numpy", "numeric", "pcg64"),
    "forms.py": ("numpy", "numeric", "pcg64"),
    "models.py": ("numpy", "numeric", "pcg64"),
    "twisted.py": ("numpy", "numeric", "pcg64"),
}


def _loaded_modules(node: ast.Import | ast.ImportFrom) -> set[str]:
    """Top-level names of the modules an import statement loads, ``lcskit``
    siblings by their bare name (``forms`` for ``from .forms import x``)."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    else:
        module = ".".join(filter(None, ["lcskit" if node.level else "", node.module]))
        dotted = [f"{module}.{alias.name}" for alias in node.names] if module == "lcskit" else [module]
    return {name.removeprefix("lcskit.").split(".")[0] for name in dotted}


def eager_imports(source: str, banned) -> list[int]:
    """Lines that import a module of ``banned`` (a top-level package such as
    ``numpy``, or a sibling ``lcskit`` module) when the module is imported."""
    return [
        node.lineno
        for node in _runs_on_import(ast.parse(source).body)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _loaded_modules(node) & set(banned)
    ]


def test_eager_import_scanner_skips_function_bodies_and_type_checking():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import json, numpy.linalg\n"
        "from numpy import ndarray\n"
        "from . import __version__\n"
        "from . import report, symexpr as sx\n"
        "from .forms import ANGULAR\n"
        "from .report import load_manifest\n"
        "import lcskit.models\n"
        "from lcskit import twisted\n"
        "from lcskit.embed import problem_circle\n"
        "if TYPE_CHECKING:\n"
        "    from . import models\n"
        "try:\n"
        "    import numpy as np\n"
        "except ImportError:\n"
        "    pass\n"
        "def run():\n"
        "    import numpy as np\n"
        "    from . import cohomology\n"
    )
    assert eager_imports(source, ("numpy", *COMPUTATIONAL)) == [2, 3, 5, 6, 8, 9, 10, 14]
    assert eager_imports(source, ("forms", "symexpr")) == [5, 6]


@pytest.mark.parametrize("name", sorted(LOADS_LIGHT))
def test_light_modules_import_no_heavy_module_at_load(name):
    assert eager_imports((SRC / name).read_text(), LOADS_LIGHT[name]) == []


BANNED_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")


def _names_banned(module: str, banned) -> bool:
    return any(module == b or module.startswith(b + ".") for b in banned)


def banned_imports(source: str, banned) -> list[int]:
    """Lines that import a module of ``banned`` (or a name from one) anywhere:
    at module level, in functions and classes, or by ``import_module`` /
    ``__import__`` of a literal name.  The package integrates its flows and
    periods and ranks its torus complexes with numpy; ``scipy.integrate``,
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
        if any(_names_banned(name, banned) for name in names):
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
    assert banned_imports(source, BANNED_SCIPY) == [2, 3, 4, 5, 6, 9, 12, 14, 15, 16, 18, 19, 20, 22]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy_integrate_or_optimize(path):
    assert banned_imports(path.read_text(), BANNED_SCIPY) == []


def numpy_random_references(source: str) -> list[int]:
    """Lines that reach ``numpy.random``: an import of it or of a name from
    it, anywhere, or a ``.random`` attribute of a name bound to numpy
    (``np.random``).  Sample points come from ``lcskit.pcg64``; numpy's
    generator would load ``secrets``, ``hashlib`` and libcrypto into every run."""
    tree = ast.parse(source)
    numpy_names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "numpy"
    }
    lines = set(banned_imports(source, ("numpy.random",)))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name) and node.value.id in numpy_names
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_numpy_random_scanner_finds_imports_and_attributes():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "import random\n"
        "x = np.random.default_rng(0)\n"
        "def f(rng=numpy.random.default_rng):\n"
        "    import numpy.random as npr\n"
        "    from numpy.random import Generator\n"
        "    from numpy import random, linalg\n"
        "    return random.random() + np.linalg.norm(x) + rng.random()\n"
        "importlib.import_module('numpy.random')\n"
        "y = np.random\n"
        "import numpy.randomness\n"
    )
    assert numpy_random_references(source) == [4, 5, 6, 7, 8, 10, 11]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reaches_numpy_random(path):
    assert numpy_random_references(path.read_text()) == []


# -- one judge for every sampled residual --------------------------------------

RETIRED_JUDGES = ("zero_checks", "value_checks", "form_is_zero", "forms_equal", "_max_abs")


def zero_check_builders(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of every ``ZeroCheck(...)`` call, by bare
    name or attribute; a call outside any function reads ``<module>``.
    ``symexpr.is_zero`` is the one place that turns sampled residuals into
    a pass flag."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "ZeroCheck":
                    found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def _lines_naming(names: tuple[str, ...], source: str) -> list[int]:
    """Lines naming any of ``names`` as a whole word: as an identifier,
    attribute, definition, import, keyword argument or in text."""
    pattern = re.compile(r"\b(" + "|".join(names) + r")\b")
    return [n for n, line in enumerate(source.splitlines(), 1) if pattern.search(line)]


def retired_judge_names(source: str) -> list[int]:
    """Lines naming a retired route to a pass flag (``RETIRED_JUDGES``)."""
    return _lines_naming(RETIRED_JUDGES, source)


def test_judge_scanners_find_builders_and_retired_names():
    source = (
        "from .symexpr import ZeroCheck, value_checks\n"
        "def is_zero(values, env, tol):\n"
        "    return ZeroCheck(True, 0.0, {}, 1, tol)\n"
        "def other(a):\n"
        "    check = sx.ZeroCheck(False, 1.0, {}, 1, 0.0)\n"
        "    def inner():\n"
        "        return [ZeroCheck(*x) for x in a]\n"
        "    return forms.form_is_zero(a) or sx.is_zero(a) or values_check(a)\n"
        "CHECK = ZeroCheck\n"
        "LAST = ZeroCheck(True, 0.0, {}, 1, 0.0)  # zero_checks\n"
        "x = np_max_abs(a) + _max_abs(a) + forms_equality\n"
    )
    assert zero_check_builders(source) == [("is_zero", 3), ("other", 5), ("inner", 7), ("<module>", 10)]
    assert retired_judge_names(source) == [1, 8, 10, 11]


def test_only_symexpr_is_zero_builds_a_zero_check():
    builders = [(path.name, *b) for path in MODULES for b in zero_check_builders(path.read_text())]
    assert [(name, where) for name, where, _ in builders] == [("symexpr.py", "is_zero")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_a_retired_judge(path):
    assert retired_judge_names(path.read_text()) == []


# -- one tree walk -----------------------------------------------------------

# The value walker and the jet walker that the one tree walk, in its value
# and jet modes, replaced, and the code generator that compiled flow
# right-hand sides beside it.
RETIRED_WALKERS = ("_eval_raw", "_jet_raw", "lambdify", "_generate", "jet_arrays")


def retired_walker_names(source: str) -> list[int]:
    """Lines naming a retired tree walker (``RETIRED_WALKERS``)."""
    return _lines_naming(RETIRED_WALKERS, source)


def test_walker_scanner_finds_retired_walkers():
    source = (
        "from .symexpr import _eval_raw\n"
        "def f(e, env, seen):\n"
        "    return sx._jet_raw(e, env, seen)\n"
        "walk = _tree_walk or _eval_raw_values or my_jet_raw\n"
        "# the jet walk of _jet_raw\n"
        "monkeypatch.setattr(sx, '_eval_raw', f)\n"
        "func = sx.lambdify(exprs, names)\n"
        "raw = _generate(exprs, names) or _generated or lambdify_all\n"
        "values, J = forms.jet_arrays(F.components, names, env)\n"
        "values, J, _ = sx.jets(F.components, env)  # jet_arrays_v2, my_jet_arrays\n"
    )
    assert retired_walker_names(source) == [1, 3, 5, 6, 7, 8, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_a_retired_walker(path):
    assert retired_walker_names(path.read_text()) == []


DYNAMIC_CODE = ("exec", "eval", "compile")


def dynamic_code_calls(source: str) -> list[int]:
    """Lines calling the builtin ``exec``, ``eval`` or ``compile``, by bare
    name or as an attribute of ``builtins``: generated source is a second
    evaluator beside the tree walk.  A method of the same name on anything
    else (``re.compile``) is not the builtin."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in DYNAMIC_CODE or (
            isinstance(func, ast.Attribute) and func.attr in DYNAMIC_CODE
            and isinstance(func.value, ast.Name) and func.value.id in ("builtins", "__builtins__")
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_dynamic_code_scanner_flags_builtins_only():
    source = (
        "import builtins, re\n"
        "exec(compile(source, '<f>', 'exec'), namespace)\n"
        "PATTERN = re.compile(r'x')\n"
        "def f(text):\n"
        "    return eval(text) + builtins.eval(text)\n"
        "g = lambda: ast.literal_eval(text) or self.compile(x) or executor(x)\n"
        "__builtins__.exec(code)\n"
        "h = exec\n"
    )
    assert dynamic_code_calls(source) == [2, 5, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_generates_code(path):
    assert dynamic_code_calls(path.read_text()) == []


# -- period lattices ---------------------------------------------------------

# The lattice heuristics that one integer-relation search replaced, the
# coefficient knob they took, and the grid the last of them enumerated.
RETIRED_LATTICE = ("_cf_relation", "_float_gcd", "_in_span", "max_coeff", "meshgrid")


def retired_lattice_names(source: str) -> list[int]:
    """Lines naming a retired lattice heuristic or knob (``RETIRED_LATTICE``)."""
    return _lines_naming(RETIRED_LATTICE, source)


def test_lattice_scanner_finds_retired_heuristics_and_knobs():
    source = (
        "from .twisted import _in_span\n"
        "def f(x, max_coeff=10):\n"
        "    return np.meshgrid(x) + twisted._float_gcd(x)\n"
        "def g(x, max_coeffs, in_span, my_cf_relation):\n"
        "    return lattice_from_periods(x, max_coeff=g)\n"
        "# the continued fractions of _cf_relation\n"
        "grid = meshgrid_like(x)\n"
    )
    assert retired_lattice_names(source) == [1, 2, 3, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_a_retired_lattice_heuristic(path):
    assert retired_lattice_names(path.read_text()) == []


# -- the settings records of the reduction chain and the embedding path -------

# The verifier's rank-cut parameter and stage one's verifier tolerance, which
# the chain's settings record and the constant VERIFY_RANK_RTOL replaced.
RETIRED_CHAIN_KNOBS = ("rank_threshold", "verify_tol")

# The functions that take the chain's settings record, and so declare no
# parameter default of their own, with verify_strong_reducibility, which the
# stages hand its samples, seed, margin and both tolerances explicitly.
CHAIN_BUILDERS = (
    "build_step1", "build_step2", "build_step3", "build_step4", "concatenation_residual", "run_reduction_chain",
    "verify_strong_reducibility",
)
# The same for the embedding path's record, with radius_bound, which takes
# its rho, samples and seed as explicit arguments.
EMBED_BUILDERS = (
    "build_psi2", "build_psi3", "build_sphere_pipeline", "build_lcs_embedding", "radius_bound",
)


def retired_chain_knob_names(source: str) -> list[int]:
    """Lines naming a retired chain knob (``RETIRED_CHAIN_KNOBS``)."""
    return _lines_naming(RETIRED_CHAIN_KNOBS, source)


def test_chain_knob_scanner_finds_retired_knobs():
    source = (
        "def verify(data, rank_threshold=1e-8):\n"
        "    return kernel_bases(M, rank_threshold)\n"
        "x = VERIFY_RANK_RTOL + verify_tolerance + my_rank_threshold\n"
        "build_step1(chart, decomp, verify_tol=1e-8)\n"
        "# the old rank_threshold\n"
    )
    assert retired_chain_knob_names(source) == [1, 2, 4, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_a_retired_chain_knob(path):
    assert retired_chain_knob_names(path.read_text()) == []


def defaulted_builder_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for every parameter default, positional or
    keyword-only, declared by a function named in ``CHAIN_BUILDERS`` or
    ``EMBED_BUILDERS``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in CHAIN_BUILDERS + EMBED_BUILDERS:
            args = node.args
            positional = args.posonlyargs + args.args
            found += [(node.name, a.arg) for a in positional[len(positional) - len(args.defaults):]]
            found += [(node.name, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return sorted(found)


def test_builder_default_scanner_finds_positional_and_keyword_only_defaults():
    source = (
        "def build_step1(chart, decomp, settings):\n"
        "    def run_reduction_chain(x, samples=150): ...\n"
        "def build_step2(chart, settings, *, window=0.25, margin): ...\n"
        "def build_step4(a, /, b=1, *args, c, d=None): ...\n"
        "def verify_strong_reducibility(data, samples=200): ...\n"
        "class Chain:\n"
        "    def concatenation_residual(self, tol=1e-6): ...\n"
        "def radius_bound(pieces, rho, samples=400, seed=0): ...\n"
        "def build_psi2(problem, settings, doubled_pair=True): ...\n"
        "def build_psi1(problem, tol=1e-9): ...\n"
    )
    assert defaulted_builder_parameters(source) == [
        ("build_psi2", "doubled_pair"), ("build_step2", "window"), ("build_step4", "b"), ("build_step4", "d"),
        ("concatenation_residual", "tol"), ("radius_bound", "samples"), ("radius_bound", "seed"),
        ("run_reduction_chain", "samples"), ("verify_strong_reducibility", "samples"),
    ]


def test_no_chain_builder_declares_a_default():
    for module, builders in (("reduction.py", CHAIN_BUILDERS), ("embed.py", EMBED_BUILDERS)):
        tree = ast.parse((SRC / module).read_text())
        assert set(builders) <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert [found for path in MODULES for found in defaulted_builder_parameters(path.read_text())] == []


# -- one unit-sphere stage ----------------------------------------------------

# The padding stage that stage 3 absorbed, the certification helper it shared
# with stage 3, and its labels and target names (``pad<N>:`` and
# ``<problem>_stage3_pad<N>``), as a pattern.
RETIRED_PADDING = ("pad_to_dimension", "_unit_sphere_certs", r"\w*pad\d*")


def retired_padding_names(source: str) -> list[int]:
    """Lines naming the retired padding stage (``RETIRED_PADDING``)."""
    return _lines_naming(RETIRED_PADDING, source)


def test_padding_scanner_finds_the_retired_stage_and_its_labels():
    source = (
        "from .embed import pad_to_dimension\n"
        "sol = embed.pad_to_dimension(sol, N, settings)\n"
        "certs = _unit_sphere_certs(problem, maps, eta_c, settings, label, where)\n"
        "target = _sphere_target(f'{name}_stage3_pad{N}', N, 1.0)\n"
        "# labelled stage2:, stage3: or pad<N>:\n"
        "label = 'pad4:circle:sphere'\n"
        "# stage 3 lands on the padded target, its padding pairs held at zero\n"
        "pads = zero_pads + my_pad_to_dimension_v2 + unit_sphere_certs\n"
    )
    assert retired_padding_names(source) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_the_retired_padding_stage(path):
    assert retired_padding_names(path.read_text()) == []


# -- reachability ------------------------------------------------------------

# Every run enters through the command line; module-level statements run on import.
ROOTS = ("cli.main",)

# Top-level names that no run reaches but that stay, each with its reason.
ALLOWED_UNREACHED = {
    "twisted.extract_lee": "perfbench/tracer.py wraps it by name, and `--trace 1` "
    "raises CoverageError when a target is missing",
    "models.model_liouville": "no catalog entry builds it, but perfbench/tracer.py wraps it by name "
    "and perfbench/layers.py sums its self time",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SCOPES = (*_DEFS, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _import_targets(node: ast.Import | ast.ImportFrom, modules: set[str]) -> dict[str, str | None]:
    """Names an import binds: sibling module ``m`` as ``"m"``, name ``f`` of
    sibling ``m`` as ``"m.f"`` (of the package's own ``__init__`` as
    ``"__init__.f"``), anything else as ``None``."""
    if not (isinstance(node, ast.ImportFrom) and node.level == 1):
        return {(a.asname or a.name.split(".")[0]): None for a in node.names}
    if node.module is None:
        return {(a.asname or a.name): (a.name if a.name in modules else f"__init__.{a.name}") for a in node.names}
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
        "__init__": (
            "def load(name): ...\n"
            "def unload(name): ...\n"
        ),
        "cli": (
            "from . import forms as fm\n"
            "from .symexpr import add\n"
            "def main():\n"
            "    return fm.wedge(add(1))\n"
            "if __name__ == '__main__':\n"
            "    main()\n"
        ),
        "symexpr": (
            "from . import load\n"
            "np = load('numpy')\n"
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
    dead = ["__init__.unload", "forms.flat", "forms.sharp", "symexpr.variables"]
    assert unreachable(sources) == sorted([*dead, "forms._allowed", "forms._helper"])
    assert unreachable(sources, allowed=["forms._allowed"]) == dead


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in MODULES}


def test_every_top_level_name_is_reached_from_the_cli_or_allowed():
    assert unreachable(_package_sources(), allowed=ALLOWED_UNREACHED) == []


def test_allowed_names_are_defined_and_otherwise_unreached():
    assert set(ALLOWED_UNREACHED) <= set(unreachable(_package_sources()))


# -- run census ----------------------------------------------------------------
#
# What the bundled runs actually enter.  ``tests/run_census.py`` runs ``lcskit
# run selftest``, each benchmark workload manifest at seeds 7 and 21 and
# ``lcskit report`` in one fresh interpreter under ``sys.setprofile``.  Every
# function, method, closure and lambda compiled from ``src/lcskit`` must be
# entered there, or be listed here with the test that reaches it instead.

CENSUS = Path(__file__).resolve().parent / "run_census.py"

# Every reason opens with one tag from a closed set, then says why no bundled
# run enters the function and names the test that does.  Code that only tests
# reach has no tag: it is deleted, not listed.
UNENTERED_TAGS = ("error path", "input", "printing", "guard", "benchmark", "interface")

_PRINTING = "printing; for messages; tests/test_symexpr.py::test_to_string_round_trips"
_COPYING = "guard; nodes copy and pickle to themselves; tests/test_symexpr.py::test_nodes_copy_and_pickle_to_themselves"
ALLOWED_UNENTERED = {
    "cli._default_output": "input; runs without -o; tests/test_cli.py::test_default_output_is_named_after_the_manifest",
    "embed.CertificationError.__init__": "error path; tests/test_cli.py::test_a_certificate_that_raises_keeps_its_record",
    "embed._check_radicand": "error path; tests/test_embed.py::test_stage2_radius_fault_is_told_from_other_walk_errors",
    "embed.problem_zero_form": "input; the zero_form corpus, which no bundled manifest names; "
    "tests/test_embed.py::test_psi2_zero_form_both_variants",
    "models.model_liouville": "benchmark; no catalog entry builds it, but perfbench/tracer.py wraps it by name; "
    "tests/test_models.py::test_liouville_structure_is_exact_symplectic",
    "numeric.PointMap.__call__": "interface; the stub, which every point map overrides",
    "numeric.flow.rhs[2]": "benchmark; flow(with_jacobian=False): perfbench/tracer.py reads that parameter by name; "
    "tests/test_numeric.py::test_flow_escape_is_masked",
    "reduction.NonConstantRankError.__init__": "error path; "
    "tests/test_reduction.py::test_non_constant_rank_raises_with_witnesses",
    "reduction._witness": "error path; tests/test_reduction.py::test_non_constant_rank_raises_with_witnesses",
    "report.<lambda>[13]": "input; the margin check, a key no bundled manifest sets; "
    "tests/test_cli.py::test_chain_window_and_margin_are_checked",
    "report.<lambda>[14]": "input; the rho check, a key no bundled manifest sets; "
    "tests/test_cli.py::test_embed_rho_at_most_one_is_refused_at_load",
    "report.<lambda>[15]": "input; the cuts check, a key no bundled manifest sets; "
    "tests/test_cli.py::test_cohomology_sizes_and_cuts_must_be_integers_in_range",
    "report.RunReport.stable_dict": "benchmark; perfbench/run.py judges determinism on it; "
    "tests/test_cli.py::test_repeat_runs_identical_modulo_timestamps",
    "report._did_you_mean": "error path; tests/test_cli.py::test_unknown_manifest_key_is_refused_before_any_task_runs",
    "report._failure_record": "error path; tests/test_cli.py::test_task_exceptions_become_failing_records",
    "report._raised_record": "error path; tests/test_cli.py::test_a_certificate_that_raises_keeps_its_record",
    "report._task_label": "error path; tests/test_cli.py::test_task_exceptions_become_failing_records",
    "symexpr.EvaluationDomainError.__init__": "error path; "
    "tests/test_numeric.py::test_flow_domain_error_keeps_tree_walk_message_and_witness",
    "symexpr._domain_error": "error path; tests/test_numeric.py::test_flow_domain_error_keeps_tree_walk_message_and_witness",
    "symexpr.Expr.__repr__": "printing; for debugging; tests/test_symexpr.py::test_repr_shows_the_node_fields",
    "symexpr.Expr.__str__": _PRINTING,
    "symexpr.Expr.__setattr__": "guard; tests/test_symexpr.py::test_nodes_are_immutable",
    "symexpr.Expr.__delattr__": "guard; tests/test_symexpr.py::test_nodes_are_immutable",
    "symexpr.Expr.__copy__": _COPYING,
    "symexpr.Expr.__deepcopy__": _COPYING,
    "symexpr.Expr.__reduce__": _COPYING,
    "symexpr._needs_parens": _PRINTING,
    "symexpr._wrap": _PRINTING,
    "symexpr._const_str": _PRINTING,
    "symexpr.to_string": _PRINTING,
    "symexpr._Parser.expect": "input; parentheses, which no bundled expression holds; "
    "tests/test_symexpr.py::test_parse_evaluates",
    "symexpr._Parser.exponent": "input; ^, which no bundled expression holds; tests/test_symexpr.py::test_parse_evaluates",
    "symexpr._Parser.exponent_body": "input; ^, which no bundled expression holds; "
    "tests/test_symexpr.py::test_parse_evaluates",
    "symexpr._number_fraction": "input; ^, which no bundled expression holds; tests/test_symexpr.py::test_parse_evaluates",
    "symexpr.const": "input; a number given for an expression; tests/test_cli.py::test_a_number_stands_for_its_expression",
    "symexpr.exp": "input; no bundled structure holds exp; tests/test_symexpr.py::test_nodes_copy_and_pickle_to_themselves",
    "twisted.NotConformalError.__init__": "error path; raised by extract_lee; "
    "tests/test_twisted.py::test_extract_lee_not_conformal_raises",
    "twisted._triple_values": "benchmark; extract_lee's helper; tests/test_models.py::test_sphere_lee_recovered_pointwise",
    "twisted.extract_lee": "benchmark; perfbench/tracer.py wraps it by name; "
    "tests/test_models.py::test_sphere_lee_recovered_pointwise",
}

_COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def compiled_functions(module: str, source: str, filename: str) -> dict[str, tuple[str, int, str, int]]:
    """The functions, methods, closures and lambdas compiled from ``source``,
    each with its :func:`code_location`.

    They are keyed by qualified names built from the code-object tree
    (``module.Class.method``, ``module.outer.inner``).  A name that recurs in
    one scope gets ``[k]`` on its k-th code object in source order, from the
    second on.  Comprehensions are no scope here, since Python 3.12 inlines
    most of them; what they hold counts.  Class bodies run at import and are
    not counted either.
    """
    found = {}

    def walk(code, prefix: str, seen: Counter) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_name in _COMPREHENSIONS:
                walk(const, prefix, seen)
                continue
            seen[const.co_name] += 1
            name = f"{prefix}.{const.co_name}" + (f"[{seen[const.co_name]}]" if seen[const.co_name] > 1 else "")
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                found[name] = code_location(const)
            walk(const, name, Counter())

    walk(compile(source, filename, "exec", dont_inherit=True), module, Counter())
    return found


def test_census_names_functions_by_their_code_object_tree():
    source = (
        "import numpy as np\n"
        "class Form:\n"
        "    scale = 2\n"
        "    def value(self):\n"
        "        def rhs(t):\n"
        "            return t\n"
        "        return rhs\n"
        "    @property\n"
        "    def rank(self):\n"
        "        return [lambda: i for i in range(2)]\n"
        "def flow(jacobian):\n"
        "    if jacobian:\n"
        "        def rhs(t): return 1\n"
        "    else:\n"
        "        def rhs(t): return 2\n"
        "    return (rhs(0) for _ in range(3))\n"
        "CHECK = (lambda v: v, lambda v: not v)\n"
    )
    found = compiled_functions("forms", source, "forms.py")
    assert {name: line for name, (_, line, *_) in found.items()} == {
        "forms.Form.value": 4, "forms.Form.value.rhs": 5, "forms.Form.rank": 8, "forms.Form.rank.<lambda>": 10,
        "forms.flow": 11, "forms.flow.rhs": 13, "forms.flow.rhs[2]": 15, "forms.<lambda>": 17, "forms.<lambda>[2]": 17,
    }
    assert found["forms.flow.rhs[2]"][:3] == ("forms.py", 15, "rhs")
    assert found["forms.<lambda>"] != found["forms.<lambda>[2]"]


def test_line_census_counts_code_lines_but_not_raise_or_except():
    # the module's own entry (line 0), the docstring, the except and else:
    # lines and the raise statement with its continuation lines count no line
    source = (
        "import math\n"
        "def f(x):\n"
        "    \"\"\"Doc.\"\"\"\n"
        "    if x > 0:\n"
        "        return math.sqrt(x)\n"
        "    try:\n"
        "        y = 1 / x\n"
        "    except ZeroDivisionError:\n"
        "        raise ValueError(\n"
        "            f'bad {x}'\n"
        "        )\n"
        "    else:\n"
        "        y += 1\n"
        "    return [y for _ in range(2)]\n"
        "g = lambda v: v\n"
    )
    lines = executable_lines(source, "planted.py")
    assert sorted(lines) == [1, 2, 4, 5, 6, 7, 13, 14, 15]
    assert line_ranges(lines - {5}) == "1-2, 4, 6-7, 13-15"


@pytest.fixture(scope="module")
def unentered(tmp_path_factory) -> dict[str, str]:
    """The functions of ``src/lcskit`` that no bundled run enters, each with
    its ``file:line``."""
    tmp = tmp_path_factory.mktemp("census")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, str(CENSUS), str(tmp / "entered.json")], env=env, cwd=tmp, check=True, timeout=600)
    entered = {(str(Path(file).resolve()), *rest) for file, *rest in json.loads((tmp / "entered.json").read_text())}
    functions = {}
    for path in MODULES:
        functions.update(compiled_functions(path.stem, path.read_text(), str(path.resolve())))
    assert len(set(functions.values())) == len(functions), "two functions share a line, a name and their bytecode"
    return {name: f"{Path(file).name}:{line}" for name, (file, line, *rest) in functions.items()
            if (file, line, *rest) not in entered}


def test_every_function_is_entered_by_a_bundled_run_or_allowed(unentered):
    assert {name: where for name, where in unentered.items() if name not in ALLOWED_UNENTERED} == {}


def test_allowed_unentered_functions_are_defined_and_unentered(unentered):
    assert sorted(set(ALLOWED_UNENTERED) - set(unentered)) == []


def untagged(allowed: dict[str, str]) -> list[str]:
    """The entries of ``allowed`` whose reason does not open with one of
    :data:`UNENTERED_TAGS` followed by ``;``."""
    return sorted(name for name, reason in allowed.items() if reason.split(";", 1)[0] not in UNENTERED_TAGS)


def test_untagged_flags_a_reason_outside_the_closed_set():
    planted = {
        "forms.VectorField.scaled": "planted defects; tests/test_sensitivity.py::test_planted_defect_is_caught_in_proportion",
        "symexpr.Expr.__neg__": "operator sugar that no module uses",
        "symexpr.to_string": "printing, for messages",
        "report._task_label": "error path; tests/test_cli.py::test_task_exceptions_become_failing_records",
    }
    assert untagged(planted) == ["forms.VectorField.scaled", "symexpr.Expr.__neg__", "symexpr.to_string"]


def test_allowed_unentered_reasons_carry_a_closed_tag():
    assert untagged(ALLOWED_UNENTERED) == []


def test_allowed_unentered_reasons_name_tests_that_exist():
    tests = Path(__file__).resolve().parent
    for reason in ALLOWED_UNENTERED.values():
        for file, test in re.findall(r"tests/(\w+\.py)::(\w+)", reason):
            assert re.search(rf"^def {test}\(", (tests / file).read_text(), re.M), f"{file}::{test}"


# -- runners read checked values ----------------------------------------------
#
# ``report.parse_manifest`` checks a manifest whole before any task runs, so a
# task runner (``report._run_*``) neither raises ``ManifestError`` nor calls a
# value checker.  One check is allowed where the work happens: the upper bound
# of a chain's ``chart_index``, which is the chart count of the structure the
# runner has just built.

RUNNER_CHECKS_ALLOWED = {("_run_chain", "chart_index")}


def _root_name(callee: ast.expr) -> str | None:
    """The name a call chain starts from: ``f`` in ``f(a)(b)`` or ``f.g(a)``."""
    while isinstance(callee, (ast.Call, ast.Attribute)):
        callee = callee.func if isinstance(callee, ast.Call) else callee.value
    return callee.id if isinstance(callee, ast.Name) else None


def _raises_manifest_error(node: ast.AST) -> bool:
    return isinstance(node, ast.Raise) and node.exc is not None and any(
        isinstance(n, ast.Name) and n.id == "ManifestError" for n in ast.walk(node.exc)
    )


def value_checkers(tree: ast.Module) -> set[str]:
    """Module-level names that check a value: a function or class that raises
    ``ManifestError`` or calls a checker, and a constant built by a checker."""
    named = {node.name: node for node in tree.body if isinstance(node, _DEFS)}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and node.value is not None:
                    named[target.id] = node.value
    calls = {
        name: {_root_name(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
        for name, node in named.items()
    }
    checkers = {name for name, node in named.items() if any(map(_raises_manifest_error, ast.walk(node)))}
    while grown := {name for name in named if calls[name] & checkers} - checkers:
        checkers |= grown
    return checkers


def runner_checks(source: str) -> list[tuple[str, int]]:
    """(runner, line) of each ``raise ManifestError`` and each call of a value
    checker inside a ``_run_*`` function, less the allowed ones."""
    tree = ast.parse(source)
    checkers = value_checkers(tree)
    found = []
    for runner in tree.body:
        if not (isinstance(runner, ast.FunctionDef) and runner.name.startswith("_run_")):
            continue
        chained = set()  # inner calls of a chain like f(a)(b), judged with the outer one
        for node in ast.walk(runner):
            if _raises_manifest_error(node):
                found.append((runner.name, node.lineno))
            elif isinstance(node, ast.Call) and id(node) not in chained:
                callee = node.func
                while isinstance(callee, (ast.Call, ast.Attribute)):
                    chained.add(id(callee))
                    callee = callee.func if isinstance(callee, ast.Call) else callee.value
                if _root_name(node.func) not in checkers:
                    continue
                reads = {
                    arg.slice.value for arg in node.args
                    if isinstance(arg, ast.Subscript) and isinstance(arg.slice, ast.Constant)
                }
                if not {(runner.name, key) for key in reads} & RUNNER_CHECKS_ALLOWED:
                    found.append((runner.name, node.lineno))
    return found


def test_runner_check_scanner_flags_raises_and_checker_calls():
    source = (
        "class ManifestError(Exception): ...\n"
        "class _Check:\n"
        "    def __call__(self, value, where):\n"
        "        raise ManifestError(where)\n"
        "def _integer(low):\n"
        "    return _Check()\n"
        "_COUNT = _Check()\n"
        "def _label(task):\n"
        "    return str(task)\n"
        "def _run_a(task):\n"
        "    if task is None:\n"
        "        raise ManifestError('no task')\n"
        "    return _COUNT(task['samples'], 'samples')\n"
        "def _run_chain(task):\n"
        "    index = _integer(0)(task['chart_index'], 'chart_index')\n"
        "    _integer(0)(task['samples'], 'samples')\n"
        "    return _label(task), _COUNT.__call__(task['n'], 'n')\n"
        "def parse(task):\n"
        "    raise ManifestError('checking is fine outside the runners')\n"
    )
    assert value_checkers(ast.parse(source)) == {"_Check", "_integer", "_COUNT", "_run_a", "_run_chain", "parse"}
    assert runner_checks(source) == [("_run_a", 12), ("_run_a", 13), ("_run_chain", 16), ("_run_chain", 17)]


def test_task_runners_read_checked_values():
    assert runner_checks((SRC / "report.py").read_text()) == []


def numeric_rules(source: str, function: str) -> list[int]:
    """Lines of the top-level ``function`` that hold a numeric rule: a ``max``
    or ``min`` of two or more values (a clamp; one iterable is an aggregate),
    or a number other than an empty aggregate's ``default``."""
    [fn] = [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef) and node.name == function]
    defaults = {id(k.value) for node in ast.walk(fn) if isinstance(node, ast.Call) for k in node.keywords
                if k.arg == "default"}
    found = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("max", "min"):
            if len(node.args) > 1:
                found.add(node.lineno)
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float) and id(node) not in defaults:
            found.add(node.lineno)
    return sorted(found)


def test_numeric_rule_scanner_flags_clamps_and_numbers():
    source = (
        "def _run_embed(task):\n"
        "    worst = max((r for r in task['residuals']), default=0.0)\n"
        "    n = max(task['samples'], 200)\n"
        "    pairs = 10 if task['pairs'] is None else task['pairs']\n"
        "    return min(worst, n), pairs, task['name'], True\n"
        "def _run_other(task):\n"
        "    return task['samples'] * 2\n"
    )
    assert numeric_rules(source, "_run_embed") == [3, 4, 5]


def test_the_embed_runner_holds_no_numeric_rule():
    # how many points and at what tolerance an embedding is certified is decided in embed.py
    assert numeric_rules((SRC / "report.py").read_text(), "_run_embed") == []
