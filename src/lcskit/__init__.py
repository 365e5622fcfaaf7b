"""lcskit: verification toolkit for locally conformal symplectic structures.

Layers, bottom up:

* :mod:`lcskit.symexpr` — tiny symbolic expression kernel with seeded
  numerical zero-testing;
* :mod:`lcskit.pcg64` — seeded uniform draws, numpy's ``default_rng``
  stream computed without loading numpy's random subpackage;
* :mod:`lcskit.forms` — coordinate domains, differential forms, vector
  fields, smooth maps, exterior calculus;
* :mod:`lcskit.numeric` — numerical flows with Jacobians, maps that exist
  only numerically, and the package's one rank rule;
* :mod:`lcskit.twisted` — twisted differential, Lee form extraction,
  period lattices, morphism classification;
* :mod:`lcskit.models` — catalog of first-kind structures and their
  validators;
* :mod:`lcskit.embed` — spherical embedding pipeline for exact structures;
* :mod:`lcskit.reduction` — strong reducibility certificates and the
  four-stage reduction chain into the universal models;
* :mod:`lcskit.cohomology` — weighted cubical complexes on flat tori;
* :mod:`lcskit.cli` — manifest-driven verification runs with JSON reports.

Importing the package loads none of these: each submodule loads when it is
imported (``import lcskit.forms`` or ``from lcskit import forms``), and a
run loads only the modules its tasks use.  Building structures is symbolic:
``symexpr``, ``forms``, ``twisted`` and ``models`` bind numpy through
:func:`lazy_import`, so numpy runs at the first sampled evaluation, and
``numeric`` (the numerical layer, which imports numpy) loads with the first
rank or flow.
"""

import sys

__version__ = "0.1.0"  # the package's only version declaration; pyproject.toml reads it

__all__ = [
    "cli",
    "cohomology",
    "embed",
    "forms",
    "models",
    "numeric",
    "pcg64",
    "reduction",
    "report",
    "symexpr",
    "twisted",
]


def lazy_import(name: str):
    """The module ``name``, whose code runs at its first attribute access
    rather than now: the ``importlib.util.LazyLoader`` recipe of the Python
    documentation.  The lazy module is registered in ``sys.modules`` at once;
    once it has run it is a plain module again, so attribute access costs what
    it always does.  A module already imported is returned as it is.  Import
    no submodule of ``name`` by its dotted name before that first access: if
    the module's own code imports the submodule too, it would run twice.
    """
    module = sys.modules.get(name)
    if module is None:
        import importlib.util

        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        loader = importlib.util.LazyLoader(spec.loader)
        spec.loader = loader
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    return module
