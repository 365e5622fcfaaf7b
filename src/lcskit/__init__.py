"""lcskit: verification toolkit for locally conformal symplectic structures.

Layers, bottom up:

* :mod:`lcskit.symexpr` — tiny symbolic expression kernel with seeded
  numerical zero-testing;
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
"""

__version__ = "0.1.0"  # the package's only version declaration; pyproject.toml reads it

from . import (
    cli,
    cohomology,
    embed,
    forms,
    models,
    numeric,
    reduction,
    report,
    symexpr,
    twisted,
)

__all__ = [
    "cli",
    "cohomology",
    "embed",
    "forms",
    "models",
    "numeric",
    "reduction",
    "report",
    "symexpr",
    "twisted",
]
