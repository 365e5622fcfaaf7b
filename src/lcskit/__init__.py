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
run loads only the modules its tasks use.
"""

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
