"""Discrete local-system cohomology of cubulated flat tori.

A k-cell of the grid torus (Z/m)^n is a (direction subset, base vertex)
pair; cochains are real vectors indexed by cells.  A constant one-form
with weights mu twists the complex through a rank-one local system:
edges along axis j that cross the cut hypersurface carry the holonomy
weight e^(-mu_j), so the product of weights around the j-th axis loop is
the character value of that loop.  Coboundaries square to zero exactly
in floating point — cancelling terms multiply the same floats.

Betti numbers use column-pivoted QR ranks under the package's rank rule,
:func:`lcskit.numeric.count_significant` (tests cross-check against a dense
SVD route).  The averaging operator and the obstruction report discretize
a non-exactness mechanism: the area class in degree two stays at positive
distance from the coboundary image while every translation-invariant
one-cochain is closed, so no invariant primitive can exist.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .numeric import RANK_RTOL, count_significant

if TYPE_CHECKING:
    from scipy import sparse

DENSE_BUDGET = 40_000_000
"""Largest dense matrix (entry count) the rank routines will materialize."""


class CohomologyError(Exception):
    """Invalid complex parameters, oversized problem, or misuse of an operator."""


@dataclass(frozen=True, eq=False)
class TwistedCochainComplex:
    """Cubical cochain complex on (Z/m)^n with axis holonomy weights.

    Attributes:
        n: torus dimension.
        m: grid resolution per axis.
        mu: exponents; axis j carries holonomy weight e^(-mu_j).
        weights: the holonomy weights themselves.
        cuts: per-axis position of the cut hypersurface; the edge from
            ``v`` to ``v + e_j`` is weighted when ``v_j == cuts[j]``.
        cells: number of k-cells for k = 0..n.
        coboundaries: sparse D_k mapping k-cochains to (k+1)-cochains,
            for k = 0..n-1.
        subsets: per degree, the ordered direction subsets indexing cell blocks.
    """

    n: int
    m: int
    mu: tuple[float, ...]
    weights: tuple[float, ...]
    cuts: tuple[int, ...]
    cells: tuple[int, ...]
    coboundaries: tuple[sparse.csr_matrix, ...]
    subsets: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def vertex_count(self) -> int:
        return self.m**self.n

    def subset_offset(self, degree: int, dirs: tuple[int, ...]) -> int:
        """Index of a direction subset within its degree block."""
        try:
            return self.subsets[degree].index(tuple(dirs))
        except ValueError:
            raise CohomologyError(f"no degree-{degree} cells with directions {dirs}") from None

    def cell_index(self, degree: int, dirs: tuple[int, ...], vertex: tuple[int, ...]) -> int:
        flat = int(np.ravel_multi_index(tuple(vertex), (self.m,) * self.n))
        return self.subset_offset(degree, dirs) * self.vertex_count + flat


def _holonomy_weight(j: int, mu_j: float) -> float:
    """e^(-mu_j), refused unless it is a finite normal float above 0: an
    underflowing weight is no invertible holonomy."""
    try:
        w = math.exp(-mu_j)
    except OverflowError:
        w = math.inf
    if not sys.float_info.min <= w < math.inf:  # also refuses a nan mu_j
        raise CohomologyError(
            f"holonomy weight e^(-mu[{j}]) for mu[{j}] = {mu_j!r} is not a finite normal float above 0"
        )
    return w


def build_torus_complex(
    n: int,
    m: int,
    mu: "tuple[float, ...] | list[float] | None" = None,
    cuts: "tuple[int, ...] | None" = None,
    budget: int = DENSE_BUDGET,
) -> TwistedCochainComplex:
    """Assemble the twisted cubical cochain complex of the grid torus.

    ``mu`` defaults to all zeros (ordinary cochain complex); ``cuts``
    defaults to the last slice ``m - 1`` on every axis.  Each holonomy
    weight e^(-mu_j) must be a finite normal float above 0.  Every rank here is
    dense, so a complex with a coboundary of more than ``budget`` dense
    entries is refused before anything is allocated.
    """
    from scipy import sparse

    if n < 1:
        raise CohomologyError(f"torus dimension must be at least 1, got {n}")
    if m < 2:
        raise CohomologyError(f"grid resolution must be at least 2, got {m}")
    mu = tuple(0.0 for _ in range(n)) if mu is None else tuple(float(x) for x in mu)
    if len(mu) != n:
        raise CohomologyError(f"mu has {len(mu)} entries, expected {n}")
    cuts = tuple(m - 1 for _ in range(n)) if cuts is None else tuple(int(c) for c in cuts)
    if len(cuts) != n or not all(0 <= c < m for c in cuts):
        raise CohomologyError(f"cuts must be {n} positions in [0, {m})")
    weights = tuple(_holonomy_weight(j, x) for j, x in enumerate(mu))
    V = m**n
    for k in range(n):
        _require_budget(math.comb(n, k + 1) * V, math.comb(n, k) * V, budget)

    shape = (m,) * n
    vidx = np.arange(V)
    coords = np.array(np.unravel_index(vidx, shape))  # (n, V)
    shifted = []
    for j in range(n):
        moved = coords.copy()
        moved[j] = (moved[j] + 1) % m
        shifted.append(np.ravel_multi_index(tuple(moved), shape))
    crossing = [np.where(coords[j] == cuts[j], weights[j], 1.0) for j in range(n)]

    subsets = tuple(tuple(itertools.combinations(range(n), k)) for k in range(n + 1))
    cells = tuple(len(subsets[k]) * V for k in range(n + 1))

    coboundaries = []
    for k in range(n):
        offset_lower = {S: i for i, S in enumerate(subsets[k])}
        rows, cols, data = [], [], []
        for upper_offset, T in enumerate(subsets[k + 1]):
            row = upper_offset * V + vidx
            for i, t in enumerate(T):
                lower = offset_lower[T[:i] + T[i + 1:]] * V
                sign = 1.0 if i % 2 == 0 else -1.0
                rows.append(row)
                cols.append(lower + shifted[t])
                data.append(sign * crossing[t])
                rows.append(row)
                cols.append(lower + vidx)
                data.append(np.full(V, -sign))
        D = sparse.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(cells[k + 1], cells[k]),
        )
        coboundaries.append(D)

    return TwistedCochainComplex(
        n, m, mu, weights, cuts, cells, tuple(coboundaries), subsets
    )


# ---------------------------------------------------------------------------
# ranks and Betti numbers


def _require_budget(rows: int, cols: int, budget: int) -> None:
    if rows * cols > budget:
        raise CohomologyError(
            f"dense rank of a {rows} x {cols} matrix exceeds the budget of {budget} entries; "
            "use a smaller grid resolution m"
        )


def _dense(M: "sparse.spmatrix | np.ndarray", budget: int) -> np.ndarray:
    from scipy import sparse

    _require_budget(*M.shape, budget)
    return M.toarray() if sparse.issparse(M) else np.asarray(M, dtype=float)


def matrix_rank_qr(M: "sparse.spmatrix | np.ndarray", budget: int = DENSE_BUDGET) -> int:
    """Rank via column-pivoted QR: the shared rank rule on |diag R|."""
    import scipy.linalg

    R = scipy.linalg.qr(_dense(M, budget), mode="r", pivoting=True)[0]
    return int(count_significant(np.abs(np.diag(R))))


def complex_betti(coboundaries, cells, budget: int = DENSE_BUDGET) -> list[int]:
    """Betti numbers b_k = c_k - r_k - r_(k-1) of a cochain complex given its
    coboundary matrices (r_k = 0 outside them)."""
    ranks = [0, *(matrix_rank_qr(D, budget) for D in coboundaries), *[0] * len(cells)]
    return [int(c) - ranks[k + 1] - ranks[k] for k, c in enumerate(cells)]


def twisted_betti(C: TwistedCochainComplex, budget: int = DENSE_BUDGET) -> list[int]:
    """Betti numbers b^0..b^n of the twisted complex."""
    return complex_betti(C.coboundaries, C.cells, budget)


# ---------------------------------------------------------------------------
# gauge conjugation


def axis_rescaling_potential(C: TwistedCochainComplex, axis: int, c: float) -> np.ndarray:
    """Vertex potential whose conjugation multiplies the cut-crossing weights
    of one axis by e^(-c), moving the compensating factor to the next slice."""
    if not 0 <= axis < C.n:
        raise CohomologyError(f"axis {axis} out of range for dimension {C.n}")
    coords = np.array(np.unravel_index(np.arange(C.vertex_count), (C.m,) * C.n))
    target = (C.cuts[axis] + 1) % C.m
    return np.where(coords[axis] == target, float(c), 0.0)


def gauge_conjugate(
    C: TwistedCochainComplex, potential: np.ndarray
) -> tuple[sparse.csr_matrix, ...]:
    """Conjugate every coboundary by the diagonal rescaling e^(potential).

    ``potential`` is a per-vertex array; a k-cochain rescales by the value at
    its base vertex.  Conjugation is an isomorphism of complexes, so all
    Betti numbers are unchanged whatever the potential.
    """
    from scipy import sparse

    potential = np.asarray(potential, dtype=float)
    if potential.shape != (C.vertex_count,):
        raise CohomologyError(
            f"potential must have one value per vertex ({C.vertex_count}), got {potential.shape}"
        )
    scale = np.exp(potential)
    out = []
    for k, D in enumerate(C.coboundaries):
        upper = len(C.subsets[k + 1])
        lower = len(C.subsets[k])
        S_up = sparse.diags(np.tile(scale, upper))
        S_down_inv = sparse.diags(np.tile(1.0 / scale, lower))
        out.append((S_up @ D @ S_down_inv).tocsr())
    return tuple(out)


# ---------------------------------------------------------------------------
# averaging and invariant cochains


def _require_degree(C: TwistedCochainComplex, degree: int, a: np.ndarray) -> np.ndarray:
    if not 0 <= degree <= C.n:
        raise CohomologyError(f"degree {degree} out of range 0..{C.n}")
    a = np.asarray(a, dtype=float)
    if a.shape != (C.cells[degree],):
        raise CohomologyError(
            f"a degree-{degree} cochain has {C.cells[degree]} entries, got {a.shape}"
        )
    return a


def average_cochain(C: TwistedCochainComplex, degree: int, a: np.ndarray) -> np.ndarray:
    """Average a cochain over all grid translations (trivial weights only).

    Averaging is the orthogonal projection onto translation-invariant
    cochains; with trivial weights the coboundaries are translation
    equivariant, so averaging commutes with them exactly.
    """
    if any(w != 1.0 for w in C.weights):
        raise CohomologyError(
            "averaging uses the translation action; it needs trivial weights (mu = 0)"
        )
    a = _require_degree(C, degree, a)
    blocks = a.reshape(len(C.subsets[degree]), C.vertex_count)
    means = blocks.mean(axis=1)
    return np.repeat(means, C.vertex_count)


def invariant_cochain_basis(C: TwistedCochainComplex, degree: int) -> np.ndarray:
    """Basis (columns) of translation-invariant degree-k cochains: one
    constant block per direction subset."""
    if not 0 <= degree <= C.n:
        raise CohomologyError(f"degree {degree} out of range 0..{C.n}")
    count = len(C.subsets[degree])
    basis = np.zeros((C.cells[degree], count))
    for i in range(count):
        basis[i * C.vertex_count : (i + 1) * C.vertex_count, i] = 1.0
    return basis


def constant_area_cochain(C: TwistedCochainComplex, axes: tuple[int, int] = (0, 1)) -> np.ndarray:
    """The degree-two cochain equal to one on every cell spanning ``axes``."""
    if C.n < 2:
        raise CohomologyError("area cochains need dimension at least 2")
    i, j = sorted(axes)
    if i == j:
        raise CohomologyError("area axes must differ")
    a = np.zeros(C.cells[2])
    offset = C.subset_offset(2, (i, j))
    a[offset * C.vertex_count : (offset + 1) * C.vertex_count] = 1.0
    return a


# ---------------------------------------------------------------------------
# the obstruction report


@dataclass(frozen=True)
class ObstructionReport:
    """Distance of the area class from the coboundary image, plus closedness
    of every invariant one-cochain: together they rule out an invariant
    primitive for the area class."""

    n: int
    m: int
    distance: float
    invariant_residual: float
    threshold: float
    passed: bool


def ot_obstruction_check(
    n: int, m: int, threshold: float = 0.1, budget: int = DENSE_BUDGET
) -> ObstructionReport:
    """Certify the discrete obstruction mechanism on the untwisted torus.

    (a) the constant area two-cochain keeps normalized distance above
    ``threshold`` from the image of D_1; (b) D_1 annihilates every
    translation-invariant one-cochain exactly; hence (c) the area class
    admits no invariant primitive.
    """
    if n < 2:
        raise CohomologyError("the obstruction check needs dimension at least 2")
    C = build_torus_complex(n, m, budget=budget)
    D1 = _dense(C.coboundaries[1], budget)
    area = constant_area_cochain(C)
    # Cut singular values at the package's rank threshold.  With its default
    # cutoff scipy's gelsd returned distances far above 1 at n=3 (5.22 at
    # m=4), varying with the BLAS thread count.
    solution = np.linalg.lstsq(D1, area, rcond=RANK_RTOL)[0]
    residual = area - D1 @ solution
    distance = float(np.linalg.norm(residual) / np.linalg.norm(area))
    if not 0.0 <= distance <= 1.0 + 1e-12:
        raise CohomologyError(f"obstruction distance {distance!r} on T{n}, m={m} left its bound [0, 1]")
    invariant = invariant_cochain_basis(C, 1)
    invariant_residual = float(np.max(np.abs(C.coboundaries[1] @ invariant)))
    passed = distance > threshold and invariant_residual == 0.0
    return ObstructionReport(n, m, distance, invariant_residual, threshold, passed)
