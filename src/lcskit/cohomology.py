"""Discrete local-system cohomology of cubulated flat tori.

A k-cell of the grid torus (Z/m)^n is a (direction subset, base vertex)
pair; cochains are real vectors indexed by cells.  A constant one-form
with weights mu twists the complex through a rank-one local system:
edges along axis j that cross the cut hypersurface carry the holonomy
weight e^(-mu_j), so the product of weights around the j-th axis loop is
the character value of that loop.  Coboundaries square to zero exactly
in floating point — cancelling terms multiply the same floats.

Betti numbers are ranked on the spread complex in Fourier blocks.  The
gauge potential p(v) = sum_j mu_j ((v_j - cut_j - 1) mod m) / m spreads each
holonomy weight evenly, w_j^(1/m) on every edge along axis j, which makes
the complex translation invariant.  A unitary DFT per axis then splits each
coboundary into one small Koszul block per frequency l, v -> lambda ^ v with
lambda_j = w_j^(1/m) e^(2 pi i l_j / m) - 1.  The blocks are ranked by
column-pivoted QR under the package's rank rule,
:func:`lcskit.numeric.count_significant`.  Spreading is a diagonal map, not
a unitary one, so ranks are decided on the spread complex; the tests
cross-check them on the cut complex with dense QR and dense SVD.

The obstruction report discretizes a non-exactness mechanism: the area
class in degree two stays at positive distance from the coboundary image
while every translation-invariant one-cochain is closed, so no invariant
primitive can exist.
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
"""Largest nominal matrix size (rows x columns) that a rank or the
obstruction check accepts."""


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
        spectral: the spread D_k after a unitary DFT per axis, complex and
            sparse, with rows and columns ordered (frequency, direction
            subset) so that each frequency's Koszul block is contiguous.
        subsets: per degree, the ordered direction subsets indexing cell blocks.
    """

    n: int
    m: int
    mu: tuple[float, ...]
    weights: tuple[float, ...]
    cuts: tuple[int, ...]
    cells: tuple[int, ...]
    coboundaries: tuple[sparse.csr_matrix, ...]
    spectral: tuple[sparse.csr_matrix, ...]
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
    weight e^(-mu_j) must be a finite normal float above 0.  A complex with a
    coboundary of more than ``budget`` dense entries is refused before
    anything is allocated.  The cut coboundaries and their Fourier blocks
    (``spectral``) are assembled together.
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
    # frequency l = vertex index: lambda_j(l) = w_j^(1/m) e^(2 pi i l_j / m) - 1
    phase = np.exp(2j * np.pi * np.arange(m) / m)
    lam = [math.exp(-mu[j] / m) * phase[coords[j]] - 1.0 for j in range(n)]

    subsets = tuple(tuple(itertools.combinations(range(n), k)) for k in range(n + 1))
    cells = tuple(len(subsets[k]) * V for k in range(n + 1))

    coboundaries, spectral = [], []
    for k in range(n):
        offset_lower = {S: i for i, S in enumerate(subsets[k])}
        n_lower, n_upper = len(subsets[k]), len(subsets[k + 1])
        rows, cols, data = [], [], []
        f_rows, f_cols, f_data = [], [], []
        for upper_offset, T in enumerate(subsets[k + 1]):
            row = upper_offset * V + vidx
            for i, t in enumerate(T):
                lower_offset = offset_lower[T[:i] + T[i + 1:]]
                lower = lower_offset * V
                sign = 1.0 if i % 2 == 0 else -1.0
                rows.append(row)
                cols.append(lower + shifted[t])
                data.append(sign * crossing[t])
                rows.append(row)
                cols.append(lower + vidx)
                data.append(np.full(V, -sign))
                f_rows.append(vidx * n_upper + upper_offset)
                f_cols.append(vidx * n_lower + lower_offset)
                f_data.append(sign * lam[t])
        size = (cells[k + 1], cells[k])
        coboundaries.append(sparse.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=size
        ))
        spectral.append(sparse.csr_matrix(
            (np.concatenate(f_data), (np.concatenate(f_rows), np.concatenate(f_cols))), shape=size
        ))

    return TwistedCochainComplex(
        n, m, mu, weights, cuts, cells, tuple(coboundaries), tuple(spectral), subsets
    )


# ---------------------------------------------------------------------------
# ranks and Betti numbers


def _require_budget(rows: int, cols: int, budget: int) -> None:
    if rows * cols > budget:
        raise CohomologyError(
            f"dense rank of a {rows} x {cols} matrix exceeds the budget of {budget} entries; "
            "use a smaller grid resolution m"
        )


def _component_positions(labels: np.ndarray, count: int) -> np.ndarray:
    """Position of each node within its component, in index order."""
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=count)
    starts = np.cumsum(sizes) - sizes
    positions = np.empty_like(labels)
    positions[order] = np.arange(labels.size) - starts[labels[order]]
    return positions


def matrix_rank_qr(M: "sparse.spmatrix | np.ndarray", budget: int = DENSE_BUDGET) -> int:
    """Rank via column-pivoted QR: the shared rank rule on |diag R|.

    Rows and columns are split into the connected components of the
    nonzero pattern, and each component's dense block is factored by LAPACK
    ``geqp3``; rows and columns that hold only zeros add nothing.  Pivoted QR
    of a block-diagonal matrix interleaves the blocks' own pivoted QRs, so
    the pooled |diag R| is the one the whole matrix would give.  A dense or
    connected matrix is one block.  ``budget`` bounds the nominal size.
    """
    from scipy import sparse
    from scipy.linalg import lapack
    from scipy.sparse import csgraph

    rows, cols = M.shape
    _require_budget(rows, cols, budget)
    A = sparse.coo_matrix(M)
    A.sum_duplicates()
    nonzero = A.data != 0
    r, c, v = A.row[nonzero], A.col[nonzero], A.data[nonzero]
    # bipartite graph: row i is node i, column j is node rows + j
    graph = sparse.coo_matrix((np.ones(r.size), (r, rows + c)), shape=(rows + cols,) * 2)
    count, labels = csgraph.connected_components(graph, directed=False)
    row_label, col_label = labels[:rows], labels[rows:]
    row_pos = _component_positions(row_label, count)
    col_pos = _component_positions(col_label, count)
    heights = np.bincount(row_label, minlength=count)
    widths = np.bincount(col_label, minlength=count)
    label = row_label[r]
    dtype = np.result_type(v.dtype, np.float64)
    diagonals = []
    shapes = np.stack([heights, widths], axis=1)[(heights > 0) & (widths > 0)]
    for h, w in np.unique(shapes, axis=0).tolist():
        members = np.flatnonzero((heights == h) & (widths == w))
        slot = np.empty(count, dtype=np.intp)
        slot[members] = np.arange(members.size)
        entries = (heights[label] == h) & (widths[label] == w)
        stack = np.zeros((members.size, h, w), dtype=dtype)
        stack[slot[label[entries]], row_pos[r[entries]], col_pos[c[entries]]] = v[entries]
        geqp3, = lapack.get_lapack_funcs(("geqp3",), (stack,))
        factored = np.array([geqp3(block)[0] for block in stack])
        diagonals.append(np.abs(np.diagonal(factored, axis1=1, axis2=2)).ravel())
    return int(count_significant(np.concatenate([np.zeros(0), *diagonals])))


def complex_betti(coboundaries, cells, budget: int = DENSE_BUDGET) -> list[int]:
    """Betti numbers b_k = c_k - r_k - r_(k-1) of a cochain complex given its
    coboundary matrices (r_k = 0 outside them)."""
    ranks = [0, *(matrix_rank_qr(D, budget) for D in coboundaries), *[0] * len(cells)]
    return [int(c) - ranks[k + 1] - ranks[k] for k, c in enumerate(cells)]


def twisted_betti(C: TwistedCochainComplex, budget: int = DENSE_BUDGET) -> list[int]:
    """Betti numbers b^0..b^n of the twisted complex, ranked in the Fourier
    blocks of the spread complex (``C.spectral``)."""
    return complex_betti(C.spectral, C.cells, budget)


# ---------------------------------------------------------------------------
# invariant cochains


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
    C = build_torus_complex(n, m, budget=budget)  # refuses any D_k over budget
    D1 = C.coboundaries[1].toarray()
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
