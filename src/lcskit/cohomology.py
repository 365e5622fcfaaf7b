"""Discrete local-system cohomology of cubulated flat tori.

A k-cell of the grid torus (Z/m)^n is a (direction subset, base vertex)
pair; cochains are real vectors indexed by cells.  A constant one-form
with weights mu twists the complex through a rank-one local system:
edges along axis j that cross the cut hypersurface carry the holonomy
weight e^(-mu_j), so the product of weights around the j-th axis loop is
the character value of that loop.  :func:`apply_coboundary` applies this
cut complex's D_k by shifts along the axes, without building a matrix.

Betti numbers are ranked on the spread complex in Fourier blocks.  The
gauge potential p(v) = sum_j mu_j ((v_j - cut_j - 1) mod m) / m spreads each
holonomy weight evenly, w_j^(1/m) on every edge along axis j, which makes
the complex translation invariant.  A unitary DFT per axis then splits each
coboundary into one small Koszul block per frequency l, v -> lambda ^ v with
lambda_j = w_j^(1/m) e^(2 pi i l_j / m) - 1.  The complex holds these blocks
as one dense stack per degree, and each stack is ranked by one stacked SVD
whose singular values are pooled under the package's rank rule,
:func:`lcskit.numeric.count_significant`.  Spreading is a diagonal map, not
a unitary one, so ranks are decided on the spread complex; the tests
cross-check them with dense SVD of the cut complex.

The obstruction report discretizes a non-exactness mechanism: the area
class in degree two stays at positive distance from the coboundary image
while every translation-invariant one-cochain is closed, so no invariant
primitive can exist.  On the untwisted torus the DFT is unitary on cochains
too, so the distance is measured per Fourier mode.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .numeric import RANK_RTOL, count_significant

DENSE_BUDGET = 40_000_000
"""Most entries one degree's Koszul stack may hold: V = m^n blocks of
C(n, k+1) x C(n, k), the entries a rank or the obstruction check factors.
A complex with a larger stack is refused before anything is allocated."""


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
        stacks: per degree k = 0..n-1, the Koszul blocks of the spread D_k,
            a complex array of shape (V, C(n, k+1), C(n, k)) whose first
            index is the frequency l (ordered as the vertices) and whose rows
            and columns follow ``subsets``.
        subsets: per degree, the ordered direction subsets indexing cell blocks.
    """

    n: int
    m: int
    mu: tuple[float, ...]
    weights: tuple[float, ...]
    cuts: tuple[int, ...]
    cells: tuple[int, ...]
    stacks: tuple[np.ndarray, ...]
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
) -> TwistedCochainComplex:
    """Assemble the twisted cubical cochain complex of the grid torus.

    ``mu`` defaults to all zeros (ordinary cochain complex); ``cuts``
    defaults to the last slice ``m - 1`` on every axis.  Each holonomy
    weight e^(-mu_j) must be a finite normal float above 0.  A complex with a
    Koszul stack of more than ``DENSE_BUDGET`` entries is refused before
    anything is allocated.
    """
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
        _require_budget(V, math.comb(n, k + 1), math.comb(n, k))

    # frequency l = vertex index: lambda_j(l) = w_j^(1/m) e^(2 pi i l_j / m) - 1
    coords = np.array(np.unravel_index(np.arange(V), (m,) * n))  # (n, V)
    phase = np.exp(2j * np.pi * np.arange(m) / m)
    lam = [math.exp(-mu[j] / m) * phase[coords[j]] - 1.0 for j in range(n)]

    subsets = tuple(tuple(itertools.combinations(range(n), k)) for k in range(n + 1))
    cells = tuple(len(subsets[k]) * V for k in range(n + 1))
    stacks = []
    for k in range(n):
        lower = {S: i for i, S in enumerate(subsets[k])}
        stack = np.zeros((V, len(subsets[k + 1]), len(subsets[k])), dtype=complex)
        for upper, T in enumerate(subsets[k + 1]):
            for i, t in enumerate(T):
                stack[:, upper, lower[T[:i] + T[i + 1:]]] = lam[t] if i % 2 == 0 else -lam[t]
        stacks.append(stack)
    return TwistedCochainComplex(n, m, mu, weights, cuts, cells, tuple(stacks), subsets)


def apply_coboundary(C: TwistedCochainComplex, degree: int, x: np.ndarray) -> np.ndarray:
    """D_k of the cut complex applied to a k-cochain, or to each column of
    ``x``: (D x)(T, v) = sum_i (-1)^i (c_t(v) x(T - t, v + e_t) - x(T - t, v))
    over the directions t = T[i], with c_t(v) the holonomy weight where v
    sits on the cut and 1 elsewhere."""
    if not 0 <= degree < C.n:
        raise CohomologyError(f"no coboundary leaves degree {degree} on T{C.n}")
    x = np.asarray(x, dtype=float)
    grid = x.reshape(len(C.subsets[degree]), *(C.m,) * C.n, *x.shape[1:])
    lower = {S: i for i, S in enumerate(C.subsets[degree])}
    out = np.zeros((len(C.subsets[degree + 1]), *grid.shape[1:]))
    for upper, T in enumerate(C.subsets[degree + 1]):
        for i, t in enumerate(T):
            face = grid[lower[T[:i] + T[i + 1:]]]
            crossing = np.where(np.arange(C.m) == C.cuts[t], C.weights[t], 1.0).reshape(-1, *(1,) * (face.ndim - 1 - t))
            term = crossing * np.roll(face, -1, axis=t) - face
            out[upper] += term if i % 2 == 0 else -term
    return out.reshape(C.cells[degree + 1], *x.shape[1:])


# ---------------------------------------------------------------------------
# ranks and Betti numbers


def _require_budget(blocks: int, rows: int, cols: int) -> None:
    if blocks * rows * cols > DENSE_BUDGET:
        raise CohomologyError(
            f"{blocks} blocks of {rows} x {cols} ({blocks * rows * cols} entries) exceed the "
            f"budget of {DENSE_BUDGET} entries; use a smaller grid resolution m"
        )


def matrix_rank_qr(M: np.ndarray, block_rows: int) -> int:
    """Rank of the block-diagonal matrix whose blocks, ``block_rows`` rows
    each, are stacked row-wise in the 2-D array ``M``.

    One stacked SVD factors every block, and the rank rule is applied to the
    pooled singular values, as it would be to those of the whole
    block-diagonal matrix, never per block.  ``DENSE_BUDGET`` bounds the
    entries of ``M``.  The name is kept for the benchmark traces that key on it.
    """
    rows, cols = M.shape
    _require_budget(rows // block_rows, block_rows, cols)
    s = np.linalg.svd(M.reshape(-1, block_rows, cols), compute_uv=False)
    return int(count_significant(s.ravel()))


def twisted_betti(C: TwistedCochainComplex) -> list[int]:
    """Betti numbers b_k = c_k - r_k - r_(k-1) of the twisted complex, with
    each rank r_k taken over the Koszul stack of D_k (r_k = 0 outside 0..n-1)."""
    ranks = [0, *(matrix_rank_qr(S.reshape(-1, S.shape[2]), S.shape[1]) for S in C.stacks), 0]
    return [c - ranks[k + 1] - ranks[k] for k, c in enumerate(C.cells)]


# ---------------------------------------------------------------------------
# invariant cochains


def invariant_cochain_basis(C: TwistedCochainComplex, degree: int) -> np.ndarray:
    """Basis (columns) of translation-invariant degree-k cochains: one
    constant block per direction subset."""
    if not 0 <= degree <= C.n:
        raise CohomologyError(f"degree {degree} out of range 0..{C.n}")
    return np.kron(np.eye(len(C.subsets[degree])), np.ones((C.vertex_count, 1)))


def constant_area_cochain(C: TwistedCochainComplex, axes: tuple[int, int] = (0, 1)) -> np.ndarray:
    """The degree-two cochain equal to one on every cell spanning ``axes``."""
    if C.n < 2:
        raise CohomologyError("area cochains need dimension at least 2")
    i, j = sorted(axes)
    if i == j:
        raise CohomologyError("area axes must differ")
    return invariant_cochain_basis(C, 2)[:, C.subset_offset(2, (i, j))]


# ---------------------------------------------------------------------------
# the obstruction report


def image_distance(C: TwistedCochainComplex, a: np.ndarray) -> float:
    """Normalized distance ||a - P a|| / ||a|| of a nonzero two-cochain from
    the image of D_1 on the untwisted torus, P the orthogonal projection.

    A unitary DFT per direction subset carries the image of D_1 to the
    ranges of the Koszul blocks B_1(l), so each frequency of ``a`` is
    projected onto the range of its block.  The range is spanned by the left
    singular vectors whose singular values pass the rank rule pooled over
    all blocks, the cut the rank of D_1 uses.
    """
    if any(w != 1.0 for w in C.weights):
        raise CohomologyError("the DFT is unitary on cochains only with trivial weights (mu = 0)")
    grid = a.reshape(len(C.subsets[2]), *(C.m,) * C.n)
    modes = np.fft.fftn(grid, axes=range(1, C.n + 1), norm="ortho").reshape(len(C.subsets[2]), -1).T
    U, s, _ = np.linalg.svd(C.stacks[1], full_matrices=False)
    kept = s > RANK_RTOL * np.max(s, initial=0.0)  # count_significant's rule, pooled
    coefficients = np.where(kept, np.einsum("vij,vi->vj", U.conj(), modes), 0.0)
    residual = modes - np.einsum("vij,vj->vi", U, coefficients)
    return float(np.linalg.norm(residual) / np.linalg.norm(a))


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


def ot_obstruction_check(n: int, m: int, threshold: float = 0.1) -> ObstructionReport:
    """Certify the discrete obstruction mechanism on the untwisted torus.

    (a) the constant area two-cochain keeps normalized distance above
    ``threshold`` from the image of D_1; (b) D_1 annihilates every
    translation-invariant one-cochain exactly; hence (c) the area class
    admits no invariant primitive.
    """
    if n < 2:
        raise CohomologyError("the obstruction check needs dimension at least 2")
    C = build_torus_complex(n, m)  # refuses any stack over DENSE_BUDGET
    distance = image_distance(C, constant_area_cochain(C))
    if not 0.0 <= distance <= 1.0 + 1e-12:
        raise CohomologyError(f"obstruction distance {distance!r} on T{n}, m={m} left its bound [0, 1]")
    invariant_residual = float(np.max(np.abs(apply_coboundary(C, 1, invariant_cochain_basis(C, 1)))))
    passed = distance > threshold and invariant_residual == 0.0
    return ObstructionReport(n, m, distance, invariant_residual, threshold, passed)
