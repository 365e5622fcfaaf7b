"""Twisted cubical complexes on grid tori: ranks, averaging, obstruction.

Betti numbers from the Fourier blocks of the spread complex are
cross-checked against pivoted QR and the dense SVD oracle on the cut
complex, and against the Kuenneth closed form; the obstruction distance is
re-derived through an independent least-squares call and an exact
orthogonality identity.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lcskit.cohomology as coh
from lcskit import numeric, report
from oracle_utils import betti_numbers_svd, kunneth_betti

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# construction


def test_cell_counts():
    C = coh.build_torus_complex(2, 4)
    assert C.cells == (16, 32, 16)
    assert [D.shape for D in C.coboundaries] == [(32, 16), (16, 32)]
    C3 = coh.build_torus_complex(3, 3)
    assert C3.cells == (27, 81, 81, 27)


def test_invalid_parameters_rejected():
    with pytest.raises(coh.CohomologyError):
        coh.build_torus_complex(0, 4)
    with pytest.raises(coh.CohomologyError):
        coh.build_torus_complex(2, 1)
    with pytest.raises(coh.CohomologyError):
        coh.build_torus_complex(2, 4, (1.0,))
    with pytest.raises(coh.CohomologyError):
        coh.build_torus_complex(2, 4, None, (0, 7))


def test_weights_are_holonomies():
    C = coh.build_torus_complex(2, 4, (1.0, SQRT2))
    assert C.weights == (math.exp(-1.0), math.exp(-SQRT2))
    assert all(w > 0 for w in C.weights)


@pytest.mark.parametrize("mu", [(-1000.0, 0.0), (1000.0, 0.0), (math.nan, 0.0)], ids=["overflow", "underflow", "nan"])
def test_weight_outside_the_normal_floats_is_refused(mu):
    # e^1000 overflows, e^-1000 underflows to 0.0 (no invertible holonomy), e^-nan is nan
    with pytest.raises(coh.CohomologyError, match=r"holonomy weight e\^\(-mu\[0\]\)"):
        coh.build_torus_complex(2, 4, mu)


def test_weights_at_the_edge_of_the_normal_floats():
    assert coh.build_torus_complex(1, 4, (708.0,)).weights == (math.exp(-708.0),)
    assert coh.build_torus_complex(1, 4, (-709.0,)).weights == (math.exp(709.0),)
    with pytest.raises(coh.CohomologyError):
        coh.build_torus_complex(1, 4, (709.0,))  # e^-709 is subnormal


@pytest.mark.parametrize("n,m,mu", [(2, 4, (1.0, SQRT2)), (3, 3, (0.3, 0.0, 2.0))])
def test_coboundary_squares_to_zero_exactly(n, m, mu):
    C = coh.build_torus_complex(n, m, mu)
    for k in range(n - 1):
        product = (C.coboundaries[k + 1] @ C.coboundaries[k]).toarray()
        assert np.max(np.abs(product)) == 0.0


def test_cell_index_roundtrip():
    C = coh.build_torus_complex(2, 4)
    assert C.cell_index(0, (), (0, 0)) == 0
    assert C.cell_index(1, (1,), (0, 0)) == C.vertex_count
    assert C.cell_index(2, (0, 1), (3, 2)) == int(np.ravel_multi_index((3, 2), (4, 4)))
    with pytest.raises(coh.CohomologyError):
        C.subset_offset(1, (5,))


def test_weighted_difference_operator_injective():
    C = coh.build_torus_complex(1, 8, (1.0,))
    D0 = C.coboundaries[0].toarray()
    assert np.linalg.matrix_rank(D0) == 8
    assert coh.twisted_betti(C) == [0, 0]


# ---------------------------------------------------------------------------
# Betti numbers


def test_untwisted_betti_are_binomials():
    assert coh.twisted_betti(coh.build_torus_complex(2, 8)) == [1, 2, 1]
    assert coh.twisted_betti(coh.build_torus_complex(1, 6)) == [1, 1]
    assert coh.twisted_betti(coh.build_torus_complex(3, 4)) == [1, 3, 3, 1]


def test_twisted_betti_vanish():
    assert coh.twisted_betti(coh.build_torus_complex(2, 8, (1.0, 0.0))) == [0, 0, 0]
    assert coh.twisted_betti(coh.build_torus_complex(3, 6, (SQRT2, 0.0, 0.0))) == [0, 0, 0, 0]


@pytest.mark.parametrize(
    "n,m,mu",
    [
        (2, 8, (0.0, 0.0)),
        (2, 8, (1.0, 0.0)),
        (1, 8, (1.0,)),
        (3, 4, (0.5, 0.0, 0.25)),
    ],
)
def test_betti_against_svd_oracle(n, m, mu):
    C = coh.build_torus_complex(n, m, mu)
    assert coh.twisted_betti(C) == betti_numbers_svd(C.coboundaries, C.cells)


@pytest.mark.parametrize("mu", [(0.25, 0.0), (1.0, 1.0), (0.0, SQRT2)])
def test_nonzero_mu_kills_ends(mu):
    b = coh.twisted_betti(coh.build_torus_complex(2, 6, mu))
    assert b[0] == 0 and b[-1] == 0


def test_grid_refinement_stability():
    for mu in [None, (1.0, 0.0)]:
        coarse = coh.twisted_betti(coh.build_torus_complex(2, 8, mu))
        fine = coh.twisted_betti(coh.build_torus_complex(2, 16, mu))
        assert coarse == fine


def test_cut_placement_invariance():
    for mu in [(1.0, SQRT2), (1.0, 0.0)]:
        default = coh.twisted_betti(coh.build_torus_complex(2, 6, mu))
        moved = coh.twisted_betti(coh.build_torus_complex(2, 6, mu, (2, 4)))
        assert default == moved


def twists(bound):
    """0, or a twist with 1e-6 <= |mu| <= bound.  A twist below about
    m * 1e-9 sits under the rank rule's relative threshold on any route."""
    return st.one_of(st.just(0.0), st.floats(1e-6, bound), st.floats(-bound, -1e-6))


@st.composite
def kunneth_cases(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 5 if n == 3 else 8))
    return n, m, draw(st.lists(twists(700.0), min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(case=kunneth_cases())
@example(case=(1, 8, [-30.0]))
@example(case=(2, 8, [-22.0, 0.0]))
@example(case=(3, 4, [0.0, -700.0, 700.0]))
def test_betti_equal_the_kunneth_closed_form(case):
    # From about mu_j = -22 on, the cut complex carries e^(-mu_j) on one edge
    # and 1 on the rest, which swamps the relative threshold there: pivoted QR
    # and SVD on the cut matrices both report nonzero Betti numbers.
    n, m, mu = case
    assert coh.twisted_betti(coh.build_torus_complex(n, m, mu)) == kunneth_betti(n, mu)


def _spread_potential(C):
    """p(v) = sum_j mu_j ((v_j - cut_j - 1) mod m) / m: conjugating by e^p puts
    the weight w_j^(1/m) on every edge along axis j."""
    coords = np.array(np.unravel_index(np.arange(C.vertex_count), (C.m,) * C.n))
    return sum(C.mu[j] * ((coords[j] - C.cuts[j] - 1) % C.m) / C.m for j in range(C.n))


def _unitary_dft(n, m):
    """The unitary DFT of (Z/m)^n on vertex-indexed vectors, one axis at a time."""
    axis = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / math.sqrt(m)
    F = np.ones((1, 1))
    for _ in range(n):
        F = np.kron(F, axis)
    return F


@st.composite
def small_twisted_tori(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 5))
    mu = draw(st.lists(twists(5.0), min_size=n, max_size=n))
    cuts = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return coh.build_torus_complex(n, m, mu, cuts)


@settings(max_examples=40, deadline=None)
@given(C=small_twisted_tori())
def test_inverse_dft_of_the_blocks_is_the_spread_complex(C):
    V = C.vertex_count
    F = _unitary_dft(C.n, C.m)
    spread = coh.gauge_conjugate(C, _spread_potential(C))
    for k, block in enumerate(C.spectral):
        upper, lower = len(C.subsets[k + 1]), len(C.subsets[k])
        # rows and columns (frequency, subset) -> (subset, vertex) of the cut complex
        S = block.toarray().reshape(V, upper, V, lower).transpose(1, 0, 3, 2).reshape(upper * V, lower * V)
        rebuilt = np.kron(np.eye(upper), F.conj().T) @ S @ np.kron(np.eye(lower), F)
        D = spread[k].toarray()
        # a few ulp per entry, growing like the square root of the DFT length
        ulps = 8 * math.sqrt(V)
        assert np.max(np.abs(rebuilt - D)) <= ulps * np.finfo(float).eps * np.max(np.abs(D))


@settings(max_examples=40, deadline=None)
@given(C=small_twisted_tori())
def test_spectral_betti_equal_dense_routes_on_the_cut_complex(C):
    # the complex spectral blocks are not passed to the SVD oracle: it casts to float
    betti = coh.twisted_betti(C)
    assert betti == coh.complex_betti(C.coboundaries, C.cells)
    assert betti == betti_numbers_svd(C.coboundaries, C.cells)


def test_betti_task_ranks_each_coboundary_once_as_a_matrix(monkeypatch):
    # The benchmark's tracer wraps ``cohomology.matrix_rank_qr`` and reads
    # ``M.shape`` as (rows, cols); torus ranks must all pass through it.
    exact = coh.matrix_rank_qr
    shapes = []

    def counting(M, budget=coh.DENSE_BUDGET):
        shapes.append(M.shape)
        return exact(M, budget)

    def refused(*args, **kwargs):
        raise AssertionError("the torus path ranks through cohomology.matrix_rank_qr only")

    monkeypatch.setattr(coh, "matrix_rank_qr", counting)
    monkeypatch.setattr(numeric, "numerical_rank", refused)
    task = {"kind": "cohomology", "n": 3, "m": 8, "expect_betti": [1, 3, 3, 1]}
    assert report.run_manifest(report.parse_manifest({"seed": 0, "tasks": [task]})).green
    assert shapes == [(1536, 512), (1536, 1536), (512, 1536)]


def test_memory_budget_error_mentions_resolution():
    C = coh.build_torus_complex(2, 8)
    with pytest.raises(coh.CohomologyError, match="smaller grid resolution"):
        coh.twisted_betti(C, budget=1000)


def test_build_refuses_exactly_the_largest_coboundary_over_budget():
    # on (Z/4)^3 the largest coboundary is D_1, 192 x 192
    assert coh.build_torus_complex(3, 4, budget=192 * 192).cells == (64, 192, 192, 64)
    with pytest.raises(coh.CohomologyError, match="dense rank of a 192 x 192 matrix"):
        coh.build_torus_complex(3, 4, budget=192 * 192 - 1)


@pytest.mark.parametrize(
    "check",
    [lambda: coh.build_torus_complex(2, 500), lambda: coh.ot_obstruction_check(2, 500)],
    ids=["betti", "obstruction"],
)
def test_oversized_torus_is_refused_before_assembly(check):
    tracemalloc.start()
    try:
        with pytest.raises(coh.CohomologyError, match="smaller grid resolution"):
            check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_euler_characteristic():
    for n, mu in [(2, (1.0, 0.5)), (3, (1.0, 1.0, 1.0)), (1, (0.5,))]:
        C = coh.build_torus_complex(n, 4, mu)
        total = sum((-1) ** k * b for k, b in enumerate(coh.twisted_betti(C)))
        assert total == 0


def test_determinism():
    A = coh.build_torus_complex(2, 6, (1.0, SQRT2))
    B = coh.build_torus_complex(2, 6, (1.0, SQRT2))
    for Da, Db in zip(A.coboundaries, B.coboundaries):
        assert np.array_equal(Da.toarray(), Db.toarray())
    assert coh.twisted_betti(A) == coh.twisted_betti(B)


# ---------------------------------------------------------------------------
# averaging


def test_average_fixes_invariant_cochains():
    C = coh.build_torus_complex(2, 6)
    basis = coh.invariant_cochain_basis(C, 1)
    for col in basis.T:
        assert np.array_equal(coh.average_cochain(C, 1, col), col)


def test_average_is_idempotent_projection():
    C = coh.build_torus_complex(2, 6)
    rng = np.random.default_rng(7)
    a = rng.standard_normal(C.cells[1])
    avg = coh.average_cochain(C, 1, a)
    again = coh.average_cochain(C, 1, avg)
    assert np.max(np.abs(again - avg)) < 1e-14
    blocks = avg.reshape(-1, C.vertex_count)
    assert np.max(np.abs(blocks - blocks[:, :1])) == 0.0


def test_average_commutes_with_coboundary():
    C = coh.build_torus_complex(2, 6)
    rng = np.random.default_rng(11)
    a = rng.standard_normal(C.cells[1])
    avg_then_d = C.coboundaries[1] @ coh.average_cochain(C, 1, a)
    d_then_avg = coh.average_cochain(C, 2, C.coboundaries[1] @ a)
    # invariant cochains are exactly closed, so the first route is exactly zero
    assert np.max(np.abs(avg_then_d)) == 0.0
    assert np.max(np.abs(avg_then_d - d_then_avg)) < 1e-13


def test_average_rejects_twisted_complex():
    C = coh.build_torus_complex(2, 4, (1.0, 0.0))
    with pytest.raises(coh.CohomologyError, match="trivial weights"):
        coh.average_cochain(C, 1, np.zeros(C.cells[1]))


def test_average_validates_input():
    C = coh.build_torus_complex(2, 4)
    with pytest.raises(coh.CohomologyError):
        coh.average_cochain(C, 3, np.zeros(5))
    with pytest.raises(coh.CohomologyError):
        coh.average_cochain(C, 1, np.zeros(7))


# ---------------------------------------------------------------------------
# gauge conjugation


def test_gauge_conjugation_preserves_betti():
    C = coh.build_torus_complex(2, 6, (1.0, SQRT2))
    rng = np.random.default_rng(3)
    potential = rng.uniform(-1.0, 1.0, C.vertex_count)
    conjugated = coh.gauge_conjugate(C, potential)
    assert coh.complex_betti(conjugated, C.cells) == coh.twisted_betti(C)


def test_axis_rescaling_moves_cut_weight():
    C = coh.build_torus_complex(2, 4, (1.0, 0.0))
    c = 0.7
    moved = coh.gauge_conjugate(C, coh.axis_rescaling_potential(C, 0, c))[0]
    cut_row = C.cell_index(1, (0,), (3, 0))
    cut_col = C.cell_index(0, (), (0, 0))
    original = C.coboundaries[0][cut_row, cut_col]
    assert np.isclose(original, math.exp(-1.0))
    assert np.isclose(moved[cut_row, cut_col], original * math.exp(-c))
    next_row = C.cell_index(1, (0,), (0, 0))
    next_col = C.cell_index(0, (), (1, 0))
    assert np.isclose(C.coboundaries[0][next_row, next_col], 1.0)
    assert np.isclose(moved[next_row, next_col], math.exp(c))


def test_gauge_validates_input():
    C = coh.build_torus_complex(2, 4)
    with pytest.raises(coh.CohomologyError):
        coh.gauge_conjugate(C, np.zeros(3))
    with pytest.raises(coh.CohomologyError):
        coh.axis_rescaling_potential(C, 5, 1.0)


# ---------------------------------------------------------------------------
# obstruction mechanism


def test_obstruction_distance_and_invariant_closedness():
    report = coh.ot_obstruction_check(2, 8)
    assert report.passed
    assert report.distance > 0.9
    assert report.invariant_residual == 0.0


def test_obstruction_in_dimension_three():
    report = coh.ot_obstruction_check(3, 6)
    assert report.passed
    assert report.distance > 0.1


@pytest.mark.parametrize("m", [4, 6, 8])
def test_obstruction_distance_is_one_in_dimension_three(m):
    """The area cochain is orthogonal to the coboundary image at every n, so
    its normalized distance from that image is exactly its full norm."""
    report = coh.ot_obstruction_check(3, m)
    assert abs(report.distance - 1.0) < 1e-12
    assert report.passed


def test_obstruction_distance_outside_its_bound_raises(monkeypatch):
    rng = np.random.default_rng(0)

    def off_image_solution(D, b, rcond=None):
        # D @ x lies in the image, orthogonal to the area, so the residual grows
        return (rng.standard_normal(D.shape[1]),)

    monkeypatch.setattr(coh.np.linalg, "lstsq", off_image_solution)
    with pytest.raises(coh.CohomologyError, match="left its bound"):
        coh.ot_obstruction_check(2, 4)


def test_obstruction_orthogonality_identity():
    """The area cochain is exactly orthogonal to the coboundary image, an
    independent certificate that its distance is the full norm."""
    C = coh.build_torus_complex(2, 8)
    area = coh.constant_area_cochain(C)
    assert np.max(np.abs(C.coboundaries[1].T @ area)) == 0.0
    report = coh.ot_obstruction_check(2, 8)
    assert abs(report.distance - 1.0) < 1e-10


def test_obstruction_matches_independent_least_squares():
    C = coh.build_torus_complex(2, 6)
    D1 = C.coboundaries[1].toarray()
    area = coh.constant_area_cochain(C)
    x = np.linalg.lstsq(D1, area, rcond=None)[0]
    expected = float(np.linalg.norm(area - D1 @ x) / np.linalg.norm(area))
    report = coh.ot_obstruction_check(2, 6)
    assert abs(report.distance - expected) < 1e-12


def test_obstruction_requires_surface_directions():
    with pytest.raises(coh.CohomologyError):
        coh.ot_obstruction_check(1, 8)
    C = coh.build_torus_complex(2, 4)
    with pytest.raises(coh.CohomologyError):
        coh.constant_area_cochain(C, (1, 1))
