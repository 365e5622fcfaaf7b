"""Twisted cubical complexes on grid tori: ranks, averaging, obstruction.

Betti numbers from the Koszul stacks of the spread complex are
cross-checked against the dense SVD oracle on the sparse cut complex
(``oracle_utils.cut_coboundaries``) and against the Kuenneth closed form;
the per-mode obstruction distance is re-derived through a dense
least-squares solve on the cut complex and an exact orthogonality identity.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lcskit.cohomology as coh
from lcskit import numeric, report
from oracle_utils import (
    average_cochain,
    axis_rescaling_potential,
    betti_numbers_svd,
    cut_coboundaries,
    gauge_conjugate,
    kunneth_betti,
    lstsq_image_distance,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# construction


def test_cell_counts():
    C = coh.build_torus_complex(2, 4)
    assert C.cells == (16, 32, 16)
    assert [S.shape for S in C.stacks] == [(16, 2, 1), (16, 1, 2)]
    assert [D.shape for D in cut_coboundaries(C)] == [(32, 16), (16, 32)]
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
    D = cut_coboundaries(C)
    for k in range(n - 1):
        assert np.max(np.abs((D[k + 1] @ D[k]).toarray())) == 0.0
        # Koszul: each entry is lambda_a lambda_b - lambda_b lambda_a, which a
        # fused multiply-add may round to a few ulp of |lambda|^2 instead of 0
        product = C.stacks[k + 1] @ C.stacks[k]
        bound = 4 * np.finfo(float).eps * np.max(np.abs(C.stacks[k])) ** 2
        assert np.max(np.abs(product)) <= bound


def test_subset_offset_refuses_unknown_directions():
    C = coh.build_torus_complex(2, 4)
    assert C.subset_offset(1, (1,)) == 1
    with pytest.raises(coh.CohomologyError):
        C.subset_offset(1, (5,))


def test_weighted_difference_operator_injective():
    C = coh.build_torus_complex(1, 8, (1.0,))
    D0 = cut_coboundaries(C)[0].toarray()
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
    assert coh.twisted_betti(C) == betti_numbers_svd(cut_coboundaries(C), C.cells)


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
    spread = gauge_conjugate(C, _spread_potential(C))
    for k, stack in enumerate(C.stacks):
        upper, lower = len(C.subsets[k + 1]), len(C.subsets[k])
        # block l of the stack -> the (subset, l) x (subset, l) entries of a
        # matrix ordered as the cut complex
        S = np.zeros((upper, V, lower, V), dtype=complex)
        S[:, np.arange(V), :, np.arange(V)] = stack
        S = S.reshape(upper * V, lower * V)
        rebuilt = np.kron(np.eye(upper), F.conj().T) @ S @ np.kron(np.eye(lower), F)
        D = spread[k].toarray()
        # a few ulp per entry, growing like the square root of the DFT length
        ulps = 8 * math.sqrt(V)
        assert np.max(np.abs(rebuilt - D)) <= ulps * np.finfo(float).eps * np.max(np.abs(D))


@settings(max_examples=40, deadline=None)
@given(C=small_twisted_tori())
def test_spectral_betti_equal_dense_routes_on_the_cut_complex(C):
    # the complex Koszul stacks are not passed to the SVD oracle: it casts to float
    assert coh.twisted_betti(C) == betti_numbers_svd(cut_coboundaries(C), C.cells)


@pytest.mark.parametrize("n,m", [(3, 12), (4, 8), (5, 6)])
@pytest.mark.parametrize("twist", [0.0, SQRT2, -0.5], ids=["untwisted", "sqrt2", "minus-half"])
def test_betti_of_large_tori_equal_the_kunneth_closed_form(n, m, twist):
    # far past the dense route on the cut complex: (5,6) has 46,656 two-cells
    mu = (twist,) + (0.0,) * (n - 1)
    assert coh.twisted_betti(coh.build_torus_complex(n, m, mu)) == kunneth_betti(n, mu)


@settings(max_examples=40, deadline=None)
@given(C=small_twisted_tori(), seed=st.integers(0, 2**32 - 1))
def test_shift_stencil_is_the_cut_coboundary(C, seed):
    # the same n terms per entry, summed in another order: a few ulp apart
    x = np.random.default_rng(seed).standard_normal((max(C.cells), 2))
    scale = max(1.0, *C.weights)
    for k, D in enumerate(cut_coboundaries(C)):
        xk = x[: C.cells[k]]
        gap = np.max(np.abs(coh.apply_coboundary(C, k, xk) - D @ xk))
        assert gap <= 4 * C.n * np.finfo(float).eps * scale * np.max(np.abs(xk))
        assert np.array_equal(coh.apply_coboundary(C, k, xk[:, 0]), coh.apply_coboundary(C, k, xk)[:, 0])


def test_betti_task_ranks_each_coboundary_once_as_a_matrix(monkeypatch):
    # The benchmark's tracer wraps ``cohomology.matrix_rank_qr`` and reads
    # ``M.shape`` as (rows, cols), the entries factored; torus ranks must all
    # pass through it, one row-stacked Koszul stack per degree.
    exact = coh.matrix_rank_qr
    shapes = []

    def counting(M, block_rows):
        shapes.append((M.shape, block_rows))
        return exact(M, block_rows)

    def refused(*args, **kwargs):
        raise AssertionError("the torus path ranks through cohomology.matrix_rank_qr only")

    monkeypatch.setattr(coh, "matrix_rank_qr", counting)
    monkeypatch.setattr(numeric, "numerical_rank", refused)
    task = {"kind": "cohomology", "n": 3, "m": 8, "expect_betti": [1, 3, 3, 1]}
    assert report.run_manifest(report.parse_manifest({"seed": 0, "tasks": [task]})).green
    assert shapes == [((1536, 1), 3), ((1536, 3), 3), ((512, 3), 1)]


def test_memory_budget_error_mentions_resolution(monkeypatch):
    C = coh.build_torus_complex(2, 32)  # D_0 stacks 1024 blocks of 2 x 1
    monkeypatch.setattr(coh, "DENSE_BUDGET", 1000)  # read at each call
    with pytest.raises(coh.CohomologyError, match="smaller grid resolution"):
        coh.twisted_betti(C)


def test_build_refuses_exactly_the_largest_coboundary_over_budget(monkeypatch):
    # on (Z/4)^3 the largest Koszul stack is that of D_1: 64 blocks of 3 x 3
    monkeypatch.setattr(coh, "DENSE_BUDGET", 576)
    assert coh.build_torus_complex(3, 4).cells == (64, 192, 192, 64)
    monkeypatch.setattr(coh, "DENSE_BUDGET", 575)
    with pytest.raises(coh.CohomologyError, match=r"64 blocks of 3 x 3 \(576 entries\) exceed the budget of 575"):
        coh.build_torus_complex(3, 4)


@pytest.mark.parametrize(
    "check",
    # D_0 would stack 25,000,000 blocks of 2 x 1: 50,000,000 entries
    [lambda: coh.build_torus_complex(2, 5000), lambda: coh.ot_obstruction_check(2, 5000)],
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
    for Sa, Sb in zip(A.stacks, B.stacks):
        assert np.array_equal(Sa, Sb)
    assert coh.twisted_betti(A) == coh.twisted_betti(B)


# ---------------------------------------------------------------------------
# averaging


def test_average_fixes_invariant_cochains():
    C = coh.build_torus_complex(2, 6)
    basis = coh.invariant_cochain_basis(C, 1)
    for col in basis.T:
        assert np.array_equal(average_cochain(C, 1, col), col)


def test_average_is_idempotent_projection():
    C = coh.build_torus_complex(2, 6)
    rng = np.random.default_rng(7)
    a = rng.standard_normal(C.cells[1])
    avg = average_cochain(C, 1, a)
    again = average_cochain(C, 1, avg)
    assert np.max(np.abs(again - avg)) < 1e-14
    blocks = avg.reshape(-1, C.vertex_count)
    assert np.max(np.abs(blocks - blocks[:, :1])) == 0.0


def test_average_commutes_with_coboundary():
    C = coh.build_torus_complex(2, 6)
    rng = np.random.default_rng(11)
    a = rng.standard_normal(C.cells[1])
    avg_then_d = coh.apply_coboundary(C, 1, average_cochain(C, 1, a))
    d_then_avg = average_cochain(C, 2, coh.apply_coboundary(C, 1, a))
    # invariant cochains are exactly closed, so the first route is exactly zero
    assert np.max(np.abs(avg_then_d)) == 0.0
    assert np.max(np.abs(avg_then_d - d_then_avg)) < 1e-13


def test_average_rejects_twisted_complex():
    C = coh.build_torus_complex(2, 4, (1.0, 0.0))
    with pytest.raises(coh.CohomologyError, match="trivial weights"):
        average_cochain(C, 1, np.zeros(C.cells[1]))


def test_average_validates_input():
    C = coh.build_torus_complex(2, 4)
    with pytest.raises(coh.CohomologyError):
        average_cochain(C, 3, np.zeros(5))
    with pytest.raises(coh.CohomologyError):
        average_cochain(C, 1, np.zeros(7))


# ---------------------------------------------------------------------------
# gauge conjugation


def test_gauge_conjugation_preserves_betti():
    C = coh.build_torus_complex(2, 6, (1.0, SQRT2))
    rng = np.random.default_rng(3)
    potential = rng.uniform(-1.0, 1.0, C.vertex_count)
    conjugated = gauge_conjugate(C, potential)
    assert betti_numbers_svd(conjugated, C.cells) == coh.twisted_betti(C)


def _cell(C, degree: int, dirs: tuple[int, ...], vertex: tuple[int, ...]) -> int:
    """Index of a cell in the coboundaries of ``oracle.cut_coboundaries``:
    its direction subset's block, then its vertex, row-major."""
    return C.subset_offset(degree, dirs) * C.vertex_count + int(np.ravel_multi_index(vertex, (C.m,) * C.n))


def test_axis_rescaling_moves_cut_weight():
    C = coh.build_torus_complex(2, 4, (1.0, 0.0))
    c = 0.7
    moved = gauge_conjugate(C, axis_rescaling_potential(C, 0, c))[0]
    cut_row = _cell(C, 1, (0,), (3, 0))
    cut_col = _cell(C, 0, (), (0, 0))
    D0 = cut_coboundaries(C)[0]
    original = D0[cut_row, cut_col]
    assert np.isclose(original, math.exp(-1.0))
    assert np.isclose(moved[cut_row, cut_col], original * math.exp(-c))
    next_row = _cell(C, 1, (0,), (0, 0))
    next_col = _cell(C, 0, (), (1, 0))
    assert np.isclose(D0[next_row, next_col], 1.0)
    assert np.isclose(moved[next_row, next_col], math.exp(c))


def test_gauge_validates_input():
    C = coh.build_torus_complex(2, 4)
    with pytest.raises(coh.CohomologyError):
        gauge_conjugate(C, np.zeros(3))
    with pytest.raises(coh.CohomologyError):
        axis_rescaling_potential(C, 5, 1.0)


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
    exact = np.fft.fftn

    def unnormalized(a, axes=None, norm=None):
        # a DFT that is not unitary scales every mode by sqrt(V) = 4
        return exact(a, axes=axes)

    monkeypatch.setattr(coh.np.fft, "fftn", unnormalized)
    with pytest.raises(coh.CohomologyError, match=r"obstruction distance 4\.0.* left its bound"):
        coh.ot_obstruction_check(2, 4)


def test_obstruction_orthogonality_identity():
    """The area cochain is exactly orthogonal to the coboundary image, an
    independent certificate that its distance is the full norm."""
    C = coh.build_torus_complex(2, 8)
    area = coh.constant_area_cochain(C)
    assert np.max(np.abs(cut_coboundaries(C)[1].T @ area)) == 0.0
    report = coh.ot_obstruction_check(2, 8)
    assert abs(report.distance - 1.0) < 1e-10


def test_obstruction_matches_independent_least_squares():
    C = coh.build_torus_complex(2, 6)
    D1 = cut_coboundaries(C)[1].toarray()
    area = coh.constant_area_cochain(C)
    x = np.linalg.lstsq(D1, area, rcond=None)[0]
    expected = float(np.linalg.norm(area - D1 @ x) / np.linalg.norm(area))
    report = coh.ot_obstruction_check(2, 6)
    assert abs(report.distance - expected) < 1e-12


TORI_WITH_DENSE_D1 = [(2, m) for m in range(2, 9)] + [(3, m) for m in range(2, 7)]


@pytest.mark.parametrize("n,m", TORI_WITH_DENSE_D1)
def test_per_mode_distance_equals_the_dense_least_squares_distance(n, m):
    # both read 1 to within a couple of rounding steps; 4 ulp of 1.0 bounds the gap
    C = coh.build_torus_complex(n, m)
    area = coh.constant_area_cochain(C)
    gap = coh.image_distance(C, area) - lstsq_image_distance(C, area)
    assert abs(gap) <= 4 * np.finfo(float).eps
    assert coh.ot_obstruction_check(n, m).distance == coh.image_distance(C, area)


@pytest.mark.parametrize("n,m", TORI_WITH_DENSE_D1)
def test_per_mode_projection_removes_a_planted_coboundary(n, m):
    # area + D_1 x has the area as its residual, so the distance is
    # ||area|| / ||area + D_1 x|| < 1, reached only if the image part is removed
    C = coh.build_torus_complex(n, m)
    area = coh.constant_area_cochain(C)
    planted = area + coh.apply_coboundary(C, 1, np.random.default_rng(m).standard_normal(C.cells[1]))
    distance = coh.image_distance(C, planted)
    assert distance < 0.9
    assert abs(distance - np.linalg.norm(area) / np.linalg.norm(planted)) <= 8 * np.finfo(float).eps
    assert abs(distance - lstsq_image_distance(C, planted)) <= 8 * np.finfo(float).eps


def test_per_mode_distance_and_stencil_refuse_what_they_cannot_compute():
    with pytest.raises(coh.CohomologyError, match="trivial weights"):
        coh.image_distance(coh.build_torus_complex(2, 4, (1.0, 0.0)), np.ones(16))
    with pytest.raises(coh.CohomologyError, match="no coboundary leaves degree 2 on T2"):
        coh.apply_coboundary(coh.build_torus_complex(2, 4), 2, np.ones(16))


def test_obstruction_requires_surface_directions():
    with pytest.raises(coh.CohomologyError):
        coh.ot_obstruction_check(1, 8)
    C = coh.build_torus_complex(2, 4)
    with pytest.raises(coh.CohomologyError):
        coh.constant_area_cochain(C, (1, 1))
