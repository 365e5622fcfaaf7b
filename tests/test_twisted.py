import math
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lcskit import embed, forms, models, reduction, symexpr as sx, twisted
from lcskit.forms import (
    ANGULAR,
    DifferentialForm,
    SmoothMap,
    ext_d,
    function_form,
    linear_domain,
    make_domain,
    pullback,
    wedge,
)
import oracle_utils as oracle
from oracle_utils import form_is_zero, random_map, random_polynomial_form

R4 = linear_domain("r4", ["s", "u", "t", "p"])
T2 = make_domain("t2", [("th1", ANGULAR), ("th2", ANGULAR)])
UNIT = linear_domain("unit", ["t"], 0.0, 1.0)


def _lcs_phi():
    """Nondegenerate two-form with d(phi) = ds ^ phi on (s, u, t, p)."""
    p = sx.var("p")
    return DifferentialForm(R4, 2, {(2, 3): sx.ONE, (0, 1): sx.Const(-1.0), (0, 2): p})


def _torus_loop(which: int) -> SmoothMap:
    t = sx.var("t")
    comps = (t, sx.ZERO) if which == 0 else (sx.ZERO, t)
    return SmoothMap(UNIT, T2, comps)


# ---------------------------------------------------------------------------
# twisted differential


def test_twisted_differential_squares_to_zero_for_closed_twist():
    omega = ext_d(function_form(R4, sx.mul(sx.var("s"), sx.var("t"))))  # exact, hence closed
    a = random_polynomial_form(R4, 1, seed=5)
    dd = twisted.d_twisted(omega, twisted.d_twisted(omega, a))
    assert form_is_zero(dd, samples=80, tol=1e-9, seed=1).passed


def test_twisted_differential_square_measures_curvature():
    # d_omega^2 a = -(d omega) ^ a for any one-form omega
    omega = random_polynomial_form(R4, 1, seed=8)
    a = random_polynomial_form(R4, 1, seed=9)
    lhs = twisted.d_twisted(omega, twisted.d_twisted(omega, a))
    rhs = wedge(ext_d(omega), a).scaled(sx.Const(-1.0))
    assert form_is_zero(lhs - rhs, samples=80, tol=1e-9, seed=2).passed


def test_twisted_reduces_to_plain_d_for_zero_twist():
    omega = forms.zero_form(R4, 1)
    a = random_polynomial_form(R4, 2, seed=10)
    assert form_is_zero(twisted.d_twisted(omega, a) - ext_d(a), samples=40, seed=0).passed


def test_twist_must_be_one_form():
    with pytest.raises(forms.DegreeError):
        twisted.d_twisted(random_polynomial_form(R4, 2, seed=1), random_polynomial_form(R4, 1, seed=2))


# ---------------------------------------------------------------------------
# conformal action


def test_conformal_rescale_intertwines_twisted_differentials():
    # d_(omega + df)(e^f a) = e^f d_omega(a)
    omega = random_polynomial_form(R4, 1, seed=11)
    a = random_polynomial_form(R4, 1, seed=12)
    f = sx.mul(sx.Const(0.3), sx.var("s"), sx.var("u"))
    new_a = a.scaled(sx.exp(f))
    new_omega = omega + ext_d(function_form(R4, f))
    lhs = twisted.d_twisted(new_omega, new_a)
    rhs = twisted.d_twisted(omega, a).scaled(sx.exp(f))
    assert form_is_zero(lhs - rhs, samples=80, tol=1e-8, seed=3).passed


def test_conformal_rescale_shifts_lee_form_by_df():
    # d(phi) = ds ^ phi, so e^f phi has Lee form ds + df: d_(ds + df)(e^f phi) = 0
    f = sx.pow_(sx.var("s"), 2)
    rescaled = _lcs_phi().scaled(sx.exp(f))
    shifted = R4.one_form("s") + ext_d(function_form(R4, f))
    assert form_is_zero(twisted.d_twisted(shifted, rescaled), samples=20, seed=1).passed
    assert not form_is_zero(twisted.d_twisted(R4.one_form("s"), rescaled), samples=20, seed=1).passed


def test_twisted_pullback_naturality():
    # the corrected pullback e^(-f) F* intertwines d_omega when omega = F* omega' - df
    th1 = sx.var("th1")
    F = forms.identity_map(T2)
    f = sx.mul(sx.Const(0.2), sx.sin(sx.mul(2, sx.Const(np.pi), th1)))
    omega_target = DifferentialForm(T2, 1, {(0,): sx.ONE})
    omega_source = omega_target - ext_d(function_form(T2, f))
    beta = random_polynomial_form(T2, 1, seed=17)

    def corrected(b):
        return pullback(F, b).scaled(sx.exp(sx.neg(f)))

    lhs = twisted.d_twisted(omega_source, corrected(beta))
    rhs = corrected(twisted.d_twisted(omega_target, beta))
    assert form_is_zero(lhs - rhs, samples=100, tol=1e-8, seed=4).passed


# ---------------------------------------------------------------------------
# Lee form extraction


def test_extract_lee_pointwise_recovers_constant_form():
    phi = _lcs_phi()
    data = twisted.extract_lee(phi, samples=50, seed=3, tol=1e-8)
    assert data.omega is None
    assert data.fit_residual < 1e-10
    assert np.allclose(data.sample_values, [1.0, 0.0, 0.0, 0.0], atol=1e-9)


def test_extract_lee_ansatz_recovers_symbolic_form():
    phi = _lcs_phi()
    basis = [R4.one_form(n) for n in R4.names]
    data = twisted.extract_lee(phi, samples=60, seed=4, ansatz=basis, tol=1e-8)
    assert data.omega is not None
    want = R4.one_form("s")
    assert form_is_zero(data.omega - want, samples=40, seed=5).passed
    assert data.closedness_residual == 0.0


def test_extract_lee_symplectic_gives_zero_form():
    symp = DifferentialForm(R4, 2, {(0, 1): sx.ONE, (2, 3): sx.ONE})
    data = twisted.extract_lee(symp, samples=30, seed=5)
    assert np.allclose(data.sample_values, 0.0, atol=1e-10)


def test_extract_lee_rank_deficient_raises():
    degen = DifferentialForm(R4, 2, {(0, 1): sx.ONE})
    with pytest.raises(twisted.ExtractionRankError):
        twisted.extract_lee(degen, samples=10, seed=6)


def test_extract_lee_not_conformal_raises():
    d6 = linear_domain("r6", ["x1", "y1", "x2", "y2", "x3", "y3"])
    phi = DifferentialForm(
        d6,
        2,
        {(0, 1): sx.ONE, (2, 3): sx.ONE, (4, 5): sx.ONE, (2, 5): sx.var("x1")},
    )
    with pytest.raises(twisted.NotConformalError):
        twisted.extract_lee(phi, samples=20, seed=7)


def test_extract_lee_insufficient_ansatz_raises():
    phi = _lcs_phi()
    with pytest.raises(twisted.NotConformalError):
        twisted.extract_lee(phi, samples=30, seed=8, ansatz=[R4.one_form("u")])


def test_extract_lee_requires_dim_four():
    r2 = linear_domain("r2", ["x", "y"])
    with pytest.raises(forms.DegreeError):
        twisted.extract_lee(DifferentialForm(r2, 2, {(0, 1): sx.ONE}), samples=5)


# ---------------------------------------------------------------------------
# periods


def test_gauss_legendre_literals_are_numpys_nodes_and_weights():
    nodes, weights = np.polynomial.legendre.leggauss(twisted._GAUSS_ORDER)
    assert np.array(twisted._GAUSS_NODES).tobytes() == nodes.tobytes()
    assert np.array(twisted._GAUSS_WEIGHTS).tobytes() == weights.tobytes()


def test_torus_periods_match_coefficients():
    omega = DifferentialForm(T2, 1, {(0,): sx.Const(1.0), (1,): sx.Const(np.sqrt(2.0))})
    assert twisted.period(omega, _torus_loop(0)) == pytest.approx(1.0, abs=1e-10)
    assert twisted.period(omega, _torus_loop(1)) == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_period_against_simpson_oracle():
    # integral of y dx over the unit circle is -pi
    r2 = linear_domain("plane", ["x", "y"], -2.0, 2.0)
    omega = DifferentialForm(r2, 1, {(0,): sx.var("y")})
    t = sx.var("t")
    two_pi = sx.mul(2, sx.Const(np.pi))
    loop = SmoothMap(UNIT, r2, (sx.cos(sx.mul(two_pi, t)), sx.sin(sx.mul(two_pi, t))))
    got = twisted.period(omega, loop)

    def integrand(tt):
        return np.sin(2 * np.pi * tt) * (-2 * np.pi * np.sin(2 * np.pi * tt))

    want = oracle.quad_line_integral(integrand, 0.0, 1.0)
    assert got == pytest.approx(want, abs=1e-9)
    assert got == pytest.approx(-np.pi, abs=1e-9)


CIRCLE = make_domain("s1", [("th", ANGULAR)])
TURN = make_domain("turn", [("t", ANGULAR)])


def _circle_period(integrand: sx.Expr, source) -> float:
    """Period of integrand(th) dth over the loop t -> t of the circle."""
    omega = DifferentialForm(CIRCLE, 1, {(0,): integrand})
    return twisted.period(omega, SmoothMap(source, CIRCLE, (sx.var("t"),)))


def _cos_wave(cycles: float) -> sx.Expr:
    return sx.cos(sx.mul(sx.Const(2.0 * np.pi * cycles), sx.var("th")))


def test_unconverged_period_raises():
    # exp(cos(2 pi 2^20 th)) makes 2^20 bumps on the circle: the node cap
    # (2^16) cannot resolve them, and neither rule's shifted copy agrees
    bumps = sx.exp(_cos_wave(2**20))
    for source in (UNIT, TURN):
        with pytest.raises(twisted.TwistedError, match="did not converge"):
            _circle_period(bumps, source)


@pytest.mark.parametrize("source", [UNIT, TURN], ids=["interval", "angular"])
def test_five_hundred_bumps_integrate_to_bessel_i0(source):
    # exp(cos(1000 pi th)) over a turn is I_0(1), whatever the bump count
    bumps = sx.exp(sx.cos(sx.mul(sx.Const(1000.0 * np.pi), sx.var("th"))))
    assert _circle_period(bumps, source) == pytest.approx(scipy.special.i0(1.0), abs=1e-11)


@pytest.mark.parametrize("source", [UNIT, TURN], ids=["interval", "angular"])
def test_aliased_period_is_never_confident(source):
    # cos(2 pi 2^16 t) repeats with every node spacing up to 2^-16, so plain
    # doubling sees 1.0 at each level; the true value is 0
    try:
        value = _circle_period(_cos_wave(2**16), source)
    except twisted.TwistedError as exc:
        assert "did not converge" in str(exc)
    else:
        assert abs(value) <= 1e-11


def test_period_refuses_a_rule_that_agrees_only_with_itself():
    # the shifted copy alone stops an aliased estimate: with it disabled the
    # trapezoid rule returns 1.0 for cos(2 pi 2^16 t), the aliasing it guards
    with mock.patch.object(twisted, "_SHIFT", 0.0):
        assert _circle_period(_cos_wave(2**16), TURN) == 1.0
    with pytest.raises(twisted.TwistedError, match="did not converge"):
        _circle_period(_cos_wave(2**16), TURN)


def _corpus_period_calls() -> list[tuple[DifferentialForm, SmoothMap, float]]:
    """Every period the corpora take: the product embedding's morphism
    classification (sphere x circle, N=2), the chain decompositions over
    sphere x circle (N=2, 3), and each catalog Lee form of the bundled
    manifests over its structure loops."""
    calls = []
    original = twisted.period

    def record(omega, loop, *args, **kwargs):
        value = original(omega, loop, *args, **kwargs)
        calls.append((omega, loop, value))
        return value

    catalog = [models.model_sphere_circle(N, q) for N, q in ((2, 1.0), (3, 2.0), (4, 1.0))]
    catalog += [
        models.model_reduction_universal(k, N, mu)
        for k, N, mu in ((1, 2, [1.0]), (1, 3, [np.sqrt(2.0)]), (2, 3, [1.0, np.sqrt(2.0)]))
    ]
    with mock.patch.object(twisted, "period", record):
        S = catalog[0]
        prob, tau = embed.problem_from_sphere_circle(S)
        embed.build_lcs_embedding(S, prob, tau, embed.EmbedSettings(samples=40, tol=1e-8, pairs=10, seed=0))
        for S in catalog[:2]:
            chart, decomp, _ = reduction.sphere_circle_chain_input(S)
            reduction.certify_decomposition(chart, decomp)
        for S in catalog:
            twisted.period_lattice(S.charts[0].lee, models.structure_lee_loops(S))
    return calls


def test_periods_match_quad_on_every_corpus_loop():
    quad_tol = 1e-11
    calls = _corpus_period_calls()
    assert len(calls) >= 10 and any(abs(value) > 0.5 for _, _, value in calls)
    for omega, loop, value in calls:
        coefficient = pullback(loop, omega).coefficient((0,))
        src = loop.source.coords[0]
        lo, hi = (0.0, 1.0) if src.kind == ANGULAR else (src.lower, src.upper)
        want, _ = quad(
            lambda t: float(sx.evaluate(coefficient, {src.name: t})), lo, hi,
            epsabs=quad_tol, epsrel=quad_tol, limit=200,
        )
        assert abs(value - want) <= max(quad_tol, quad_tol * abs(want))


def test_open_loop_raises():
    r2 = linear_domain("plane", ["x", "y"])
    omega = DifferentialForm(r2, 1, {(0,): sx.ONE})
    arc = SmoothMap(UNIT, r2, (sx.var("t"), sx.ZERO))
    with pytest.raises(twisted.LoopError):
        twisted.period(omega, arc)


def test_loop_closure_wraps_angular_targets():
    # t -> t on the circle is closed even though 0 != 1 as reals
    circle = make_domain("s1", [("th", ANGULAR)])
    loop = SmoothMap(UNIT, circle, (sx.var("t"),))
    assert twisted.loop_closure_residual(loop) < 1e-12


# ---------------------------------------------------------------------------
# lattices


def test_lattice_of_integer_periods():
    lat = twisted.lattice_from_periods([1.0, 2.0, 3.0])
    assert lat.rank == 1
    assert lat.basis == (1.0,)
    assert lat.integral


def test_lattice_of_incommensurable_periods():
    lat = twisted.lattice_from_periods([1.0, np.sqrt(2.0)])
    assert lat.rank == 2
    assert lat.basis == pytest.approx((1.0, np.sqrt(2.0)))
    assert not lat.integral


def test_lattice_detects_three_term_relation():
    lat = twisted.lattice_from_periods([1.0, np.sqrt(2.0), 1.0 + np.sqrt(2.0)])
    assert lat.rank == 2


def test_lattice_fractional_gcd():
    lat = twisted.lattice_from_periods([0.5, 0.75])
    assert lat.rank == 1
    assert lat.basis[0] == pytest.approx(0.25)
    assert not lat.integral


def test_lattice_zero_periods():
    lat = twisted.lattice_from_periods([0.0, 1e-12])
    assert lat.rank == 0 and lat.basis == () and lat.integral


HEIGHT_BOUND = {2: 10**6, 3: 1000, 4: 100, 5: 31}
"""H_k at the default tol 1e-8: ⌊(100·tol)^(−1/(k−1))⌋ for k nonzero periods."""
SQRT2 = math.sqrt(2.0)


def test_lattice_coefficient_bound_is_honoured():
    # 100001·1 − 100000·1.00001 = 0 has height 10^5, within H_2 = 10^6; the
    # relation of 1 and 1 + 1/(3·10^6) needs height 3·10^6 + 1, beyond it
    wide = twisted.lattice_from_periods([1.0, 1.00001])
    assert wide.rank == 1 and wide.relation_bound == HEIGHT_BOUND[2]
    narrow = twisted.lattice_from_periods([1.0, 1.0 + 1.0 / 3e6])
    assert narrow.rank == 2
    for k in (3, 4, 5):
        assert twisted.lattice_from_periods([1.0, SQRT2, math.pi, math.e, 0.5][:k]).relation_bound == HEIGHT_BOUND[k]
    # never below 2, however loose the tolerance or many the periods
    assert twisted.lattice_from_periods([1.0, 2.0], 0.05).relation_bound == 2
    assert twisted.lattice_from_periods([1.0 + i * SQRT2 for i in range(40)]).relation_bound == 2


@pytest.mark.parametrize(
    "periods, rank",
    [
        ([1.0, SQRT2, 1.0 + 90 * SQRT2], 2),
        ([1.0, SQRT2, math.pi, 41 * SQRT2 + 3 * math.pi - 7], 3),
        # two relations within H_4 whose LLL basis holds (−6, −126, 1, 1)
        ([SQRT2, math.pi, 93 * SQRT2 + 100 * math.pi, 26 * math.pi - 87 * SQRT2], 2),
        # whole numbers with ratios beyond H_k, related at H_2
        ([1.0, 1.0, 3000.0], 1),
        ([1.0, 1.0, 1.0, 500.0], 1),
        ([1.0, 3000.0, SQRT2], 2),
    ],
)
def test_lattice_finds_relations_with_large_coefficients(periods, rank):
    assert twisted.lattice_from_periods(periods).rank == rank


def test_lattice_equality_with_a_large_coefficient_takes_little_memory():
    tracemalloc.start()
    try:
        equal = twisted.lattices_equal(
            twisted.lattice_from_periods([1.0, SQRT2, math.pi]),
            twisted.lattice_from_periods([1.0, SQRT2, math.pi + 90 * SQRT2]),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert equal
    assert peak < 1 << 20


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lattice_recovers_generators_from_integer_combinations(data):
    """The generators and one or two integer combinations of them, with
    coefficients within H_k (k periods in all), in any order: the relations
    are the primitive (coefficients, −1) rows."""
    gens = data.draw(st.lists(st.sampled_from([1.0, SQRT2, math.pi, math.e]), min_size=1, max_size=3, unique=True))
    extra = data.draw(st.integers(1, 2))
    bound = HEIGHT_BOUND[len(gens) + extra]
    coeffs = st.lists(st.integers(-bound, bound), min_size=len(gens), max_size=len(gens))
    combinations = [math.fsum(c * g for c, g in zip(data.draw(coeffs), gens)) for _ in range(extra)]
    lat = twisted.lattice_from_periods(data.draw(st.permutations([*gens, *combinations])))
    assert lat.rank == len(gens)
    assert twisted.lattices_equal(lat, twisted.lattice_from_periods(gens))


@pytest.mark.xfail(
    strict=True,
    reason="LLL at the 2^50 scaling brings out a relation among five periods only when its residual is "
    "near 2^-40 of the largest period, so a relation off by 1e-11 relative, within tol, is missed",
)
def test_lattice_finds_a_relation_off_by_quadrature_noise():
    s = 1.0 + SQRT2 + math.pi + math.e
    assert twisted.lattice_from_periods([1.0, SQRT2, math.pi, math.e, s * (1.0 + 1e-11)]).rank == 4


def test_lattice_tolerance_is_absolute_below_one_and_relative_above():
    big = twisted.lattice_from_periods([1e6])
    assert big.contains(1e6 + 0.005) and not big.contains(1e6 + 0.05)
    small = twisted.lattice_from_periods([1e-3])
    assert small.contains(1e-3 + 5e-9) and not small.contains(1e-3 + 5e-8)
    assert twisted.lattice_from_periods([1e6 + 0.005]).integral


def test_lattice_at_a_loose_tolerance_still_equals_itself():
    lat = twisted.lattice_from_periods([1.0], 0.05)
    assert twisted.lattices_equal(lat, lat, 0.05)
    assert lat.contains(2.0, 0.05) and not lat.contains(0.5, 0.05)


def test_lattice_equality_and_membership():
    a = twisted.lattice_from_periods([1.0])
    b = twisted.lattice_from_periods([2.0])
    assert not twisted.lattices_equal(a, b)
    assert a.contains(5.0)
    assert not a.contains(0.5)
    c = twisted.lattice_from_periods([1.0 + 1e-10])
    assert twisted.lattices_equal(a, c)


# ---------------------------------------------------------------------------
# morphism classification


def _lee(c1: float, c2: float) -> DifferentialForm:
    return DifferentialForm(T2, 1, {(0,): sx.Const(c1), (1,): sx.Const(c2)})


def test_identity_is_strict_and_full():
    rep = twisted.classify_morphism(
        forms.identity_map(T2), _lee(1, 0), _lee(1, 0),
        [_torus_loop(0), _torus_loop(1)], [_torus_loop(0), _torus_loop(1)],
    )
    assert rep.strict and rep.conformal and rep.full
    assert rep.source_lattice.rank == rep.target_lattice.rank
    assert rep.strict_residual < 1e-12


def test_conformal_but_not_strict():
    f = sx.mul(sx.Const(0.2), sx.sin(sx.mul(2, sx.Const(np.pi), sx.var("th1"))))
    source_lee = _lee(1, 0) + ext_d(function_form(T2, f))
    rep = twisted.classify_morphism(
        forms.identity_map(T2), source_lee, _lee(1, 0),
        [_torus_loop(0), _torus_loop(1)], [_torus_loop(0), _torus_loop(1)],
    )
    assert not rep.strict
    assert rep.conformal
    assert rep.full


def test_doubling_map_is_not_conformal():
    th1, th2 = sx.var("th1"), sx.var("th2")
    F = SmoothMap(T2, T2, (sx.mul(2, th1), th2))
    rep = twisted.classify_morphism(
        F, _lee(1, 0), _lee(1, 0),
        [_torus_loop(0), _torus_loop(1)], [_torus_loop(0), _torus_loop(1)],
    )
    assert not rep.strict
    assert not rep.conformal
    assert rep.conformal_period_residual == pytest.approx(1.0, abs=1e-9)


def test_constant_map_strict_only_for_zero_lee():
    F = SmoothMap(T2, T2, (sx.Const(0.25), sx.Const(0.5)))
    zero = forms.zero_form(T2, 1)
    rep = twisted.classify_morphism(
        F, zero, _lee(1, 0),
        [_torus_loop(0), _torus_loop(1)], [_torus_loop(0), _torus_loop(1)],
    )
    assert rep.strict  # pullback of anything through a constant map is zero
    assert rep.source_lattice.rank == 0
    assert rep.target_lattice.rank == 1
    assert not rep.full


def test_classification_with_irrational_lattices():
    rep = twisted.classify_morphism(
        forms.identity_map(T2), _lee(1, np.sqrt(2.0)), _lee(1, np.sqrt(2.0)),
        [_torus_loop(0), _torus_loop(1)], [_torus_loop(0), _torus_loop(1)],
    )
    assert rep.strict and rep.full
    assert rep.source_lattice.rank == 2
    assert not rep.source_lattice.integral


# ---------------------------------------------------------------------------
# the sampled checks against the symbolic route
#
# The decomposition, the morphism's closedness and the ansatz fit read d and
# wedge from one jets walk; the symbolic route builds the difference with
# ext_d/wedge trees and evaluates it on the same points.  The two sum the
# same products in different orders, so each residual agrees within a few
# rounding errors of the largest term the identity compares (an exact
# identity's residual is all rounding), and each pass flag is the same.  Every case is drawn
# either exact (the identity holds, both routes pass at TOL) or generic
# (both fail); tol = inf reads every residual without raising.

MIX4 = make_domain("mix4", [("s",), ("u",), ("th", ANGULAR), ("p",)])
TOL = 1e-9
RESIDUAL_ULPS = 8


def _agrees(sampled: float, tree, terms, seed: int) -> bool:
    """The sampled residual is within RESIDUAL_ULPS units of machine epsilon
    of the tree route's, scaled by the largest |value| (at least 1) of the
    forms compared, at the check's points."""
    scale = max([1.0] + [oracle.form_is_zero(a, 30, TOL, seed).max_residual for a in terms])
    return abs(sampled - tree.max_residual) <= RESIDUAL_ULPS * np.finfo(float).eps * scale


def _scalar(seed: int) -> sx.Expr:
    """A seeded smooth function: the product of two random coefficients."""
    a, b = (random_polynomial_form(MIX4, 0, seed + k).coefficient(()) for k in (0, 1))
    return sx.mul(a, b)


def _constant_one_form(seed: int) -> DifferentialForm:
    rng = np.random.default_rng(seed)
    return DifferentialForm(MIX4, 1, {(i,): sx.Const(float(c)) for i, c in enumerate(rng.uniform(-1, 1, 4))})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**20), st.booleans(), st.integers(0, 2**31 - 1))
def test_sampled_decomposition_equals_the_symbolic_route(form_seed, exact, seed):
    f0, taus, weights = _scalar(form_seed), [_scalar(form_seed + 2), _scalar(form_seed + 4)], (1.0, -0.75)
    if exact:
        omegas = [ext_d(function_form(MIX4, tau)) for tau in taus]
    else:
        omegas = [random_polynomial_form(MIX4, 1, form_seed + 6 + k) for k in (0, 1)]
    summands = [ext_d(function_form(MIX4, f0))] + [o.scaled(sx.Const(w)) for w, o in zip(weights, omegas)]
    total = summands[0] + summands[1] + summands[2]
    lee = total if exact else random_polynomial_form(MIX4, 1, form_seed + 8)
    chart = types.SimpleNamespace(domain=MIX4, lee=lee)
    pieces = tuple(reduction.DecompositionPiece(w, o, t) for w, o, t in zip(weights, omegas, taus))
    decomp = reduction.LeeDecomposition(f0, pieces)
    # per check, in certify_decomposition's order: its tree route, the forms it compares, its seed
    checks = [
        (oracle.forms_equal(ext_d(function_form(MIX4, tau)), omega, 30, TOL, seed + j),
         [ext_d(function_form(MIX4, tau)), omega], seed + j)
        for j, (omega, tau) in enumerate(zip(omegas, taus))
    ]
    checks.append((oracle.forms_equal(total, lee, 30, TOL, seed), summands + [lee], seed))
    every = reduction.certify_decomposition(chart, decomp, samples=30, tol=math.inf, seed=seed)
    sampled = (*every.piece_residuals, every.sum_residual)
    assert all(_agrees(r, tree, terms, s) for r, (tree, terms, s) in zip(sampled, checks))
    failing = [j for j, (tree, _, _) in enumerate(checks) if not tree.passed]
    if not failing:
        report = reduction.certify_decomposition(chart, decomp, samples=30, tol=TOL, seed=seed)
        assert max(report.sum_residual, *report.piece_residuals) <= TOL
    else:
        message = f"piece {failing[0]}" if failing[0] < len(pieces) else "reassemble"
        with pytest.raises(reduction.DecompositionError, match=message):
            reduction.certify_decomposition(chart, decomp, samples=30, tol=TOL, seed=seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**20), st.booleans(), st.integers(0, 2**31 - 1))
def test_sampled_morphism_checks_equal_the_symbolic_route(form_seed, exact, seed):
    F = random_map(R4, MIX4, form_seed)
    lee_target = _constant_one_form(form_seed + 1)
    pulled = pullback(F, lee_target)
    if exact:  # the difference of the Lee forms is exact, so closed
        lee_source = pulled + ext_d(function_form(R4, random_polynomial_form(R4, 0, form_seed + 2).coefficient(())))
    else:
        lee_source = random_polynomial_form(R4, 1, form_seed + 2)
    rep = twisted.classify_morphism(F, lee_source, lee_target, [], [], samples=30, tol=TOL, seed=seed)
    strict = oracle.form_is_zero(pulled - lee_source, 30, TOL, seed)
    closed = oracle.form_is_zero(ext_d(pulled - lee_source), 30, TOL, seed + 1)
    assert rep.strict_residual == strict.max_residual and rep.strict == strict.passed
    assert _agrees(rep.conformal_closed_residual, closed, [ext_d(pulled), ext_d(lee_source)], seed + 1)
    assert rep.conformal == closed.passed


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**20), st.booleans(), st.integers(0, 2**31 - 1))
def test_sampled_ansatz_fit_equals_the_symbolic_route(form_seed, exact, seed):
    basis = [MIX4.one_form(n) for n in MIX4.names]
    if exact:  # d(d_omega alpha) = omega ^ d_omega alpha for closed omega
        phi = twisted.d_twisted(_constant_one_form(form_seed), random_polynomial_form(MIX4, 1, form_seed + 1))
    else:
        phi = random_polynomial_form(MIX4, 2, form_seed)
    data = twisted.extract_lee(phi, samples=30, seed=seed, ansatz=basis, tol=math.inf)
    fit = oracle.form_is_zero(ext_d(phi) - wedge(data.omega, phi), 30, TOL, seed + 1)
    closed = oracle.form_is_zero(ext_d(data.omega), 30, TOL, seed + 2)
    assert _agrees(data.fit_residual, fit, [ext_d(phi), wedge(data.omega, phi)], seed + 1)
    assert _agrees(data.closedness_residual, closed, [ext_d(data.omega)], seed + 2)
    if fit.passed:
        assert twisted.extract_lee(phi, samples=30, seed=seed, ansatz=basis, tol=TOL).fit_residual <= TOL
    else:
        with pytest.raises(twisted.NotConformalError, match="ansatz fit"):
            twisted.extract_lee(phi, samples=30, seed=seed, ansatz=basis, tol=TOL)
