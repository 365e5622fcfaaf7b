from unittest import mock

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from lcskit import embed, forms, models, reduction, symexpr as sx, twisted
from lcskit.forms import (
    ANGULAR,
    DifferentialForm,
    SmoothMap,
    ext_d,
    form_is_zero,
    function_form,
    linear_domain,
    make_domain,
    pullback,
    wedge,
)
import oracle_utils as oracle
from oracle_utils import random_polynomial_form

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
    omega = ext_d(function_form(R4, sx.var("s") * sx.var("t")))  # exact, hence closed
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
    f = sx.Const(0.3) * sx.var("s") * sx.var("u")
    new_a = a.scaled(sx.exp(f))
    new_omega = omega + ext_d(function_form(R4, f))
    lhs = twisted.d_twisted(new_omega, new_a)
    rhs = twisted.d_twisted(omega, a).scaled(sx.exp(f))
    assert form_is_zero(lhs - rhs, samples=80, tol=1e-8, seed=3).passed


def test_conformal_rescale_shifts_lee_form_by_df():
    # d(phi) = ds ^ phi, so e^f phi has Lee form ds + df: d_(ds + df)(e^f phi) = 0
    f = sx.var("s") ** 2
    rescaled = _lcs_phi().scaled(sx.exp(f))
    shifted = R4.one_form("s") + ext_d(function_form(R4, f))
    assert form_is_zero(twisted.d_twisted(shifted, rescaled), samples=20, seed=1).passed
    assert not form_is_zero(twisted.d_twisted(R4.one_form("s"), rescaled), samples=20, seed=1).passed


def test_twisted_pullback_naturality():
    # the corrected pullback e^(-f) F* intertwines d_omega when omega = F* omega' - df
    th1 = sx.var("th1")
    F = forms.identity_map(T2)
    f = sx.Const(0.2) * sx.sin(2 * sx.Const(np.pi) * th1)
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


def test_torus_periods_match_coefficients():
    omega = DifferentialForm(T2, 1, {(0,): sx.Const(1.0), (1,): sx.Const(np.sqrt(2.0))})
    assert twisted.period(omega, _torus_loop(0)) == pytest.approx(1.0, abs=1e-10)
    assert twisted.period(omega, _torus_loop(1)) == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_period_against_simpson_oracle():
    # integral of y dx over the unit circle is -pi
    r2 = linear_domain("plane", ["x", "y"], -2.0, 2.0)
    omega = DifferentialForm(r2, 1, {(0,): sx.var("y")})
    t = sx.var("t")
    two_pi = 2 * sx.Const(np.pi)
    loop = SmoothMap(UNIT, r2, (sx.cos(two_pi * t), sx.sin(two_pi * t)))
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
    return sx.cos(sx.Const(2.0 * np.pi * cycles) * sx.var("th"))


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
    bumps = sx.exp(sx.cos(sx.Const(1000.0 * np.pi) * sx.var("th")))
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
        prob, tau = embed.problem_from_sphere_circle(S, rho=1.2, samples=200)
        embed.build_lcs_embedding(S, prob, tau, N=10, tol=1e-8, seed=0, samples=40)
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


def test_lattice_coefficient_bound_is_honoured():
    # ratio 100001/100000 is within the default 10^6 bound, outside bound 10
    wide = twisted.lattice_from_periods([1.0, 1.00001])
    assert wide.rank == 1
    narrow = twisted.lattice_from_periods([1.0, 1.00001], max_coeff=10)
    assert narrow.rank == 2


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
    assert rep.rank_decrease == 0
    assert rep.strict_residual < 1e-12


def test_conformal_but_not_strict():
    f = sx.Const(0.2) * sx.sin(2 * sx.Const(np.pi) * sx.var("th1"))
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
    F = SmoothMap(T2, T2, (2 * th1, th2))
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
    assert rep.rank_source == 0
    assert rep.rank_target == 1
    assert rep.rank_decrease == 1
    assert not rep.full


def test_classification_with_irrational_lattices():
    rep = twisted.classify_morphism(
        forms.identity_map(T2), _lee(1, np.sqrt(2.0)), _lee(1, np.sqrt(2.0)),
        [_torus_loop(0), _torus_loop(1)], [_torus_loop(0), _torus_loop(1)],
    )
    assert rep.strict and rep.full
    assert rep.rank_source == 2
    assert not rep.source_lattice.integral
