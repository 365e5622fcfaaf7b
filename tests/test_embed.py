"""Sphere embedding stages: radii, pullback identities, product assembly.

The certified pullback identities are re-checked here through the
finite-difference Jacobian oracle, so the symbolic pullback and the raw
numerical route must agree independently.
"""

import numpy as np
import pytest

import lcskit.embed as embed
import lcskit.forms as forms
import lcskit.models as models
import lcskit.symexpr as sx
from oracle_utils import pullback_on_vectors


def _map_func(psi):
    names = psi.source.names

    def func(v):
        e = {n: v[j] for j, n in enumerate(names)}
        return np.array([float(sx.evaluate(c, e)) for c in psi.components])

    return func


def _form_at(form):
    names = form.domain.names

    def at(x):
        e = {n: x[j] for j, n in enumerate(names)}
        return {idx: float(sx.evaluate(c, e)) for idx, c in form.coeffs.items()}

    return at


def _eta_coeff_func(pairs, scale=1.0):
    """Raw coefficient dict of (scale/2) sum (y dx - x dy) at an ambient point."""

    def at(z):
        out = {}
        for j in range(pairs):
            out[(2 * j,)] = 0.5 * scale * z[2 * j + 1]
            out[(2 * j + 1,)] = -0.5 * scale * z[2 * j]
        return out

    return at


# ---------------------------------------------------------------------------
# radius bound


def test_radius_bound_circle_sup_is_one():
    prob = embed.problem_circle(rho=1.1)
    pairs = prob.chart_pairs(prob.charts[0][1])
    pieces = [(prob.charts[0][1].source, [e for fg in pairs for e in fg])]
    bound = embed.radius_bound(pieces, 1.1, samples=600, seed=0)
    # dense-grid oracle for the supremum of sqrt(f^2 + x^2) = 1 on the circle
    ts = np.linspace(0.0, 1.0, 2001)
    oracle = np.max(np.sqrt(np.sin(2 * np.pi * ts) ** 2 + np.cos(2 * np.pi * ts) ** 2))
    assert abs(bound.supremum - oracle) < 1e-9
    assert abs(bound.value - 1.1 * oracle) < 1e-9
    assert bound.margin > 0


def test_radius_bound_rejects_unit_safety_factor():
    dom = forms.linear_domain("seg", ["x"])
    with pytest.raises(embed.RadiusError):
        embed.radius_bound([(dom, [sx.var("x")])], 1.0)


def test_radius_bound_rejects_degenerate_data():
    dom = forms.linear_domain("seg", ["x"])
    with pytest.raises(embed.RadiusError):
        embed.radius_bound([(dom, [sx.ZERO, sx.ZERO])], 1.2)


# ---------------------------------------------------------------------------
# stage 2: corrected closing pair vs half-strength closing pair


def test_psi2_corrected_circle():
    sol = embed.build_psi2(embed.problem_circle(rho=1.2), tol=1e-9, seed=0)
    assert sol.passed and sol.stage == 2 and sol.doubled_pair
    assert sol.pairs == 3 and sol.ambient.dim == 6
    assert sol.r2 > 1.0
    assert sol.scale is None and sol.defects == ()


def test_psi2_half_pair_defect_is_half_dphi():
    sol = embed.build_psi2(
        embed.problem_circle(rho=1.2), tol=1e-9, seed=0, doubled_pair=False
    )
    assert not sol.doubled_pair
    assert sol.defects and all(c.passed for _, c in sol.defects)
    # the defect is a genuine, measurable gap: theta_bar - psi2* eta is far
    # from zero even though it matches (1/2) d(phi) to 1e-9
    prob = sol.problem
    _name, psi = sol.maps[0]
    eta = embed._eta_on(sol.ambient, sol.pairs)
    gap = prob.chart_form(prob.charts[0][1]) - forms.pullback(psi, eta)
    assert not forms.form_is_zero(gap, 200, 1e-3, 1).passed


def test_psi2_zero_form_both_variants():
    for doubled in (True, False):
        sol = embed.build_psi2(embed.problem_zero_form(), seed=0, doubled_pair=doubled)
        _name, psi = sol.maps[0]
        eta = embed._eta_on(sol.ambient, sol.pairs)
        assert forms.form_is_zero(forms.pullback(psi, eta), 150, 1e-12, 2).passed


def test_psi2_sphere_constraint():
    sol = embed.build_psi2(embed.problem_torus(), seed=0)
    for _name, psi in sol.maps:
        env = psi.source.sample_points(60, seed=8)
        vals = forms.evaluate_map(psi, env)
        r2 = sum(vals[n] ** 2 for n in psi.target.names)
        assert np.max(np.abs(r2 - sol.r2**2)) < 1e-9 * sol.r2**2


# ---------------------------------------------------------------------------
# stage 3 and padding


def test_psi3_circle_end_to_end():
    sol = embed.build_psi3(embed.build_psi2(embed.problem_circle(), seed=0), seed=0)
    assert sol.stage == 3 and sol.passed
    assert sol.scale == pytest.approx(sol.r2**2)
    _name, psi = sol.maps[0]
    env = psi.source.sample_points(50, seed=3)
    vals = forms.evaluate_map(psi, env)
    r2 = sum(vals[n] ** 2 for n in psi.target.names)
    assert np.max(np.abs(r2 - 1.0)) < 1e-12


def test_psi3_requires_corrected_stage2():
    half = embed.build_psi2(embed.problem_circle(), seed=0, doubled_pair=False)
    with pytest.raises(embed.EmbedError):
        embed.build_psi3(half)


def test_psi3_oracle_route():
    # certified identity pullback(psi, c*eta) = theta_bar re-derived through
    # the FD-Jacobian pullback oracle
    prob = embed.problem_circle()
    sol = embed.build_psi3(embed.build_psi2(prob, seed=0), seed=0)
    _name, psi = sol.maps[0]
    func = _map_func(psi)
    theta_at = _form_at(prob.chart_form(prob.charts[0][1]))
    rng = np.random.default_rng(5)
    for t in (0.07, 0.33, 0.92):
        x = np.array([t])
        v = rng.normal(size=1)
        got = pullback_on_vectors(_eta_coeff_func(sol.pairs, sol.scale), func, x, [v])
        want = float(theta_at(x)[(0,)] * v[0])
        assert abs(got - want) < 1e-5


def test_homothety_scaling_law():
    # dividing coordinates by r scales the pulled-back generator by 1/r^2
    sol = embed.build_psi2(embed.problem_circle(), seed=0)
    target = embed._sphere_target("scaled", sol.pairs, sol.r2 / 2.0)
    halved = embed._scaled_maps(sol.maps, target, 0.5)
    eta_small = embed._eta_on(target, sol.pairs)
    eta_big = embed._eta_on(sol.ambient, sol.pairs)
    _n, psi = sol.maps[0]
    _n2, psi_h = halved[0]
    a = forms.pullback(psi_h, eta_small)
    b = forms.pullback(psi, eta_big).scaled(sx.Const(0.25))
    assert forms.forms_equal(a, b, 150, 1e-10, 4).passed


def test_unit_radius_homothety_is_identity():
    sol = embed.build_psi2(embed.problem_circle(), seed=0)
    same = embed._scaled_maps(sol.maps, sol.ambient, 1.0)
    for (_, a), (_, b) in zip(same, sol.maps):
        assert a.components == b.components


def test_padding_preserves_identity():
    sol = embed.build_psi3(embed.build_psi2(embed.problem_circle(), seed=0), seed=0)
    padded = embed.pad_to_dimension(sol, 4, seed=0)
    assert padded.pairs == 4 and padded.ambient.dim == 8  # image in the 7-sphere
    assert padded.passed and padded.scale == sol.scale
    assert embed.pad_to_dimension(sol, sol.pairs) is sol
    with pytest.raises(embed.TargetTooSmallError):
        embed.pad_to_dimension(sol, sol.pairs - 1)
    with pytest.raises(embed.EmbedError):
        embed.pad_to_dimension(embed.build_psi2(embed.problem_circle(), seed=0), 5)


def test_monotonicity_in_safety_factor():
    lo = embed.build_psi3(embed.build_psi2(embed.problem_circle(rho=1.1), seed=0), seed=0)
    hi = embed.build_psi3(embed.build_psi2(embed.problem_circle(rho=1.4), seed=0), seed=0)
    assert hi.r2 > lo.r2
    assert hi.inverse_scale < lo.inverse_scale
    assert lo.passed and hi.passed


# ---------------------------------------------------------------------------
# corpus end-to-end


@pytest.mark.parametrize(
    "factory", [embed.problem_circle, embed.problem_torus, embed.problem_sphere3]
)
def test_corpus_end_to_end(factory):
    prob = factory()
    sol = embed.build_sphere_pipeline(prob, tol=1e-9, seed=0)
    assert sol.passed
    worst = max(c.max_residual for _, c in sol.certifications)
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# product embedding of the sphere-circle structure


@pytest.fixture(scope="module")
def product_embedding():
    S = models.model_sphere_circle(2, q=1.0)
    prob, tau = embed.problem_from_sphere_circle(S, rho=1.2, samples=200)
    return S, embed.build_lcs_embedding(S, prob, tau, N=10, tol=1e-8, seed=0, samples=120)


def test_product_embedding_three_identities(product_embedding):
    _S, res = product_embedding
    assert res.passed
    labels = {lbl for _, lbl, _ in res.certifications}
    assert "pullback(scale * eta) - alpha" in labels
    assert "pullback(d theta) - lee" in labels
    assert "pullback(scale * twisted form) - phi" in labels
    worst = max(c.max_residual for _, _, c in res.certifications)
    assert worst < 1e-8
    assert res.target.dim == 21  # 19-sphere times circle


def test_product_embedding_morphism(product_embedding):
    _S, res = product_embedding
    assert res.morphism.strict and res.morphism.conformal and res.morphism.full
    assert res.morphism.rank_decrease == 0


def test_product_embedding_immersion_and_separation(product_embedding):
    _S, res = product_embedding
    assert res.immersion_rank == res.expected_rank == 4
    assert res.injectivity.separated
    assert res.injectivity.pairs_checked > 1000


def test_product_embedding_rejects_bad_tau():
    S = models.model_sphere_circle(2, q=1.0)
    prob, tau = embed.problem_from_sphere_circle(S)
    bad = dict(tau)
    first = S.charts[0].name
    bad[first] = sx.mul(sx.Const(2.0), sx.var("theta"))  # differential is 2 d(theta)
    with pytest.raises(embed.CertificationError):
        embed.build_lcs_embedding(S, prob, bad, N=10, samples=60)


def test_product_embedding_rejects_mismatched_potential():
    S = models.model_sphere_circle(2, q=1.0)
    prob, tau = embed.problem_from_sphere_circle(S)
    doubled = embed.EmbeddingProblem(
        prob.name, prob.ambient, prob.charts,
        tuple((n, sx.mul(sx.Const(2.0), c)) for n, c in prob.coefficients),
        prob.rho, prob.samples,
    )
    with pytest.raises(embed.CertificationError):
        embed.build_lcs_embedding(S, doubled, tau, N=10, samples=60)
