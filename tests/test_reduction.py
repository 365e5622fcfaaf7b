"""Reducibility certification and the four-stage chain.

The certified pullback identities are re-checked against the generic
pointwise pullback route and raw integrator oracles, so the batched
verifier and the independent numerics must agree.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lcskit.forms as forms
import lcskit.models as models
import lcskit.reduction as reduction
import lcskit.symexpr as sx
import lcskit.twisted as twisted
import oracle_utils
from oracle_utils import (
    JetsPointMap, evaluate_jacobian, fd_jacobian, pointwise_reducibility, pullback_residual_at, random_map,
    random_polynomial_form, rk4_flow,
)


# ---------------------------------------------------------------------------
# plane chain (exact, affine flows, tight tolerances)


@pytest.fixture(scope="module")
def plane_chain():
    return reduction.run_reduction_chain(*reduction.plane_chain_input(), reduction.ChainSettings())


def test_plane_step1_is_trivial(plane_chain):
    step = plane_chain.steps[0]
    assert step.name == "cotangent_torus_extension"
    assert step.chart.domain.dim == 2
    assert step.report.passed
    assert step.report.distribution_rank == 0
    assert step.report.worst_pullback() < 1e-12


def test_plane_step2_report(plane_chain):
    step = plane_chain.steps[1]
    rep = step.report
    assert rep.passed
    assert rep.samples_skipped == 0
    assert rep.distribution_rank == 2
    assert rep.b_tangency < 1e-10 and rep.e_tangency < 1e-10
    assert rep.quotient_kernel_gap < 1e-7
    assert rep.worst_pullback() < 1e-8
    assert isinstance(rep.kernel_ranks_agree, bool)


def test_plane_step2_two_form_kernel_oracle(plane_chain):
    """Dense SVD of the restricted two-form at the same seeded samples must
    reproduce the reported kernel rank."""
    step = plane_chain.steps[1]
    data = step.data
    phi_c = forms.pullback(data.submanifold, data.ambient.phi)
    env = data.submanifold.source.sample_points(rep_samples := 40, 0, 0.5)
    M = forms.form_matrix(phi_c, env, forms.evaluate_form(phi_c, env))
    nullities = []
    for i in range(rep_samples):
        s = np.linalg.svd(M[i], compute_uv=False)
        top = s[0] if s[0] > 0 else 1.0
        nullities.append(int(np.sum(s <= 1e-8 * top)))
    assert min(nullities) == step.report.two_form_kernel_rank
    assert step.report.two_form_kernel_rank == 2  # agrees with the distribution here
    assert step.report.kernel_ranks_agree


def test_plane_chain_passes(plane_chain):
    assert plane_chain.passed
    assert plane_chain.concatenation < 1e-8
    assert [s.name for s in plane_chain.steps] == [
        "cotangent_torus_extension",
        "jet_space_extension",
        "shear_normalization",
        "universal_transplant",
    ]
    step4 = plane_chain.steps[3]
    assert step4.chart.domain.dim == 2 + 2 * 0 + 2 * 4
    assert step4.report.distribution_rank == 0 + 4 - 2
    assert all(s.first_kind.passed for s in plane_chain.steps)


@pytest.mark.parametrize("fixture", ["plane_chain", "sphere_chain"])
def test_concatenation_counts_every_sample(fixture, request):
    chain = request.getfixturevalue(fixture)
    concat_samples = reduction.ChainSettings().concat_samples
    used, skipped = chain.concatenation_samples_used, chain.concatenation_samples_skipped
    assert used + skipped == concat_samples
    assert used >= 0.5 * concat_samples


def test_plane_chain_deterministic(plane_chain):
    again = reduction.run_reduction_chain(*reduction.plane_chain_input(), reduction.ChainSettings())
    assert again.concatenation == plane_chain.concatenation
    for a, b in zip(again.steps, plane_chain.steps):
        if a.report is not None:
            assert a.report.pullback_residuals == b.report.pullback_residuals
            assert a.report.quotient_kernel_gap == b.report.quotient_kernel_gap


def test_step3_shear_absorbs_exact_part(plane_chain):
    step2, step3 = plane_chain.steps[1], plane_chain.steps[2]
    dom = step3.chart.domain
    assert oracle_utils.forms_equal(step3.chart.lee, dom.one_form("s"), 50, 1e-12).passed
    # the stage-two Lee form still carries the exact part d(a)
    assert not oracle_utils.forms_equal(step2.chart.lee, dom.one_form("s"), 50, 1e-6).passed
    assert dict(step3.extras)["shear_determinant"] < 1e-10


# ---------------------------------------------------------------------------
# verifier against independent routes


def test_verifier_matches_pointwise_pullback_route(plane_chain):
    """Perturb the reduced potential; the batched residual must match the
    worst pointwise pullback residual computed by the generic route."""
    step = plane_chain.steps[0]
    data = step.data
    reduced = data.reduced
    bumped = dataclasses.replace(
        reduced, alpha=reduced.alpha + reduced.domain.one_form("a").scaled(sx.Const(0.01))
    )
    bad = dataclasses.replace(data, reduced=bumped)
    rep = reduction.verify_strong_reducibility(
        bad, samples=60, seed=3, margin=reduction.SECTION_MARGIN, tol=1e-8, pullback_tol=1e-8
    )
    assert not rep.passed
    got = dict(rep.pullback_residuals)["alpha"]

    qpm = JetsPointMap(bad.quotient)
    restricted = forms.pullback(bad.submanifold, bad.ambient.alpha)
    env = bad.submanifold.source.sample_points(60, 3, 0.3)
    worst = 0.0
    for i in range(60):
        y = np.array([env[n][i] for n in bad.submanifold.source.names])
        worst = max(worst, pullback_residual_at(restricted, bumped.alpha, qpm, y))
    assert abs(worst - got) < 1e-12
    assert abs(got - 0.01) < 1e-12


def _pullback_terms(a, images, J):
    """The terms of the sampled pullback summed in absolute value,
    |DF|ᵀ|a∘F| or |DF|ᵀ|a∘F||DF|: the scale of its rounding, which the
    value itself does not show where the terms cancel."""
    values, J = np.abs(forms.form_values(a, images)), np.abs(J)
    if values.ndim == 2:
        return np.einsum("an,ain->in", values, J)
    return np.einsum("kin,kln,ljn->ijn", J, values, J)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True))
@example(12375954, [1, 5])  # a two-form on a one-dimensional source: 0 symbolically, 2.7e-15 sampled
def test_pulled_values_equal_the_symbolic_pullback(seed, dims):
    """The sampled route DFᵀ(a∘F) and DFᵀ(a∘F)DF against the evaluated
    symbolic pullback F*a, for random polynomial one- and two-forms and for
    d taken before the pullback (F*da = d F*a), within 8 ulp of the largest
    of 1, |value| and the sampled terms' absolute sum: with DF evaluated
    from the symbolic Jacobian trees (the reference route of
    ``oracle_utils``) and from one jets walk of F (the route every sampled
    pullback in the package takes)."""
    src, tgt = dims
    source = forms.linear_domain(f"src{src}", [f"x{i}" for i in range(src)])
    target = forms.linear_domain(f"tgt{tgt}", [f"y{i}" for i in range(tgt)])
    F = random_map(source, target, seed)
    env = source.sample_points(20, seed)
    images = dict(zip(target.names, sx.evaluate_all(F.components, env)))
    values, jets_J, _ = sx.jets(F.components, env)
    assert np.array_equal(values, np.array(list(images.values())))
    cases = []
    for degree in (1, 2)[:tgt]:
        a = random_polynomial_form(target, degree, seed + degree)
        cases.append((a, forms.pullback(F, a)))
        if degree == 1:
            cases.append((forms.ext_d(a), forms.ext_d(forms.pullback(F, a))))
    for J in (evaluate_jacobian(F, env), jets_J):
        assert J.shape == (tgt, src, 20)
        for a, symbolic in cases:
            got = forms.sampled_pullback(a, images, J)
            want = forms.form_values(symbolic, env)
            assert got.shape == want.shape
            scale = np.maximum(np.maximum(1.0, np.abs(want)), _pullback_terms(a, images, J))
            assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("fixture, stage", [("plane_chain", 0), ("plane_chain", 3), ("sphere_chain", 0)])
def test_symbolic_quotient_report_matches_point_map_route(fixture, stage, request):
    """The verifier walks a symbolic quotient and calls a point map, each over
    the whole batch, and wraps either's images by one rule; the same quotient
    taken either way (as a point map over the same jets walk) must give the
    same report, bit for bit."""
    data = request.getfixturevalue(fixture).steps[stage].data
    assert isinstance(data.quotient, forms.SmoothMap)
    as_points = dataclasses.replace(data, quotient=JetsPointMap(data.quotient))
    for seed in (0, 3):
        fixed = dict(samples=40, seed=seed, margin=reduction.SECTION_MARGIN, tol=1e-8, pullback_tol=1e-8)
        want = reduction.verify_strong_reducibility(data, **fixed)
        got = reduction.verify_strong_reducibility(as_points, **fixed)
        assert got == want
        assert got.samples_used == 40 and got.samples_skipped == 0


@pytest.mark.parametrize("fixture", ["plane_chain", "sphere_chain"])
@pytest.mark.parametrize("seed", [0, 3])
def test_stacked_verifier_matches_the_per_sample_route(fixture, seed, request):
    """Every stage's tangency, kernel ranks and gap, stacked, against the
    per-sample lstsq / kernel / QR-gap loops of ``oracle_utils``.  The
    reference gap reads sqrt(1 - cos^2), which floors near 1.5e-8."""
    for step in request.getfixturevalue(fixture).steps:
        if step.data is None:
            continue
        margin = 0.5 if isinstance(step.data.quotient, reduction.FlowQuotient) else 0.3
        rep = reduction.verify_strong_reducibility(
            step.data, samples=24, seed=seed, margin=margin, tol=1e-8, pullback_tol=1e-8
        )
        ref = pointwise_reducibility(step.data, samples=24, seed=seed, margin=margin)
        assert set(ref.distribution_ranks) == {rep.distribution_rank}, step.name
        assert set(ref.quotient_kernel_dims) == {rep.distribution_rank}, step.name
        assert (ref.samples_used, 24 - ref.samples_used) == (rep.samples_used, rep.samples_skipped)
        assert abs(rep.b_tangency - ref.b_tangency) <= 1e-14
        assert abs(rep.e_tangency - ref.e_tangency) <= 1e-14
        assert abs(rep.quotient_kernel_gap - ref.gap) <= 5e-8


def _tilted_stage_two(data, eps: float) -> reduction.ReducibleData:
    # the stage-two quotient of the plane chain is (a + s, b - u); stretching
    # its s-slope by 1 + eps tilts the kernel direction (1, 0, -1, 0) by eps/2
    tilted = forms.SmoothMap(
        data.submanifold.source, data.reduced.domain,
        (sx.add(sx.var("a"), sx.mul(sx.Const(1.0 + eps), sx.var("s"))), sx.add(sx.var("b"), sx.neg(sx.var("u")))),
    )
    return dataclasses.replace(data, quotient=tilted)


def test_gap_resolves_a_quotient_kernel_tilted_by_1e_9(plane_chain):
    eps = 1e-9
    data = _tilted_stage_two(plane_chain.steps[1].data, eps)
    rep = reduction.verify_strong_reducibility(data, samples=40, seed=0, margin=0.5, tol=1e-8, pullback_tol=1e-8)
    assert 0.1 <= rep.quotient_kernel_gap / eps <= 10


def test_stage_two_quotient_tilted_by_1e_6_fails_on_its_gap(plane_chain):
    # stage two runs with pullback_tol = flow_tol = 1e-6, which this tilt
    # meets (residual eps); the gap, at its measured scale, does not
    data = _tilted_stage_two(plane_chain.steps[1].data, 1e-6)
    rep = reduction.verify_strong_reducibility(data, samples=30, seed=0, margin=0.5, tol=1e-8, pullback_tol=1e-6)
    assert rep.worst_pullback() <= rep.pullback_tol
    assert rep.quotient_kernel_gap > 100 * reduction.GAP_TOL
    assert rep.gap_tol == reduction.GAP_TOL
    assert not rep.passed


def test_images_skip_exactly_the_samples_whose_flows_escape(plane_chain):
    # the plane's stage-two quotient flows (a, b) to (a + s, b - u), and the
    # chart box is [-1, 1]^2: a sample escapes exactly when either leaves it
    samples = 30
    settings = reduction.ChainSettings(window=0.5, margin=0.0, flow_samples=samples, samples=40)
    step = reduction.build_step2(plane_chain.steps[0].chart, settings)
    env = step.data.submanifold.source.sample_points(samples, 0, 0.0)
    escapes = (np.abs(env["a"] + env["s"]) > 1) | (np.abs(env["b"] - env["u"]) > 1)
    assert 0 < escapes.sum() < samples / 2
    assert (step.report.samples_used, step.report.samples_skipped) == (samples - escapes.sum(), escapes.sum())
    assert step.report.passed

    quotient = step.data.quotient
    kept, images, J = reduction._images(quotient, env, samples)
    assert kept.tolist() == np.flatnonzero(~escapes).tolist()
    assert np.allclose(images["a"], (env["a"] + env["s"])[kept], rtol=0, atol=1e-12)
    assert np.allclose(images["b"], (env["b"] - env["u"])[kept], rtol=0, atol=1e-12)
    points = np.column_stack([env[n] for n in quotient.source.names])
    values, J_all, ok = quotient(points)
    assert ok.tolist() == (~escapes).tolist() and np.isnan(values[escapes]).all()
    for k, i in enumerate(kept):  # each kept row is what it is in a batch of one
        value, J_one, ok_one = quotient(points[i:i + 1])
        assert ok_one.tolist() == [True]
        assert value[0].tobytes() == values[i].tobytes()
        assert J_one[0].tobytes() == J[..., k].tobytes()


def test_flow_quotient_value_against_rk4(sphere_chain):
    q = sphere_chain.steps[1].data.quotient
    src = q.source
    env = src.sample_points(3, 11, 0.6)
    b_field = sphere_chain.steps[0].chart.b_field.value_at
    e_field = sphere_chain.steps[0].chart.anti_lee.value_at

    def b_func(x):
        return b_field(x[None])[0]

    def e_func(x):
        return e_field(x[None])[0]

    for i in range(3):
        y = np.array([env[n][i] for n in src.names])
        value, _, ok = q(y[None])
        assert ok.tolist() == [True]
        mid = rk4_flow(b_func, y[2:], y[0], steps=400)
        end = rk4_flow(e_func, mid, y[1], steps=400)
        assert np.max(np.abs(value[0] - end)) < 1e-7


def test_flow_quotient_jacobian_against_finite_differences(sphere_chain):
    q = sphere_chain.steps[1].data.quotient
    src = q.source
    env = src.sample_points(2, 5, 0.6)
    for i in range(2):
        y = np.array([env[n][i] for n in src.names])
        _, J, _ = q(y[None])
        J_fd = fd_jacobian(lambda v: q(v[None])[0][0], y, h=1e-6)
        assert np.max(np.abs(J[0] - J_fd)) < 1e-5


# ---------------------------------------------------------------------------
# failure modes


def test_tangency_violation_is_reported():
    structure = models.model_reduction_universal(1, 1, (1.0,))
    chart = structure.charts[0]
    dom = chart.domain
    pdom = forms.make_domain(
        "bent_slice",
        [("u", "linear"), ("th1", "angular"), ("t1", "linear"), ("pth1", "linear"), ("pt1", "linear")],
    )
    t1 = sx.var("t1")
    sub = forms.SmoothMap(
        pdom, dom,
        (sx.mul(t1, t1), sx.var("u"), sx.var("th1"), t1, sx.var("pth1"), sx.var("pt1")),
    )
    data = reduction.ReducibleData("bent", chart, sub, sub, chart)
    rep = reduction.verify_strong_reducibility(
        data, samples=40, seed=0, margin=reduction.SECTION_MARGIN, tol=1e-8, pullback_tol=1e-8
    )
    assert rep.b_tangency > 0.3
    assert rep.e_tangency < 1e-10
    assert not rep.passed


def test_non_constant_rank_raises_with_witnesses(monkeypatch):
    dom = forms.linear_domain("pinch", ["x", "y", "z"])
    alpha = dom.one_form("y").scaled(sx.mul(sx.var("x"), sx.var("x")))
    lee = dom.one_form("z")
    chart = models.StructureChart(
        dom, twisted.d_twisted(lee, alpha), lee, alpha,
        forms.basis_vector(dom, "z"), forms.basis_vector(dom, "z"), name="pinch",
    )
    data = reduction.ReducibleData("pinch", chart, forms.identity_map(dom), forms.identity_map(dom), chart)
    # cut at half the largest singular value, the rows in x drop out near x = 0
    monkeypatch.setattr(reduction, "VERIFY_RANK_RTOL", 0.5)
    with pytest.raises(reduction.NonConstantRankError) as err:
        reduction.verify_strong_reducibility(
            data, samples=60, seed=0, margin=reduction.SECTION_MARGIN, tol=1e-8, pullback_tol=1e-8
        )
    (p1, r1), (p2, r2) = err.value.witnesses
    assert r1 != r2
    assert set(p1) == {"x", "y", "z"} and set(p2) == {"x", "y", "z"}


def test_quotient_with_wrong_kernel_fails(plane_chain):
    step = plane_chain.steps[1]
    c_dom = step.data.submanifold.source
    m_dom = step.data.reduced.domain
    skew = forms.SmoothMap(
        c_dom, m_dom, (sx.add(sx.var("a"), sx.var("s")), sx.var("b"))
    )
    bad = dataclasses.replace(step.data, quotient=skew)
    rep = reduction.verify_strong_reducibility(bad, samples=40, seed=0, margin=0.5, tol=1e-8, pullback_tol=1e-8)
    assert rep.quotient_kernel_gap > 0.1
    assert not rep.passed


def test_mismatched_data_rejected(plane_chain):
    step = plane_chain.steps[0]
    other = forms.linear_domain("elsewhere", ["m"])
    stray = forms.SmoothMap(other, step.data.reduced.domain, (sx.var("m"), sx.ZERO))
    with pytest.raises(reduction.ReductionError):
        dataclasses.replace(step.data, quotient=stray)


def test_rank_deficient_transplant_is_not_an_embedding(plane_chain, monkeypatch):
    """The stage-four transplant is ranked on the Jacobians of one jets walk
    of its components; (a, b) -> (a, a, 0, 0) has rank 1 on the plane."""
    step1, _, step3, step4 = plane_chain.steps
    assert dict(step4.extras)["transplant_rank"] == 2.0
    a = sx.var("a")
    flat = forms.SmoothMap(step1.chart.domain, reduction.universal_base_domain(0, 4), (a, a, sx.ZERO, sx.ZERO))
    walked, jets = [], sx.jets

    def spy(exprs, env):
        walked.append(tuple(exprs))
        return jets(exprs, env)

    monkeypatch.setattr(sx, "jets", spy)
    with pytest.raises(reduction.ReductionError, match=r"transplant rank 1 < stage-one dimension 2; not an embedding"):
        reduction.build_step4(step3.chart, step1.chart, flat, (), reduction.ChainSettings())
    assert walked == [flat.components]


# ---------------------------------------------------------------------------
# declared decompositions


def _circle_chart():
    structure = models.model_sphere_circle(2)
    return structure, structure.charts[0]


def test_decomposition_certifies_unit_piece():
    structure, chart = _circle_chart()
    _, decomp, _ = reduction.sphere_circle_chain_input(structure)[0:3]
    report = reduction.certify_decomposition(chart, decomp)
    assert report.sum_residual < 1e-12
    assert max(report.piece_residuals) <= reduction.EXACT_TOL
    periods = [twisted.period(piece.omega, loop) for loop in decomp.loops for piece in decomp.pieces]
    assert periods and max(abs(p - round(p)) for p in periods) < 1e-9


def test_decomposition_wrong_weight_rejected():
    structure, chart = _circle_chart()
    dom = chart.domain
    piece = reduction.DecompositionPiece(0.5, chart.lee, dom.var("theta"))
    decomp = reduction.LeeDecomposition(sx.ZERO, (piece,))
    with pytest.raises(reduction.DecompositionError, match="reassemble"):
        reduction.certify_decomposition(chart, decomp)


def test_decomposition_bad_potential_rejected():
    structure, chart = _circle_chart()
    dom = chart.domain
    theta = dom.var("theta")
    piece = reduction.DecompositionPiece(1.0, chart.lee, sx.mul(theta, theta))
    decomp = reduction.LeeDecomposition(sx.ZERO, (piece,))
    with pytest.raises(reduction.DecompositionError, match="potential"):
        reduction.certify_decomposition(chart, decomp)


def test_decomposition_non_integer_period_rejected():
    structure, chart = _circle_chart()
    dom = chart.domain
    half = chart.lee.scaled(sx.Const(0.5))
    piece = reduction.DecompositionPiece(2.0, half, sx.mul(sx.Const(0.5), dom.var("theta")))
    loops = models.structure_lee_loops(structure)
    decomp = reduction.LeeDecomposition(sx.ZERO, (piece,), tuple(loops))
    with pytest.raises(reduction.DecompositionError, match="period"):
        reduction.certify_decomposition(chart, decomp)


# ---------------------------------------------------------------------------
# sphere-times-circle chain


@pytest.fixture(scope="module")
def sphere_chain():
    structure = models.model_sphere_circle(2)
    return reduction.run_reduction_chain(
        *reduction.sphere_circle_chain_input(structure), reduction.ChainSettings()
    )


def test_sphere_chain_passes(sphere_chain):
    assert sphere_chain.passed
    assert sphere_chain.concatenation < 1e-6


def test_sphere_chain_dimensions(sphere_chain):
    dims = [s.chart.domain.dim for s in sphere_chain.steps]
    assert dims == [6, 14, 14, 22]
    assert sphere_chain.steps[0].report.distribution_rank == 1
    assert sphere_chain.steps[1].report.distribution_rank == 2
    assert sphere_chain.steps[3].report.distribution_rank == 1 + 9 - 6


def test_sphere_chain_stage_reports(sphere_chain):
    for step in sphere_chain.steps:
        assert step.first_kind.passed, step.name
        if step.report is not None:
            assert step.report.passed, step.name
            assert isinstance(step.report.kernel_ranks_agree, bool)
    flow_report = sphere_chain.steps[1].report
    assert flow_report.worst_pullback() < 1e-6
    assert flow_report.samples_used >= flow_report.samples_skipped


def test_sphere_chain_universal_stage_conjugation(sphere_chain):
    # th1 -> -th1, pth1 -> -pth1 pulls the universal model with mu = (-1,)
    # back onto the chain's universal stage, whose mu is (1,): on a domain
    # with k = 1 and N Euclidean pairs, the Lee form ds + d th1 pulls back
    # only from ds - d th1
    src = sphere_chain.steps[3].chart
    tgt = models.model_reduction_universal(1, (src.domain.dim - 4) // 2, (-1.0,)).charts[0]
    assert tgt.domain == src.domain
    comps = tuple(sx.neg(sx.var(n)) if n in ("th1", "pth1") else sx.var(n) for n in tgt.domain.names)
    F = forms.SmoothMap(src.domain, tgt.domain, comps)
    residuals = [forms.pullback(F, getattr(tgt, f)) - getattr(src, f) for f in ("alpha", "lee", "phi")]
    assert all(oracle_utils.form_is_zero(r, samples=60).passed for r in residuals)


def test_sphere_chain_nonzero_gauge_function():
    structure = models.model_sphere_circle(2)
    two_pi = sx.Const(2.0 * np.pi)
    f0 = sx.mul(sx.Const(0.1), sx.sin(sx.mul(two_pi, sx.var("theta"))))
    chart, decomp, factory = reduction.sphere_circle_chain_input(structure, f0=f0)
    chain = reduction.run_reduction_chain(
        chart, decomp, factory,
        reduction.ChainSettings(samples=80, verify_samples=50, flow_samples=24, concat_samples=8),
    )
    assert chain.passed
    assert chain.concatenation < 1e-6
    # the shear now has real work to do: stage-two and stage-three Lee forms differ
    lee2 = chain.steps[1].chart.lee
    lee3 = chain.steps[2].chart.lee
    assert not oracle_utils.forms_equal(lee2, lee3, 50, 1e-6).passed


CHAIN_INPUTS = {
    "plane_chain": reduction.plane_chain_input,
    "sphere_chain": lambda: reduction.sphere_circle_chain_input(models.model_sphere_circle(2)),
}


@pytest.mark.parametrize("fixture", sorted(CHAIN_INPUTS))
def test_a_stage_run_alone_is_the_chains_stage(fixture, request):
    """A reducing stage built on its own, with the chain's settings and on the
    chain's previous stage, certifies exactly what the chain's stage did."""
    step1, step2, step3, step4 = request.getfixturevalue(fixture).steps
    chart, decomp, factory = CHAIN_INPUTS[fixture]()
    settings, mu = reduction.ChainSettings(), tuple(piece.weight for piece in decomp.pieces)
    alone = (
        reduction.build_step1(chart, decomp, settings),
        reduction.build_step2(step1.chart, settings),
        reduction.build_step4(step3.chart, step1.chart, factory(step1.chart, chart), mu, settings),
    )
    for got, want in zip(alone, (step1, step2, step4)):
        assert got.report == want.report, want.name
        assert got.first_kind == want.first_kind, want.name
        assert got.extras == want.extras, want.name


def test_step2_escape_policy(sphere_chain):
    m1 = sphere_chain.steps[0].chart
    wide = reduction.build_step2(m1, reduction.ChainSettings(window=0.5, flow_samples=30, samples=60))
    assert wide.report.samples_skipped > 0
    assert wide.report.passed
    with pytest.raises(reduction.ReductionError, match="stayed inside"):
        reduction.build_step2(m1, reduction.ChainSettings(window=2.5, flow_samples=20, samples=40))
