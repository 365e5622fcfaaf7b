"""Sphere embedding stages: radii, pullback identities, product assembly.

The certified pullback identities are re-checked here through the
finite-difference Jacobian oracle, so the symbolic pullback and the raw
numerical route must agree independently.
"""

import dataclasses
import json

import numpy as np
import pytest

import lcskit.cli as cli
import lcskit.embed as embed
import lcskit.forms as forms
import lcskit.models as models
import lcskit.report as report
import lcskit.symexpr as sx
import lcskit.twisted as twisted
import oracle_utils
from oracle_utils import chart_form, pullback_on_vectors


# the settings of a corpus task's sphere stages at tol 1e-9 and seed 0
CORPUS = embed.EmbedSettings().corpus_stages()


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
    prob = embed.problem_circle()
    pairs = prob.chart_pairs(prob.charts[0][1])
    pieces = [(prob.charts[0][1].source, [e for fg in pairs for e in fg])]
    bound = embed.radius_bound(pieces, 1.1, samples=600, seed=0)
    # dense-grid oracle for the supremum of sqrt(f^2 + x^2) = 1 on the circle
    ts = np.linspace(0.0, 1.0, 2001)
    oracle = np.max(np.sqrt(np.sin(2 * np.pi * ts) ** 2 + np.cos(2 * np.pi * ts) ** 2))
    assert abs(bound / 1.1 - oracle) < 1e-9
    assert abs(bound - 1.1 * oracle) < 1e-9
    assert bound > oracle


def test_radius_bound_rejects_unit_safety_factor():
    dom = forms.linear_domain("seg", ["x"])
    with pytest.raises(embed.RadiusError):
        embed.radius_bound([(dom, [sx.var("x")])], 1.0, 400, 0)


def test_radius_bound_rejects_degenerate_data():
    dom = forms.linear_domain("seg", ["x"])
    with pytest.raises(embed.RadiusError):
        embed.radius_bound([(dom, [sx.ZERO, sx.ZERO])], 1.2, 400, 0)


# ---------------------------------------------------------------------------
# stage 2: corrected closing pair vs half-strength closing pair


def test_psi2_corrected_circle():
    sol = embed.build_psi2(embed.problem_circle(), CORPUS, doubled_pair=True)
    assert sol.passed and sol.stage == 2 and sol.doubled_pair
    assert sol.pairs == 3 and sol.ambient.dim == 6
    assert sol.r2 > 1.0
    assert sol.scale is None and sol.defects == ()


def test_psi2_half_pair_defect_is_half_dphi():
    sol = embed.build_psi2(embed.problem_circle(), CORPUS, doubled_pair=False)
    assert not sol.doubled_pair
    assert sol.defects and all(c.passed for _, c in sol.defects)
    # the defect is a genuine, measurable gap: theta_bar - psi2* eta is far
    # from zero even though it matches (1/2) d(phi) to 1e-9
    prob = sol.problem
    _name, psi = sol.maps[0]
    eta = embed._eta_on(sol.ambient, sol.pairs)
    gap = chart_form(prob, prob.charts[0][1]) - forms.pullback(psi, eta)
    assert not oracle_utils.form_is_zero(gap, 200, 1e-3, 1).passed


def test_psi2_zero_form_both_variants():
    for doubled in (True, False):
        sol = embed.build_psi2(embed.problem_zero_form(), CORPUS, doubled_pair=doubled)
        _name, psi = sol.maps[0]
        eta = embed._eta_on(sol.ambient, sol.pairs)
        assert oracle_utils.form_is_zero(forms.pullback(psi, eta), 150, 1e-12, 2).passed


def test_psi2_sphere_constraint():
    sol = embed.build_psi2(embed.problem_torus(), CORPUS, doubled_pair=True)
    for _name, psi in sol.maps:
        env = psi.source.sample_points(60, seed=8)
        vals = dict(zip(psi.target.names, sx.evaluate_all(psi.components, env)))
        r2 = sum(vals[n] ** 2 for n in psi.target.names)
        assert np.max(np.abs(r2 - sol.r2**2)) < 1e-9 * sol.r2**2


@pytest.mark.parametrize("factory", [embed.problem_circle, embed.problem_torus, embed.problem_sphere3])
def test_sphere_check_from_the_walk_agrees_with_the_symbolic_constraint(factory):
    """The sphere constraint read from a stage's walked images agrees with
    |psi|^2 - r^2 built as an expression and walked on its own, to within a
    few rounding errors of r^2: the two sum the same squares in another
    order, and the expression folds sqrt(g)^2 to g."""
    sol2 = embed.build_psi2(factory(), CORPUS, doubled_pair=True)
    for sol, radius in ((sol2, sol2.r2), (embed.build_psi3(sol2, CORPUS), 1.0)):
        for _name, psi in sol.maps:
            env = psi.source.sample_points(60, seed=8)
            images, _, _ = sx.jets(psi.components, env)
            walked = embed._sphere_check(images, radius, env, 1e-9).max_residual
            expr = sx.add(*(sx.pow_(c, 2) for c in psi.components), sx.Const(-radius * radius))
            symbolic = float(np.max(np.abs(sx.evaluate(expr, env))))
            assert abs(walked - symbolic) <= 16 * np.finfo(float).eps * radius * radius


def test_stage2_radius_fault_is_told_from_other_walk_errors(monkeypatch):
    """The stage-2 walk runs first; only when it fails is the radicand
    evaluated on its own.  A radicand at or below 0 raises RadiusError before
    any sphere or pullback check; a walk error with every radicand positive
    is the walk's own."""
    checked = []
    monkeypatch.setattr(embed, "_sphere_check", lambda *args: checked.append(args))
    bound = embed.radius_bound
    monkeypatch.setattr(embed, "radius_bound", lambda *args: 0.9)
    with pytest.raises(embed.RadiusError, match="stage 2 chart 'angle': sphere radicand dips to"):
        embed.build_psi2(embed.problem_circle(), CORPUS, doubled_pair=True)
    assert checked == []
    monkeypatch.setattr(embed, "radius_bound", bound)

    def failing_walk(*args):
        raise sx.EvaluationDomainError("planted walk error")

    monkeypatch.setattr(sx, "jets", failing_walk)
    with pytest.raises(sx.EvaluationDomainError, match="planted walk error"):
        embed.build_psi2(embed.problem_circle(), CORPUS, doubled_pair=True)


def test_problems_carry_geometry_only():
    fields = [field.name for field in dataclasses.fields(embed.EmbeddingProblem)]
    assert fields == ["name", "ambient", "charts", "coefficients"]


@pytest.mark.parametrize("via", ["task", "flag"])
@pytest.mark.parametrize("samples, drawn", [(600, 600), (150, embed.CORPUS_FLOOR)])
def test_a_corpus_task_draws_its_samples_above_the_floor(monkeypatch, via, samples, drawn):
    """A corpus task's sphere stages, and its literal-defect build, draw the
    task's samples per chart, or the corpus floor when that is larger."""
    counts = []
    sample_points = forms.CoordinateDomain.sample_points

    def counting(domain, n, *args):
        counts.append(n)
        return sample_points(domain, n, *args)

    monkeypatch.setattr(forms.CoordinateDomain, "sample_points", counting)
    task = {"kind": "embed", "corpus": "circle", "pairs": 4, "literal_defect": True}
    if via == "task":
        task["samples"] = samples
    manifest = report.parse_manifest({"seed": 7, "tasks": [task]})
    opts = report.RunOptions(samples=samples if via == "flag" else None)
    records = report.run_manifest(manifest, opts).records
    assert [r.name for r in records if r.passed] == ["embed:corpus:circle", "embed:corpus:circle:literal-defect"]
    # the radius bound and stages 2 and 3; again bound and stage 2 for the literal defect
    assert counts == [drawn] * 5


# ---------------------------------------------------------------------------
# stage 3, onto the delivered target


def test_psi3_circle_end_to_end():
    sol = embed.build_psi3(embed.build_psi2(embed.problem_circle(), CORPUS, doubled_pair=True), CORPUS)
    assert sol.stage == 3 and sol.passed
    assert sol.scale == pytest.approx(sol.r2**2)
    _name, psi = sol.maps[0]
    env = psi.source.sample_points(50, seed=3)
    vals = dict(zip(psi.target.names, sx.evaluate_all(psi.components, env)))
    r2 = sum(vals[n] ** 2 for n in psi.target.names)
    assert np.max(np.abs(r2 - 1.0)) < 1e-12


def test_psi3_requires_corrected_stage2():
    half = embed.build_psi2(embed.problem_circle(), CORPUS, doubled_pair=False)
    with pytest.raises(embed.EmbedError):
        embed.build_psi3(half, CORPUS)


def test_psi3_oracle_route():
    # certified identity pullback(psi, c*eta) = theta_bar re-derived through
    # the FD-Jacobian pullback oracle
    prob = embed.problem_circle()
    sol = embed.build_psi3(embed.build_psi2(prob, CORPUS, doubled_pair=True), CORPUS)
    _name, psi = sol.maps[0]
    func = _map_func(psi)
    theta_at = _form_at(chart_form(prob, prob.charts[0][1]))
    rng = np.random.default_rng(5)
    for t in (0.07, 0.33, 0.92):
        x = np.array([t])
        v = rng.normal(size=1)
        got = pullback_on_vectors(_eta_coeff_func(sol.pairs, sol.scale), func, x, [v])
        want = float(theta_at(x)[(0,)] * v[0])
        assert abs(got - want) < 1e-5


def test_homothety_scaling_law():
    # dividing coordinates by r scales the pulled-back generator by 1/r^2
    sol = embed.build_psi2(embed.problem_circle(), CORPUS, doubled_pair=True)
    target = embed._sphere_target("scaled", sol.pairs, sol.r2 / 2.0)
    halved = embed._scaled_maps(sol.maps, target, 0.5)
    eta_small = embed._eta_on(target, sol.pairs)
    eta_big = embed._eta_on(sol.ambient, sol.pairs)
    _n, psi = sol.maps[0]
    _n2, psi_h = halved[0]
    a = forms.pullback(psi_h, eta_small)
    b = forms.pullback(psi, eta_big).scaled(sx.Const(0.25))
    assert oracle_utils.forms_equal(a, b, 150, 1e-10, 4).passed


def test_unit_radius_homothety_is_identity():
    sol = embed.build_psi2(embed.problem_circle(), CORPUS, doubled_pair=True)
    same = embed._scaled_maps(sol.maps, sol.ambient, 1.0)
    for (_, a), (_, b) in zip(same, sol.maps):
        assert a.components == b.components


def test_padding_preserves_identity():
    stage2 = embed.build_psi2(embed.problem_circle(), CORPUS, doubled_pair=True)
    sol = embed.build_psi3(stage2, CORPUS)
    padded = embed.build_psi3(stage2, dataclasses.replace(CORPUS, pairs=4))
    assert padded.pairs == 4 and padded.ambient.dim == 8  # image in the 7-sphere
    assert padded.passed and padded.scale == sol.scale
    assert sorted(label for label, _ in padded.certifications) == sorted(label for label, _ in sol.certifications)
    with pytest.raises(embed.TargetTooSmallError):
        embed.build_psi3(stage2, dataclasses.replace(CORPUS, pairs=stage2.pairs - 1))
    with pytest.raises(embed.EmbedError):
        embed.build_psi3(sol, dataclasses.replace(CORPUS, pairs=5))


def test_padding_is_held_to_the_unit_sphere(monkeypatch):
    """Stage 3 certifies its sphere constraint on the padded target.
    Constant pads pull the contact form back unchanged, so only the sphere
    constraint sees a pad of 0.3 in place of 0."""
    stage2 = embed.build_psi2(embed.problem_circle(), CORPUS, doubled_pair=True)
    smooth_map = embed.SmoothMap

    def nonzero_pads(source, target, comps):
        if target.name.endswith("_stage3"):
            comps = comps[: 2 * stage2.pairs] + (sx.Const(0.3),) * (len(comps) - 2 * stage2.pairs)
        return smooth_map(source, target, comps)

    monkeypatch.setattr(embed, "SmoothMap", nonzero_pads)
    with pytest.raises(embed.CertificationError, match="stage 3 sphere constraint") as caught:
        embed.build_psi3(stage2, dataclasses.replace(CORPUS, pairs=4))
    assert caught.value.check.max_residual == pytest.approx(2 * (4 - stage2.pairs) * 0.09)


@pytest.mark.parametrize("entry", ["circle", "torus", "sphere3"])
def test_zero_pairs_leave_every_stage3_residual_unchanged(entry):
    """Each zero pair adds exactly 0.0 to the pullback and to the sum of
    squares, so stage 3 read on any larger target is the one certificate
    of the unpadded map."""
    stage2 = embed.build_psi2(getattr(embed, f"problem_{entry}")(), CORPUS, doubled_pair=True)

    def stage3(pairs):
        sol = embed.build_psi3(stage2, dataclasses.replace(CORPUS, pairs=pairs))
        return {label: c.max_residual for label, c in sol.certifications if label.startswith("stage3:")}

    unpadded = stage3(None)
    assert unpadded
    for pairs in range(stage2.pairs, stage2.pairs + 4):
        assert stage3(pairs) == unpadded


def test_sphere_constraint_is_judged_at_the_task_tolerance(tmp_path):
    """No record passes with its residual above its own tolerance: sphere3's
    sphere certificates read 1.1e-15 at stage 2, above a task tol of 5e-16,
    so the run fails there, naming the sphere constraint."""
    task = {"kind": "embed", "corpus": "sphere3", "tol": 5e-16}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"seed": 7, "tasks": [task]}))
    out = tmp_path / "report.json"
    assert cli.main(["run", str(path), "-q", "-o", str(out)]) == 1
    records = json.loads(out.read_text())["records"]
    assert not any(r["passed"] for r in records)
    assert any("stage 2 sphere constraint" in r["detail"] for r in records)


def test_monotonicity_in_safety_factor():
    low, high = dataclasses.replace(CORPUS, rho=1.1), dataclasses.replace(CORPUS, rho=1.4)
    lo = embed.build_psi3(embed.build_psi2(embed.problem_circle(), low, doubled_pair=True), low)
    hi = embed.build_psi3(embed.build_psi2(embed.problem_circle(), high, doubled_pair=True), high)
    assert hi.r2 > lo.r2 and hi.scale > lo.scale
    assert lo.passed and hi.passed


# ---------------------------------------------------------------------------
# corpus end-to-end


@pytest.mark.parametrize(
    "factory", [embed.problem_circle, embed.problem_torus, embed.problem_sphere3]
)
def test_corpus_end_to_end(factory):
    prob = factory()
    sol = embed.build_sphere_pipeline(prob, CORPUS)
    assert sol.passed
    worst = max(c.max_residual for _, c in sol.certifications)
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# product embedding of the sphere-circle structure


@pytest.fixture(scope="module")
def product_embedding():
    S = models.model_sphere_circle(2, q=1.0)
    prob, tau = embed.problem_from_sphere_circle(S)
    return S, embed.build_lcs_embedding(S, prob, tau, embed.EmbedSettings(samples=120, tol=1e-8, pairs=10, seed=0))


def test_product_embedding_three_identities(product_embedding):
    S, res = product_embedding
    assert res.passed
    # the two prerequisites are listed beside the three pullbacks, chart by chart
    for chart in S.charts:
        labels = {lbl for name, lbl, _ in res.certifications if name == chart.name}
        assert {
            "one-form vs potential",
            "d(tau) - lee",
            "pullback(scale * eta) - alpha",
            "pullback(d theta) - lee",
            "pullback(scale * twisted form) - phi",
        } <= labels
    worst = max(c.max_residual for _, _, c in res.certifications)
    assert worst < 1e-8
    assert res.target.dim == 21  # 19-sphere times circle


def test_product_embedding_morphism(product_embedding):
    _S, res = product_embedding
    assert res.morphism.strict and res.morphism.conformal and res.morphism.full
    assert res.morphism.source_lattice.rank == res.morphism.target_lattice.rank


LEFT_INVERSE = ("left inverse: L∘psi - P", "left inverse: L·Dpsi - DP")


def test_product_embedding_certifies_its_left_inverse(product_embedding):
    # injectivity and immersion are the two left-inverse identities, certified
    # on every chart; their residual is the rounding of stage 3's 1/r2 alone
    S, res = product_embedding
    for chart in S.charts:
        labels = {lbl for name, lbl, _ in res.certifications if name == chart.name}
        assert set(LEFT_INVERSE) <= labels
    worst = max(c.max_residual for _, lbl, c in res.certifications if lbl in LEFT_INVERSE)
    assert worst < 1e-14


def _left_inverse_on(res, chart, psi):
    """The left-inverse checks of a product map ``psi`` on ``chart``, at the
    embedding's tolerance: L is the pipeline's, with the circle read from
    the last slot."""
    inverse = list(res.solution.left_inverse()) + [(res.target.dim - 1, 1.0)]
    env = chart.domain.sample_points(60, 0)
    values, grads, _ = sx.jets(psi.components + chart.parametrization.components, env)
    return dict(embed._left_inverse_checks(inverse, values, grads, env, 1e-8))


def test_a_two_to_one_product_map_fails_the_left_inverse(product_embedding):
    S, res = product_embedding
    chart = S.charts[0]
    name, psi = res.maps[0]
    assert name == chart.name
    doubled = forms.SmoothMap(psi.source, psi.target, psi.components[:-1] + (sx.mul(sx.Const(2.0), sx.var("theta")),))
    # it is 2:1: theta and theta + 1/2 land on one image, the circle taken mod 1
    at = {n: 0.1 for n in psi.source.names}
    a, b = (sx.evaluate_all(doubled.components, {**at, "theta": t}) for t in (0.1, 0.6))
    assert np.allclose(a[:-1], b[:-1]) and np.isclose((a[-1] - b[-1]) % 1.0, 0.0)
    assert all(c.passed for c in _left_inverse_on(res, chart, psi).values())
    checks = _left_inverse_on(res, chart, doubled)
    assert not checks["left inverse: L∘psi - P"].passed
    assert checks["left inverse: L∘psi - P"].max_residual > 0.1


def test_a_map_that_glues_two_charts_fails_the_left_inverse(monkeypatch, product_embedding):
    # x1_minus gets x1_plus's sphere map: both charts have the coordinates
    # (y1, x2, y2, theta), so each point goes to its mirror's image
    S, res = product_embedding
    by_name = {c.name: c for c in S.charts}
    glued = dict(res.maps)["x1_plus"]
    checks = _left_inverse_on(res, by_name["x1_minus"], glued)
    assert not checks["left inverse: L∘psi - P"].passed
    pipeline = embed.build_sphere_pipeline

    def gluing(problem, settings):
        sol = pipeline(problem, settings)
        maps = dict(sol.maps)
        maps["x1_minus"] = maps["x1_plus"]
        return dataclasses.replace(sol, maps=tuple(maps.items()))

    monkeypatch.setattr(embed, "build_sphere_pipeline", gluing)
    prob, tau = embed.problem_from_sphere_circle(S)
    with pytest.raises(embed.CertificationError) as err:
        embed.build_lcs_embedding(S, prob, tau, embed.EmbedSettings(samples=60, tol=1e-8, pairs=10))
    assert err.value.where == "left inverse: L∘psi - P on chart 'x1_minus'"


def test_a_left_inverse_needs_every_ambient_coordinate_in_a_pair():
    # the circle problem's one-form y dx leaves y out of its coefficients
    sol = embed.build_sphere_pipeline(embed.problem_circle(), CORPUS)
    with pytest.raises(embed.EmbedError, match="injectivity not certified"):
        sol.left_inverse()


def test_a_product_chart_without_a_parametrization_is_refused():
    S = models.model_sphere_circle(2, q=1.0)
    prob, tau = embed.problem_from_sphere_circle(S)
    bare = dataclasses.replace(S, charts=tuple(dataclasses.replace(c, parametrization=None) for c in S.charts))
    with pytest.raises(embed.EmbedError, match="injectivity not certified"):
        embed.build_lcs_embedding(bare, prob, tau, embed.EmbedSettings(samples=60, tol=1e-8, pairs=10))


def test_product_embedding_rejects_bad_tau():
    S = models.model_sphere_circle(2, q=1.0)
    prob, tau = embed.problem_from_sphere_circle(S)
    bad = dict(tau)
    first = S.charts[0].name
    bad[first] = sx.mul(sx.Const(2.0), sx.var("theta"))  # differential is 2 d(theta)
    with pytest.raises(embed.CertificationError) as err:
        embed.build_lcs_embedding(S, prob, bad, embed.EmbedSettings(samples=60, tol=1e-8, pairs=10))
    assert err.value.where == f"d(tau) - lee on chart {first!r}"


def test_product_embedding_rejects_mismatched_potential():
    S = models.model_sphere_circle(2, q=1.0)
    prob, tau = embed.problem_from_sphere_circle(S)
    doubled = embed.EmbeddingProblem(
        prob.name, prob.ambient, prob.charts,
        tuple((n, sx.mul(sx.Const(2.0), c)) for n, c in prob.coefficients),
    )
    with pytest.raises(embed.CertificationError) as err:
        embed.build_lcs_embedding(S, doubled, tau, embed.EmbedSettings(samples=60, tol=1e-8, pairs=10))
    assert err.value.where == f"one-form vs potential on chart {S.charts[0].name!r}"


# ---------------------------------------------------------------------------
# the sampled route


def test_embedding_maps_are_never_differentiated_symbolically(monkeypatch):
    """Once the charts are built, the stages and the product embedding certify
    every identity from jets walks: no stage map, chart map or product map
    is pulled back symbolically or has its symbolic Jacobian taken.  Only
    the morphism classification (twisted.classify_morphism) pulls back, and
    only along one-dimensional loops and the chart's circle function."""
    S = models.model_sphere_circle(2, q=1.0)
    list(S.charts)  # build every chart: their potentials are symbolic pullbacks
    prob, tau = embed.problem_from_sphere_circle(S)
    corpus = [factory() for factory in (embed.problem_circle, embed.problem_torus, embed.problem_sphere3)]
    differentiated = []
    real_pullback, real_jacobian = forms.pullback, forms.SmoothMap.jacobian.func

    def counting_pullback(F, a):
        differentiated.append(F)
        return real_pullback(F, a)

    def counting_jacobian(F):
        differentiated.append(F)
        return real_jacobian(F)

    for module in (forms, embed, models, twisted):
        if getattr(module, "pullback", None) is real_pullback:
            monkeypatch.setattr(module, "pullback", counting_pullback)
    monkeypatch.setattr(forms.SmoothMap, "jacobian", property(counting_jacobian))

    for problem in corpus:
        assert embed.build_sphere_pipeline(problem, embed.EmbedSettings(pairs=8, seed=3).corpus_stages()).passed
    assert differentiated == []
    res = embed.build_lcs_embedding(S, prob, tau, embed.EmbedSettings(samples=60, tol=1e-8, pairs=10, seed=3))
    assert res.passed
    assert differentiated
    assert all(F.source.dim == 1 or F.target.dim == 1 for F in differentiated)


@pytest.mark.parametrize(
    "entry, pairs", [("circle", None), ("torus", None), ("sphere3", None), ("sphere3", 8)]
)
def test_corpus_record_reads_the_worst_check_of_every_stage(entry, pairs):
    """The stages are rebuilt one by one; the record's residual must cover
    each stage's own checks (on sphere3 the stage-2 pullback is the worst)."""
    seed, tol = 7, 1e-9
    task = {"kind": "embed", "corpus": entry, "tol": tol, **({"pairs": pairs} if pairs else {})}
    [record] = report.run_manifest(report.parse_manifest({"seed": seed, "tasks": [task]})).records
    prob = getattr(embed, f"problem_{entry}")()
    settings = embed.EmbedSettings(tol=tol, pairs=pairs, seed=seed).corpus_stages()
    stage2 = embed.build_psi2(prob, settings, doubled_pair=True)
    stage3 = embed.build_psi3(stage2, settings)
    stages = [(stage2, "stage2:"), (stage3, "stage3:")]
    own = [[c.max_residual for label, c in sol.certifications if label.startswith(tag)] for sol, tag in stages]
    assert all(own)
    assert record.passed and record.max_residual == max(max(r) for r in own)
