"""Planted-defect matrices: the first-kind identities, the reduction chain
(its stages and its two-stage check), the embeddings, and the Lee-form
checks (the decomposition, the morphism classification and the ansatz fit).

For the first-kind identities, each defect is a one-parameter family S(eps) built from the universal model
with k = N = 1 (coordinates s, u, th1, t1, pth1, pt1; Lee form ds + d th1,
B = d/ds, E = -d/du), with S(0) the model itself.  The defect aimed at an
identity moves that identity's residual by eps times a coefficient of order
one on the chart box, so ``validate_first_kind`` must pass at eps = 0, fail
at eps = 10 tol, and report for the aimed identity a residual within a
factor 10 of eps: a check that passes for the wrong reason, or that reads
the wrong residual, fails here.
"""

import dataclasses
import re

import pytest

import lcskit.embed as embed
import lcskit.models as models
import lcskit.reduction as reduction
import lcskit.symexpr as sx
import lcskit.twisted as twisted
from lcskit.forms import DifferentialForm, VectorField, identity_map

BASE = models.model_reduction_universal(1, 1, (1.0,))
DOM = BASE.charts[0].domain
TOL = 1e-9


def _at(name):
    return DOM.index(name)


def _two_form(i, j, coefficient):
    return DifferentialForm(DOM, 2, {(_at(i), _at(j)): coefficient})


def _field(**components):
    return VectorField(DOM, tuple(components.get(n, sx.ZERO) for n in DOM.names))


def _eps(eps, expr=sx.ONE):
    return sx.mul(sx.Const(eps), expr)


# identity -> (chart, eps) -> chart with the planted defect
DEFECTS = {
    # d_lee(eps t1 ds^du) = eps (dt1^ds^du - t1 dth1^ds^du)
    "d(phi) - lee ^ phi": lambda c, e: dataclasses.replace(c, phi=c.phi + _two_form("s", "u", _eps(e, sx.var("t1")))),
    # d_lee(eps ds) = -eps dth1^ds
    "d_lee(alpha) - phi": lambda c, e: dataclasses.replace(c, alpha=c.alpha + DOM.one_form("s").scaled(_eps(e))),
    "i_B(phi) + alpha": lambda c, e: dataclasses.replace(c, alpha=c.alpha + DOM.one_form("t1").scaled(_eps(e))),
    # i_(d/dt1) phi = dpt1 - pt1 lee
    "i_E(phi) + lee": lambda c, e: dataclasses.replace(c, anti_lee=c.anti_lee + _field(t1=_eps(e))),
    "lee(B) - 1": lambda c, e: dataclasses.replace(c, b_field=c.b_field.scaled(sx.Const(1.0 + e))),
    "lee(E)": lambda c, e: dataclasses.replace(c, anti_lee=c.anti_lee + _field(s=_eps(e))),
    # L_(u d/du) phi = du ^ lee
    "L_B(phi)": lambda c, e: dataclasses.replace(c, b_field=c.b_field + _field(u=_eps(e, sx.var("u")))),
    # [d/ds, eps s d/du] = eps d/du
    "[B, E]": lambda c, e: dataclasses.replace(c, anti_lee=c.anti_lee + _field(u=_eps(e, sx.var("s")))),
    "d(lee)": lambda c, e: dataclasses.replace(c, lee=c.lee + DOM.one_form("pt1").scaled(_eps(e, sx.var("t1")))),
}


def test_every_identity_has_a_planted_defect():
    assert set(DEFECTS) == set(models.IDENTITY_LABELS)
    assert len(DEFECTS) == len(models.IDENTITY_LABELS)


def _report(label, eps, seed):
    S = dataclasses.replace(BASE, charts=(DEFECTS[label](BASE.charts[0], eps),))
    return models.validate_first_kind(S, samples=80, tol=TOL, seed=seed)


def _residual(rep, label):
    [check] = [c for _, lbl, c in rep.checks if lbl == label]
    return check


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("label", models.IDENTITY_LABELS)
def test_planted_defect_is_caught_in_proportion(label, seed):
    clean = _report(label, 0.0, seed)
    assert clean.passed
    eps = 10 * TOL
    rep = _report(label, eps, seed)
    assert not rep.passed
    check = _residual(rep, label)
    assert not check.passed
    assert 0.1 <= check.max_residual / eps <= 10.0


# ---------------------------------------------------------------------------
# the reduction chain: a defect on the reduced potential of each reducing stage
#
# The chain runs on a sphere-times-circle chart.  Adding eps d(c) to the
# reduced potential moves the verifier's alpha residual by eps |Q* dc|, and
# each planted coordinate c is carried by the stage's quotient Q as itself:
# theta under the stage-one projection, the radius r1 (which neither flow
# moves) under the stage-two flow quotient, and s under the stage-four
# quotient.  So the residual reads eps, and the sampled route must see a
# defect at ten times the stage's own pullback tolerance.


@pytest.fixture(scope="module")
def sphere_chain():
    chart, decomp, factory = reduction.sphere_circle_chain_input(models.model_sphere_circle(2))
    return reduction.run_reduction_chain(
        chart, decomp, factory,
        reduction.ChainSettings(samples=60, verify_samples=40, flow_samples=20, concat_samples=6),
    )


# stage -> (index in the chain, planted coordinate, the chain's sample margin)
CHAIN_DEFECTS = {
    "cotangent_torus_extension": (0, "theta", 0.3),
    "jet_space_extension": (1, "r1", 0.5),
    "universal_transplant": (3, "s", 0.3),
}


def _chain_report(step, coordinate, margin, eps):
    data, rep = step.data, step.report
    reduced = data.reduced
    planted = dataclasses.replace(
        reduced, alpha=reduced.alpha + reduced.domain.one_form(coordinate).scaled(sx.Const(eps))
    )
    return reduction.verify_strong_reducibility(
        dataclasses.replace(data, reduced=planted), rep.samples_used + rep.samples_skipped, seed=0,
        margin=margin, tol=rep.tol, pullback_tol=rep.pullback_tol,
    )


@pytest.mark.parametrize("stage", sorted(CHAIN_DEFECTS))
def test_planted_chain_defect_is_caught_in_proportion(sphere_chain, stage):
    index, coordinate, margin = CHAIN_DEFECTS[stage]
    step = sphere_chain.steps[index]
    assert step.name == stage
    clean = _chain_report(step, coordinate, margin, 0.0)
    assert clean.passed
    assert clean == step.report
    eps = 10 * step.report.pullback_tol
    rep = _chain_report(step, coordinate, margin, eps)
    assert not rep.passed
    residual = dict(rep.pullback_residuals)["alpha"]
    assert residual > rep.pullback_tol
    assert 0.1 <= residual / eps <= 10.0


# The two-stage check compares the stage-two forms pulled through the
# combined embedding (the backward graph, then the stage-two submanifold)
# with the base chart's forms pulled through the plain projection, which
# carries each base coordinate as itself.  Adding eps dc to the base
# potential therefore moves the residual by eps, on the plane chain and on
# the sphere-times-circle one.


@pytest.fixture(scope="module")
def plane_chain():
    return reduction.run_reduction_chain(*reduction.plane_chain_input(), reduction.ChainSettings())


CONCAT_DEFECTS = {"plane": ("plane_chain", "a"), "sphere2": ("sphere_chain", "y1")}


@pytest.mark.parametrize("chain_name", sorted(CONCAT_DEFECTS))
def test_planted_concatenation_defect_is_caught_in_proportion(request, chain_name):
    fixture, coordinate = CONCAT_DEFECTS[chain_name]
    chain = request.getfixturevalue(fixture)
    step1, step2 = chain.steps[:2]
    base = step1.data.reduced
    samples = chain.concatenation_samples_used + chain.concatenation_samples_skipped

    def residual(eps):
        bump = base.domain.one_form(coordinate).scaled(sx.Const(eps))
        planted = dataclasses.replace(base, alpha=base.alpha + bump)
        settings = reduction.ChainSettings(concat_samples=samples)
        return reduction.concatenation_residual(step1, step2, planted, settings)[0].max_residual

    assert residual(0.0) == chain.concatenation <= chain.concatenation_tol
    eps = 10 * chain.concatenation_tol
    got = residual(eps)
    assert got > chain.concatenation_tol
    assert 0.1 <= got / eps <= 10.0


# The shear of stage three subtracts the declared exact part f0 from s.
# Declaring f0 + eps b instead leaves eps db in the pulled-back Lee form, so
# the shear's Lee residual reads eps.


@pytest.fixture(scope="module")
def plane_stage_two(plane_chain):
    _chart, decomp, _factory = reduction.plane_chain_input()
    return plane_chain.steps[1].chart, decomp


def test_planted_shear_defect_is_caught_in_proportion(plane_stage_two):
    m2_chart, decomp = plane_stage_two

    def shear(eps):
        planted = dataclasses.replace(decomp, f0=sx.add(decomp.f0, sx.mul(sx.Const(eps), sx.var("b"))))
        return reduction.build_step3(m2_chart, planted, reduction.ChainSettings(samples=200))

    assert shear(0.0).passed
    assert max(v for _, v in shear(0.0).extras) <= reduction.EXACT_TOL
    eps = 10 * reduction.EXACT_TOL
    with pytest.raises(reduction.ReductionError, match="normalize lee") as caught:
        shear(eps)
    residual = float(re.search(r"residual ([-+0-9.e]+)", str(caught.value)).group(1))
    assert 0.1 <= residual / eps <= 10.0


# ---------------------------------------------------------------------------
# the embeddings: a defect on the scale of the contact generator
#
# Scaling every contact generator eta by 1 + eps moves the first pullback
# identity the stages certify, psi2*(eta) = theta_bar, by eps theta_bar.  On
# the circle |theta_bar| = 2 pi sin^2(2 pi t) <= 2 pi, and on the torus
# likewise on each angle; on the sphere charts theta_bar is the potential, of
# order one.  A failed identity raises CertificationError carrying its check.


_ETA_ON = embed._eta_on


def _planted_eta(monkeypatch, eps):
    monkeypatch.setattr(
        embed, "_eta_on", lambda domain, pairs, scale=1.0: _ETA_ON(domain, pairs, scale * (1.0 + eps))
    )


def _corpus(problem):
    def run(seed):
        sol = embed.build_sphere_pipeline(problem(), embed.EmbedSettings(seed=seed).corpus_stages())
        return sol.passed, max(c.max_residual for _, c in sol.certifications), 1e-9

    return run


def _product_sphere2(seed):
    S = models.model_sphere_circle(2, q=1.0)
    prob, tau = embed.problem_from_sphere_circle(S)
    res = embed.build_lcs_embedding(S, prob, tau, embed.EmbedSettings(samples=60, tol=1e-8, pairs=10, seed=seed))
    return res.passed, max(c.max_residual for _, _, c in res.certifications), 1e-8


EMBED_RECORDS = {
    "embed:corpus:circle": _corpus(embed.problem_circle),
    "embed:corpus:torus": _corpus(embed.problem_torus),
    "embed:corpus:sphere3": _corpus(embed.problem_sphere3),
    "embed:product:sphere2": _product_sphere2,
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("record", sorted(EMBED_RECORDS))
def test_planted_contact_scale_is_caught_in_proportion(monkeypatch, record, seed):
    run = EMBED_RECORDS[record]
    _planted_eta(monkeypatch, 0.0)
    passed, _residual, tol = run(seed)
    assert passed
    eps = 10 * tol
    _planted_eta(monkeypatch, eps)
    with pytest.raises(embed.CertificationError) as caught:
        run(seed)
    check = caught.value.check
    assert not check.passed and check.max_residual > check.tol
    assert 0.1 <= check.max_residual / eps <= 10.0


# ---------------------------------------------------------------------------
# the Lee-form checks, on the universal model above (Lee form ds + d th1)
#
# Its declared decomposition is f0 = s with the one piece d th1 (potential
# th1, weight 1).  Adding eps ds to the piece leaves d(th1) - omega = -eps ds,
# and adding eps s to f0 leaves eps ds in the reassembled Lee form; either
# reads eps.  The identity map classifies the chart against itself: adding
# eps ds to the source Lee form moves the strict residual by eps, and adding
# eps s du moves the closedness of the difference by eps ds ^ du.  The ansatz
# fit over (ds, d th1) reproduces d(phi) = lee ^ phi; the first-kind defect
# eps t1 ds ^ du planted in phi leaves eps (dt1 - t1 d th1) ^ ds ^ du, which
# no Lee form in that span absorbs.

CHART = BASE.charts[0]
LOOPS = tuple(models.structure_lee_loops(BASE))


def _decomposition(piece_eps=0.0, f0_eps=0.0):
    omega = DOM.one_form("th1") + DOM.one_form("s").scaled(_eps(piece_eps))
    piece = reduction.DecompositionPiece(1.0, omega, sx.var("th1"))
    return reduction.LeeDecomposition(sx.add(sx.var("s"), _eps(f0_eps, sx.var("s"))), (piece,), LOOPS)


# defect -> (the keyword planting it, the failure it raises)
DECOMPOSITION_DEFECTS = {"piece": ("piece_eps", "piece 0"), "f0": ("f0_eps", "reassemble")}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("defect", sorted(DECOMPOSITION_DEFECTS))
def test_planted_decomposition_defect_is_caught_in_proportion(defect, seed):
    keyword, message = DECOMPOSITION_DEFECTS[defect]
    clean = reduction.certify_decomposition(CHART, _decomposition(), samples=80, tol=TOL, seed=seed)
    assert clean.passed and max(clean.sum_residual, *clean.piece_residuals) <= TOL
    eps = 10 * TOL
    planted = _decomposition(**{keyword: eps})
    with pytest.raises(reduction.DecompositionError, match=message) as caught:
        reduction.certify_decomposition(CHART, planted, samples=80, tol=TOL, seed=seed)
    residual = float(re.search(r"residual ([-+0-9.e]+)", str(caught.value)).group(1))
    assert 0.1 <= residual / eps <= 10.0


# source Lee-form defect -> (flag it fails, residual it moves)
MORPHISM_DEFECTS = {
    "strict": (lambda e: DOM.one_form("s").scaled(_eps(e)), "strict", "strict_residual"),
    "closed": (lambda e: DOM.one_form("u").scaled(_eps(e, sx.var("s"))), "conformal", "conformal_closed_residual"),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("defect", sorted(MORPHISM_DEFECTS))
def test_planted_morphism_defect_is_caught_in_proportion(defect, seed):
    bump, flag, residual = MORPHISM_DEFECTS[defect]

    def classify(eps):
        return twisted.classify_morphism(
            identity_map(DOM), CHART.lee + bump(eps), CHART.lee, LOOPS, LOOPS, samples=80, tol=TOL, seed=seed
        )

    clean = classify(0.0)
    assert getattr(clean, flag) and getattr(clean, residual) <= TOL
    eps = 10 * TOL
    rep = classify(eps)
    assert not getattr(rep, flag)
    assert 0.1 <= getattr(rep, residual) / eps <= 10.0


@pytest.mark.parametrize("seed", [0, 7])
def test_planted_ansatz_defect_is_caught_in_proportion(seed):
    basis = [DOM.one_form("s"), DOM.one_form("th1")]

    def fit(eps):
        phi = DEFECTS["d(phi) - lee ^ phi"](CHART, eps).phi
        return twisted.extract_lee(phi, samples=40, seed=seed, ansatz=basis, tol=TOL)

    assert fit(0.0).fit_residual <= TOL
    eps = 10 * TOL
    with pytest.raises(twisted.NotConformalError, match="ansatz fit") as caught:
        fit(eps)
    assert 0.1 <= caught.value.residual / eps <= 10.0
