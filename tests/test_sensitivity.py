"""Planted-defect matrices: the first-kind identities and the reduction chain.

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

import pytest

import lcskit.models as models
import lcskit.reduction as reduction
import lcskit.symexpr as sx
from lcskit.forms import DifferentialForm, VectorField

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
        chart, decomp, factory, samples=60, verify_samples=40, flow_samples=20, concat_samples=6
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
