"""Catalog structures: construction, defining identities, atlas consistency.

The validator results are cross-checked here against raw-array oracles
(finite-difference Jacobians, matrix contractions) so the symbolic calculus
and the oracles must agree independently.
"""

import collections
import dataclasses

import numpy as np
import pytest

import lcskit.forms as forms
import lcskit.models as models
import lcskit.report as report
import lcskit.symexpr as sx
import lcskit.twisted as twisted
import oracle_utils
from oracle_utils import eval_form_on_vectors, fd_jacobian, sphere_overlap_report
from test_cli import PLANE_CHART


# ---------------------------------------------------------------------------
# construction and error cases


def test_liouville_structure_is_exact_symplectic():
    S = models.model_liouville(2)
    assert S.dim == 4
    assert S.kind == models.EXACT
    chart = S.charts[0]
    assert oracle_utils.form_is_zero(forms.ext_d(chart.phi)).passed
    assert oracle_utils.forms_equal(forms.ext_d(chart.alpha), chart.phi).passed
    env = chart.domain.sample_points(50)
    _, full = forms.nondegeneracy_rank(chart.phi, env, forms.evaluate_form(chart.phi, env))
    assert full
    assert not chart.lee.coeffs


def test_liouville_rejects_nonpositive_n():
    with pytest.raises(models.ModelError):
        models.model_liouville(0)


@pytest.mark.parametrize("k,N", [(0, 1), (1, 1), (2, 3), (1, 9)])
def test_universal_dimension(k, N):
    S = models.model_reduction_universal(k, N, (1.0,) * k)
    assert S.dim == 2 * (k + N + 1)
    assert len(S.charts) == 1


def test_universal_rejects_mu_length_mismatch():
    with pytest.raises(models.ModelError):
        models.model_reduction_universal(2, 1, (1.0,))


def test_universal_rejects_empty():
    with pytest.raises(models.ModelError):
        models.model_reduction_universal(0, 0, ())


def test_sphere_circle_rejects_small_and_degenerate():
    with pytest.raises(models.ModelError):
        models.model_sphere_circle(1)
    with pytest.raises(models.ModelError):
        models.model_sphere_circle(2, q=0.0)


def test_sphere_atlas_counts_and_on_sphere():
    amb = models.sphere_circle_ambient(2)
    charts = models.sphere_graph_charts(2, amb)
    assert len(charts) == 8  # one per dropped coordinate and sign
    for _name, P in charts:
        env = P.source.sample_points(40, seed=1)
        vals = dict(zip(amb.names, sx.evaluate_all(P.components, env)))
        r2 = sum(vals[n] ** 2 for n in amb.names if n != "theta")
        assert np.max(np.abs(r2 - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# first-kind identities


def test_universal_first_kind_report():
    S = models.model_reduction_universal(1, 1, (1.0,))
    rep = models.validate_first_kind(S, samples=120, tol=1e-11, seed=3)
    assert rep.passed
    assert rep.nondegenerate and rep.min_rank == 6
    assert {lbl for _, lbl, _ in rep.checks} == set(models.IDENTITY_LABELS)
    assert rep.worst() <= 1e-11


def test_universal_first_kind_irrational_mu():
    S = models.model_reduction_universal(2, 1, (1.0, np.sqrt(2.0)))
    rep = models.validate_first_kind(S, samples=80, tol=1e-10, seed=0)
    assert rep.passed and rep.min_rank == 8


def test_two_form_degenerate_at_one_sample_past_the_first_is_caught():
    # phi times (s - s_30) vanishes at sample 30 alone; the rank is read at
    # every point of the head, not at its first
    S = models.model_reduction_universal(1, 2, [1.0])
    chart = S.charts[0]
    s30 = chart.domain.sample_points(200, 7)["s"][30]
    planted = dataclasses.replace(chart, phi=chart.phi.scaled(sx.add(sx.var("s"), sx.Const(-s30))))
    rep = models.validate_first_kind(dataclasses.replace(S, charts=(planted,)), samples=200, seed=7)
    assert rep.min_rank == 0
    assert rep.nondegenerate is False


def test_sphere_circle_first_kind():
    S = models.model_sphere_circle(2, q=1.0)
    assert len(S.charts) == 8
    rep = models.validate_first_kind(S, samples=80, tol=1e-9, seed=0)
    assert rep.passed
    assert rep.min_rank == 4


def test_sphere_circle_charts_are_built_on_first_access():
    eager = tuple(models.model_sphere_circle(2, q=1.5).charts)
    S = models.model_sphere_circle(2, q=1.5)
    charts = S.charts
    assert len(charts) == len(eager) == 8
    assert charts[-1] == eager[-1] and charts[-8] == eager[0]
    assert charts[-1] is charts[7]
    assert charts[2:5] == eager[2:5]
    assert list(charts) == list(eager)
    assert [c.name for c in charts] == [c.name for c in eager]
    assert all(a is b for a, b in zip(charts, charts))
    with pytest.raises(IndexError):
        charts[8]


def test_sphere_circle_scaled_first_kind():
    rep = models.validate_first_kind(
        models.model_sphere_circle(2, q=2.5), samples=60, tol=1e-9, seed=5
    )
    assert rep.passed


@pytest.mark.parametrize("N, q", [(2, 1.0), (3, 2.0)])
def test_sphere_two_form_is_the_twisted_differential_of_the_potential(N, q):
    """Each chart's phi, built as P*(q d eta) - lee ^ alpha, equals
    d_twisted(lee, alpha), which differentiates the pulled-back potential,
    within 4 ulp of max(1, |value|) at sampled points of every chart."""
    S = models.model_sphere_circle(N, q)
    for chart in S.charts:
        env = chart.domain.sample_points(100, seed=N)
        got = forms.form_values(chart.phi, env)
        want = forms.form_values(twisted.d_twisted(chart.lee, chart.alpha), env)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(want)))


def test_validate_requires_distinguished_fields():
    with pytest.raises(models.ModelError):
        models.validate_first_kind(models.model_liouville(1))  # no B field
    S = models.model_reduction_universal(1, 0, (1.0,))
    stripped = dataclasses.replace(S.charts[0], alpha=None)
    with pytest.raises(models.ModelError):
        models.validate_first_kind(
            models.LcsStructure(S.name, S.kind, (stripped,), metadata=S.metadata)
        )


# ---------------------------------------------------------------------------
# one sample set per chart against one zero test per identity

def _inline_plane():
    manifest = report.parse_manifest({"seed": 0, "structures": {"plane": {"chart": PLANE_CHART}}, "tasks": []})
    return manifest.structure("plane")


def _pairing(lee, X):
    return sx.add(*(sx.mul(c, X.components[i]) for (i,), c in lee.coeffs.items()))


def first_kind_one_test_per_identity(S, samples, tol, seed):
    """The first-kind report built with one ``oracle_utils.form_is_zero`` /
    ``expr_is_zero`` call per identity, each drawing its own points and
    walking its own trees."""
    checks, min_rank = [], None
    for chart in S.charts:
        dom, B, E = chart.domain, chart.b_field, chart.anti_lee
        identities = [
            ("d(phi) - lee ^ phi", forms.ext_d(chart.phi) - forms.wedge(chart.lee, chart.phi)),
            ("d_lee(alpha) - phi", twisted.d_twisted(chart.lee, chart.alpha) - chart.phi),
            ("i_B(phi) + alpha", forms.interior(B, chart.phi) + chart.alpha),
            ("i_E(phi) + lee", forms.interior(E, chart.phi) + chart.lee),
            ("lee(B) - 1", forms.function_form(dom, _pairing(chart.lee, B) - sx.ONE)),
            ("lee(E)", forms.function_form(dom, _pairing(chart.lee, E))),
            ("L_B(phi)", oracle_utils.lie_derivative(B, chart.phi)),
            ("d(lee)", forms.ext_d(chart.lee)),
        ]
        for label, delta in identities:
            checks.append((chart.name, label, oracle_utils.form_is_zero(delta, samples, tol, seed)))
        bracket = oracle_utils.lie_bracket(B, E).components
        checks.append((chart.name, "[B, E]", oracle_utils.expr_is_zero(bracket, dom, samples, tol, seed)))
        env = dom.sample_points(min(samples, 60), seed)
        rank, _ = forms.nondegeneracy_rank(chart.phi, env, forms.evaluate_form(chart.phi, env))
        min_rank = rank if min_rank is None else min(min_rank, rank)
    nondeg = min_rank == S.dim
    passed = nondeg and all(c.passed for _, _, c in checks)
    return models.FirstKindReport(S.name, tuple(checks), min_rank, nondeg, passed)


def _bent_sphere():
    """The N=2 sphere-circle model with its two-form scaled by 1.001 on every
    chart: the identities that tie phi to alpha or lee fail, those linear in
    phi alone still hold."""
    S = models.model_sphere_circle(2, q=1.0)
    charts = tuple(dataclasses.replace(c, phi=c.phi.scaled(1.001)) for c in S.charts)
    return dataclasses.replace(S, charts=charts)


FIRST_KIND_CASES = {
    "sphere_circle_N2": lambda: models.model_sphere_circle(2, q=1.0),
    "sphere_circle_N3": lambda: models.model_sphere_circle(3, q=2.0),
    "universal_k2": lambda: models.model_reduction_universal(2, 3, (1.0, np.sqrt(2.0))),
    "inline_plane": _inline_plane,
    "bent_sphere": _bent_sphere,
}

# The jets and the derivative trees compute each residual from the same
# values in different orders, so the two residuals of one identity differ by
# rounding only: at most RESIDUAL_ULPS units of machine epsilon relative to
# max(1, residual), the identities' terms being of order one.
RESIDUAL_ULPS = 64


@pytest.mark.parametrize("case", sorted(FIRST_KIND_CASES))
def test_first_kind_report_equals_one_test_per_identity(case):
    S = FIRST_KIND_CASES[case]()
    rep = models.validate_first_kind(S, samples=70, tol=1e-9, seed=4)
    want = first_kind_one_test_per_identity(S, 70, 1e-9, 4)
    assert rep.passed == (case != "bent_sphere")
    assert (rep.min_rank, rep.nondegenerate, rep.passed) == (want.min_rank, want.nondegenerate, want.passed)
    by_identity = {(chart, label): check for chart, label, check in want.checks}
    assert [(chart, label) for chart, label, _ in rep.checks] == [(chart, label) for chart, label, _ in want.checks]
    for chart, label, check in rep.checks:
        other = by_identity[chart, label]
        assert (check.passed, check.samples, check.tol) == (other.passed, other.samples, other.tol)
        scale = max(1.0, other.max_residual)
        assert abs(check.max_residual - other.max_residual) <= RESIDUAL_ULPS * np.finfo(float).eps * scale


def _first_sphere_chart():
    S = models.model_sphere_circle(2, q=1.0)
    return dataclasses.replace(S, charts=S.charts[:1])


@pytest.mark.parametrize(
    "structure",
    [FIRST_KIND_CASES["universal_k2"], _first_sphere_chart],
    ids=["universal_k2", "sphere_circle_N2_one_chart"],
)
def test_first_kind_chart_computes_each_compound_node_once(monkeypatch, structure):
    S = structure()
    assert len(S.charts) == 1
    samples = 90  # the rank check samples at most 60 points, on a sample set of its own
    computed = collections.Counter()
    walk = sx._tree_walk

    def counting(e, env, seen, grads):
        if isinstance(e, (sx.Add, sx.Mul, sx.Pow, sx.Call)) and e not in seen:
            assert sx.batch_shape(env) == (samples,) and grads is not None
            computed[e] += 1
        return walk(e, env, seen, grads)

    monkeypatch.setattr(sx, "_tree_walk", counting)
    assert models.validate_first_kind(S, samples=samples, seed=1).passed
    assert computed and max(computed.values()) == 1


# ---------------------------------------------------------------------------
# oracle cross-checks


def test_sphere_potential_matches_ambient_oracle():
    # The chart potential must equal the scaled ambient contact form applied
    # to vectors pushed forward by a finite-difference Jacobian of the chart
    # parametrization -- a route that never touches the symbolic pullback.
    q = 1.5
    S = models.model_sphere_circle(2, q=q)
    chart = S.charts[2]
    dom, P = chart.domain, chart.parametrization
    names = dom.names
    amb_names = P.target.names
    env = dom.sample_points(5, seed=11)
    rng = np.random.default_rng(7)

    def map_func(v):
        e = {n: v[j] for j, n in enumerate(names)}
        return np.array([float(sx.evaluate(c, e)) for c in P.components])

    for i in range(5):
        x = np.array([float(env[n][i]) for n in names])
        J = fd_jacobian(map_func, x, 1e-6)
        img = map_func(x)
        coeff = {}
        for j in (1, 2):
            coeff[(amb_names.index(f"x{j}"),)] = 0.5 * q * img[amb_names.index(f"y{j}")]
            coeff[(amb_names.index(f"y{j}"),)] = -0.5 * q * img[amb_names.index(f"x{j}")]
        point = {n: float(env[n][i]) for n in names}
        alpha_vec = np.array(
            [
                float(sx.evaluate(chart.alpha.coefficient((k,)), point))
                for k in range(dom.dim)
            ]
        )
        for _ in range(3):
            v = rng.normal(size=dom.dim)
            oracle = eval_form_on_vectors(coeff, [J @ v])
            assert abs(float(alpha_vec @ v) - oracle) < 1e-6


def test_anti_lee_contraction_matrix_route():
    # i_E phi = -lee, checked by raw matrix contraction rather than the
    # symbolic interior product.
    S = models.model_sphere_circle(2, q=2.0)
    chart = S.charts[5]
    dom = chart.domain
    env = dom.sample_points(30, seed=4)
    M = forms.form_matrix(chart.phi, env, forms.evaluate_form(chart.phi, env))
    E = np.stack(
        [
            np.broadcast_to(np.asarray(sx.evaluate(c, env), dtype=float), (30,))
            for c in chart.anti_lee.components
        ],
        axis=-1,
    )
    contraction = np.einsum("ni,nij->nj", E, M)
    lee_vec = np.zeros(dom.dim)
    lee_vec[dom.index("theta")] = 1.0
    assert np.max(np.abs(contraction + lee_vec)) < 1e-9


def test_universal_lee_recovered_pointwise():
    # Independent recovery: solve d(phi) = omega ^ phi pointwise and compare
    # with the declared Lee coefficients.
    S = models.model_reduction_universal(1, 1, (0.75,))
    chart = S.charts[0]
    data = twisted.extract_lee(chart.phi, samples=25, seed=2)
    dom = chart.domain
    expect = np.zeros(dom.dim)
    expect[dom.index("s")] = 1.0
    expect[dom.index("th1")] = 0.75
    assert np.max(np.abs(data.sample_values - expect)) < 1e-8


def test_sphere_lee_recovered_pointwise():
    S = models.model_sphere_circle(2)
    chart = S.charts[0]
    data = twisted.extract_lee(chart.phi, samples=20, seed=6)
    dom = chart.domain
    expect = np.zeros(dom.dim)
    expect[dom.index("theta")] = 1.0
    assert np.max(np.abs(data.sample_values - expect)) < 1e-7


# ---------------------------------------------------------------------------
# loops, periods, atlas overlaps


def test_universal_loop_periods_and_lattice():
    mu = (1.0, np.sqrt(2.0))
    S = models.model_reduction_universal(2, 1, mu)
    loops = models.structure_lee_loops(S)
    assert len(loops) == 2
    per = [twisted.period(S.charts[0].lee, lp) for lp in loops]
    assert np.allclose(per, mu, atol=1e-9)
    lat = twisted.period_lattice(S.charts[0].lee, loops)
    assert lat.rank == 2 and not lat.integral


def test_sphere_loop_period_is_one():
    S = models.model_sphere_circle(2)
    loops = models.structure_lee_loops(S)
    assert len(loops) == 1
    assert abs(twisted.period(S.charts[0].lee, loops[0]) - 1.0) < 1e-12
    lat = twisted.period_lattice(S.charts[0].lee, loops)
    assert lat.rank == 1 and lat.integral


def test_sphere_overlap_consistency():
    S = models.model_sphere_circle(2, q=1.0)
    rep = sphere_overlap_report(S, samples=40, tol=1e-9, seed=0)
    assert rep.passed
    assert rep.pairs_checked > 0 and rep.samples_used > 0
    assert rep.max_residual <= 1e-9


def test_overlap_requires_atlas():
    with pytest.raises(models.ModelError):
        sphere_overlap_report(models.model_liouville(1))
