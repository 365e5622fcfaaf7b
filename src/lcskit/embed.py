"""Constructive embeddings into odd spheres and sphere-circle products.

Given a chart-presented compact manifold inside R^(2n) carrying a one-form
``sum f_i dx_i`` with at most 2n nonzero coefficients, three stages produce
an embedding into a round sphere that pulls the scaled standard contact
generator back to the given one-form exactly:

* stage 1 interleaves the pair functions with a sphere-closing coordinate;
  its pullback is the given form minus ``d(phi)``, ``phi = (1/2) sum f_k x_k``.
  It is not built on its own: stage 2 starts from the same pairs;
* stage 2 appends a closing pair ``(2 phi, 1)`` whose pullback contribution
  ``d(phi)`` cancels the stage-1 defect (the variant pair ``(phi, 1)``
  contributes only half and leaves a measured defect of ``(1/2) d(phi)``);
* stage 3 rescales onto the unit sphere of the delivered target, whose
  pairs past stage 2's are held at zero; the compensating constant is the
  squared stage-2 radius.

Each check is labelled ``stage2:`` or ``stage3:`` by the stage that made it,
so each unit-sphere map is certified once, on the target it is delivered on.

``build_lcs_embedding`` combines the unit-sphere map with a circle-valued
function into a product embedding certified to pull back the potential,
the Lee form, and the twisted two-form of a first-kind structure, and
certified an injective immersion by a linear left inverse read from the
pipeline's layout, which takes each map and its Jacobian to the chart's
parametrization and its Jacobian.

Every pullback identity is certified at sample points from one
:func:`symexpr.jets` walk per chart and sample set, on an env drawn from
the chart.  Its value and partial blocks are a map's images and Jacobians
DF, through which the target's forms are pulled back as DFᵀ(a∘F) and
DFᵀ(a∘F)DF (:func:`forms.sampled_pullback`); the chart's pairs (f, x) are
subtrees of the stage maps' components, so the same walk gives the given
one-form as sum f dx, and its images give the sphere constraint
|psi|^2 - r^2.  No symbolic pullback, Jacobian or minor of an embedding
map is built.  A stage-2 radicand is evaluated on its own only when that
walk fails, to tell a radius fault from another.  Every stage takes one
:class:`EmbedSettings` record and declares no default; the rules the path
fixes for itself are named once, in one block of constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import forms, models, symexpr as sx, twisted
from .forms import (
    Coordinate,
    CoordinateDomain,
    DifferentialForm,
    SmoothMap,
    ext_d,
    wedge,
)
from .symexpr import Expr, ZeroCheck


class EmbedError(Exception):
    """Embedding construction failure."""


class RadiusError(EmbedError):
    """Bad safety factor or degenerate/violated radius bound."""


class TargetTooSmallError(EmbedError):
    """Requested target sphere cannot hold the constructed image."""


class CertificationError(EmbedError):
    """A certified identity exceeded its tolerance."""

    def __init__(self, where: str, check: ZeroCheck):
        super().__init__(
            f"{where}: residual {check.max_residual:.3g} exceeds {check.tol:g}"
        )
        self.where = where
        self.check = check


# ---------------------------------------------------------------------------
# settings

# The rules the embedding path fixes for itself.  A corpus task's sphere
# stages draw at least CORPUS_FLOOR points per chart.  A product embedding
# runs its sphere pipeline on at least PIPELINE_FLOOR points, judged at
# PIPELINE_TOL_CAP or tighter, into PRODUCT_PAIRS pairs unless the task
# names them.  Its injectivity and immersion are exact identities read from
# the pipeline's layout (:meth:`EmbeddingSolution.left_inverse`), judged
# like every other check, so they fix no rule of their own.
CORPUS_FLOOR = 400
PIPELINE_FLOOR = 200
PIPELINE_TOL_CAP = 1e-9
PRODUCT_PAIRS = 10


@dataclass(frozen=True)
class EmbedSettings:
    """An embedding's settings, with an ``embed`` task's defaults.  Each stage
    draws ``samples`` points per chart from ``seed`` and judges its checks
    at ``tol``; the stage-2 radius is ``rho`` times the sampled supremum;
    stage 3 lands on the unit sphere of ``pairs`` pairs (None: stage 2's)."""

    samples: int = 200
    tol: float = 1e-9
    rho: float = 1.2
    pairs: int | None = None
    seed: int = 0

    def corpus_stages(self) -> EmbedSettings:
        """The settings of a corpus task's sphere stages."""
        return replace(self, samples=max(self.samples, CORPUS_FLOOR))


# ---------------------------------------------------------------------------
# problems


@dataclass(frozen=True)
class EmbeddingProblem:
    """Chart-presented manifold in R^(2n) with a one-form sum f_i dx_i.

    ``charts`` maps chart names to parametrizations into ``ambient``;
    ``coefficients`` lists (ambient coordinate name, ambient coefficient
    expression) pairs — the one-form is the sum of coefficient times the
    differential of that coordinate.
    """

    name: str
    ambient: CoordinateDomain
    charts: tuple[tuple[str, SmoothMap], ...]
    coefficients: tuple[tuple[str, Expr], ...]

    def __post_init__(self):
        if len(self.coefficients) > self.ambient.dim:
            raise EmbedError(
                f"{len(self.coefficients)} coefficients on a "
                f"{self.ambient.dim}-dimensional ambient space"
            )
        for cname, F in self.charts:
            if F.target != self.ambient:
                raise EmbedError(f"chart {cname!r} does not land in the ambient space")
        for aname, _c in self.coefficients:
            self.ambient.index(aname)  # raises if unknown

    def chart_pairs(self, F: SmoothMap) -> list[tuple[Expr, Expr]]:
        """Per-chart (coefficient, coordinate-function) expression pairs."""
        onto = dict(zip(self.ambient.names, F.components))
        return [
            (sx.substitute(c, onto), F.component(n)) for n, c in self.coefficients
        ]


# ---------------------------------------------------------------------------
# radii


def radius_bound(
    pieces: Sequence[tuple[CoordinateDomain, Sequence[Expr]]], rho: float, samples: int, seed: int
) -> float:
    """Safety-scaled supremum of sqrt(sum of squares) over sampled charts.

    ``pieces`` holds (domain, expressions) per chart; the bound is ``rho``
    times the sampled supremum, so it exceeds that supremum strictly.
    """
    if not rho > 1.0:
        raise RadiusError(f"safety factor must exceed 1, got {rho}")
    sup = 0.0
    for dom, exprs in pieces:
        env = dom.sample_points(samples, seed)
        total = np.zeros(samples)
        for vals in sx.evaluate_all([sx.pow_(e, 2) for e in exprs], env):
            total += vals
        if total.size:
            sup = max(sup, float(np.sqrt(np.max(total))))
    if sup == 0.0:
        raise RadiusError("degenerate data: supremum of the radius expression is zero")
    return rho * sup


# ---------------------------------------------------------------------------
# target spheres


def _sphere_target(name: str, pairs: int, half_width: float) -> CoordinateDomain:
    coords = [
        Coordinate(n, "linear", -half_width, half_width)
        for n in models.interleaved_names(pairs)
    ]
    return CoordinateDomain(name, tuple(coords))


def _eta_on(domain: CoordinateDomain, pairs: int, scale: float = 1.0) -> DifferentialForm:
    """(scale/2) sum (y_j dx_j - x_j dy_j) on a domain with interleaved names."""
    coeffs: dict[tuple[int, ...], Expr] = {}
    for j in range(1, pairs + 1):
        coeffs[(domain.index(f"x{j}"),)] = sx.mul(sx.Const(0.5 * scale), sx.var(f"y{j}"))
        coeffs[(domain.index(f"y{j}"),)] = sx.mul(sx.Const(-0.5 * scale), sx.var(f"x{j}"))
    return DifferentialForm(domain, 1, coeffs)


def _sum_squares(exprs: Sequence[Expr]) -> Expr:
    return sx.add(*(sx.pow_(e, 2) for e in exprs)) if exprs else sx.ZERO


def _half_product_sum(pairs: Sequence[tuple[Expr, Expr]]) -> Expr:
    """phi = (1/2) sum f_k x_k for the given (f, x) pairs."""
    if not pairs:
        return sx.ZERO
    return sx.mul(sx.Const(0.5), sx.add(*(sx.mul(f, g) for f, g in pairs)))


def _check_radicand(expr: Expr, env, where: str):
    worst = float(np.min(sx.evaluate(expr, env)))
    if worst <= 0.0:
        raise RadiusError(f"{where}: sphere radicand dips to {worst:.3g} at a sample")


# ---------------------------------------------------------------------------
# stage results


@dataclass(frozen=True)
class EmbeddingSolution:
    """Sphere map with its stage-2 radius and compensating constant.

    ``stage`` is 2 (radius-r2 sphere) or 3 (unit sphere); ``scale`` is the
    constant c with pullback(map, c * eta) equal to the given one-form, and
    is None until stage 3.  For the half-strength closing pair, ``defects``
    certifies that the measured pullback defect equals (1/2) d(phi).
    ``certifications`` holds every check the pipeline made up to this
    solution, labelled ``stage2:`` or ``stage3:`` by the stage that made it;
    a stage-3 solution's maps, ``ambient`` and ``pairs`` are the delivered
    target's, and its checks were made there.
    """

    problem: EmbeddingProblem
    stage: int
    maps: tuple[tuple[str, SmoothMap], ...]
    ambient: CoordinateDomain
    pairs: int
    r2: float
    scale: float | None
    doubled_pair: bool
    certifications: tuple[tuple[str, ZeroCheck], ...]
    defects: tuple[tuple[str, ZeroCheck], ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for _, c in self.certifications) and all(
            c.passed for _, c in self.defects
        )

    def left_inverse(self) -> tuple[tuple[int, float], ...]:
        """L, with L∘map = the chart's parametrization on every chart, as
        (slot, factor) per ambient coordinate.  Read from the layout, never
        fitted: stage 2 puts pair k's coordinate in slot 2k, and stage 3
        scales by 1/r2.  A coordinate that heads no pair raises EmbedError."""
        slot = {n: 2 * k for k, (n, _c) in enumerate(self.problem.coefficients)}
        missing = [n for n in self.problem.ambient.names if n not in slot]
        if missing:
            raise EmbedError(f"injectivity not certified: ambient coordinates {missing} head no pair")
        factor = self.r2 if self.stage == 3 else 1.0
        return tuple((slot[n], factor) for n in self.problem.ambient.names)


# ---------------------------------------------------------------------------
# stage builders


def _sphere_check(images: np.ndarray, radius: float, env, tol: float) -> ZeroCheck:
    """The sphere constraint |psi|^2 - radius^2 at the points of ``env``,
    from the images (k, n) of psi's components that its stage walked."""
    residual = -radius * radius
    for v in images:
        residual = residual + v * v
    return sx.is_zero([residual], env, tol)


def _theta_bar(values: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """The given one-form sum f dx (src, n) from the walked values and
    gradients of the chart's pairs, in rows f1, x1, f2, x2, ..."""
    return np.einsum("kn,kin->in", values[0::2], grads[1::2])


def _pulled_and_theta_bar(
    psi: SmoothMap, form: DifferentialForm, pairs: Sequence[tuple[Expr, Expr]], env
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """From one jets walk of a stage map's components followed by the
    chart's pairs, at the points of ``env``: the pullback of ``form``
    through the sampled Jacobians, the given one-form, the map's images
    and the walk's gradients.  The pairs are subtrees of the map's
    components, so the walk's memo reads them off the map's own walk."""
    k = len(psi.components)
    values, grads, _ = sx.jets(psi.components + tuple(e for fg in pairs for e in fg), env)
    pulled = forms.sampled_pullback(form, dict(zip(psi.target.names, values[:k])), grads[:k])
    return pulled, _theta_bar(values[k:], grads[k:]), values[:k], grads


def build_psi2(problem: EmbeddingProblem, settings: EmbedSettings, doubled_pair: bool) -> EmbeddingSolution:
    """Second stage: close the defect with the pair (2 phi, 1).

    With ``doubled_pair`` the pullback equals the given one-form exactly and
    that identity is certified.  Without it the closing pair is ``(phi, 1)``;
    the pullback then falls short by ``(1/2) d(phi)``, and what is certified
    is that the measured defect agrees with that form pointwise.
    """
    stage1_pairs = {n: problem.chart_pairs(F) for n, F in problem.charts}
    phis = {n: _half_product_sum(ps) for n, ps in stage1_pairs.items()}
    closing = {
        n: (sx.mul(sx.Const(2.0), phi) if doubled_pair else phi)
        for n, phi in phis.items()
    }
    pieces = []
    for cname, F in problem.charts:
        exprs = [e for fg in stage1_pairs[cname] for e in fg]
        exprs.append(closing[cname])
        exprs.append(sx.ONE)
        pieces.append((F.source, exprs))
    r2 = radius_bound(pieces, settings.rho, settings.samples, settings.seed)
    p = len(problem.coefficients)
    target = _sphere_target(f"{problem.name}_stage2", p + 2, r2)
    eta = _eta_on(target, p + 2)
    maps = []
    certs = []
    defects = []
    for cname, F in problem.charts:
        pairs = stage1_pairs[cname]
        c2 = closing[cname]
        gamma = sx.add(
            sx.ONE, sx.pow_(c2, 2), _sum_squares([e for fg in pairs for e in fg])
        )
        radicand = sx.add(sx.Const(r2 * r2), sx.neg(gamma))
        env = F.source.sample_points(settings.samples, settings.seed + 1)
        comps: list[Expr] = []
        for f, g in pairs:
            comps.extend([g, f])
        comps.extend([sx.sqrt(radicand), sx.ZERO, c2, sx.ONE])
        psi = SmoothMap(F.source, target, tuple(comps))
        try:
            pulled, theta_bar, images, grads = _pulled_and_theta_bar(psi, eta, pairs, env)
        except sx.EvaluationDomainError:  # a radicand at or below 0 is a radius fault
            _check_radicand(radicand, env, f"stage 2 chart {cname!r}")
            raise
        sph = _sphere_check(images, r2, env, settings.tol)
        if not sph.passed:
            raise CertificationError(f"stage 2 sphere constraint on chart {cname!r}", sph)
        certs.append((f"stage2:{cname}:sphere", sph))
        if doubled_pair:
            check = forms.values_check(pulled - theta_bar, env, settings.tol)
            if not check.passed:
                raise CertificationError(f"stage 2 pullback on chart {cname!r}", check)
            certs.append((f"stage2:{cname}:pullback", check))
        else:
            half_dphi = 0.5 * grads[2 * p + 2]  # the closing pair's first entry is phi
            measured = theta_bar - pulled  # the shortfall of the half-strength pair
            defects.append(
                (f"{cname}:defect-is-half-dphi", forms.values_check(measured - half_dphi, env, settings.tol))
            )
        maps.append((cname, psi))
    return EmbeddingSolution(
        problem, 2, tuple(maps), target, p + 2, r2, None, doubled_pair, tuple(certs), tuple(defects)
    )


def _scaled_maps(
    maps: Sequence[tuple[str, SmoothMap]], target: CoordinateDomain, factor: float
) -> tuple[tuple[str, SmoothMap], ...]:
    """The maps times ``factor``, into ``target``: the coordinates past a
    map's own are zero."""
    out = []
    for cname, psi in maps:
        comps = tuple(sx.mul(sx.Const(factor), c) for c in psi.components)
        comps += (sx.ZERO,) * (target.dim - len(comps))
        out.append((cname, SmoothMap(psi.source, target, comps)))
    return tuple(out)


def build_psi3(solution: EmbeddingSolution, settings: EmbedSettings) -> EmbeddingSolution:
    """Third stage: rescale onto the unit sphere of ``settings.pairs`` pairs
    (None: the stage-2 pairs), the pairs past stage 2's held at zero; the
    compensating constant is the squared stage-2 radius.  Each map is
    certified once, at the stage-2 points, on the sphere it lands on: the
    identity psi*(c eta) = theta_bar and the constraint |psi|^2 = 1,
    labelled ``stage3:<chart>:pullback`` and ``:sphere``, next to the
    stage-2 certificates."""
    if solution.stage != 2:
        raise EmbedError("build_psi3 consumes a stage-2 solution")
    if not solution.doubled_pair:
        raise EmbedError(
            "the half-strength closing pair does not satisfy the exact identity; "
            "build stage 2 with doubled_pair=True first"
        )
    N = solution.pairs if settings.pairs is None else settings.pairs
    if N < solution.pairs:
        raise TargetTooSmallError(f"target with {N} pairs cannot hold an image using {solution.pairs}")
    problem, r2 = solution.problem, solution.r2
    target = _sphere_target(f"{problem.name}_stage3", N, 1.0)
    maps = _scaled_maps(solution.maps, target, 1.0 / r2)
    c = r2 * r2
    eta_c = _eta_on(target, N, scale=c)
    certs = list(solution.certifications)
    for cname, psi in maps:
        env = psi.source.sample_points(settings.samples, settings.seed + 1)
        pairs = problem.chart_pairs(dict(problem.charts)[cname])
        pulled, theta_bar, images, _ = _pulled_and_theta_bar(psi, eta_c, pairs, env)
        for kind, what, check in (
            ("pullback", "pullback", forms.values_check(pulled - theta_bar, env, settings.tol)),
            ("sphere", "sphere constraint", _sphere_check(images, 1.0, env, settings.tol)),
        ):
            if not check.passed:
                raise CertificationError(f"stage 3 {what} on chart {cname!r}", check)
            certs.append((f"stage3:{cname}:{kind}", check))
    return EmbeddingSolution(problem, 3, maps, target, N, r2, c, solution.doubled_pair, tuple(certs), ())


def build_sphere_pipeline(problem: EmbeddingProblem, settings: EmbedSettings) -> EmbeddingSolution:
    """Stages 2 and 3 end to end, onto ``settings.pairs`` pairs if set."""
    return build_psi3(build_psi2(problem, settings, doubled_pair=True), settings)


# ---------------------------------------------------------------------------
# product embeddings for first-kind structures


@dataclass(frozen=True)
class ProductEmbedding:
    """Certified embedding of a first-kind structure into sphere x circle:
    every check passed, the left-inverse identities among them, and the
    circle function is a strict, full morphism."""

    structure_name: str
    solution: EmbeddingSolution
    target: CoordinateDomain
    maps: tuple[tuple[str, SmoothMap], ...]
    scale: float
    certifications: tuple[tuple[str, str, ZeroCheck], ...]
    morphism: twisted.MorphismReport

    @property
    def passed(self) -> bool:
        return all(c.passed for _, _, c in self.certifications) and self.morphism.strict and self.morphism.full


def _left_inverse_checks(inverse: Sequence[tuple[int, float]], values, grads, env, tol: float) -> list:
    """L∘psi - P and L·Dpsi - DP at the points of ``env``, from one jets walk
    of a product map's components followed by its chart's parametrization
    P's; ``inverse`` holds L as (slot, factor) per component of P."""
    slots = [s for s, _ in inverse]
    factors = np.array([f for _, f in inverse])
    m = len(inverse)
    return [
        ("left inverse: L∘psi - P", sx.is_zero([factors[:, None] * values[slots] - values[-m:]], env, tol)),
        ("left inverse: L·Dpsi - DP", sx.is_zero([factors[:, None, None] * grads[slots] - grads[-m:]], env, tol)),
    ]


def build_lcs_embedding(
    structure: models.LcsStructure, problem: EmbeddingProblem, tau: Mapping[str, Expr], settings: EmbedSettings
) -> ProductEmbedding:
    """Product embedding of a first-kind structure into sphere x circle.

    ``problem`` must present the structure's potential (its charts share the
    structure's chart domains and its one-form pulls back to the potential);
    ``tau`` supplies one circle-valued expression per chart whose
    differential is the Lee form.  Both prerequisites are certified on each
    chart from the product map's own jets walk, beside the map's pullbacks
    of the scaled contact generator, the circle form, and the twisted
    two-form of the target to the potential, Lee form, and two-form of the
    source; the map is classified as a morphism on the first chart.

    It is an embedding by one linear map L read from the pipeline's layout
    (:meth:`EmbeddingSolution.left_inverse`; the circle from the last slot):
    on every chart, L∘psi equals the chart's parametrization P into the
    structure's ambient and L·Dpsi equals DP, so the maps are injective,
    across charts too, and immersions, as the parametrizations are (problem
    data).  A chart with no such P, or a coordinate L cannot read, raises
    :class:`EmbedError`.
    """
    samples, tol, seed = settings.samples, settings.tol, settings.seed
    chart_by_name = dict(problem.charts)
    if set(chart_by_name) != {c.name for c in structure.charts}:
        raise EmbedError("problem charts do not match structure charts")
    certs: list[tuple[str, str, ZeroCheck]] = []
    for chart in structure.charts:
        if chart_by_name[chart.name].source != chart.domain:
            raise EmbedError(
                f"chart {chart.name!r}: problem domain differs from structure domain"
            )
        if chart.alpha is None:
            raise EmbedError(f"chart {chart.name!r} has no potential to embed")
        if chart.name not in tau:
            raise EmbedError(f"no circle function supplied for chart {chart.name!r}")

    pipeline = replace(
        settings,
        samples=max(samples, PIPELINE_FLOOR),
        tol=min(tol, PIPELINE_TOL_CAP),
        pairs=PRODUCT_PAIRS if settings.pairs is None else settings.pairs,
    )
    solution = build_sphere_pipeline(problem, pipeline)
    N, c = pipeline.pairs, solution.scale
    target = models.sphere_circle_ambient(N)
    eta_c = _eta_on(target, N, scale=c)
    circle_form = target.one_form("theta")
    phi_target = ext_d(eta_c) - wedge(circle_form, eta_c)

    # L reads the ambient's sphere coordinates from the pipeline's slots and
    # its circle coordinate from tau, which follows them
    sphere_inverse = dict(zip(problem.ambient.names, solution.left_inverse()))
    circle_slot = (target.dim - 1, 1.0)
    maps = []
    for chart in structure.charts:
        P = chart.parametrization
        if P is None or P.target != structure.ambient:
            raise EmbedError(
                f"injectivity not certified: chart {chart.name!r} has no parametrization into the ambient"
            )
        sphere_map = dict(solution.maps)[chart.name]
        comps = list(sphere_map.components) + [tau[chart.name]]
        # target order: interleaved sphere coordinates then theta
        psi = SmoothMap(chart.domain, target, tuple(comps))
        maps.append((chart.name, psi))
        env = chart.domain.sample_points(samples, seed + 3)
        # the pairs and P's components are subtrees of psi's, so the memo
        # reads them off psi's walk; tau is psi's last component
        pairs = tuple(e for fg in problem.chart_pairs(chart_by_name[chart.name]) for e in fg)
        values, grads, _ = sx.jets(psi.components + pairs + P.components, env)
        k = target.dim
        theta_bar = _theta_bar(values[k : k + len(pairs)], grads[k : k + len(pairs)])
        checks = [
            ("one-form vs potential", forms.values_check(theta_bar - forms.form_values(chart.alpha, env), env, tol)),
            ("d(tau) - lee", forms.values_check(grads[k - 1] - forms.form_values(chart.lee, env), env, tol)),
        ]
        inverse = [sphere_inverse.get(n, circle_slot) for n in P.target.names]
        checks += _left_inverse_checks(inverse, values, grads, env, tol)
        images, DF = dict(zip(target.names, values)), grads[:k]
        for label, form, want in (
            ("pullback(scale * eta) - alpha", eta_c, chart.alpha),
            ("pullback(d theta) - lee", circle_form, chart.lee),
            ("pullback(scale * twisted form) - phi", phi_target, chart.phi),
        ):
            residual = forms.sampled_pullback(form, images, DF) - forms.form_values(want, env)
            checks.append((label, forms.values_check(residual, env, tol)))
        for label, check in checks:
            if not check.passed:
                raise CertificationError(f"{label} on chart {chart.name!r}", check)
            certs.append((chart.name, label, check))

    # the target's Lee form d(theta) comes from the circle factor, so the
    # morphism is classified on the first chart's circle function alone
    first = structure.charts[0]
    circle = forms.make_domain("circle", [("theta", forms.ANGULAR)])
    unit = forms.linear_domain("target_loop", ["t"], 0.0, 1.0)
    morphism = twisted.classify_morphism(
        SmoothMap(first.domain, circle, (tau[first.name],)),
        first.lee,
        circle.one_form("theta"),
        models.structure_lee_loops(structure),
        [SmoothMap(unit, circle, (sx.var("t"),))],
        samples=samples,
        tol=tol,
        seed=seed,
    )
    return ProductEmbedding(structure.name, solution, target, tuple(maps), c, tuple(certs), morphism)


# ---------------------------------------------------------------------------
# bundled problems


def problem_circle() -> EmbeddingProblem:
    """Unit circle in the plane carrying y dx (one pair)."""
    amb = forms.linear_domain("plane", ["x", "y"])
    dom = forms.make_domain("circle_chart", [("t", "angular")])
    two_pi_t = sx.mul(sx.Const(2.0 * np.pi), sx.var("t"))
    P = SmoothMap(dom, amb, (sx.cos(two_pi_t), sx.sin(two_pi_t)))
    return EmbeddingProblem("circle_ydx", amb, (("angle", P),), (("x", sx.var("y")),))


def problem_torus() -> EmbeddingProblem:
    """Flat two-torus in R^4 carrying x2 dx1 + x4 dx3 (trigonometric on charts)."""
    amb = forms.linear_domain("r4", ["x1", "x2", "x3", "x4"])
    dom = forms.make_domain("torus_chart", [("a", "angular"), ("b", "angular")])
    ta = sx.mul(sx.Const(2.0 * np.pi), sx.var("a"))
    tb = sx.mul(sx.Const(2.0 * np.pi), sx.var("b"))
    P = SmoothMap(dom, amb, (sx.cos(ta), sx.sin(ta), sx.cos(tb), sx.sin(tb)))
    return EmbeddingProblem(
        "torus_trig", amb,
        (("square", P),),
        (("x1", sx.var("x2")), ("x3", sx.var("x4"))),
    )


def problem_sphere3(q: float = 1.0) -> EmbeddingProblem:
    """Round three-sphere in R^4 carrying q times the contact generator."""
    amb = forms.linear_domain("r4_pairs", models.interleaved_names(2))
    charts = tuple(
        (name, P) for name, P in models.sphere_graph_charts(2, amb, with_circle=False)
    )
    coeffs = (
        ("x1", sx.mul(sx.Const(0.5 * q), sx.var("y1"))),
        ("y1", sx.mul(sx.Const(-0.5 * q), sx.var("x1"))),
        ("x2", sx.mul(sx.Const(0.5 * q), sx.var("y2"))),
        ("y2", sx.mul(sx.Const(-0.5 * q), sx.var("x2"))),
    )
    return EmbeddingProblem("sphere3_contact", amb, charts, coeffs)


def problem_zero_form() -> EmbeddingProblem:
    """Circle with the zero one-form (zero coefficient on dx)."""
    base = problem_circle()
    return EmbeddingProblem("circle_zero", base.ambient, base.charts, (("x", sx.ZERO),))


def problem_from_sphere_circle(structure: models.LcsStructure) -> tuple[EmbeddingProblem, dict[str, Expr]]:
    """Present a sphere-circle catalog structure as an embedding input.

    Returns the problem (charts share the structure's domains; the one-form
    is the scaled contact generator, so it pulls back to the potential) and
    the circle functions realizing the Lee form.
    """
    meta = structure.metadata
    if "N" not in meta or structure.ambient is None:
        raise EmbedError("expected a sphere-circle catalog structure")
    Nm, q = meta["N"], meta["q"]
    amb = structure.ambient
    sphere_amb = forms.linear_domain(
        f"{amb.name}_sphere", [n for n in amb.names if n != "theta"]
    )
    charts = []
    tau: dict[str, Expr] = {}
    for chart in structure.charts:
        # parametrization restricted to the sphere coordinates of the ambient
        comps = tuple(
            chart.parametrization.component(n) for n in amb.names if n != "theta"
        )
        charts.append((chart.name, SmoothMap(chart.domain, sphere_amb, comps)))
        tau[chart.name] = chart.domain.var("theta")
    coeffs = []
    for j in range(1, Nm + 1):
        coeffs.append((f"x{j}", sx.mul(sx.Const(0.5 * q), sx.var(f"y{j}"))))
        coeffs.append((f"y{j}", sx.mul(sx.Const(-0.5 * q), sx.var(f"x{j}"))))
    problem = EmbeddingProblem(f"{structure.name}_potential", sphere_amb, tuple(charts), tuple(coeffs))
    return problem, tau
