"""Constructive embeddings into odd spheres and sphere-circle products.

Given a chart-presented compact manifold inside R^(2n) carrying a one-form
``sum f_i dx_i`` with at most 2n nonzero coefficients, three stages produce
an embedding into a round sphere that pulls the scaled standard contact
generator back to the given one-form exactly:

* stage 1 interleaves the pair functions with a sphere-closing coordinate;
  its pullback is the given form minus ``d(phi)``, ``phi = (1/2) sum f_k x_k``;
* stage 2 appends a closing pair ``(2 phi, 1)`` whose pullback contribution
  ``d(phi)`` cancels the stage-1 defect (the variant pair ``(phi, 1)``
  contributes only half and leaves a measured defect of ``(1/2) d(phi)``);
* stage 3 rescales onto the unit sphere; the compensating constant is the
  squared stage-2 radius.

``build_lcs_embedding`` combines the unit-sphere map with a circle-valued
function into a product embedding certified to pull back the potential,
the Lee form, and the twisted two-form of a first-kind structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import forms, models, numeric, symexpr as sx, twisted
from .forms import (
    Coordinate,
    CoordinateDomain,
    DifferentialForm,
    SmoothMap,
    ext_d,
    forms_equal,
    function_form,
    pullback,
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
    rho: float = 1.2
    samples: int = 400

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

    @property
    def pairs(self) -> int:
        return len(self.coefficients)

    def one_form(self) -> DifferentialForm:
        coeffs = {
            (self.ambient.index(n),): c for n, c in self.coefficients
        }
        return DifferentialForm(self.ambient, 1, coeffs)

    def chart_pairs(self, F: SmoothMap) -> list[tuple[Expr, Expr]]:
        """Per-chart (coefficient, coordinate-function) expression pairs."""
        onto = dict(zip(self.ambient.names, F.components))
        return [
            (sx.substitute(c, onto), F.component(n)) for n, c in self.coefficients
        ]

    def chart_form(self, F: SmoothMap) -> DifferentialForm:
        return pullback(F, self.one_form())


# ---------------------------------------------------------------------------
# radii


@dataclass(frozen=True)
class RadiusBound:
    value: float
    supremum: float
    margin: float
    samples: int


def radius_bound(
    pieces: Sequence[tuple[CoordinateDomain, Sequence[Expr]]],
    rho: float,
    samples: int = 400,
    seed: int = 0,
) -> RadiusBound:
    """Safety-scaled supremum of sqrt(sum of squares) over sampled charts.

    ``pieces`` holds (domain, expressions) per chart; the bound is ``rho``
    times the sampled supremum, with the strict-inequality margin reported.
    """
    if not rho > 1.0:
        raise RadiusError(f"safety factor must exceed 1, got {rho}")
    sup = 0.0
    for dom, exprs in pieces:
        env = dom.sample_points(samples, seed)
        total = np.zeros(samples)
        for e in exprs:
            total += sx.evaluate(sx.pow_(e, 2), env)
        if total.size:
            sup = max(sup, float(np.sqrt(np.max(total))))
    if sup == 0.0:
        raise RadiusError("degenerate data: supremum of the radius expression is zero")
    return RadiusBound(rho * sup, sup, (rho - 1.0) * sup, samples)


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


def _check_radicand(expr: Expr, dom: CoordinateDomain, samples: int, seed: int, where: str):
    worst = float(np.min(sx.evaluate(expr, dom.sample_points(samples, seed))))
    if worst <= 0.0:
        raise RadiusError(f"{where}: sphere radicand dips to {worst:.3g} at a sample")


# ---------------------------------------------------------------------------
# stage results


@dataclass(frozen=True)
class Stage1Result:
    """Interleaved map onto a sphere of radius r1 with measured defect d(phi)."""

    problem: EmbeddingProblem
    maps: tuple[tuple[str, SmoothMap], ...]
    ambient: CoordinateDomain
    r1: float
    phi: tuple[tuple[str, Expr], ...]
    certifications: tuple[tuple[str, ZeroCheck], ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for _, c in self.certifications)


@dataclass(frozen=True)
class EmbeddingSolution:
    """Sphere map with its radii and compensating constant.

    ``stage`` is 2 (radius-r2 sphere) or 3 (unit sphere); ``scale`` is the
    constant c with pullback(map, c * eta) equal to the given one-form, and
    is None until stage 3.  For the half-strength closing pair, ``defects``
    certifies that the measured pullback defect equals (1/2) d(phi).
    """

    problem: EmbeddingProblem
    stage: int
    maps: tuple[tuple[str, SmoothMap], ...]
    ambient: CoordinateDomain
    pairs: int
    r1: float
    r2: float
    scale: float | None
    phi: tuple[tuple[str, Expr], ...]
    doubled_pair: bool
    certifications: tuple[tuple[str, ZeroCheck], ...]
    defects: tuple[tuple[str, ZeroCheck], ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for _, c in self.certifications) and all(
            c.passed for _, c in self.defects
        )

    @property
    def inverse_scale(self) -> float:
        """Raw pullback weight of the unscaled contact generator (1/r2^2)."""
        return 1.0 / (self.r2 * self.r2)


# ---------------------------------------------------------------------------
# stage builders


def build_psi1(
    problem: EmbeddingProblem, tol: float = 1e-9, seed: int = 0
) -> Stage1Result:
    """First stage: pairs plus a sphere-closing coordinate, defect d(phi)."""
    pairs_by_chart = {n: problem.chart_pairs(F) for n, F in problem.charts}
    bound = radius_bound(
        [
            (F.source, [e for fg in pairs_by_chart[n] for e in fg])
            for n, F in problem.charts
        ],
        problem.rho,
        problem.samples,
        seed,
    )
    r1 = bound.value
    p = problem.pairs
    target = _sphere_target(f"{problem.name}_stage1", p + 1, r1)
    maps = []
    phis = []
    certs = []
    eta = _eta_on(target, p + 1)
    for cname, F in problem.charts:
        pairs = pairs_by_chart[cname]
        comps: list[Expr] = []
        for f, g in pairs:
            comps.extend([g, f])
        radicand = sx.add(sx.Const(r1 * r1), sx.neg(_sum_squares([e for fg in pairs for e in fg])))
        _check_radicand(radicand, F.source, problem.samples, seed + 1, f"stage 1 chart {cname!r}")
        comps.extend([sx.sqrt(radicand), sx.ZERO])
        psi = SmoothMap(F.source, target, tuple(comps))
        phi = _half_product_sum(pairs)
        expected = problem.chart_form(F) - ext_d(function_form(F.source, phi))
        check = forms_equal(pullback(psi, eta), expected, problem.samples, tol, seed + 1)
        if not check.passed:
            raise CertificationError(f"stage 1 pullback on chart {cname!r}", check)
        sph = _sphere_residual(psi, r1, problem.samples, seed + 1)
        if not sph.passed:
            raise CertificationError(f"stage 1 sphere constraint on chart {cname!r}", sph)
        maps.append((cname, psi))
        phis.append((cname, phi))
        certs.extend([(f"{cname}:pullback", check), (f"{cname}:sphere", sph)])
    return Stage1Result(problem, tuple(maps), target, r1, tuple(phis), tuple(certs))


def _sphere_residual(psi: SmoothMap, radius: float, samples: int, seed: int) -> ZeroCheck:
    expr = sx.add(
        _sum_squares(list(psi.components)), sx.Const(-radius * radius)
    )
    return sx.is_zero(
        (expr,), psi.source, samples, 1e-8 * max(1.0, radius * radius), seed
    )


def build_psi2(
    problem: EmbeddingProblem,
    tol: float = 1e-9,
    seed: int = 0,
    doubled_pair: bool = True,
) -> EmbeddingSolution:
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
    bound = radius_bound(pieces, problem.rho, problem.samples, seed)
    r2 = bound.value
    p = problem.pairs
    target = _sphere_target(f"{problem.name}_stage2", p + 2, r2)
    eta = _eta_on(target, p + 2)
    r1 = radius_bound(
        [
            (F.source, [e for fg in stage1_pairs[n] for e in fg])
            for n, F in problem.charts
        ],
        problem.rho,
        problem.samples,
        seed,
    ).value
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
        _check_radicand(radicand, F.source, problem.samples, seed + 1, f"stage 2 chart {cname!r}")
        comps: list[Expr] = []
        for f, g in pairs:
            comps.extend([g, f])
        comps.extend([sx.sqrt(radicand), sx.ZERO, c2, sx.ONE])
        psi = SmoothMap(F.source, target, tuple(comps))
        pulled = pullback(psi, eta)
        theta_bar = problem.chart_form(F)
        sph = _sphere_residual(psi, r2, problem.samples, seed + 1)
        if not sph.passed:
            raise CertificationError(f"stage 2 sphere constraint on chart {cname!r}", sph)
        certs.append((f"{cname}:sphere", sph))
        if doubled_pair:
            check = forms_equal(pulled, theta_bar, problem.samples, tol, seed + 1)
            if not check.passed:
                raise CertificationError(f"stage 2 pullback on chart {cname!r}", check)
            certs.append((f"{cname}:pullback", check))
        else:
            half_dphi = ext_d(function_form(F.source, phis[cname])).scaled(sx.Const(0.5))
            measured = theta_bar - pulled  # the shortfall of the half-strength pair
            agree = forms_equal(measured, half_dphi, problem.samples, tol, seed + 1)
            defects.append((f"{cname}:defect-is-half-dphi", agree))
        maps.append((cname, psi))
    return EmbeddingSolution(
        problem, 2, tuple(maps), target, p + 2, r1, r2, None,
        tuple(sorted(phis.items())), doubled_pair, tuple(certs), tuple(defects),
    )


def _scaled_maps(
    maps: Sequence[tuple[str, SmoothMap]], target: CoordinateDomain, factor: float
) -> tuple[tuple[str, SmoothMap], ...]:
    out = []
    for cname, psi in maps:
        comps = tuple(sx.mul(sx.Const(factor), c) for c in psi.components)
        out.append((cname, SmoothMap(psi.source, target, comps)))
    return tuple(out)


def build_psi3(
    solution: EmbeddingSolution, tol: float = 1e-9, seed: int = 0
) -> EmbeddingSolution:
    """Third stage: rescale onto the unit sphere; the compensating constant
    is the squared stage-2 radius."""
    if solution.stage != 2:
        raise EmbedError("build_psi3 consumes a stage-2 solution")
    if not solution.doubled_pair:
        raise EmbedError(
            "the half-strength closing pair does not satisfy the exact identity; "
            "build stage 2 with doubled_pair=True first"
        )
    r2 = solution.r2
    target = _sphere_target(f"{solution.problem.name}_stage3", solution.pairs, 1.0)
    maps = _scaled_maps(solution.maps, target, 1.0 / r2)
    c = r2 * r2
    eta_c = _eta_on(target, solution.pairs, scale=c)
    certs = []
    for cname, psi in maps:
        F = dict(solution.problem.charts)[cname]
        theta_bar = solution.problem.chart_form(F)
        check = forms_equal(
            pullback(psi, eta_c), theta_bar, solution.problem.samples, tol, seed + 1
        )
        if not check.passed:
            raise CertificationError(f"stage 3 pullback on chart {cname!r}", check)
        sph = _sphere_residual(psi, 1.0, solution.problem.samples, seed + 1)
        if not sph.passed:
            raise CertificationError(f"stage 3 sphere constraint on chart {cname!r}", sph)
        certs.extend([(f"{cname}:pullback", check), (f"{cname}:sphere", sph)])
    return EmbeddingSolution(
        solution.problem, 3, maps, target, solution.pairs, solution.r1, r2, c,
        solution.phi, solution.doubled_pair, tuple(certs), (),
    )


def pad_to_dimension(
    solution: EmbeddingSolution, N: int, tol: float = 1e-9, seed: int = 0
) -> EmbeddingSolution:
    """Extend a unit-sphere solution by zero coordinate pairs up to N pairs."""
    if solution.stage != 3:
        raise EmbedError("padding applies to unit-sphere (stage-3) solutions")
    if N < solution.pairs:
        raise TargetTooSmallError(
            f"target with {N} pairs cannot hold an image using {solution.pairs}"
        )
    if N == solution.pairs:
        return solution
    target = _sphere_target(f"{solution.problem.name}_stage3_pad{N}", N, 1.0)
    zeros = (sx.ZERO,) * (2 * (N - solution.pairs))
    maps = tuple(
        (cname, SmoothMap(psi.source, target, tuple(psi.components) + zeros))
        for cname, psi in solution.maps
    )
    eta_c = _eta_on(target, N, scale=solution.scale)
    certs = []
    for cname, psi in maps:
        F = dict(solution.problem.charts)[cname]
        check = forms_equal(
            pullback(psi, eta_c),
            solution.problem.chart_form(F),
            solution.problem.samples,
            tol,
            seed + 1,
        )
        if not check.passed:
            raise CertificationError(f"padded pullback on chart {cname!r}", check)
        certs.append((f"{cname}:pullback", check))
    return EmbeddingSolution(
        solution.problem, 3, maps, target, N, solution.r1, solution.r2,
        solution.scale, solution.phi, solution.doubled_pair, tuple(certs), (),
    )


def build_sphere_pipeline(
    problem: EmbeddingProblem, N: int | None = None, tol: float = 1e-9, seed: int = 0
) -> EmbeddingSolution:
    """Stages 2 and 3 end to end, optionally padded to ``N`` pairs."""
    sol = build_psi3(build_psi2(problem, tol, seed, doubled_pair=True), tol, seed)
    if N is not None:
        sol = pad_to_dimension(sol, N, tol, seed)
    return sol


# ---------------------------------------------------------------------------
# product embeddings for first-kind structures


@dataclass(frozen=True)
class InjectivityReport:
    """Sampled separation of the image: over in-chart sample pairs at source
    distance above ``min_source_distance``, the smallest image distance."""

    min_image_distance: float
    min_source_distance: float
    pairs_checked: int

    @property
    def separated(self) -> bool:
        return self.pairs_checked > 0 and self.min_image_distance > 0.0


@dataclass(frozen=True)
class ProductEmbedding:
    """Certified embedding of a first-kind structure into sphere x circle."""

    structure_name: str
    solution: EmbeddingSolution
    target: CoordinateDomain
    maps: tuple[tuple[str, SmoothMap], ...]
    scale: float
    certifications: tuple[tuple[str, str, ZeroCheck], ...]
    morphism: twisted.MorphismReport
    immersion_rank: int
    expected_rank: int
    injectivity: InjectivityReport

    @property
    def passed(self) -> bool:
        return (
            all(c.passed for _, _, c in self.certifications)
            and self.morphism.strict
            and self.morphism.full
            and self.immersion_rank == self.expected_rank
            and self.injectivity.separated
        )


def _circle_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


def build_lcs_embedding(
    structure: models.LcsStructure,
    problem: EmbeddingProblem,
    tau: Mapping[str, Expr],
    N: int,
    tol: float = 1e-8,
    seed: int = 0,
    samples: int = 200,
    injectivity_samples: int = 140,
    min_source_distance: float = 0.05,
) -> ProductEmbedding:
    """Product embedding of a first-kind structure into sphere x circle.

    ``problem`` must present the structure's potential (its charts share the
    structure's chart domains and its one-form pulls back to the potential);
    ``tau`` supplies one circle-valued expression per chart whose
    differential is the Lee form.  Both prerequisites are certified before
    the product map is assembled, and the assembled map is certified to pull
    back the scaled contact generator, the circle form, and the twisted
    two-form of the target to the potential, Lee form, and two-form of the
    source; the map is classified as a morphism on the first chart.
    """
    chart_by_name = dict(problem.charts)
    if set(chart_by_name) != {c.name for c in structure.charts}:
        raise EmbedError("problem charts do not match structure charts")
    certs: list[tuple[str, str, ZeroCheck]] = []
    for chart in structure.charts:
        F = chart_by_name[chart.name]
        if F.source != chart.domain:
            raise EmbedError(
                f"chart {chart.name!r}: problem domain differs from structure domain"
            )
        if chart.alpha is None:
            raise EmbedError(f"chart {chart.name!r} has no potential to embed")
        pot = forms_equal(problem.chart_form(F), chart.alpha, samples, tol, seed + 2)
        if not pot.passed:
            raise CertificationError(
                f"one-form vs potential on chart {chart.name!r}", pot
            )
        if chart.name not in tau:
            raise EmbedError(f"no circle function supplied for chart {chart.name!r}")
        dtau = ext_d(function_form(chart.domain, tau[chart.name]))
        lee_check = forms_equal(dtau, chart.lee, samples, tol, seed + 2)
        if not lee_check.passed:
            raise CertificationError(
                f"circle function differential vs Lee form on chart {chart.name!r}",
                lee_check,
            )
        certs.append((chart.name, "d(tau) - lee", lee_check))

    solution = build_sphere_pipeline(problem, N, tol=min(tol, 1e-9), seed=seed)
    c = solution.scale
    target = models.sphere_circle_ambient(N)
    eta_c = _eta_on(target, N, scale=c)
    circle_form = target.one_form("theta")
    phi_target = ext_d(eta_c) - wedge(circle_form, eta_c)

    maps = []
    ranks: list[int] = []
    inj_min = np.inf
    inj_pairs = 0
    for chart in structure.charts:
        sphere_map = dict(solution.maps)[chart.name]
        comps = list(sphere_map.components) + [tau[chart.name]]
        # target order: interleaved sphere coordinates then theta
        psi = SmoothMap(chart.domain, target, tuple(comps))
        maps.append((chart.name, psi))
        for label, got, want in (
            ("pullback(scale * eta) - alpha", pullback(psi, eta_c), chart.alpha),
            ("pullback(d theta) - lee", pullback(psi, circle_form), chart.lee),
            ("pullback(scale * twisted form) - phi", pullback(psi, phi_target), chart.phi),
        ):
            check = forms_equal(got, want, samples, tol, seed + 3)
            if not check.passed:
                raise CertificationError(f"{label} on chart {chart.name!r}", check)
            certs.append((chart.name, label, check))
        ranks.append(numeric.map_min_rank(psi, samples=min(40, samples), seed=seed + 4))
        dmin, npairs = _image_separation(
            psi, injectivity_samples, seed + 5, min_source_distance
        )
        if npairs:
            inj_min = min(inj_min, dmin)
            inj_pairs += npairs

    first = structure.charts[0]
    src_loops = models.structure_lee_loops(structure)
    tgt_loops = [_target_circle_loop(target)]
    morphism = twisted.classify_morphism(
        dict(maps)[first.name],
        first.lee,
        circle_form,
        src_loops,
        tgt_loops,
        samples=samples,
        tol=tol,
        seed=seed,
    )
    injectivity = InjectivityReport(
        float(inj_min) if np.isfinite(inj_min) else 0.0,
        min_source_distance,
        inj_pairs,
    )
    return ProductEmbedding(
        structure.name, solution, target, tuple(maps), c, tuple(certs),
        morphism, min(ranks), structure.dim, injectivity,
    )


def _image_separation(
    psi: SmoothMap, samples: int, seed: int, min_source: float
) -> tuple[float, int]:
    env = psi.source.sample_points(samples, seed)
    out = forms.evaluate_map(psi, env)
    src_cols, src_ang = [], []
    for c in psi.source.coords:
        (src_ang if c.kind == forms.ANGULAR else src_cols).append(env[c.name])
    tgt_cols, tgt_ang = [], []
    for c in psi.target.coords:
        (tgt_ang if c.kind == forms.ANGULAR else tgt_cols).append(out[c.name])
    idx_a, idx_b = np.triu_indices(samples, k=1)

    def dist(cols, angs, ia, ib):
        total = np.zeros(ia.shape)
        for col in cols:
            total += (col[ia] - col[ib]) ** 2
        for col in angs:
            total += _circle_distance(col[ia], col[ib]) ** 2
        return np.sqrt(total)

    ds = dist(src_cols, src_ang, idx_a, idx_b)
    keep = ds > min_source
    if not np.any(keep):
        return 0.0, 0
    dt = dist(tgt_cols, tgt_ang, idx_a[keep], idx_b[keep])
    return float(np.min(dt)), int(np.sum(keep))


def _target_circle_loop(target: CoordinateDomain) -> SmoothMap:
    unit = forms.linear_domain("target_loop", ["t"], 0.0, 1.0)
    comps = []
    for n in target.names:
        if n == "theta":
            comps.append(sx.var("t"))
        elif n == "x1":
            comps.append(sx.ONE)
        else:
            comps.append(sx.ZERO)
    return SmoothMap(unit, target, tuple(comps))


# ---------------------------------------------------------------------------
# bundled problems


def problem_circle(rho: float = 1.2, samples: int = 400) -> EmbeddingProblem:
    """Unit circle in the plane carrying y dx (one pair)."""
    amb = forms.linear_domain("plane", ["x", "y"])
    dom = forms.make_domain("circle_chart", [("t", "angular")])
    two_pi_t = sx.mul(sx.Const(2.0 * np.pi), sx.var("t"))
    P = SmoothMap(dom, amb, (sx.cos(two_pi_t), sx.sin(two_pi_t)))
    return EmbeddingProblem(
        "circle_ydx", amb, (("angle", P),), (("x", sx.var("y")),), rho, samples
    )


def problem_torus(rho: float = 1.2, samples: int = 400) -> EmbeddingProblem:
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
        rho, samples,
    )


def problem_sphere3(rho: float = 1.2, samples: int = 400, q: float = 1.0) -> EmbeddingProblem:
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
    return EmbeddingProblem("sphere3_contact", amb, charts, coeffs, rho, samples)


def problem_zero_form(rho: float = 1.2, samples: int = 200) -> EmbeddingProblem:
    """Circle with the zero one-form (zero coefficient on dx)."""
    base = problem_circle(rho, samples)
    return EmbeddingProblem(
        "circle_zero", base.ambient, base.charts, (("x", sx.ZERO),), rho, samples
    )


def problem_from_sphere_circle(
    structure: models.LcsStructure, rho: float = 1.2, samples: int = 200
) -> tuple[EmbeddingProblem, dict[str, Expr]]:
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
    problem = EmbeddingProblem(
        f"{structure.name}_potential", sphere_amb, tuple(charts), tuple(coeffs),
        rho, samples,
    )
    return problem, tau
