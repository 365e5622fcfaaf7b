"""Strong reducibility of twisted structures and the universal reduction chain.

A *reducible datum* is a coisotropic-style package: an ambient chart carrying
a first-kind twisted structure, a submanifold given by a parametrization, a
quotient map onto a reduced chart, and the reduced structure itself.  The
verifier certifies, at seeded samples, that

* both structure fields are tangent to the submanifold,
* the intersection of the kernels of the restricted Lee form, restricted
  potential and its exterior derivative has constant rank (the candidate
  foliation distribution),
* the quotient's differential kernel coincides with that distribution, and
* the quotient pulls the reduced potential / Lee form / two-form back to the
  restrictions of the ambient ones.

The rank of the kernel of the restricted two-form is computed alongside and
*reported* against the distribution rank; agreement is recorded, never
assumed, since the two need not coincide in general.  Every symbolic map
the verifier and the chain read at samples is one :func:`symexpr.jets`
walk on an env drawn from its source: the walk's value and partial blocks
are the map's images and Jacobians.  The verifier's linear algebra is one
stacked SVD over all samples per matrix family.

On top of the verifier, :func:`run_reduction_chain` builds the four-stage
enlargement of a compatible chart — cotangent-torus extension, jet-space
extension, a shear normalization, and transplantation into the universal
cotangent model over a torus times Euclidean space — certifying each stage as
a reducible datum whose reduction recovers the previous stage, and checking
that composing the first two reductions agrees with a single direct
reduction.  The stages read the chain's settings from one
:class:`ChainSettings` record; the rules each fixes for itself (tolerances,
sample caps, the verifier's margin and rank cut ``VERIFY_RANK_RTOL``) are
named once, in one block of constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import forms, models, numeric, twisted
from . import symexpr as sx
from .forms import (
    ANGULAR,
    LINEAR,
    Coordinate,
    CoordinateDomain,
    DifferentialForm,
    SmoothMap,
    VectorField,
    basis_vector,
    ext_d,
    function_form,
    identity_map,
    interior,
    zero_form,
)
from .models import StructureChart
from .twisted import d_twisted


class ReductionError(Exception):
    """A reducibility certification or chain construction failed."""


class NonConstantRankError(ReductionError):
    """The candidate foliation distribution has varying rank across samples.

    Attributes:
        witnesses: two (point, rank) pairs exhibiting different ranks.
    """

    def __init__(self, message: str, witnesses):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


class DecompositionError(ReductionError):
    """A declared Lee-form decomposition failed certification."""


# ---------------------------------------------------------------------------
# the chain's settings and the rules each stage fixes


@dataclass(frozen=True)
class ChainSettings:
    """A reduction chain's settings, with a ``reduce-chain`` task's defaults.
    ``samples`` sizes the stages' own sample sets (under the caps below), and
    the verifier draws ``verify_samples`` on stages 1 and 4, ``flow_samples``
    on stage 2.  ``tol`` judges stages 1, 2 and 4, ``flow_tol`` stage 2's
    pullbacks.  Stage 2 samples its slab ``(-window, window)``, and it and
    the two-stage check shrink their boxes by ``margin``."""

    samples: int = 150
    tol: float = 1e-8
    flow_tol: float = 1e-6
    window: float = 0.25
    margin: float = 0.5
    flow_samples: int = 40
    verify_samples: int = 100
    concat_samples: int = 16
    concat_tol: float = 1e-6
    seed: int = 0


# The rules each stage fixes for itself.  EXACT_TOL judges the checks whose
# two sides are closed-form expressions at the same points: the declared
# decomposition (stage 1), the shear and its first-kind suite (stage 3), the
# universal model's suite (stage 4); the shear's sampled determinant may
# stray from 1 by SHEAR_DET_FACTOR times it.
EXACT_TOL = 1e-9
SHEAR_DET_FACTOR = 10
SECTION_MARGIN = 0.3  # the verifier's box margin on the section stages 1 and 4
# The verifier's rank cut for the distribution and the kernels: singular
# values above it times the largest count (its tangency cuts at RANK_RTOL).
VERIFY_RANK_RTOL = 1e-8
# Sample caps: the first-kind suites of stages 1 to 3 and of the universal
# model, stage 4's verifier and its transplant rank; then stage 2's floor.
FIRST_KIND_CAP = 120
UNIVERSAL_FIRST_KIND_CAP = 100
TRANSPLANT_VERIFY_CAP = 60
TRANSPLANT_RANK_CAP = 40
FIBER_FLOOR = 100
FIBER_FACTOR = 1.5  # momentum box of the jet stage over the largest sampled |alpha|
MIN_SURVIVAL = 0.5  # share of flow samples that must stay inside the chart
GAP_TOL = 1e-10
"""Bound on the sine of the largest principal angle between the quotient's
kernel and the candidate distribution.  Correct quotients read 2.5e-16 to
1.5e-12 (flow quotients included); a kernel tilted by 1e-6 reads 5e-7."""
# The largest distance from an integer that certify_decomposition accepts
# for a piece's period over a declared loop.
INTEGER_PERIOD_TOL = 1e-7


# ---------------------------------------------------------------------------
# reducible data and the strong-reducibility verifier


@dataclass(frozen=True)
class ReducibleData:
    """Submanifold-plus-quotient package inside an ambient twisted chart.

    Attributes:
        name: label used in reports.
        ambient: chart carrying the ambient structure (fields included).
        submanifold: parametrization of the submanifold into the ambient
            domain.
        quotient: map from the submanifold's parameter domain onto the
            reduced domain; either a symbolic map or a numeric point map
            (for flow-defined quotients).
        reduced: chart carrying the expected reduced structure.
    """

    name: str
    ambient: StructureChart
    submanifold: SmoothMap
    quotient: "SmoothMap | numeric.PointMap"
    reduced: StructureChart

    def __post_init__(self):
        if self.submanifold.target != self.ambient.domain:
            raise ReductionError(
                f"submanifold of {self.name!r} maps into {self.submanifold.target.name!r}, "
                f"not the ambient domain {self.ambient.domain.name!r}"
            )
        if self.quotient.source != self.submanifold.source:
            raise ReductionError(
                f"quotient of {self.name!r} is not defined on the submanifold domain"
            )
        if self.quotient.target != self.reduced.domain:
            raise ReductionError(
                f"quotient of {self.name!r} maps into {self.quotient.target.name!r}, "
                f"not the reduced domain {self.reduced.domain.name!r}"
            )
        if self.ambient.alpha is None or self.ambient.b_field is None or self.ambient.anti_lee is None:
            raise ReductionError(f"ambient chart of {self.name!r} lacks potential or structure fields")
        if self.reduced.alpha is None:
            raise ReductionError(f"reduced chart of {self.name!r} lacks a potential")


@dataclass(frozen=True)
class StrongReducibilityReport:
    """Sampled certification of one reducible datum.

    ``distribution_rank`` is the (constant) dimension of the candidate
    foliation distribution; ``two_form_kernel_rank`` is the minimum kernel
    dimension of the restricted two-form, and ``kernel_ranks_agree`` records
    whether the two coincided at every sample — an observation, not an
    assumption.  ``pullback_residuals`` holds (label, max residual) pairs for
    the potential, the Lee form and the two-form.
    """

    name: str
    b_tangency: float
    e_tangency: float
    distribution_rank: int
    two_form_kernel_rank: int
    kernel_ranks_agree: bool
    quotient_kernel_gap: float
    pullback_residuals: tuple[tuple[str, float], ...]
    samples_used: int
    samples_skipped: int
    tol: float
    pullback_tol: float
    gap_tol: float
    passed: bool

    def worst_pullback(self) -> float:
        return max((r for _, r in self.pullback_residuals), default=0.0)


def _walk(F: "SmoothMap | numeric.PointMap", env, samples: int):
    """A map's kept sample indices, unwrapped images (tgt, kept) and
    Jacobians (tgt, src, kept) at the samples of ``env``.  A symbolic map is
    walked once by :func:`symexpr.jets` and keeps every sample; a point
    map runs on the whole batch and keeps the samples where it is defined,
    dropping those whose flows left the chart."""
    if isinstance(F, SmoothMap):
        values, J, _ = sx.jets(F.components, env)
        return np.arange(samples), values, J
    values, J, ok = F(np.column_stack([env[n] for n in F.source.names]))
    (kept,) = np.nonzero(ok)
    return kept, values[kept].T, J[kept].transpose(1, 2, 0)


def _images(quotient: "SmoothMap | numeric.PointMap", env, samples: int):
    """Push the samples of ``env`` through a quotient: the kept sample
    indices (see :func:`_walk`), their images wrapped into the target chart
    as an env on it, and the Jacobians stacked as (tgt, src, kept)."""
    kept, values, J = _walk(quotient, env, samples)
    images = numeric.wrap_point(quotient.target, values.T)
    return kept, dict(zip(quotient.target.names, images.T)), J


def _witness(domain: CoordinateDomain, env, i: int) -> dict[str, float]:
    return {n: float(env[n][i]) for n in domain.names}


def _off_span(J: np.ndarray, fields: np.ndarray) -> tuple[float, ...]:
    """Per field (rows, fields, samples), the worst part off the column span of
    J (rows, cols, samples), scaled by 1/max(1, max|v|) per sample: the
    residual of least squares cut by gelsd's own rule, ``RANK_RTOL``."""
    U, s, _ = np.linalg.svd(np.moveaxis(J, -1, 0), full_matrices=False)
    span = U * (np.arange(s.shape[-1]) < numeric.count_significant(s)[:, None])[:, None, :]
    V = np.moveaxis(fields, -1, 0)
    off = np.max(np.abs(V - span @ (np.swapaxes(span, 1, 2) @ V)), axis=1)
    return tuple(map(float, np.max(off / np.maximum(1.0, np.max(np.abs(V), axis=1)), axis=0)))


def verify_strong_reducibility(
    data: ReducibleData, samples: int, seed: int, margin: float, tol: float, pullback_tol: float
) -> StrongReducibilityReport:
    """Certify a reducible datum at ``samples`` points drawn from ``seed``,
    each linear interval of the chart shrunk by the fraction ``margin``: the
    fields' tangency is held to ``tol``, the reduced forms' pullbacks to
    ``pullback_tol``.

    The restrictions C*a of the ambient forms to the submanifold are taken
    at the samples, never built as expressions: the ambient Lee form,
    potential, its exterior derivative and two-form are evaluated at the
    unwrapped images C(x) and pulled back through the sampled Jacobian DC,
    as DCᵀ(a∘C) and DCᵀ(a∘C)DC.  Since d commutes with pullback, C*dα =
    d C*α.  The same Jacobians decide the tangency of the structure fields.

    Flow-defined quotients may lose samples to chart escapes; escaped samples
    are skipped, and fewer than ``MIN_SURVIVAL * samples`` survivors raise
    :class:`ReductionError`.  A rank jump in the candidate distribution
    raises :class:`NonConstantRankError` with two witness points.
    """
    amb = data.ambient
    C = data.submanifold
    cdom = C.source

    env = cdom.sample_points(samples, seed, margin)
    values, J, _ = sx.jets(C.components, env)
    images = dict(zip(amb.domain.names, values))

    # tangency of the structure fields along the submanifold
    fields = sx.evaluate_all(amb.b_field.components + amb.anti_lee.components, images)
    b_tan, e_tan = _off_span(J, np.reshape(fields, (2, amb.domain.dim, samples)).transpose(1, 0, 2))

    # candidate foliation distribution: common kernel of the restricted Lee
    # form, potential, and potential derivative
    lee_rows, alpha_rows, dalpha_tensor, phi_tensor = (
        forms.sampled_pullback(a, images, J) for a in (amb.lee, amb.alpha, ext_d(amb.alpha), amb.phi)
    )

    systems = np.concatenate([lee_rows[None], alpha_rows[None], dalpha_tensor]).transpose(2, 0, 1)
    kernels, dist_ranks = numeric.kernel_bases(systems, VERIFY_RANK_RTOL)
    phi_ranks = cdom.dim - numeric.numerical_rank(np.moveaxis(phi_tensor, -1, 0), VERIFY_RANK_RTOL)
    lo, hi = int(np.argmin(dist_ranks)), int(np.argmax(dist_ranks))
    if dist_ranks[lo] != dist_ranks[hi]:
        raise NonConstantRankError(
            f"distribution rank of {data.name!r} jumps from {dist_ranks[lo]} to {dist_ranks[hi]}",
            ((_witness(cdom, env, lo), int(dist_ranks[lo])), (_witness(cdom, env, hi), int(dist_ranks[hi]))),
        )
    distribution_rank = int(dist_ranks[0])
    two_form_kernel_rank = int(phi_ranks.min())
    ranks_agree = bool(np.all(phi_ranks == distribution_rank))

    kept, q_env, Jq = _images(data.quotient, env, samples)
    used, skipped = len(kept), samples - len(kept)
    if used < MIN_SURVIVAL * samples:
        raise ReductionError(
            f"only {used}/{samples} quotient samples of {data.name!r} stayed inside the chart"
        )
    q_kernels, q_dims = numeric.kernel_bases(np.moveaxis(Jq, -1, 0), VERIFY_RANK_RTOL)
    gaps = numeric.subspace_gaps(kernels[kept], dist_ranks[kept], q_kernels, q_dims)
    gap = float(np.max(gaps, initial=0.0))
    # the restricted forms were evaluated at every sample above; keep the survivors
    kept_env = {n: v[kept] for n, v in env.items()}
    pullback_checks = [
        (label, sx.is_zero([forms.sampled_pullback(form, q_env, Jq) - restricted[..., kept]], kept_env, pullback_tol))
        for label, form, restricted in (
            ("alpha", data.reduced.alpha, alpha_rows),
            ("lee", data.reduced.lee, lee_rows),
            ("phi", data.reduced.phi, phi_tensor),
        )
    ]
    pullback_residuals = tuple((label, check.max_residual) for label, check in pullback_checks)
    passed = (
        b_tan <= tol
        and e_tan <= tol
        and gap <= GAP_TOL
        and all(check.passed for _, check in pullback_checks)
    )
    return StrongReducibilityReport(
        data.name, b_tan, e_tan, distribution_rank, two_form_kernel_rank, ranks_agree,
        gap, pullback_residuals, used, skipped, tol, pullback_tol, GAP_TOL, passed,
    )


# ---------------------------------------------------------------------------
# declared Lee-form decompositions


@dataclass(frozen=True)
class DecompositionPiece:
    """One integral-class summand of a Lee form: weight, one-form, and a
    circle-valued potential whose differential is the one-form."""

    weight: float
    omega: DifferentialForm
    tau: sx.Expr


@dataclass(frozen=True)
class LeeDecomposition:
    """Declared splitting lee = d(f0) + sum_j weight_j * piece_j.

    ``loops`` are closed curves used to certify that each piece has integer
    periods.  The declaration is user-supplied and machine-certified.
    """

    f0: sx.Expr
    pieces: tuple[DecompositionPiece, ...]
    loops: tuple[SmoothMap, ...] = ()


@dataclass(frozen=True)
class DecompositionReport:
    sum_residual: float
    piece_residuals: tuple[float, ...]
    period_offsets: tuple[float, ...]
    passed: bool


def certify_decomposition(
    chart: StructureChart,
    decomp: LeeDecomposition,
    samples: int = 200,
    tol: float = EXACT_TOL,
    seed: int = 0,
) -> DecompositionReport:
    """Certify a declared Lee-form decomposition on a chart.

    Checks that each piece is the differential of its circle-valued
    potential, that the weighted pieces plus d(f0) reassemble the chart's Lee
    form, and that every piece has integer periods over the declared loops.
    Raises :class:`DecompositionError` on any failure.
    """
    dom = chart.domain
    piece_residuals = []
    for j, piece in enumerate(decomp.pieces):
        if piece.omega.domain != dom:
            raise DecompositionError(f"piece {j} lives on {piece.omega.domain.name!r}, not {dom.name!r}")
        env = dom.sample_points(samples, seed + j)
        tau, omega = forms.sample_jets([function_form(dom, piece.tau), piece.omega], env)
        check = sx.is_zero(forms.sampled_sum(forms.sampled_d(tau), omega, -1).values.values(), env, tol)
        piece_residuals.append(check.max_residual)
        if not check.passed:
            raise DecompositionError(
                f"piece {j}: potential differential misses the declared one-form "
                f"(residual {check.max_residual:.3e})"
            )
    env = dom.sample_points(samples, seed)
    f0, lee, *pieces = forms.sample_jets(
        [function_form(dom, decomp.f0), chart.lee]
        + [piece.omega.scaled(sx.Const(piece.weight)) for piece in decomp.pieces],
        env,
    )
    total = forms.sampled_d(f0)
    for piece in pieces:
        total = forms.sampled_sum(total, piece)
    sum_check = sx.is_zero(forms.sampled_sum(total, lee, -1).values.values(), env, tol)
    if not sum_check.passed:
        raise DecompositionError(
            f"declared pieces do not reassemble the Lee form (residual {sum_check.max_residual:.3e})"
        )
    offsets = []
    for loop in decomp.loops:
        for j, piece in enumerate(decomp.pieces):
            p = twisted.period(piece.omega, loop)
            off = abs(p - round(p))
            offsets.append(off)
            if off > INTEGER_PERIOD_TOL:
                raise DecompositionError(
                    f"piece {j} has non-integer period {p:.6f} over loop {loop.source.name!r}"
                )
    return DecompositionReport(sum_check.max_residual, tuple(piece_residuals), tuple(offsets), True)


# ---------------------------------------------------------------------------
# shared chain helpers


def _lift_form(a: DifferentialForm, new_dom: CoordinateDomain) -> DifferentialForm:
    """Reinterpret a form on a larger domain containing the same coordinate names."""
    old_names = a.domain.names
    remap = {i: new_dom.index(n) for i, n in enumerate(old_names)}
    coeffs = {tuple(remap[i] for i in idx): c for idx, c in a.coeffs.items()}
    return DifferentialForm(new_dom, a.degree, coeffs)


def _require_fresh(dom: CoordinateDomain, names: Sequence[str], stage: str) -> None:
    clashes = sorted(set(names) & set(dom.names))
    if clashes:
        raise ReductionError(
            f"{stage}: coordinate names {clashes} already exist on {dom.name!r}; rename the chart"
        )


def _single_chart_structure(name: str, chart: StructureChart, **metadata) -> models.LcsStructure:
    return models.LcsStructure(name, models.FIRST_KIND, (chart,), metadata=dict(metadata))


@dataclass(frozen=True)
class StepResult:
    """Outcome of one chain stage.

    ``data``/``report`` describe how the stage reduces back to the previous
    one (absent for the shear stage, which is an isomorphism rather than a
    reduction).  ``extras`` holds named auxiliary residuals.
    """

    name: str
    chart: StructureChart
    structure: models.LcsStructure
    data: ReducibleData | None
    report: StrongReducibilityReport | None
    first_kind: models.FirstKindReport
    extras: tuple[tuple[str, float], ...]
    passed: bool


# ---------------------------------------------------------------------------
# stage 1: cotangent-torus extension


def build_step1(chart: StructureChart, decomp: LeeDecomposition, settings: ChainSettings) -> StepResult:
    """Extend a chart by one torus/radius pair per decomposition piece.

    With no pieces the stage is trivial: the chart itself, reduced along the
    identity.  Otherwise new angular coordinates ``w<j>`` and radii ``r<j>``
    are adjoined; the extended potential gains ``r_j`` times the defect of
    ``d w_j`` against the piece, the Lee form becomes exact-part plus the new
    angle differentials, and both structure fields acquire angle components
    fed by the pairing of the old fields with the pieces.  The submanifold
    pins each angle to the piece's potential; reducing it along the forgetful
    projection recovers the original chart.
    """
    samples, tol, seed = settings.samples, settings.tol, settings.seed
    dec_report = certify_decomposition(chart, decomp, samples, EXACT_TOL, seed)
    k = len(decomp.pieces)
    dom = chart.domain

    if k == 0:
        m1_chart = chart
        sub = identity_map(dom)
        quotient = identity_map(dom)
    else:
        w_names = [f"w{j+1}" for j in range(k)]
        r_names = [f"r{j+1}" for j in range(k)]
        _require_fresh(dom, w_names + r_names, "cotangent-torus extension")
        coords = tuple(dom.coords) + tuple(Coordinate(n, ANGULAR) for n in w_names) + tuple(
            Coordinate(n, LINEAR, -1.0, 1.0) for n in r_names
        )
        m1_dom = CoordinateDomain(f"{dom.name}_ext{k}", coords)

        alpha1 = _lift_form(chart.alpha, m1_dom)
        lee1 = ext_d(function_form(m1_dom, decomp.f0))
        b_extra: list[sx.Expr] = []
        e_extra: list[sx.Expr] = []
        for j, piece in enumerate(decomp.pieces):
            mu_j = sx.Const(piece.weight)
            defect = m1_dom.one_form(w_names[j]) - _lift_form(piece.omega, m1_dom)
            alpha1 = alpha1 + defect.scaled(sx.mul(mu_j, sx.var(r_names[j])))
            lee1 = lee1 + m1_dom.one_form(w_names[j]).scaled(mu_j)
            b_extra.append(interior(chart.b_field, piece.omega).coefficient(()))
            e_extra.append(interior(chart.anti_lee, piece.omega).coefficient(()))
        phi1 = d_twisted(lee1, alpha1)
        zero = [sx.ZERO] * k
        b1 = VectorField(m1_dom, tuple(chart.b_field.components) + tuple(b_extra) + tuple(zero))
        e1 = VectorField(m1_dom, tuple(chart.anti_lee.components) + tuple(e_extra) + tuple(zero))
        m1_chart = StructureChart(
            m1_dom, phi1, lee1, alpha1, b1, e1, name=f"{chart.name}_ext{k}"
        )

        c_dom = CoordinateDomain(
            f"{dom.name}_section{k}",
            tuple(dom.coords) + tuple(Coordinate(n, LINEAR, -1.0, 1.0) for n in r_names),
        )
        comps = [sx.var(n) for n in dom.names]
        comps += [piece.tau for piece in decomp.pieces]
        comps += [sx.var(n) for n in r_names]
        sub = SmoothMap(c_dom, m1_dom, tuple(comps))
        quotient = SmoothMap(c_dom, dom, tuple(sx.var(n) for n in dom.names))

    data = ReducibleData(f"{chart.name}:stage1", m1_chart, sub, quotient, chart)
    report = verify_strong_reducibility(
        data, settings.verify_samples, seed, SECTION_MARGIN, tol=tol, pullback_tol=tol
    )
    structure = _single_chart_structure(m1_chart.name, m1_chart, stage=1, pieces=k)
    first_kind = models.validate_first_kind(structure, samples=min(samples, FIRST_KIND_CAP), tol=tol, seed=seed)
    extras = (
        ("decomposition_sum", dec_report.sum_residual),
        ("decomposition_pieces", max(dec_report.piece_residuals, default=0.0)),
    )
    return StepResult(
        "cotangent_torus_extension", m1_chart, structure, data, report, first_kind, extras,
        report.passed and first_kind.passed,
    )


# ---------------------------------------------------------------------------
# stage 2: jet-space extension with flow quotient


class FlowQuotient(numeric.PointMap):
    """Quotient of the jet-stage graph: flow the base point by the first
    field for the first slab coordinate, then by the second field for the
    second, with Jacobians assembled from the variational flows."""

    def __init__(self, source: CoordinateDomain, base_chart: StructureChart):
        self.source = source
        self.target = base_chart.domain
        self._b = base_chart.b_field
        self._e = base_chart.anti_lee

    def __call__(self, y: np.ndarray):
        y = np.asarray(y, dtype=float)
        s, u, x = y[:, 0], y[:, 1], y[:, 2:]
        kept, (mid, J_mid), (end, J_end) = _chained_flows(self._b, x, s, self._e, u)
        d = x.shape[1]
        value, J = np.full((len(y), d), np.nan), np.full((len(y), d, d + 2), np.nan)
        value[kept] = end
        J[kept, :, 0] = np.matmul(J_end, self._b.value_at(mid)[:, :, None])[:, :, 0]
        J[kept, :, 1] = self._e.value_at(end)
        J[kept, :, 2:] = J_end @ J_mid
        return value, J, np.isin(np.arange(len(y)), kept)


def _chained_flows(first_field: VectorField, x: np.ndarray, first_time: np.ndarray,
                   second_field: VectorField, second_time: np.ndarray):
    """Flow the points ``x`` by ``first_field`` for ``first_time``, then the
    rows still inside the chart by ``second_field`` for ``second_time``.

    Returns the indices of the rows that stayed inside through both flows,
    and on those rows the (points, Jacobians) after the first flow and after
    the second.
    """
    first = numeric.flow(first_field, x, first_time, with_jacobian=True)
    (inside,) = np.nonzero(~first.escaped)
    second = numeric.flow(second_field, first.point[inside], second_time[inside], with_jacobian=True)
    stayed = ~second.escaped
    kept = inside[stayed]
    return kept, (first.point[kept], first.jacobian[kept]), (second.point[stayed], second.jacobian[stayed])


def _fiber_bound(alpha: DifferentialForm, samples: int, seed: int) -> float:
    env = alpha.domain.sample_points(samples, seed)
    worst = 0.0
    for vals in forms.evaluate_form(alpha, env).values():
        worst = max(worst, float(np.max(np.abs(vals))))
    return max(1.0, FIBER_FACTOR * worst)


def build_step2(m1_chart: StructureChart, settings: ChainSettings) -> StepResult:
    """Extend a first-kind chart to the slab-times-jet space above it.

    New coordinates: a slab pair ``s, u`` and one momentum ``p_<name>`` per
    base coordinate.  The potential is ``du`` minus the tautological form,
    the Lee form ``ds`` plus the lifted one, and the structure fields are the
    slab translations.  The graph submanifold carries ``(s, u)`` with the
    momenta pinned to minus the base potential; its quotient composes the
    time-``s`` flow of the base first field with the time-``u`` flow of the
    base second field, so the certification is numeric with escape-aware
    sampling inside the ``(-window, window)`` slab.
    """
    samples, tol, seed, window = settings.samples, settings.tol, settings.seed, settings.window
    m1_dom = m1_chart.domain
    p_names = [f"p_{n}" for n in m1_dom.names]
    _require_fresh(m1_dom, ["s", "u"] + p_names, "jet-space extension")
    p_bound = _fiber_bound(m1_chart.alpha, max(samples, FIBER_FLOOR), seed)

    coords = (Coordinate("s"), Coordinate("u"))
    coords += tuple(m1_dom.coords)
    coords += tuple(Coordinate(n, LINEAR, -p_bound, p_bound) for n in p_names)
    m2_dom = CoordinateDomain(f"{m1_dom.name}_jet", coords)

    taut = zero_form(m2_dom, 1)
    for base, pname in zip(m1_dom.names, p_names):
        taut = taut + m2_dom.one_form(base).scaled(sx.var(pname))
    alpha2 = m2_dom.one_form("u") - taut
    lee2 = m2_dom.one_form("s") + _lift_form(m1_chart.lee, m2_dom)
    phi2 = d_twisted(lee2, alpha2)
    b2 = basis_vector(m2_dom, "s")
    e2 = -basis_vector(m2_dom, "u")
    m2_chart = StructureChart(m2_dom, phi2, lee2, alpha2, b2, e2, name=f"{m1_chart.name}_jet")

    c_coords = (Coordinate("s", LINEAR, -window, window), Coordinate("u", LINEAR, -window, window))
    c_coords += tuple(m1_dom.coords)
    c_dom = CoordinateDomain(f"{m1_dom.name}_graph", c_coords)
    comps = [sx.var("s"), sx.neg(sx.var("u"))]
    comps += [sx.var(n) for n in m1_dom.names]
    comps += [sx.neg(m1_chart.alpha.coefficient((i,))) for i in range(m1_dom.dim)]
    sub = SmoothMap(c_dom, m2_dom, tuple(comps))
    quotient = FlowQuotient(c_dom, m1_chart)

    data = ReducibleData(f"{m1_chart.name}:stage2", m2_chart, sub, quotient, m1_chart)
    report = verify_strong_reducibility(
        data, settings.flow_samples, seed, margin=settings.margin, tol=tol, pullback_tol=settings.flow_tol
    )
    structure = _single_chart_structure(m2_chart.name, m2_chart, stage=2)
    first_kind = models.validate_first_kind(structure, samples=min(samples, FIRST_KIND_CAP), tol=tol, seed=seed)
    extras = (("momentum_bound", p_bound),)
    return StepResult(
        "jet_space_extension", m2_chart, structure, data, report, first_kind, extras,
        report.passed and first_kind.passed,
    )


# ---------------------------------------------------------------------------
# stage 3: shear normalization


def build_step3(m2_chart: StructureChart, decomp: LeeDecomposition, settings: ChainSettings) -> StepResult:
    """Normalize the Lee form by the shear absorbing its exact part.

    The shear subtracts ``f0`` from the slab coordinate ``s``; it is
    unipotent (Jacobian determinant one), fixes the potential, and turns the
    Lee form into ``ds`` plus the weighted angle differentials.  No
    reduction happens here — the certification is that the shear pulls the
    stage-two forms back to the normalized ones, checked at one sample set
    through the shear's sampled Jacobians, which also give its determinant.
    """
    m2_dom = m2_chart.domain
    f0 = decomp.f0
    shear = SmoothMap(
        m2_dom,
        m2_dom,
        tuple(
            sx.add(sx.var(n), sx.neg(f0)) if n == "s" else sx.var(n) for n in m2_dom.names
        ),
    )

    lee3 = m2_dom.one_form("s")
    for j, piece in enumerate(decomp.pieces):
        lee3 = lee3 + m2_dom.one_form(f"w{j+1}").scaled(sx.Const(piece.weight))
    alpha3 = m2_chart.alpha
    phi3 = d_twisted(lee3, alpha3)

    # one jets walk of the shear gives its images and Jacobians DS; each
    # stage-two form is pulled back through them at the same points
    env = m2_dom.sample_points(settings.samples, settings.seed)
    values, DS, _ = sx.jets(shear.components, env)
    images = dict(zip(m2_dom.names, values))
    checks = {}
    for label, form, normalized in (
        ("alpha", m2_chart.alpha, alpha3), ("lee", m2_chart.lee, lee3), ("phi", m2_chart.phi, phi3)
    ):
        residual = forms.sampled_pullback(form, images, DS) - forms.form_values(normalized, env)
        checks[label] = check = forms.values_check(residual, env, EXACT_TOL)
        if not check.passed:
            raise ReductionError(
                f"shear fails to normalize {label} (residual {check.max_residual:.3e})"
            )
    det_offset = float(np.max(np.abs(np.linalg.det(np.moveaxis(DS, 2, 0)) - 1.0)))
    if det_offset > EXACT_TOL * SHEAR_DET_FACTOR:
        raise ReductionError(f"shear is not unipotent (determinant offset {det_offset:.3e})")

    m3_chart = StructureChart(
        m2_dom, phi3, lee3, alpha3, m2_chart.b_field, m2_chart.anti_lee,
        name=f"{m2_chart.name}_norm",
    )
    structure = _single_chart_structure(m3_chart.name, m3_chart, stage=3)
    first_kind = models.validate_first_kind(
        structure, samples=min(settings.samples, FIRST_KIND_CAP), tol=EXACT_TOL, seed=settings.seed
    )
    extras = tuple((f"shear_{label}", c.max_residual) for label, c in checks.items())
    extras += (("shear_determinant", det_offset),)
    return StepResult(
        "shear_normalization", m3_chart, structure, None, None, first_kind, extras,
        first_kind.passed,
    )


# ---------------------------------------------------------------------------
# stage 4: transplant into the universal cotangent model


def universal_base_domain(k: int, N: int) -> CoordinateDomain:
    """Base of the universal model: k angles and N Euclidean coordinates."""
    coords = tuple(Coordinate(f"th{j+1}", ANGULAR) for j in range(k))
    coords += tuple(Coordinate(f"t{i+1}") for i in range(N))
    return CoordinateDomain(f"torus{k}_euclid{N}", coords)


def build_step4(
    m3_chart: StructureChart,
    m1_chart: StructureChart,
    transplant: SmoothMap,
    mu: Sequence[float],
    settings: ChainSettings,
) -> StepResult:
    """Realize the normalized stage inside the universal cotangent model.

    ``transplant`` embeds the stage-one space into the universal base (the
    angles must map to the stage-one angles so the Lee forms match); the
    submanifold is its conormal-style lift with free momenta, and the
    quotient sends momenta to their pairing with the transplant's
    differential.  Reducing recovers the normalized stage-three chart.
    """
    mu = tuple(float(m) for m in mu)
    k = len(mu)
    m1_dom = m1_chart.domain
    if transplant.source != m1_dom:
        raise ReductionError("transplant must be defined on the stage-one domain")
    base_names = transplant.target.names
    expected = tuple(f"th{j+1}" for j in range(k))
    if base_names[: len(expected)] != expected:
        raise ReductionError(
            f"transplant target must start with angles {expected}, got {base_names[:len(expected)]}"
        )
    t_names = base_names[len(expected):]
    N = len(t_names)
    if tuple(f"t{i+1}" for i in range(N)) != t_names:
        raise ReductionError("transplant target must list Euclidean coordinates t1..tN after the angles")
    dim_m = m1_dom.dim - 2 * k
    if N < 2 * dim_m + k:
        raise ReductionError(
            f"universal base needs at least {2 * dim_m + k} Euclidean coordinates, got {N}"
        )
    seed, verify_samples = settings.seed, min(settings.verify_samples, TRANSPLANT_VERIFY_CAP)
    env = m1_dom.sample_points(min(verify_samples, TRANSPLANT_RANK_CAP), seed)
    rank = numeric.jacobian_min_rank(sx.jets(transplant.components, env)[1])
    if rank != m1_dom.dim:
        raise ReductionError(
            f"transplant rank {rank} < stage-one dimension {m1_dom.dim}; not an embedding"
        )

    universal = models.model_reduction_universal(k, N, mu)
    u_chart = universal.charts[0]
    u_dom = u_chart.domain

    q_names = [f"q_th{j+1}" for j in range(k)] + [f"q_t{i+1}" for i in range(N)]
    _require_fresh(m1_dom, ["s", "u"] + q_names, "universal transplant")
    c_coords = (Coordinate("s"), Coordinate("u"))
    c_coords += tuple(m1_dom.coords)
    c_coords += tuple(Coordinate(n, LINEAR, -1.0, 1.0) for n in q_names)
    c_dom = CoordinateDomain(f"{m1_dom.name}_conormal", c_coords)

    comps = [sx.var("s"), sx.var("u")]
    comps += [transplant.component(n) for n in base_names]
    comps += [sx.var(n) for n in q_names]
    sub = SmoothMap(c_dom, u_dom, tuple(comps))

    m3_dom = m3_chart.domain
    q_comps = []
    for name in m3_dom.names:
        if name.startswith("p_"):
            base = name[2:]
            terms = [
                sx.mul(sx.var(qn), sx.diff(transplant.component(bn), base))
                for qn, bn in zip(q_names, base_names)
            ]
            q_comps.append(sx.add(*terms) if terms else sx.ZERO)
        else:
            q_comps.append(sx.var(name))
    quotient = SmoothMap(c_dom, m3_dom, tuple(q_comps))

    data = ReducibleData(f"{m3_chart.name}:stage4", u_chart, sub, quotient, m3_chart)
    report = verify_strong_reducibility(
        data, verify_samples, seed, SECTION_MARGIN, tol=settings.tol, pullback_tol=settings.tol
    )
    first_kind = models.validate_first_kind(
        universal, samples=min(settings.samples, UNIVERSAL_FIRST_KIND_CAP), tol=EXACT_TOL, seed=seed
    )
    extras = (("transplant_rank", float(rank)),)
    return StepResult(
        "universal_transplant", u_chart, universal, data, report, first_kind, extras,
        report.passed and first_kind.passed,
    )


# ---------------------------------------------------------------------------
# two-stage versus one-stage agreement


class _BackwardGraph(numeric.PointMap):
    """Parametrize the pulled-back stage-two graph over the stage-one
    section: flow the section point backward by the second field then the
    first, producing the stage-two graph point over the same slab values."""

    def __init__(self, source: CoordinateDomain, section: SmoothMap, base_chart: StructureChart,
                 graph_dom: CoordinateDomain):
        self.source = source
        self.target = graph_dom
        self._section = section
        self._b = base_chart.b_field
        self._e = base_chart.anti_lee

    def __call__(self, y: np.ndarray):
        y = np.asarray(y, dtype=float)
        s, u, params = y[:, 0], y[:, 1], y[:, 2:]
        names = self._section.source.names
        z0, J0, _ = sx.jets(self._section.components, dict(zip(names, params.T)))
        kept, (mid, J_mid), (x, J_end) = _chained_flows(self._e, z0.T, -u, self._b, -s)
        d = x.shape[1]
        value, J = np.full((len(y), d + 2), np.nan), np.full((len(y), d + 2, y.shape[1]), np.nan)
        value[kept] = np.column_stack([s[kept], u[kept], x])
        J[kept] = 0.0
        J[kept, 0, 0] = 1.0
        J[kept, 1, 1] = 1.0
        J[kept, 2:, 0] = -self._b.value_at(x)
        J[kept, 2:, 1] = np.matmul(J_end, -self._e.value_at(mid)[:, :, None])[:, :, 0]
        J[kept, 2:, 2:] = J_end @ J_mid @ np.moveaxis(J0, -1, 0)[kept]
        return value, J, np.isin(np.arange(len(y)), kept)


def concatenation_residual(
    step1: StepResult,
    step2: StepResult,
    base_chart: StructureChart,
    settings: ChainSettings,
) -> tuple[sx.ZeroCheck, int, int]:
    """Compare two-stage reduction with the direct one-stage reduction.

    Pull the stage-two graph back over the stage-one section: the combined
    submanifold carries slab coordinates and the section parameters, its
    direct quotient is the plain projection onto the original chart, and the
    residual is the worst mismatch between the original forms pulled through
    that projection and the stage-two forms pulled through the combined
    embedding, judged at ``concat_tol``.  Samples whose flows leave the chart
    are skipped; returns ``(check, samples used, samples skipped)``.
    """
    if step2.data is None or step1.data is None:
        raise ReductionError("concatenation needs the reduction data of both stages")
    section = step1.data.submanifold
    graph_dom = step2.data.submanifold.source
    m1_chart = step1.chart
    m2_chart = step2.data.ambient

    s_coord = graph_dom.coordinate("s")
    coords = (s_coord, graph_dom.coordinate("u")) + tuple(section.source.coords)
    c_dom = CoordinateDomain(f"{section.source.name}_combined", coords)
    to_graph = _BackwardGraph(c_dom, section, m1_chart, graph_dom)

    base_dom = base_chart.domain
    projection = SmoothMap(c_dom, base_dom, tuple(sx.var(n) for n in base_dom.names))
    expected = (
        (base_chart.alpha, m2_chart.alpha),
        (base_chart.lee, m2_chart.lee),
        (base_chart.phi, m2_chart.phi),
    )

    samples = settings.concat_samples
    env = c_dom.sample_points(samples, settings.seed, settings.margin)
    kept, graph, J_graph = _walk(to_graph, env, samples)
    used = len(kept)
    if used < MIN_SURVIVAL * samples:
        raise ReductionError(f"only {used}/{samples} combined samples stayed inside the chart")
    # the stage-two submanifold walked at the unwrapped graph points: DF = Dsub·Dgraph
    _, image_env, J_sub = _images(step2.data.submanifold, dict(zip(graph_dom.names, graph)), used)
    J = np.moveaxis(np.moveaxis(J_sub, -1, 0) @ np.moveaxis(J_graph, -1, 0), 0, -1)
    kept_env = {n: env[n][kept] for n in c_dom.names}
    _, p_env, Jp = _images(projection, kept_env, used)
    residuals = [
        forms.sampled_pullback(m2_form, image_env, J) - forms.sampled_pullback(base_form, p_env, Jp)
        for base_form, m2_form in expected
    ]
    check = sx.is_zero(residuals, kept_env, settings.concat_tol)
    return check, used, samples - used


# ---------------------------------------------------------------------------
# the full chain


@dataclass(frozen=True)
class ChainResult:
    """Certified four-stage chain starting from one chart.

    ``concatenation_samples_used``/``_skipped`` count the two-stage check's
    samples that stayed inside the chart and those skipped as escapes.
    """

    steps: tuple[StepResult, ...]
    concatenation: float
    concatenation_tol: float
    concatenation_passed: bool
    concatenation_samples_used: int
    concatenation_samples_skipped: int
    passed: bool


def run_reduction_chain(
    chart: StructureChart,
    decomp: LeeDecomposition,
    transplant_factory: Callable[[StructureChart, StructureChart], SmoothMap],
    settings: ChainSettings,
) -> ChainResult:
    """Run and certify all four stages starting from a first-kind chart.

    ``transplant_factory(m1_chart, chart)`` must return the embedding of the
    stage-one space into the universal base.  Each stage is certified as a
    reducible datum recovering the previous one; the result also carries the
    two-stage/one-stage agreement residual.
    """
    step1 = build_step1(chart, decomp, settings)
    step2 = build_step2(step1.chart, settings)
    step3 = build_step3(step2.chart, decomp, settings)
    transplant = transplant_factory(step1.chart, chart)
    mu = tuple(piece.weight for piece in decomp.pieces)
    step4 = build_step4(step3.chart, step1.chart, transplant, mu, settings)
    concat, concat_used, concat_skipped = concatenation_residual(step1, step2, chart, settings)
    steps = (step1, step2, step3, step4)
    passed = all(s.passed for s in steps) and concat.passed
    return ChainResult(
        steps, concat.max_residual, settings.concat_tol, concat.passed, concat_used, concat_skipped, passed
    )


# ---------------------------------------------------------------------------
# ready-made chain inputs


def plane_exact_chart() -> StructureChart:
    """Two-dimensional exact chart: potential db, Lee form da, fields the
    coordinate translations.  Every flow is affine, so the chain over it is
    escape-free and tight."""
    dom = forms.linear_domain("plane_slab", ["a", "b"])
    alpha = dom.one_form("b")
    lee = dom.one_form("a")
    phi = d_twisted(lee, alpha)
    return StructureChart(
        dom, phi, lee, alpha,
        basis_vector(dom, "a"), -basis_vector(dom, "b"),
        name="plane_slab",
    )


def plane_chain_input() -> tuple[StructureChart, LeeDecomposition, Callable[[StructureChart, StructureChart], SmoothMap]]:
    """Chain input for the exact plane chart (no torus pieces)."""
    chart = plane_exact_chart()
    decomp = LeeDecomposition(chart.domain.var("a"), ())

    def factory(m1_chart: StructureChart, _chart: StructureChart) -> SmoothMap:
        base = universal_base_domain(0, 4)
        comps = (sx.var("a"), sx.var("b"), sx.ZERO, sx.ZERO)
        return SmoothMap(m1_chart.domain, base, comps)

    return chart, decomp, factory


def sphere_circle_chain_input(
    structure: models.LcsStructure,
    chart_index: int = 0,
    f0: sx.Expr | None = None,
) -> tuple[StructureChart, LeeDecomposition, Callable[[StructureChart, StructureChart], SmoothMap]]:
    """Chain input for one chart of a sphere-times-circle model.

    The Lee form splits as ``d(f0)`` plus a single unit-weight piece with
    circle-valued potential ``theta - f0``; the transplant sends the sphere
    part through its ambient parametrization, the circle through its
    standard planar embedding, and keeps the extension radius.
    """
    chart = structure.charts[chart_index]
    if chart.parametrization is None:
        raise ReductionError("sphere-times-circle charts need their ambient parametrization")
    dom = chart.domain
    f0 = sx.ZERO if f0 is None else f0
    piece = chart.lee - ext_d(function_form(dom, f0))
    tau = sx.add(dom.var("theta"), sx.neg(f0))
    loops = models.structure_lee_loops(
        models.LcsStructure(structure.name, structure.kind, (chart,))
    )
    decomp = LeeDecomposition(f0, (DecompositionPiece(1.0, piece, tau),), tuple(loops))

    sphere_names = [n for n in chart.parametrization.target.names if n != "theta"]
    dim_m = dom.dim
    N = 2 * dim_m + 1

    def factory(m1_chart: StructureChart, base_chart: StructureChart) -> SmoothMap:
        base = universal_base_domain(1, N)
        two_pi_theta = sx.mul(sx.Const(2.0 * np.pi), sx.var("theta"))
        comps = [sx.var("w1")]
        comps += [base_chart.parametrization.component(n) for n in sphere_names]
        comps += [sx.cos(two_pi_theta), sx.sin(two_pi_theta)]
        comps += [sx.ZERO] * (2 * dim_m - len(sphere_names) - 2)
        comps += [sx.var("r1")]
        return SmoothMap(m1_chart.domain, base, tuple(comps))

    return chart, decomp, factory
