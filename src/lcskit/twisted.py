"""Twisted differential calculus and conformal classification.

Core objects: for a closed one-form ``omega`` (the Lee form), the twisted
differential ``d_omega a = d a - omega ^ a`` squares to zero exactly when
``omega`` is closed; the Lee form of a nondegenerate two-form can be
recovered from ``d phi = omega ^ phi`` (pointwise, by one stacked SVD of the
wedge maps at all samples, or as constant coefficients on an ansatz basis);
period lattices of Lee forms over loop families are finitely generated
subgroups of the reals; and maps between structures are classified as
strict / conformal / neither by comparing pulled-back Lee forms up to exact
terms (a conformal change by ``e^f`` shifts the Lee form by ``df``).

Periods are integrated by doubling quadrature (a periodic trapezoid rule
on an angular source, composite Gauss–Legendre on an interval) that
accepts an estimate only when the previous level and a shifted copy of the
rule agree with it, and raises at a node cap otherwise.

Lattice bookkeeping uses no LLL-style machinery: pairwise commensurability
is detected through continued-fraction convergents (honouring a large
coefficient bound), and relations among three or more generators through
bounded exhaustive enumeration with a much smaller default bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from . import forms, lazy_import, symexpr as sx
from .forms import (
    ANGULAR,
    DifferentialForm,
    SmoothMap,
    ext_d,
    pullback,
    wedge,
)

np = lazy_import("numpy")  # runs at the first sampled evaluation: d_twisted is symbolic


class TwistedError(Exception):
    """Base class for twisted-calculus errors."""


class NotConformalError(TwistedError):
    """No Lee form reproduces d(phi) within tolerance.

    Attributes:
        residual: best residual achieved.
        point: worst sample point.
    """

    def __init__(self, message: str, residual: float, point=None):
        super().__init__(message)
        self.residual = residual
        self.point = point


class ExtractionRankError(TwistedError):
    """The wedge-with-phi map on one-forms is rank deficient at a sample."""


class LoopError(TwistedError):
    """A supplied loop is not closed in its target domain."""


# ---------------------------------------------------------------------------
# twisted differential


def d_twisted(omega: DifferentialForm, a: DifferentialForm) -> DifferentialForm:
    """Twisted exterior derivative d a - omega ^ a."""
    if omega.degree != 1:
        raise forms.DegreeError("the twisting form must be a one-form")
    forms._check_domains(omega.domain, a.domain)
    return ext_d(a) - wedge(omega, a)


# ---------------------------------------------------------------------------
# Lee form extraction


@dataclass(frozen=True)
class LatticeData:
    """Finitely generated subgroup of the reals spanned by loop periods."""

    periods: tuple[float, ...]
    rank: int
    basis: tuple[float, ...]
    integral: bool
    relation_bound: int

    def contains(self, value: float, tol: float = 1e-8, bound: int = 200) -> bool:
        """Whether ``value`` lies in the span within ``tol`` (bounded search)."""
        return _in_span(value, self.basis, tol, bound)


@dataclass(frozen=True)
class LeeData:
    """Outcome of Lee form extraction.

    ``omega`` is symbolic when an ansatz basis was supplied, otherwise None
    and ``sample_values`` holds the pointwise least-squares solutions (one
    row per sample, columns in coordinate order).
    """

    omega: DifferentialForm | None
    fit_residual: float
    closedness_residual: float | None
    lattice: LatticeData | None = None
    sample_values: np.ndarray | None = None


def _triple_values(three_forms: Sequence[forms.SampledForm], samples: int, triples) -> np.ndarray:
    """Values of sampled three-forms on the coordinate triples: (samples, triples, forms)."""
    out = np.zeros((samples, len(triples), len(three_forms)))
    for j, form in enumerate(three_forms):
        for row, T in enumerate(triples):
            if T in form.values:
                out[..., row, j] = form.values[T]
    return out


def extract_lee(
    phi: DifferentialForm,
    samples: int = 100,
    seed: int = 0,
    ansatz: Sequence[DifferentialForm] | None = None,
    tol: float = 1e-8,
) -> LeeData:
    """Recover the Lee form of a nondegenerate two-form from d(phi) = omega ^ phi.

    Both routes read d(phi) and the wedge maps from one jets walk of phi
    (and the ansatz) through the sampled calculus.  Pointwise route (no
    ansatz): least squares for ``omega`` at each sample; requires the wedge
    map to have full rank there, and the misfit is judged at ``tol``.
    Ansatz route: fit constant coefficients over ``span(ansatz)`` by
    stacked least squares, then certify the identity on fresh samples; the
    closedness residual of the fitted form is reported as well.

    Raises :class:`NotConformalError` when no candidate fits within ``tol``
    and :class:`ExtractionRankError` on wedge-rank deficiency.
    """
    from . import numeric

    if phi.degree != 2:
        raise forms.DegreeError("Lee extraction expects a two-form")
    dim = phi.domain.dim
    if dim < 4:
        raise forms.DegreeError("Lee extraction needs at least four dimensions")
    basis = [] if ansatz is None else list(ansatz)
    env = phi.domain.sample_points(samples, seed)
    triples = list(itertools.combinations(range(dim), 3))
    phi_jets, *basis_jets = forms.sample_jets([phi, *basis], env)
    rhs = _triple_values([forms.sampled_d(phi_jets)], samples, triples)

    if ansatz is None:
        # column j holds dx_j ^ phi; one stacked SVD gives every sample's rank
        # check and least-squares solve
        dx = [forms.SampledForm({(j,): np.ones(samples)}) for j in range(dim)]
        A = _triple_values([forms.sampled_wedge(a, phi_jets.flat) for a in dx], samples, triples)
        U, sv, vt = np.linalg.svd(A, full_matrices=False)
        deficient = np.flatnonzero(numeric.count_significant(sv) < dim)
        if deficient.size:
            raise ExtractionRankError(
                f"wedge map with the two-form is rank deficient at sample {deficient[0]}"
            )
        nu = np.swapaxes(vt, 1, 2) @ (np.swapaxes(U, 1, 2) @ rhs / sv[..., None])
        misfit = sx.is_zero([np.moveaxis(A @ nu - rhs, 0, -1)], env, tol)
        if not misfit.passed:
            raise NotConformalError(
                f"no pointwise Lee form fits d(phi) (residual {misfit.max_residual:.3g} > {tol:g})",
                misfit.max_residual, misfit.worst_point,
            )
        return LeeData(None, misfit.max_residual, None, sample_values=nu[..., 0])

    # ansatz route: constant coefficients on a user-supplied basis, one least
    # squares over all samples
    A = _triple_values([forms.sampled_wedge(b.flat, phi_jets.flat) for b in basis_jets], samples, triples)
    coeffs, *_ = np.linalg.lstsq(A.reshape(rhs.size, -1), rhs.ravel(), rcond=numeric.RANK_RTOL)
    omega = forms.zero_form(phi.domain, 1)
    for c, beta in zip(coeffs, basis):
        omega = omega + beta.scaled(sx.Const(float(c)))
    env = phi.domain.sample_points(samples, seed + 1)
    phi_jets, omega_jets = forms.sample_jets([phi, omega], env)
    fit = forms.sampled_sum(forms.sampled_d(phi_jets), forms.sampled_wedge(omega_jets.flat, phi_jets.flat), -1)
    check = sx.is_zero(fit.values.values(), env, tol)
    if not check.passed:
        raise NotConformalError(
            f"ansatz fit does not reproduce d(phi) (residual {check.max_residual:.3g})",
            check.max_residual, check.worst_point,
        )
    env = phi.domain.sample_points(samples, seed + 2)
    closed = sx.is_zero(forms.sampled_d(forms.sample_jets([omega], env)[0]).values.values(), env, tol)
    return LeeData(omega, check.max_residual, closed.max_residual)


# ---------------------------------------------------------------------------
# periods and lattices


def loop_closure_residual(loop: SmoothMap) -> float:
    """Max endpoint gap of a loop parametrised on [0, 1] (angular-aware)."""
    if loop.source.dim != 1:
        raise LoopError("loops must have a one-dimensional source")
    src = loop.source.coords[0]
    if src.kind == ANGULAR:
        lo, hi = 0.0, 1.0
    else:
        lo, hi = src.lower, src.upper
    ends = sx.evaluate_all(loop.components, {src.name: np.array([lo, hi])})
    worst = 0.0
    for coord, (a, b) in zip(loop.target.coords, ends):
        gap = abs(float(a) - float(b))
        if coord.kind == ANGULAR:
            gap = min(gap % 1.0, 1.0 - gap % 1.0)
        worst = max(worst, gap)
    return worst


PERIOD_MAX_NODES = 1 << 16
"""Node cap of :func:`period`: a rule that has not converged at this many
nodes raises instead of returning."""

_GAUSS_ORDER = 8
_GAUSS_NODES = (
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
)
_GAUSS_WEIGHTS = (
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
)
"""Gauss–Legendre nodes and weights of order 8 on [-1, 1]: those of
``numpy.polynomial.legendre.leggauss(8)`` bit for bit, written out so that no
run loads ``numpy.polynomial``."""
_SHIFT = (math.sqrt(5.0) - 1.0) / 2.0
"""Irrational fraction of the node spacing (of the panel width, on an
interval) by which the guard copy of each quadrature rule is shifted."""


def _period_rule(angular: bool, lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of one quadrature level: the n of the rule, then
    those of its shifted copy.

    Angular: the periodic trapezoid rule on [0, 1), nodes k/n and
    (k + shift)/n.  Interval: Gauss–Legendre of order 8 on n/8 equal panels,
    and on the n/8 + 1 panels cut at lo + (k + shift)·width.
    """
    if angular:
        k = np.arange(n, dtype=float)
        return np.concatenate([k, k + _SHIFT]) / n, np.full(2 * n, 1.0 / n)
    cuts = np.linspace(lo, hi, n // _GAUSS_ORDER + 1)
    shifted = np.concatenate([[lo], cuts[:-1] + _SHIFT * (cuts[1] - cuts[0]), [hi]])
    left = np.concatenate([cuts[:-1], shifted[:-1]])[:, None]
    width = np.concatenate([np.diff(cuts), np.diff(shifted)])[:, None]
    x, w = np.array(_GAUSS_NODES), np.array(_GAUSS_WEIGHTS)
    return (left + width * (x + 1.0) / 2.0).ravel(), (width * w / 2.0).ravel()


def period(
    omega: DifferentialForm,
    loop: SmoothMap,
    quad_tol: float = 1e-11,
    closure_tol: float = 1e-9,
) -> float:
    """Integral of a one-form over a loop, by doubling quadrature.

    The rule is the periodic trapezoid rule on an angular source and
    composite Gauss–Legendre of order 8 on an interval.  Each level
    evaluates the pulled-back coefficient on all its nodes with one
    :func:`symexpr.evaluate` call, starting at 16 nodes and doubling.  An
    estimate is returned once it agrees within
    ``max(quad_tol, quad_tol * |value|)`` both with the previous level's and
    with a copy of its own rule shifted by an irrational fraction of the
    node spacing (panel width).  The shifted copy guards against aliasing:
    an integrand that repeats with the node spacing, such as
    cos(2π·2^16·t), makes a doubling rule agree with itself, but not with
    the shifted copy.  With no such agreement by :data:`PERIOD_MAX_NODES`
    nodes it raises :class:`TwistedError`: an unconverged period is never
    returned.
    """
    if omega.degree != 1:
        raise forms.DegreeError("periods are defined for one-forms")
    gap = loop_closure_residual(loop)
    if gap > closure_tol:
        raise LoopError(f"loop endpoints differ by {gap:.3g} (> {closure_tol:g})")
    pulled = pullback(loop, omega)
    src = loop.source.coords[0]
    angular = src.kind == ANGULAR
    lo, hi = (0.0, 1.0) if angular else (src.lower, src.upper)
    coeff = pulled.coefficient((0,))
    if sx.is_structural_zero(coeff):
        return 0.0
    previous = math.nan
    n = 2 * _GAUSS_ORDER
    while True:
        t, w = _period_rule(angular, lo, hi, n)
        products = sx.evaluate(coeff, {src.name: t}) * w
        value, guard = float(np.sum(products[:n])), float(np.sum(products[n:]))
        step, shift = abs(value - previous), abs(value - guard)
        bound = max(quad_tol, quad_tol * abs(value))
        if step <= bound and shift <= bound:
            return value
        if 2 * n > PERIOD_MAX_NODES:
            raise TwistedError(
                f"period quadrature did not converge in {n} nodes: the estimate {value:.6g} "
                f"moved by {step:.3g} on doubling and by {shift:.3g} on shifting (bound {bound:.3g})"
            )
        previous = value
        n *= 2


def _cf_relation(x: float, y: float, max_coeff: int, tol: float) -> tuple[int, int] | None:
    """Integers (a, b) with a x + b y ~ 0, found via convergents of x/y.

    Acceptance uses a fixed absolute tolerance (scaled only by the period
    magnitudes, never by the coefficient size); with the default bound of
    a million this keeps genuinely irrational ratios — whose best rational
    approximations p/q only close in like 1/q^2 — from being misread as
    rational within the bound.
    """
    if abs(y) < 1e-300:
        return None
    r = x / y
    h_prev, h = 1, int(math.floor(r))
    k_prev, k = 0, 1
    frac = r - math.floor(r)
    scale = max(abs(x), abs(y), 1.0)
    for _ in range(64):
        if abs(k * x - h * y) < tol * scale:
            if abs(h) <= max_coeff and abs(k) <= max_coeff:
                return k, -h
            return None
        if frac < 1e-18:
            break
        q = int(math.floor(1.0 / frac))
        frac = 1.0 / frac - q
        h_prev, h = h, q * h + h_prev
        k_prev, k = k, q * k + k_prev
        if k > max_coeff:
            break
    return None


def _float_gcd(values: Sequence[float], tol: float) -> float:
    """Tolerant Euclidean gcd of commensurable reals."""
    g = 0.0
    for v in values:
        a, b = abs(g), abs(v)
        while b > tol:
            a, b = b, a % b
            if b > tol and b < a * 1e-14:
                break
        g = a if a > tol else b
    return g


def _in_span(value: float, basis: Sequence[float], tol: float, bound: int) -> bool:
    """Bounded test for membership of ``value`` in the integer span of basis.

    For two or more generators the coefficient grid is capped at about
    five million combinations; the effective bound shrinks accordingly.
    """
    if abs(value) <= tol:
        return True
    basis = [b for b in basis if abs(b) > tol]
    if not basis:
        return False
    if len(basis) == 1:
        k = round(value / basis[0])
        return abs(k) <= bound and abs(value - k * basis[0]) <= tol
    r = len(basis)
    eff = min(bound, max(1, int(5e6 ** (1.0 / r) / 2)))
    grids = np.meshgrid(*[np.arange(-eff, eff + 1)] * r, indexing="ij", sparse=True)
    combo = sum(g * b for g, b in zip(grids, basis))
    return bool(np.any(np.abs(combo - value) <= tol))


def lattice_from_periods(
    periods: Sequence[float],
    tol: float = 1e-8,
    max_coeff: int = 10**6,
    relation_bound: int = 40,
) -> LatticeData:
    """Generate the subgroup of the reals spanned by the given periods.

    Pairwise commensurability is decided with continued-fraction
    convergents honouring ``max_coeff``; residual relations among three or
    more pairwise-incommensurable generators are searched exhaustively with
    coefficients bounded by ``relation_bound`` (an intentionally small
    default — raise it per call when needed; no LLL reduction is used).
    """
    ps = [float(p) for p in periods]
    nonzero = [p for p in ps if abs(p) > tol]
    groups: list[list[float]] = []
    for p in nonzero:
        placed = False
        for g in groups:
            if _cf_relation(p, g[0], max_coeff, tol):
                g.append(p)
                placed = True
                break
        if not placed:
            groups.append([p])
    gens = sorted((abs(_float_gcd(g, tol)) for g in groups), reverse=True)
    # cross-group relations (e.g. 1, sqrt2, 1+sqrt2) by bounded enumeration
    if 2 <= len(gens) <= 4:
        changed = True
        while changed and len(gens) >= 2:
            changed = False
            for i, g in enumerate(gens):
                others = gens[:i] + gens[i + 1 :]
                if _in_span(g, others, tol, relation_bound):
                    gens = others
                    changed = True
                    break
    basis = tuple(sorted(gens))
    integral = all(abs(p - round(p)) <= tol for p in ps)
    return LatticeData(tuple(ps), len(basis), basis, integral, relation_bound)


def period_lattice(
    omega: DifferentialForm,
    loops: Sequence[SmoothMap],
    tol: float = 1e-8,
    max_coeff: int = 10**6,
    relation_bound: int = 40,
    quad_tol: float = 1e-11,
) -> LatticeData:
    """Period lattice of a closed one-form over a family of loops."""
    ps = [period(omega, loop, quad_tol=quad_tol) for loop in loops]
    return lattice_from_periods(ps, tol, max_coeff, relation_bound)


def lattices_equal(a: LatticeData, b: LatticeData, tol: float = 1e-8, bound: int = 200) -> bool:
    """Mutual inclusion of two lattices (bounded coefficient search)."""
    if a.rank != b.rank:
        return False
    return all(_in_span(g, b.basis, tol, bound) for g in a.basis) and all(
        _in_span(g, a.basis, tol, bound) for g in b.basis
    )


# ---------------------------------------------------------------------------
# morphism classification


@dataclass(frozen=True)
class MorphismReport:
    """Conformal classification of a map between twisted structures.

    ``strict``: pulled-back Lee form equals the source Lee form pointwise.
    ``conformal``: the difference is exact (closed with vanishing periods).
    ``full``: the two period lattices agree as subgroups of the reals.
    ``rank_decrease``: target lattice rank minus source lattice rank.
    """

    strict: bool
    strict_residual: float
    conformal: bool
    conformal_closed_residual: float
    conformal_period_residual: float
    full: bool
    rank_source: int
    rank_target: int
    rank_decrease: int
    source_lattice: LatticeData
    target_lattice: LatticeData


def classify_morphism(
    F: SmoothMap,
    lee_source: DifferentialForm,
    lee_target: DifferentialForm,
    source_loops: Sequence[SmoothMap],
    target_loops: Sequence[SmoothMap],
    samples: int = 200,
    tol: float = 1e-8,
    seed: int = 0,
    relation_bound: int = 40,
) -> MorphismReport:
    """Classify ``F`` against source/target Lee forms.

    The strict residual compares ``F* omega'`` with ``omega`` at samples;
    the conformal test checks the difference is exact (closed at samples,
    its d read from one jets walk, and periods over the source loops below
    tolerance); fullness compares the
    period lattices of both Lee forms over the supplied loop families.
    """
    delta = pullback(F, lee_target) - lee_source
    env = delta.domain.sample_points(samples, seed)
    strict_check = sx.is_zero(forms.evaluate_form(delta, env).values(), env, tol)
    env = delta.domain.sample_points(samples, seed + 1)
    closed_check = sx.is_zero(forms.sampled_d(forms.sample_jets([delta], env)[0]).values.values(), env, tol)
    period_residual = 0.0
    for loop in source_loops:
        period_residual = max(period_residual, abs(period(delta, loop)))
    conformal = closed_check.passed and period_residual <= tol
    src_lat = period_lattice(lee_source, source_loops, tol=tol, relation_bound=relation_bound)
    tgt_lat = period_lattice(lee_target, target_loops, tol=tol, relation_bound=relation_bound)
    return MorphismReport(
        strict=strict_check.passed,
        strict_residual=strict_check.max_residual,
        conformal=conformal,
        conformal_closed_residual=closed_check.max_residual,
        conformal_period_residual=period_residual,
        full=lattices_equal(src_lat, tgt_lat, tol),
        rank_source=src_lat.rank,
        rank_target=tgt_lat.rank,
        rank_decrease=tgt_lat.rank - src_lat.rank,
        source_lattice=src_lat,
        target_lattice=tgt_lat,
    )
