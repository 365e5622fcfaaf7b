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

Period lattices are read from one integer-relation search: LLL in exact
integers, a relation holding within ``tol`` below a height bound H_k worked
out from ``tol`` and the number k of periods.  Rank, basis, membership and
equality are all read from the relations it finds.
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
class LeeData:
    """Outcome of Lee form extraction.

    ``omega`` is symbolic when an ansatz basis was supplied, otherwise None
    and ``sample_values`` holds the pointwise least-squares solutions (one
    row per sample, columns in coordinate order).
    """

    omega: DifferentialForm | None
    fit_residual: float
    closedness_residual: float | None
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
        A = _triple_values([forms.sampled_wedge(a, phi_jets) for a in dx], samples, triples)
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
    A = _triple_values([forms.sampled_wedge(b, phi_jets) for b in basis_jets], samples, triples)
    coeffs, *_ = np.linalg.lstsq(A.reshape(rhs.size, -1), rhs.ravel(), rcond=numeric.RANK_RTOL)
    omega = forms.zero_form(phi.domain, 1)
    for c, beta in zip(coeffs, basis):
        omega = omega + beta.scaled(sx.Const(float(c)))
    env = phi.domain.sample_points(samples, seed + 1)
    phi_jets, omega_jets = forms.sample_jets([phi, omega], env)
    fit = forms.sampled_sum(forms.sampled_d(phi_jets), forms.sampled_wedge(omega_jets, phi_jets), -1)
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
PERIOD_QUAD_TOL = 1e-11
"""Agreement :func:`period` asks of successive and shifted quadrature
estimates, absolute below a period of 1 and relative above."""
PERIOD_CLOSURE_TOL = 1e-9
"""Largest endpoint gap of a loop that :func:`period` accepts as closed."""

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


def period(omega: DifferentialForm, loop: SmoothMap) -> float:
    """Integral of a one-form over a loop, by doubling quadrature.

    The rule is the periodic trapezoid rule on an angular source and
    composite Gauss–Legendre of order 8 on an interval.  Each level
    evaluates the pulled-back coefficient on all its nodes with one
    :func:`symexpr.evaluate` call, starting at 16 nodes and doubling.  An
    estimate is returned once it agrees within :data:`PERIOD_QUAD_TOL`
    (relative above a period of 1) both with the previous level's and with
    a copy of its own rule shifted by an irrational fraction of the node
    spacing (panel width).  The shifted copy guards against aliasing:
    an integrand that repeats with the node spacing, such as
    cos(2π·2^16·t), makes a doubling rule agree with itself, but not with
    the shifted copy.  With no such agreement by :data:`PERIOD_MAX_NODES`
    nodes it raises :class:`TwistedError`: an unconverged period is never
    returned.
    """
    if omega.degree != 1:
        raise forms.DegreeError("periods are defined for one-forms")
    gap = loop_closure_residual(loop)
    if gap > PERIOD_CLOSURE_TOL:
        raise LoopError(f"loop endpoints differ by {gap:.3g} (> {PERIOD_CLOSURE_TOL:g})")
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
        bound = max(PERIOD_QUAD_TOL, PERIOD_QUAD_TOL * abs(value))
        if step <= bound and shift <= bound:
            return value
        if 2 * n > PERIOD_MAX_NODES:
            raise TwistedError(
                f"period quadrature did not converge in {n} nodes: the estimate {value:.6g} "
                f"moved by {step:.3g} on doubling and by {shift:.3g} on shifting (bound {bound:.3g})"
            )
        previous = value
        n *= 2


@dataclass(frozen=True)
class LatticeData:
    """Subgroup of the reals spanned by loop periods, with the height bound
    of its first relation search (:func:`_height_bound`)."""

    periods: tuple[float, ...]
    rank: int
    basis: tuple[float, ...]
    integral: bool
    relation_bound: int

    def contains(self, value: float, tol: float = 1e-8) -> bool:
        """Whether ``value`` lies in the lattice within ``tol``: whether the
        relations among (basis, value) give ``value`` coefficients of gcd 1."""
        _, relations = _span((*self.basis, value), tol)
        return math.gcd(*(c[-1] for c in relations)) == 1


def _lll(rows: list[list[int]]) -> list[list[int]]:
    """LLL reduction (δ = 3/4) of two or more independent integer rows, in
    exact integers with incremental Gram–Schmidt (Cohen, *A Course in
    Computational Algebraic Number Theory*, Alg. 2.6.7): ``d[i]`` is the
    Gram determinant of the first i rows and ``lam[k][j]`` is d[j + 1] times
    the Gram–Schmidt coefficient μ_kj, so that every update divides exactly.
    """
    b, n = [list(row) for row in rows], len(rows)
    d = [1, sum(x * x for x in b[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def size_reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                lam[k][j] = u
            d[k + 1] = lam[k][k]
        size_reduce(k, k - 1)
        mu = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * mu * mu:  # Lovász condition fails: swap
            b[k - 1], b[k] = b[k], b[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            merged = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
                lam[i][k - 1] = (merged * t + mu * lam[i][k]) // d[k + 1]
            d[k] = merged
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return b


def _height_bound(values: Sequence[float], tol: float) -> int:
    """H_k = ⌊(100·ρ)^(−1/(k−1))⌋ for k ≥ 2 values, ρ = ``tol`` relative to
    top = max|v| (README "Notes on numerical policy"), in [2, 10^15], and
    worked in decades so that H_2..H_4 = 10^6, 1000, 100 at ρ = 1e-8."""
    k, top = len(values), max(map(abs, values), default=1.0)
    if k < 2:
        return 0
    decades = (-math.log10(tol * (max(1.0, top) / top)) - 2.0) / (k - 1)
    return max(2, math.floor(10.0 ** min(decades, 15.0)))


def _relations(values: Sequence[float], tol: float) -> list[list[int]]:
    """Integer relations among two or more nonzero values, lowest first:
    the LLL-reduced rows c of [e_i | round(2^50·v_i / max|v|)] with ‖c‖∞ ≤
    H_k and |c·v| ≤ tol·max(1, |v_i| for c_i ≠ 0), a taller row first
    taking its lowest sum c + m·d with another row (m sending a c_i to 0)."""
    k, top, bound = len(values), max(map(abs, values)), _height_bound(values, tol)

    def height(c: list[int]) -> int:
        return max(map(abs, c))

    def holds(c: list[int]) -> bool:
        size = max([1.0] + [abs(v) for x, v in zip(c, values) if x])
        return abs(math.fsum(x * v for x, v in zip(c, values))) <= tol * size

    rows = [[int(i == j) for j in range(k)] + [round(2**50 * v / top)] for i, v in enumerate(values)]
    basis = [c for c in (row[:k] for row in _lll(rows)) if holds(c)]
    for c, d in itertools.permutations(basis, 2):
        if height(c) > bound:
            steps = {-x // y + e for x, y in zip(c, d) if y for e in (0, 1)}
            c[:] = min([c] + [[x + m * y for x, y in zip(c, d)] for m in steps], key=height)
    return sorted((c for c in basis if height(c) <= bound and holds(c)), key=height)


def _span(periods: Sequence[float], tol: float) -> tuple[list[float], list[list[int]]]:
    """Values of generators (integer vectors over the periods) of the group
    they span, and a basis of their relations.  The periods are searched
    all together, then pair by pair, and Euclid's column operations clear
    the first relations found, each onto its least coefficient of largest
    value, before the generators left are searched again at a larger H_k:
    [1, 1, 3000] clears (1, −1, 0) at H_3 = 1000, then (3000, −1) at H_2."""

    def value(g: list[int]) -> float:
        return math.fsum(c * p for c, p in zip(g, periods))

    relations, gens = [], []
    for i, p in enumerate(periods):
        (relations if abs(p) <= tol else gens).append([int(i == j) for j in range(len(periods))])
    while len(gens) > 1:
        k = len(gens)
        for group in [range(k), *itertools.combinations(range(k), 2)] if k > 2 else [range(k)]:
            chosen = [gens[i] for i in group]
            rows = _relations([value(g) for g in chosen], tol)
            if rows:
                break
        else:
            break
        for row in rows:
            live = [j for j, c in enumerate(row) if c]
            while len(live) > 1:
                j = min(live, key=lambda l: (abs(row[l]), -abs(value(chosen[l]))))
                for l in live:
                    if l != j:
                        q = row[l] // row[j]
                        for r in rows:
                            r[l] -= q * r[j]
                        chosen[j] = [a + q * b for a, b in zip(chosen[j], chosen[l])]
                live = [j for j, c in enumerate(row) if c]
            if live:
                relations.append(chosen.pop(live[0]))
                for r in rows:
                    del r[live[0]]
        gens = [g for i, g in enumerate(gens) if i not in group] + chosen
    return [value(g) for g in gens], relations


def lattice_from_periods(periods: Sequence[float], tol: float = 1e-8) -> LatticeData:
    """The subgroup of the reals the periods span: zero within ``tol``, whole
    within tol·max(1, |p|), related as in :func:`_relations`."""
    ps = tuple(float(p) for p in periods)
    gens, _ = _span(ps, tol)
    integral = all(abs(p - round(p)) <= tol * max(1.0, abs(p)) for p in ps)
    bound = _height_bound([p for p in ps if abs(p) > tol], tol)
    return LatticeData(ps, len(gens), tuple(sorted(map(abs, gens))), integral, bound)


def period_lattice(omega: DifferentialForm, loops: Sequence[SmoothMap], tol: float = 1e-8) -> LatticeData:
    """Period lattice of a closed one-form over a family of loops."""
    return lattice_from_periods([period(omega, loop) for loop in loops], tol)


def lattices_equal(a: LatticeData, b: LatticeData, tol: float = 1e-8) -> bool:
    """Whether two lattices agree: each contains the other's basis."""
    return all(a.contains(g, tol) for g in b.basis) and all(b.contains(g, tol) for g in a.basis)


# ---------------------------------------------------------------------------
# morphism classification


@dataclass(frozen=True)
class MorphismReport:
    """Conformal classification of a map between twisted structures.

    ``strict``: pulled-back Lee form equals the source Lee form pointwise.
    ``conformal``: the difference is exact (closed with vanishing periods).
    ``full``: the two period lattices agree as subgroups of the reals.
    """

    strict: bool
    strict_residual: float
    conformal: bool
    conformal_closed_residual: float
    conformal_period_residual: float
    full: bool
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
    src_lat = period_lattice(lee_source, source_loops, tol)
    tgt_lat = period_lattice(lee_target, target_loops, tol)
    return MorphismReport(
        strict=strict_check.passed,
        strict_residual=strict_check.max_residual,
        conformal=conformal,
        conformal_closed_residual=closed_check.max_residual,
        conformal_period_residual=period_residual,
        full=lattices_equal(src_lat, tgt_lat, tol),
        source_lattice=src_lat,
        target_lattice=tgt_lat,
    )
