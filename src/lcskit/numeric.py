"""Numerical companions to the symbolic layer.

Provides ODE flows of symbolic vector fields (with variational Jacobians,
so that derivative data stays integrator-accurate instead of relying on
finite differences), point maps that exist only numerically (flow
compositions), and the linear algebra of matrix stacks ``(..., r, c)``:
numerical ranks, orthonormal kernel bases and the gaps between their spans,
each one stacked SVD for the whole stack.  Every rank in the package is
decided here, by :func:`count_significant` (at the relative threshold
:data:`RANK_RTOL` unless a caller passes its own).

Flows integrate with :func:`solve_ivp`, a numpy Dormand–Prince 5(4) that
takes the steps of scipy's RK45 bit for bit (Dormand & Prince 1980; Hairer,
Nørsett & Wanner, *Solving ODEs I*, §II.4–5), in unwrapped coordinates;
angular coordinates are treated as ordinary reals during integration
(fields on such domains are periodic by construction), and only
:func:`wrap_point` reduces them modulo 1.  Linear coordinates are watched
with terminal events: an event fires when its function changes sign
between two step ends, its time is located by bisection on the step's
dense interpolant, and leaving the declared chart box raises
:class:`FlowEscapeError` with that time and point.  Flow right-hand sides and
symbolic point maps run the compiled evaluators each field and map builds
once (``VectorField.value_at``/``jet_at``, ``SmoothMap.jet_at``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms
from .forms import ANGULAR, LINEAR, CoordinateDomain, SmoothMap, VectorField


RANK_RTOL = 1e-10
"""Relative rank threshold: a singular value or pivot counts as nonzero when
it is above ``RANK_RTOL`` times the largest one."""


class FlowEscapeError(Exception):
    """A trajectory left its chart box before the requested time.

    Attributes:
        point: state at escape (unwrapped coordinates).
        time: flow time at which the escape was detected.
    """

    def __init__(self, message: str, point: np.ndarray, time: float):
        super().__init__(message)
        self.point = np.asarray(point)
        self.time = float(time)


# ---------------------------------------------------------------------------
# points


def wrap_point(domain: CoordinateDomain, x: np.ndarray) -> np.ndarray:
    """Reduce angular coordinates modulo 1, leave linear ones alone."""
    out = np.array(x, dtype=float)
    for i, c in enumerate(domain.coords):
        if c.kind == ANGULAR:
            out[i] = out[i] % 1.0
    return out


# ---------------------------------------------------------------------------
# flows


# Dormand–Prince 5(4) (Dormand & Prince 1980; Hairer, Nørsett & Wanner,
# *Solving ODEs I*, §II.4–5): scipy's RK45 tableau, error weights and
# quartic dense-output matrix (Shampine's optimal c_6).
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
_EPS = np.finfo(float).eps


@dataclass
class IvpSolution:
    """Outcome of :func:`solve_ivp`, with the fields of scipy's result that
    flows read.

    ``y`` holds the start and the end state as columns (the end is the
    escape point after a terminal event); ``t_events`` holds, per event, the
    located time of the event that stopped the integration (empty arrays
    otherwise, ``None`` without events); ``nfev`` counts right-hand-side
    calls.
    """

    y: np.ndarray
    t_events: list[np.ndarray] | None
    success: bool
    message: str
    nfev: int


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, rtol=1e-3, atol=1e-6, events=None) -> IvpSolution:
    """Integrate ``y' = fun(t, y)`` over ``t_span`` with Dormand–Prince 5(4).

    A numpy port of ``scipy.integrate.solve_ivp(method="RK45")`` that takes
    the same steps in the same order of floating-point operations: scipy's
    initial step selection, RMS error norm, step factors (safety 0.9,
    within [0.2, 10], no growth right after a rejected step) and smallest
    step ``10·|nextafter(t) − t|``.  Endpoints and ``nfev`` equal scipy's bit
    for bit (``tests/test_numeric.py`` holds them to it).

    Every event ``g(t, y)`` is terminal.  It fires, as in scipy, when g
    changes sign (or reaches zero) between two step ends; its time is then
    located by bisection of g on the step's quartic dense interpolant, and
    the state there ends the solution.  :func:`flow` calls this
    module-level name, so patching ``numeric.solve_ivp`` intercepts every
    integration.
    """
    t0, tf = map(float, t_span)
    y0 = np.asarray(y0).astype(float, copy=False)
    rtol = max(rtol, 100 * _EPS)
    events = list(events or ())
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    direction = np.sign(tf - t0) if tf != t0 else 1
    t, y, fy = t0, y0, f(t0, y0)
    h_abs = _initial_step(f, t0, y0, tf, fy, direction, rtol, atol)
    K = np.empty((len(_DP_C) + 1, y0.size))
    g = [event(t0, y0) for event in events]
    t_events = [np.empty(0) for _ in events] if events else None
    while t != tf:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return IvpSolution(
                    np.column_stack([y0, y]), t_events, False,
                    "Required step size is less than spacing between numbers.", nfev,
                )
            t_new = t + h_abs * direction
            if direction * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _dp_step(f, t, y, fy, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _DP_E) * h / scale)
            if error_norm < 1:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        factor = _MAX_FACTOR if error_norm == 0 else min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        h_abs *= min(1, factor) if rejected else factor
        t_old, y_old = t, y
        t, y, fy = t_new, y_new, f_new
        if not events:
            continue
        g_new = [event(t, y) for event in events]
        fired = [i for i, (a, b) in enumerate(zip(g, g_new)) if a <= 0 <= b or b <= 0 <= a]
        if fired:
            dense = _dense_output(K, t_old, t, y_old)
            roots = {i: _bisect_event(events[i], dense, t_old, t, g[i]) for i in fired}
            first = min(fired, key=lambda i: direction * roots[i])
            t_events[first] = np.array([roots[first]])
            return IvpSolution(
                np.column_stack([y0, dense(roots[first])]), t_events, True,
                "A termination event occurred.", nfev,
            )
        g = g_new
    return IvpSolution(
        np.column_stack([y0, y]), t_events, True,
        "The solver successfully reached the end of the integration interval.", nfev,
    )


def _dp_step(f, t, y, fy, h, K):
    """One Dormand–Prince step from (t, y) with slope ``fy``: the fifth-order
    state at t + h and its slope, with the seven stages left in ``K``."""
    K[0] = fy
    for s in range(1, len(_DP_C)):
        dy = np.dot(K[:s].T, _DP_A[s, :s]) * h
        K[s] = f(t + _DP_C[s] * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, _DP_B)
    K[-1] = f_new = f(t + h, y_new)
    return y_new, f_new


def _dense_output(K, t_old: float, t: float, y_old: np.ndarray):
    """RK45's quartic interpolant of the step from t_old to t."""
    h, Q = t - t_old, K.T.dot(_DP_P)

    def at(s: float) -> np.ndarray:
        return h * np.dot(Q, np.cumprod(np.tile((s - t_old) / h, 4))) + y_old

    return at


def _initial_step(f, t0, y0, t_bound, f0, direction, rtol, atol) -> float:
    """scipy's ``select_initial_step`` for an error estimator of order 4
    (Hairer, Nørsett & Wanner, §II.4), with no maximum step."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = f(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _bisect_event(event, dense, t_old: float, t_new: float, g_old: float) -> float:
    """Time in [t_old, t_new] where ``event`` reaches zero on the dense
    interpolant, by bisection to 4·eps relative.  The end on the far side of
    the zero is returned, so the state there has crossed."""
    if g_old == 0:
        return t_old
    lo, hi = t_old, t_new
    while abs(hi - lo) > 4 * _EPS * (1 + abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = event(mid, dense(mid))
        if (g_mid > 0) == (g_old > 0) and g_mid != 0:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass
class FlowResult:
    point: np.ndarray
    jacobian: np.ndarray | None


def flow(
    X: VectorField,
    x0: np.ndarray,
    time: float,
    with_jacobian: bool = False,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    check_escape: bool = True,
) -> FlowResult:
    """Integrate the flow of ``X`` for ``time`` starting at ``x0``.

    With ``with_jacobian`` the variational equation dJ/dt = DX(x) J is
    integrated alongside, so the returned Jacobian of the time-T flow map
    has integrator accuracy.  Leaving the chart box (linear coordinates
    only) raises :class:`FlowEscapeError`.
    """
    d = X.domain.dim
    x0 = np.asarray(x0, dtype=float)
    if time == 0.0:
        return FlowResult(x0.copy(), np.eye(d) if with_jacobian else None)

    if with_jacobian:
        jet = X.jet_at

        def rhs(t, state):
            f, Df = jet(state[:d])
            return np.concatenate([f, (Df @ state[d:].reshape(d, d)).ravel()])

        y0 = np.concatenate([x0, np.eye(d).ravel()])
    else:
        f = X.value_at

        def rhs(t, state):
            return f(state)

        y0 = x0

    events = _escape_events(X.domain) if check_escape else None
    sol = solve_ivp(rhs, (0.0, time), y0, rtol=rtol, atol=atol, events=events)
    if events and any(len(t) for t in sol.t_events):
        t_esc = min(float(t[0]) for t in sol.t_events if len(t))
        state = sol.y[:d, -1]
        raise FlowEscapeError(
            f"flow of field on {X.domain.name!r} left the chart box at t={t_esc:.3g}",
            state, t_esc,
        )
    if not sol.success:
        raise FlowEscapeError(
            f"integration failed on {X.domain.name!r}: {sol.message}", sol.y[:d, -1], time
        )
    end = sol.y[:, -1]
    if with_jacobian:
        return FlowResult(end[:d], end[d:].reshape(d, d))
    return FlowResult(end, None)


def _escape_events(domain: CoordinateDomain):
    events = []
    for i, c in enumerate(domain.coords):
        if c.kind != LINEAR:
            continue
        lo, hi = c.lower, c.upper

        def low_event(t, y, i=i, lo=lo):
            return y[i] - lo

        def high_event(t, y, i=i, hi=hi):
            return hi - y[i]

        events.extend([low_event, high_event])
    return events or None


# ---------------------------------------------------------------------------
# point maps (value + Jacobian at a point)


class PointMap:
    """A map known pointwise, with Jacobian: ``call(x) -> (value, J)``."""

    source: CoordinateDomain
    target: CoordinateDomain

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # pragma: no cover
        raise NotImplementedError


class SymbolicPointMap(PointMap):
    """Adapter putting a :class:`SmoothMap` behind the pointwise interface."""

    def __init__(self, F: SmoothMap):
        self.source = F.source
        self.target = F.target
        self.map = F

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.map.jet_at(x)


class ComposedPointMap(PointMap):
    def __init__(self, outer: PointMap, inner: PointMap):
        if outer.source != inner.target:
            raise forms.DomainMismatchError("composition domains do not line up")
        self.source = inner.source
        self.target = outer.target
        self.outer = outer
        self.inner = inner

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mid, J1 = self.inner(x)
        out, J2 = self.outer(mid)
        return out, J2 @ J1


# ---------------------------------------------------------------------------
# linear algebra helpers


def count_significant(values: np.ndarray, rel_threshold: float = RANK_RTOL) -> np.ndarray:
    """The package's one rank rule, over the last axis of nonnegative ``values``.

    Counts the entries above ``rel_threshold`` times the largest; an all-zero
    (or empty) row counts 0.
    """
    top = np.max(values, axis=-1, keepdims=True, initial=0.0)
    return np.sum(values > rel_threshold * top, axis=-1)


def numerical_rank(M: np.ndarray, rel_threshold: float = RANK_RTOL) -> int | np.ndarray:
    """Rank of a matrix (an ``int``) or of each matrix in a stack ``(..., r, c)``
    (an int array), by :func:`count_significant` of the singular values."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    ranks = count_significant(np.linalg.svd(M, compute_uv=False), rel_threshold)
    return int(ranks) if M.ndim == 2 else ranks


def map_min_rank(F: SmoothMap, samples: int = 40, seed: int = 0) -> int:
    """Minimum numerical rank of a map's Jacobian over sampled points."""
    J = forms.evaluate_jacobian(F, F.source.sample_points(samples, seed))
    ranks = numerical_rank(np.moveaxis(J, -1, 0))
    return int(ranks.min(initial=min(F.source.dim, F.target.dim)))


def kernel_bases(M: np.ndarray, rel_threshold: float = RANK_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal null-space bases of a stack ``(..., r, c)`` and their
    dimensions: each basis fills the last ``nullity`` columns of a
    ``(..., c, c)`` array, zeros the others, so kernels of any dimension stack."""
    _, s, vt = np.linalg.svd(np.asarray(M, dtype=float))
    rank = count_significant(s, rel_threshold)
    cols = vt.shape[-1]
    in_kernel = np.arange(cols) >= rank[..., None]
    return np.swapaxes(vt, -1, -2) * in_kernel[..., None, :], cols - rank


def subspace_gaps(A: np.ndarray, a_dim: np.ndarray, B: np.ndarray, b_dim: np.ndarray) -> np.ndarray:
    """Sine of the largest principal angle between the spans of stacked
    orthonormal bases padded with zero columns (as :func:`kernel_bases` gives
    them), ``||B - A A^T B||_2`` (Björck & Golub 1973): it resolves small
    angles, where ``sqrt(1 - cos^2)`` floors at ``sqrt(eps)``.  It is 2.0
    where the dimensions differ (incomparable) and 0 where both spans are zero.
    """
    R = B - A @ (np.swapaxes(A, -1, -2) @ B)
    sines = np.max(np.linalg.svd(R, compute_uv=False), axis=-1, initial=0.0)
    return np.where(np.asarray(a_dim) == np.asarray(b_dim), sines, 2.0)
