"""Numerical companions to the symbolic layer.

Provides ODE flows of symbolic vector fields (with variational Jacobians,
so that derivative data stays integrator-accurate instead of relying on
finite differences), point maps that exist only numerically (flow
compositions), and the linear algebra of matrix stacks ``(..., r, c)``:
numerical ranks, orthonormal kernel bases and the gaps between their spans,
each one stacked SVD for the whole stack.  Every rank in the package is
decided here, by :func:`count_significant` (at the relative threshold
:data:`RANK_RTOL` unless a caller passes its own).

Flows integrate a batch of trajectories at once with :func:`solve_ivp`, a
numpy Dormand–Prince 5(4) in which each row keeps its own step size,
direction and rejection state, and takes the steps of scipy's RK45 bit for
bit (Dormand & Prince 1980; Hairer, Nørsett & Wanner, *Solving ODEs I*,
§II.4–5).  They run in unwrapped coordinates; angular coordinates are
treated as ordinary reals during integration (fields on such domains are
periodic by construction), and only :func:`wrap_point` reduces them modulo
1.  Linear coordinates are watched with terminal events: an event fires on
a row when its function changes sign between two step ends, its time is
located by bisection on that row's dense interpolant, and a row that leaves
the declared chart box is masked as escaped with that time and point while
the other rows go on.  Right-hand sides run the compiled evaluators each
field builds once (``VectorField.value_at``/``jet_at``) on whole
coordinate columns.  Symbolic maps are not evaluated here: their images
and Jacobians come from one :func:`forms.jet_arrays` walk, and a
:class:`PointMap` stands only for maps known numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: a cohomology run loads neither forms nor symexpr
    from .forms import CoordinateDomain, VectorField


RANK_RTOL = 1e-10
"""Relative rank threshold: a singular value or pivot counts as nonzero when
it is above ``RANK_RTOL`` times the largest one."""


# ---------------------------------------------------------------------------
# points


def wrap_point(domain: CoordinateDomain, x: np.ndarray) -> np.ndarray:
    """Reduce angular coordinates (the last axis of ``x``) modulo 1, leave
    linear ones alone."""
    out = np.array(x, dtype=float)
    for i, c in enumerate(domain.coords):
        if c.kind == "angular":  # forms.ANGULAR
            out[..., i] = out[..., i] % 1.0
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
    """Outcome of :func:`solve_ivp` for a batch of N rows.

    ``y`` (N, D) holds each row's last state: at its end time, at the located
    event that stopped it, or the last accepted one where its step size fell
    below the spacing of floats; ``t`` holds the time of that state.
    ``status`` takes scipy's codes per row (0 end reached, 1 stopped by an
    event, -1 step size too small) and ``event`` the index of the event that
    stopped the row (-1 for none).  ``nfev`` counts right-hand-side
    evaluations of single rows, summed over the batch; ``row_nfev`` counts
    them per row.
    """

    y: np.ndarray
    t: np.ndarray
    status: np.ndarray
    event: np.ndarray
    nfev: int
    row_nfev: np.ndarray


def _rms(x: np.ndarray) -> np.ndarray:
    """Per row, ``norm(x) / sqrt(n)``: each row's ``dot`` is the one that
    ``np.linalg.norm`` takes of a single vector."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]) / x.shape[1] ** 0.5


def _power(x: np.ndarray, exponent: float) -> np.ndarray:
    """``x ** exponent`` per element in scalar arithmetic: numpy's array
    ``power`` may round differently from the scalar one that RK45 applies."""
    return np.array([v ** exponent for v in x.tolist()], dtype=float)


def _combine(K: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row of K (rows, stages, D), ``np.dot(K_row.T, weights)``: a stacked
    matmul runs the same matrix-vector product on every row."""
    return np.matmul(np.swapaxes(K, 1, 2), weights)


def solve_ivp(fun, t_span, y0, rtol=1e-3, atol=1e-6, events=None) -> IvpSolution:
    """Integrate ``y' = fun(t, y)`` for a batch of rows with Dormand–Prince 5(4).

    ``t_span`` is ``(t0, t_end)`` with one end time per row of ``y0`` (N, D).
    ``fun`` gets the times (n,) and states (n, D) of the rows still
    integrating and returns their slopes (n, D); it runs once per stage.
    Each row takes the steps that ``scipy.integrate.solve_ivp(method="RK45")``
    takes for it alone, in the same order of floating-point operations:
    scipy's initial step selection, RMS error norm, step factors (safety
    0.9, within [0.2, 10], no growth right after a rejected step) and
    smallest step ``10·|nextafter(t) − t|``.  Its endpoint and evaluation
    count equal scipy's bit for bit (``tests/test_numeric.py`` holds them to
    it), whatever rows share its batch.  A row with ``t_end == t0`` is done
    at once, without evaluations.

    Every event ``g(t, y)`` maps times (n,) and states (n, D) to values (n,)
    and is terminal for its row.  It fires, as in scipy, when g changes sign
    (or reaches zero) between two step ends of the row; its time is then
    located by bisection of g on the row's quartic dense interpolant, and
    the state there ends the row while the others go on.  :func:`flow` calls
    this module-level name, so patching ``numeric.solve_ivp`` intercepts
    every integration.
    """
    t0, t_end = t_span
    y = np.array(y0, dtype=float)
    n_rows, dim = y.shape
    t = np.full(n_rows, float(t0))
    t_end = np.broadcast_to(np.asarray(t_end, dtype=float), (n_rows,))
    rtol = max(rtol, 100 * _EPS)
    events = list(events or ())
    row_nfev = np.zeros(n_rows, dtype=int)

    def f(rows, t, y):
        row_nfev[rows] += 1
        return np.asarray(fun(t, y), dtype=float)

    status = np.zeros(n_rows, dtype=int)
    stopped_by = np.full(n_rows, -1)
    direction = np.sign(t_end - t)
    rows = np.flatnonzero(direction)  # a row with nothing to integrate is done
    fy = np.empty_like(y)
    h_abs = np.zeros(n_rows)
    if rows.size:
        fy[rows] = f(rows, t[rows], y[rows])
        h_abs[rows] = _initial_step(f, rows, t[rows], y[rows], t_end[rows], fy[rows], direction[rows], rtol, atol)
    g = np.array([event(t, y) for event in events]).reshape(len(events), n_rows)
    min_step = np.zeros(n_rows)
    rejected = np.zeros(n_rows, dtype=bool)
    fresh = np.ones(n_rows, dtype=bool)  # the row starts a step, no attempt rejected yet
    while rows.size:
        new = rows[fresh[rows]]
        min_step[new] = 10 * np.abs(np.nextafter(t[new], direction[new] * np.inf) - t[new])
        h_abs[new] = np.maximum(h_abs[new], min_step[new])
        rejected[new] = False
        too_small = h_abs[rows] < min_step[rows]
        status[rows[too_small]] = -1
        rows = rows[~too_small]
        if not rows.size:
            break
        sign, t_row, y_row = direction[rows], t[rows], y[rows]
        t_new = t_row + h_abs[rows] * sign
        t_new = np.where(sign * (t_new - t_end[rows]) > 0, t_end[rows], t_new)
        h = t_new - t_row
        h_abs[rows] = np.abs(h)
        K = np.empty((rows.size, len(_DP_C) + 1, dim))
        y_new, f_new = _dp_step(f, rows, t_row, y_row, fy[rows], h, K)
        scale = atol + np.maximum(np.abs(y_row), np.abs(y_new)) * rtol
        error_norm = _rms(_combine(K, _DP_E) * h[:, None] / scale)
        accepted = error_norm < 1

        retry = rows[~accepted]
        h_abs[retry] *= np.fmax(_MIN_FACTOR, _SAFETY * _power(error_norm[~accepted], _ERROR_EXPONENT))
        rejected[retry] = True
        fresh[retry] = False

        done = rows[accepted]
        error_norm = error_norm[accepted]
        factor = np.full(done.size, float(_MAX_FACTOR))
        nonzero = error_norm != 0
        factor[nonzero] = np.minimum(_MAX_FACTOR, _SAFETY * _power(error_norm[nonzero], _ERROR_EXPONENT))
        h_abs[done] *= np.where(rejected[done], np.minimum(1, factor), factor)
        t_old, y_old = t_row[accepted], y_row[accepted]
        t[done], y[done], fy[done] = t_new[accepted], y_new[accepted], f_new[accepted]
        fresh[done] = True
        finished = t[done] == t_end[done]
        if events:
            g_new = np.array([event(t[done], y[done]) for event in events])
            g_old = g[:, done]
            fired = ((g_old <= 0) & (0 <= g_new)) | ((g_new <= 0) & (0 <= g_old))
            (hit,) = np.nonzero(fired.any(axis=0))
            if hit.size:
                stop = done[hit]
                dense = _dense_output(K[accepted][hit], t_old[hit], t[stop], y_old[hit])
                first, root = _first_event(
                    events, dense, fired[:, hit], g_old[:, hit], t_old[hit], t[stop], direction[stop]
                )
                t[stop], y[stop] = root, dense(np.arange(hit.size), root)
                status[stop], stopped_by[stop] = 1, first
                finished[hit] = True
            g[:, done] = g_new
        going = ~accepted
        going[accepted] = ~finished
        rows = rows[going]
    return IvpSolution(y, t, status, stopped_by, int(row_nfev.sum()), row_nfev)


def _dp_step(f, rows, t, y, fy, h, K):
    """One Dormand–Prince step of each row from (t, y) with slope ``fy``: the
    fifth-order states at t + h and their slopes, with the seven stages of
    each row left in ``K`` (rows, stages, D)."""
    K[:, 0] = fy
    for s in range(1, len(_DP_C)):
        dy = _combine(K[:, :s], _DP_A[s, :s]) * h[:, None]
        K[:, s] = f(rows, t + _DP_C[s] * h, y + dy)
    y_new = y + h[:, None] * _combine(K[:, :-1], _DP_B)
    K[:, -1] = f_new = f(rows, t + h, y_new)
    return y_new, f_new


def _dense_output(K, t_old: np.ndarray, t: np.ndarray, y_old: np.ndarray):
    """RK45's quartic interpolants of the steps from t_old to t, one per row
    of K; ``at(i, s)`` evaluates rows ``i`` at times ``s``."""
    h, Q = t - t_old, np.matmul(np.swapaxes(K, 1, 2), _DP_P)

    def at(i: np.ndarray, s: np.ndarray) -> np.ndarray:
        powers = np.cumprod(np.repeat(((s - t_old[i]) / h[i])[:, None], 4, axis=1), axis=1)
        return h[i, None] * np.matmul(Q[i], powers[:, :, None])[:, :, 0] + y_old[i]

    return at


def _initial_step(f, rows, t0, y0, t_bound, f0, direction, rtol, atol) -> np.ndarray:
    """scipy's ``select_initial_step`` for an error estimator of order 4
    (Hairer, Nørsett & Wanner, §II.4), with no maximum step, per row."""
    interval_length = np.abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, interval_length)
    y1 = y0 + (h0 * direction)[:, None] * f0
    f1 = f(rows, t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    with np.errstate(divide="ignore"):
        h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3), _power(0.01 / np.maximum(d1, d2), 1 / 5))
    return np.minimum(np.minimum(100 * h0, h1), interval_length)


def _first_event(events, dense, fired, g_old, t_old, t_new, direction):
    """Per row of the dense output, the event that fires first along its step
    among those in ``fired`` (events, rows), and its located time; ties go to
    the lowest event index, as in scipy."""
    roots = np.full(fired.shape, np.inf)
    for i, event in enumerate(events):
        (rows,) = np.nonzero(fired[i])
        if rows.size:
            roots[i, rows] = _bisect_event(event, dense, rows, t_old[rows], t_new[rows], g_old[i, rows])
    first = np.argmin(np.where(fired, direction * roots, np.inf), axis=0)
    return first, roots[first, np.arange(fired.shape[1])]


def _bisect_event(event, dense, rows: np.ndarray, t_old: np.ndarray, t_new: np.ndarray,
                  g_old: np.ndarray) -> np.ndarray:
    """Per row ``rows`` of the dense output, the time in [t_old, t_new] where
    ``event`` reaches zero on the row's interpolant, by bisection to 4·eps
    relative.  The end on the far side of the zero is returned, so the state
    there has crossed; a row whose event was zero at the step start returns
    that start."""
    lo, hi = t_old.copy(), t_new.copy()
    live = g_old != 0
    hi[~live] = lo[~live]
    while True:
        live &= np.abs(hi - lo) > 4 * _EPS * (1 + np.abs(hi))
        mid = 0.5 * (lo + hi)
        live &= (mid != lo) & (mid != hi)
        (j,) = np.nonzero(live)
        if not j.size:
            return hi
        g_mid = event(mid[j], dense(rows[j], mid[j]))
        same_side = ((g_mid > 0) == (g_old[j] > 0)) & (g_mid != 0)
        lo[j[same_side]] = mid[j[same_side]]
        hi[j[~same_side]] = mid[j[~same_side]]


FLOW_RTOL, FLOW_ATOL = 1e-10, 1e-12
"""Relative and absolute tolerances of every flow."""


@dataclass
class FlowResult:
    """Flows of a batch of N points.

    ``point`` (N, d) holds the end points, and on escaped rows the escape
    points; ``jacobian`` (N, d, d) the Jacobians of the time-T flow maps
    (``None`` unless asked for); ``escaped`` (N,) marks the rows that left the
    chart box (or whose step size collapsed) and ``escape_time`` (N,) gives
    their escape times, ``nan`` on the other rows.
    """

    point: np.ndarray
    jacobian: np.ndarray | None
    escaped: np.ndarray
    escape_time: np.ndarray


def flow(X: VectorField, x0: np.ndarray, time: np.ndarray, with_jacobian: bool = False) -> FlowResult:
    """Integrate the flow of ``X`` from each row of ``x0`` (N, d) for its
    time in ``time`` (N,), as one batch.

    With ``with_jacobian`` the variational equation dJ/dt = DX(x) J is
    integrated alongside, so the returned Jacobians of the time-T flow maps
    have integrator accuracy.  A row that leaves the chart box (linear
    coordinates only) is masked as escaped; the others are unaffected.
    """
    d = X.domain.dim
    x0 = np.asarray(x0, dtype=float)
    if with_jacobian:
        jet = X.jet_at

        def rhs(t, state):
            f, Df = jet(state[:, :d])
            return np.concatenate([f, (Df @ state[:, d:].reshape(-1, d, d)).reshape(-1, d * d)], axis=1)

        y0 = np.concatenate([x0, np.tile(np.eye(d).ravel(), (len(x0), 1))], axis=1)
    else:
        value_at = X.value_at

        def rhs(t, state):
            return value_at(state)

        y0 = x0

    sol = solve_ivp(rhs, (0.0, time), y0, rtol=FLOW_RTOL, atol=FLOW_ATOL, events=_escape_events(X.domain))
    escaped = sol.status != 0
    jacobian = sol.y[:, d:].reshape(-1, d, d) if with_jacobian else None
    return FlowResult(sol.y[:, :d], jacobian, escaped, np.where(escaped, sol.t, np.nan))


def _escape_events(domain: CoordinateDomain):
    events = []
    for i, c in enumerate(domain.coords):
        if c.kind != "linear":  # forms.LINEAR
            continue
        lo, hi = c.lower, c.upper

        def low_event(t, y, i=i, lo=lo):
            return y[:, i] - lo

        def high_event(t, y, i=i, hi=hi):
            return hi - y[:, i]

        events.extend([low_event, high_event])
    return events


# ---------------------------------------------------------------------------
# point maps (values + Jacobians at a batch of points)


class PointMap:
    """A map known at points, with Jacobian: ``call(x) -> (values, J, ok)``
    for points ``x`` (N, src), giving values (N, tgt), Jacobians (N, tgt, src)
    and a mask (N,) of the rows where the map is defined (``nan`` elsewhere)."""

    source: CoordinateDomain
    target: CoordinateDomain

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:  # pragma: no cover
        raise NotImplementedError


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


def jacobian_min_rank(J: np.ndarray) -> int:
    """Minimum numerical rank of sampled Jacobians ``J`` (tgt, src, n); the
    full rank min(tgt, src) when there are no samples."""
    return int(numerical_rank(np.moveaxis(J, -1, 0)).min(initial=min(J.shape[:2])))


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
