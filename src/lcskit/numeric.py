"""Numerical companions to the symbolic layer.

Provides ODE flows of symbolic vector fields (with variational Jacobians,
so that derivative data stays integrator-accurate instead of relying on
finite differences), point maps that exist only numerically (flow
compositions), and small linear algebra helpers (numerical rank, kernels,
subspace distances).  Every rank
in the package is decided here, by :func:`count_significant` at the
relative threshold :data:`RANK_RTOL`.

Flows integrate in unwrapped coordinates; angular coordinates are treated
as ordinary reals during integration (fields on such domains are periodic
by construction), and only :func:`wrap_point` reduces them modulo 1.
Linear coordinates are watched with terminal events: leaving the declared
chart box raises :class:`FlowEscapeError`.  Flow right-hand sides and
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


def solve_ivp(fun, t_span, y0, **options):
    """:func:`scipy.integrate.solve_ivp`, imported on the first call.

    ``scipy.integrate`` takes most of a cold start, and only flows need it.
    :func:`flow` calls this module-level name, so patching
    ``numeric.solve_ivp`` intercepts every integration.
    """
    from scipy.integrate import solve_ivp

    return solve_ivp(fun, t_span, y0, **options)


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
    box_slack: float = 0.0,
    check_escape: bool = True,
) -> FlowResult:
    """Integrate the flow of ``X`` for ``time`` starting at ``x0``.

    With ``with_jacobian`` the variational equation dJ/dt = DX(x) J is
    integrated alongside, so the returned Jacobian of the time-T flow map
    has integrator accuracy.  Leaving the chart box (linear coordinates
    only, with ``box_slack``) raises :class:`FlowEscapeError`.
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

    events = _escape_events(X.domain, box_slack) if check_escape else None
    sol = solve_ivp(
        rhs, (0.0, time), y0, method="RK45", rtol=rtol, atol=atol,
        events=events, dense_output=False,
    )
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


def _escape_events(domain: CoordinateDomain, slack: float):
    events = []
    for i, c in enumerate(domain.coords):
        if c.kind != LINEAR:
            continue
        lo, hi = c.lower - slack, c.upper + slack

        def low_event(t, y, i=i, lo=lo):
            return y[i] - lo

        def high_event(t, y, i=i, hi=hi):
            return hi - y[i]

        low_event.terminal = True
        high_event.terminal = True
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


def map_min_rank(F: SmoothMap, samples: int = 40, seed: int = 0, margin: float = 0.0) -> int:
    """Minimum numerical rank of a map's Jacobian over sampled points."""
    J = forms.evaluate_jacobian(F, F.source.sample_points(samples, seed, margin))
    ranks = numerical_rank(np.moveaxis(J, -1, 0))
    return int(ranks.min(initial=min(F.source.dim, F.target.dim)))


def kernel_basis(M: np.ndarray, rel_threshold: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space of M."""
    _, s, vt = np.linalg.svd(np.atleast_2d(np.asarray(M, dtype=float)))
    return vt[int(count_significant(s, rel_threshold)):].T


def subspace_gap(A: np.ndarray, B: np.ndarray) -> float:
    """Distance between column spans: sine of the largest principal angle.

    Returns 2.0 if the spans have different dimensions (incomparable).
    """
    qa, _ = np.linalg.qr(np.atleast_2d(A))
    qb, _ = np.linalg.qr(np.atleast_2d(B))
    if qa.shape[1] != qb.shape[1]:
        return 2.0
    if qa.shape[1] == 0:
        return 0.0
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    cos_min = float(np.clip(s.min(), -1.0, 1.0))
    return float(np.sqrt(max(0.0, 1.0 - cos_min**2)))
