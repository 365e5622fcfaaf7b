"""Independent numerical oracles shared by the test suite.

Everything in this file is deliberately written against *raw callables and
arrays*, not against the package's symbolic machinery, so that the library
implementation and the oracle can only agree by computing the same
mathematics.  Frozen: tests may add new call sites but should not alter
the numerics here.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def central_difference(f, point: dict, name: str, h: float = 1e-6) -> float:
    """Central finite-difference derivative of f(point_dict) in one variable."""
    hi = dict(point)
    lo = dict(point)
    hi[name] = point[name] + h
    lo[name] = point[name] - h
    return (f(hi) - f(lo)) / (2.0 * h)


def fd_jacobian(func, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Dense central-difference Jacobian of a vector function of a vector."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x), dtype=float)
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        J[:, j] = (np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2.0 * h)
    return J


def eval_form_on_vectors(coeff_values: dict, vectors) -> float:
    """Multilinear evaluation of a form given coefficient values.

    ``coeff_values`` maps increasing index tuples to floats; ``vectors`` is a
    list of k coordinate vectors.  Computes sum_I c_I det(v[a][I[b]]).
    """
    k = len(vectors)
    total = 0.0
    for I, c in coeff_values.items():
        M = np.array([[vectors[a][i] for i in I] for a in range(k)], dtype=float)
        total += c * np.linalg.det(M) if k else c
    return float(total)


def wedge_on_vectors(coeffs_a: dict, deg_a: int, coeffs_b: dict, deg_b: int, vectors) -> float:
    """Shuffle-sum definition of (a ^ b)(v_1, ..., v_{k+l})."""
    k, l = deg_a, deg_b
    assert len(vectors) == k + l
    total = 0.0
    for subset in itertools.combinations(range(k + l), k):
        rest = tuple(i for i in range(k + l) if i not in subset)
        perm = subset + rest
        sign = permutation_sign(perm)
        va = [vectors[i] for i in subset]
        vb = [vectors[i] for i in rest]
        total += sign * eval_form_on_vectors(coeffs_a, va) * eval_form_on_vectors(coeffs_b, vb)
    return total


def permutation_sign(perm) -> int:
    """Sign via inversion count (independent of any library helper)."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def exterior_derivative_on_vectors(form_at, point: np.ndarray, vectors, h: float = 1e-5) -> float:
    """(da)(v_0..v_k) for constant vector fields via central differences.

    ``form_at(x)`` returns the coefficient-value dict of the k-form at x.
    Uses d a(v_0,...,v_k) = sum_i (-1)^i D_{v_i} [ a(..v_i omitted..) ].
    """
    total = 0.0
    for i, v in enumerate(vectors):
        others = [w for j, w in enumerate(vectors) if j != i]

        def slot(x):
            return eval_form_on_vectors(form_at(x), others)

        deriv = (slot(point + h * np.asarray(v)) - slot(point - h * np.asarray(v))) / (2.0 * h)
        total += (deriv if i % 2 == 0 else -deriv)
    return total


def rk4_step(func, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = np.asarray(func(x))
    k2 = np.asarray(func(x + 0.5 * dt * k1))
    k3 = np.asarray(func(x + 0.5 * dt * k2))
    k4 = np.asarray(func(x + dt * k3))
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_flow(func, x0: np.ndarray, t: float, steps: int = 1) -> np.ndarray:
    """Classical fixed-step fourth-order Runge-Kutta flow map."""
    x = np.asarray(x0, dtype=float).copy()
    dt = t / steps
    for _ in range(steps):
        x = rk4_step(func, x, dt)
    return x


def pullback_on_vectors(form_at, map_func, point: np.ndarray, vectors, h: float = 1e-6) -> float:
    """(F* a)(v_1..v_k) at point = a(J v_1, ..., J v_k) at F(point), J by FD."""
    J = fd_jacobian(map_func, point, h)
    image = np.asarray(map_func(point), dtype=float)
    pushed = [J @ np.asarray(v, dtype=float) for v in vectors]
    return eval_form_on_vectors(form_at(image), pushed)


def lie_derivative_on_vectors(form_at, field_func, point: np.ndarray, vectors, t: float = 1e-5) -> float:
    """Flow-based Lie derivative oracle, central in flow time.

    (L_X a)(v..) = d/dt|0 (phi_t^* a)(v..), approximated by the symmetric
    difference of the time +-t flow pullbacks with a fourth-order flow.
    """

    def pull(tt: float) -> float:
        def flow_map(x):
            return rk4_flow(field_func, x, tt, steps=4)

        return pullback_on_vectors(form_at, flow_map, point, vectors)

    return (pull(t) - pull(-t)) / (2.0 * t)


def betti_numbers_svd(boundaries, dims, tol: float = 1e-10) -> list[int]:
    """Betti numbers of a cochain complex via dense SVD rank counting.

    ``boundaries[k]`` is the dense/densifiable matrix of D_k mapping degree-k
    cochains to degree-(k+1); ``dims[k]`` the number of k-cochains.
    """
    ranks = []
    for D in boundaries:
        M = np.asarray(D.todense() if hasattr(D, "todense") else D, dtype=float)
        if M.size == 0:
            ranks.append(0)
            continue
        s = np.linalg.svd(M, compute_uv=False)
        top = s[0] if s.size and s[0] > 0 else 1.0
        ranks.append(int(np.sum(s > tol * top)))
    betti = []
    for k in range(len(dims)):
        rk = ranks[k] if k < len(ranks) else 0
        rkm1 = ranks[k - 1] if k > 0 else 0
        betti.append(dims[k] - rk - rkm1)
    return betti


def kunneth_betti(n: int, mu) -> list[int]:
    """Twisted Betti numbers of the n-torus by the Kuenneth formula: the circle
    with holonomy e^(-mu_j) has Betti numbers (1, 1) when mu_j = 0 and (0, 0)
    otherwise, so the product has C(n, k) when every mu_j is 0 and all zeros
    as soon as one is not."""
    if all(float(v) == 0.0 for v in mu):
        return [math.comb(n, k) for k in range(n + 1)]
    return [0] * (n + 1)


def quad_line_integral(component_func, a: float, b: float, n: int = 2001) -> float:
    """Composite Simpson quadrature of a scalar function on [a, b]."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    ys = np.array([component_func(x) for x in xs], dtype=float)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / (n - 1) / 3.0 * np.sum(w * ys))
