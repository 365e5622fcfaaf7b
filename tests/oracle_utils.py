"""Independent numerical oracles shared by the test suite.

The oracles in the first part are deliberately written against *raw
callables and arrays*, not against the package's symbolic machinery, so
that the library implementation and the oracle can only agree by computing
the same mathematics.  Frozen: tests may add new call sites but should not
alter the numerics here.

The second part holds helpers built on the package's types that no run
needs: the sample points drawn by numpy's own generator, seeded test-form
and test-map generators, the symbolic Lie
derivative and Lie bracket (derivative trees), symbolic composition, the
pointwise determinant pullback, the symbolic pullback of an embedding
problem's one-form, a map's Jacobian evaluated from its symbolic trees, a
point-map adapter over a map's jets walk, the reducibility verifier's
per-sample tangency, kernel and subspace-gap route, the sparse cut complex of a grid torus with
its gauge conjugation, translation averaging and dense least-squares
obstruction distance, and the sphere atlas overlap check.  Tests use them
as generators and as second routes to the code that runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from lcskit import forms, reduction, symexpr as sx
from lcskit.cohomology import CohomologyError, TwistedCochainComplex
from lcskit.forms import ANGULAR, Coordinate, CoordinateDomain, DifferentialForm, SmoothMap, VectorField
from lcskit.models import LcsStructure, ModelError, StructureChart
from lcskit.numeric import RANK_RTOL, PointMap, count_significant


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


# ---------------------------------------------------------------------------
# helpers on the package's types: generators and second routes


def numpy_sample_points(domain: CoordinateDomain, samples: int, seed: int = 0, margin: float = 0.0) -> dict:
    """Sample points drawn through ``numpy.random.default_rng`` itself, one
    ``random(samples)`` call per coordinate: the reference for
    ``CoordinateDomain.sample_points``."""
    rng = np.random.default_rng(seed)
    out = {}
    for c in domain.coords:
        u = rng.random(samples)
        if c.kind == ANGULAR:
            out[c.name] = u
        else:
            lo, hi = c.lower, c.upper
            if margin:
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * (1.0 - margin)
                lo, hi = mid - half, mid + half
            out[c.name] = lo + (hi - lo) * u
    return out


def random_polynomial_form(
    domain: CoordinateDomain, degree: int, seed: int = 0, amplitude: float = 1.0
) -> DifferentialForm:
    """Seeded smooth test form: low-order polynomial/trigonometric coefficients.

    Linear coordinates enter as themselves, angular ones as sin(2*pi*x), so
    coefficients always respect periodicity.  Deterministic in (domain,
    degree, seed).
    """
    rng = np.random.default_rng(seed)
    basis = [_coordinate_basis_expr(c) for c in domain.coords]
    coeffs: dict[tuple[int, ...], sx.Expr] = {}
    for I in itertools.combinations(range(domain.dim), degree):
        c0, c1 = rng.uniform(-amplitude, amplitude, size=2)
        pick = int(rng.integers(0, domain.dim))
        coeffs[I] = sx.add(sx.Const(c0), sx.mul(sx.Const(c1), basis[pick]))
    return DifferentialForm(domain, degree, coeffs)


def random_map(source: CoordinateDomain, target: CoordinateDomain, seed: int) -> SmoothMap:
    """Seeded map whose components are c0 x_i + c1 sin(x_j x_k)."""
    rng = np.random.default_rng(seed)
    xs = [sx.var(n) for n in source.names]
    comps = []
    for _ in range(target.dim):
        i, j, k = rng.integers(0, source.dim, size=3)
        c0, c1 = rng.uniform(-1.0, 1.0, size=2)
        comps.append(sx.add(sx.mul(sx.Const(c0), xs[i]), sx.mul(sx.Const(c1), sx.sin(sx.mul(xs[j], xs[k])))))
    return SmoothMap(source, target, tuple(comps))


def _coordinate_basis_expr(c: Coordinate) -> sx.Expr:
    if c.kind == ANGULAR:
        return sx.sin(sx.mul(sx.Const(2.0 * np.pi), sx.Var(c.name)))
    return sx.Var(c.name)


def lie_derivative(X: VectorField, a: DifferentialForm) -> DifferentialForm:
    """Symbolic Lie derivative by Cartan's formula i_X d a + d i_X a: the
    derivative-tree route to the sampled ``forms.lie_derivative``."""
    forms._check_domains(X.domain, a.domain)
    first = forms.interior(X, forms.ext_d(a))
    if a.degree == 0:
        return first
    return first + forms.ext_d(forms.interior(X, a))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Symbolic commutator [X, Y]: the derivative-tree route to the sampled
    ``forms.lie_bracket``."""
    forms._check_domains(X.domain, Y.domain)
    names = X.domain.names
    comps = []
    for i in range(X.domain.dim):
        terms = []
        for j, nj in enumerate(names):
            dy = sx.diff(Y.components[i], nj)
            if not sx.is_structural_zero(dy):
                terms.append(sx.mul(X.components[j], dy))
            dx = sx.diff(X.components[i], nj)
            if not sx.is_structural_zero(dx):
                terms.append(sx.neg(sx.mul(Y.components[j], dx)))
        comps.append(sx.add(*terms) if terms else sx.ZERO)
    return VectorField(X.domain, tuple(comps))


def evaluate_jacobian(F: SmoothMap, env) -> np.ndarray:
    """Jacobian of a map at sample points, shape (tgt, src, *batch), from its
    symbolic Jacobian trees: the derivative-tree route to the Jacobians
    ``forms.jet_arrays`` walks."""
    vals = sx.evaluate_all([e for row in F.jacobian for e in row], env)
    return np.array(vals).reshape(F.target.dim, F.source.dim, *sx.batch_shape(env))


class JetsPointMap(PointMap):
    """A symbolic map behind the point-map interface: values and Jacobians
    from one ``forms.jet_arrays`` walk of the points, unwrapped, every row
    defined."""

    def __init__(self, F: SmoothMap):
        self.source, self.target, self.map = F.source, F.target, F

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        names = self.source.names
        values, J = forms.jet_arrays(self.map.components, names, dict(zip(names, np.transpose(x))))
        return values.T, np.moveaxis(J, -1, 0), np.ones(len(x), dtype=bool)


def compose(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """``outer`` after ``inner`` (source of ``outer`` = target of ``inner``),
    by symbolic substitution."""
    forms._check_domains(outer.source, inner.target)
    repl = dict(zip(outer.source.names, inner.components))
    return SmoothMap(
        inner.source, outer.target, tuple(sx.substitute(c, repl) for c in outer.components)
    )


def chart_form(problem, F: SmoothMap) -> DifferentialForm:
    """The given one-form sum c dx of an ``embed.EmbeddingProblem`` pulled
    back through its chart ``F`` as a symbolic form: the derivative-tree
    route to the theta_bar the embedding stages read off their jets walks."""
    amb = problem.ambient
    one_form = DifferentialForm(amb, 1, {(amb.index(n),): c for n, c in problem.coefficients})
    return forms.pullback(F, one_form)


def numeric_pullback(
    a: DifferentialForm, point_map: PointMap, x: np.ndarray
) -> dict[tuple[int, ...], float]:
    """Coefficients of (F* a) at ``x`` for a pointwise-defined F, by minors of
    the Jacobian.  Returns a dict over increasing multi-indices of the source
    domain."""
    if a.domain != point_map.target:
        raise forms.DomainMismatchError("form does not live on the map's target")
    values, Js, _ = point_map(np.asarray(x, dtype=float)[None])
    value, J = values[0], Js[0]
    coeff_vals = forms.evaluate_form(a, dict(zip(a.domain.names, value)))
    k = a.degree
    src_dim = point_map.source.dim
    out: dict[tuple[int, ...], float] = {}
    if k == 0:
        return {(): sum(coeff_vals.values())} if coeff_vals else {(): 0.0}
    for I in itertools.combinations(range(src_dim), k):
        total = 0.0
        cols = J[:, I]
        for Jidx, c in coeff_vals.items():
            total += c * float(np.linalg.det(cols[Jidx, :]))
        out[I] = total
    return out


def pullback_residual_at(
    symbolic: DifferentialForm, a: DifferentialForm, point_map: PointMap, x: np.ndarray
) -> float:
    """Max coefficient gap between a symbolic form and a numeric pullback."""
    got = numeric_pullback(a, point_map, x)
    want = forms.evaluate_form(symbolic, dict(zip(symbolic.domain.names, x)))
    keys = set(got) | set(want)
    return max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys) if keys else 0.0


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


@dataclass(frozen=True)
class PointwiseReducibility:
    """The verifier's linear-algebra readings, taken one sample at a time."""

    b_tangency: float
    e_tangency: float
    distribution_ranks: list[int]
    quotient_kernel_dims: list[int]
    gap: float
    samples_used: int


def pointwise_reducibility(
    data: reduction.ReducibleData, samples: int, seed: int = 0, margin: float = 0.3,
    rank_threshold: float = 1e-8,
) -> PointwiseReducibility:
    """Tangency, distribution kernels and quotient-kernel gap of a reducible
    datum by per-sample loops: ``lstsq`` at ``rcond=RANK_RTOL`` for
    tangency, :func:`kernel_basis` per matrix, and the QR-plus-cosine
    :func:`subspace_gap`.  The reference route for the stacked verifier."""
    amb, C = data.ambient, data.submanifold
    env = C.source.sample_points(samples, seed, margin)
    image_env = dict(zip(amb.domain.names, sx.evaluate_all(C.components, env)))
    JC = evaluate_jacobian(C, env)
    fields = sx.evaluate_all(amb.b_field.components + amb.anti_lee.components, image_env)
    b_vals, e_vals = np.array(fields[: amb.domain.dim]), np.array(fields[amb.domain.dim :])
    b_tan = e_tan = 0.0
    for i in range(samples):
        Ji = JC[:, :, i]
        for vec, which in ((b_vals[:, i], "b"), (e_vals[:, i], "e")):
            sol, *_ = np.linalg.lstsq(Ji, vec, rcond=RANK_RTOL)
            res = float(np.max(np.abs(Ji @ sol - vec))) / max(1.0, float(np.max(np.abs(vec))))
            if which == "b":
                b_tan = max(b_tan, res)
            else:
                e_tan = max(e_tan, res)

    alpha_c = forms.pullback(C, amb.alpha)
    lee_rows = forms.form_values(forms.pullback(C, amb.lee), env)
    alpha_rows = forms.form_values(alpha_c, env)
    dalpha_tensor = forms.form_values(forms.ext_d(alpha_c), env)
    kernels = []
    for i in range(samples):
        A = np.vstack([lee_rows[:, i][None, :], alpha_rows[:, i][None, :], dalpha_tensor[:, :, i]])
        kernels.append(kernel_basis(A, rank_threshold))

    kept, _, Jq = reduction._images(data.quotient, env, samples)
    q_kernels = [kernel_basis(Jq[:, :, k], rank_threshold) for k in range(len(kept))]
    gap = 0.0
    for k, i in enumerate(kept):
        gap = max(gap, subspace_gap(kernels[i], q_kernels[k]))
    return PointwiseReducibility(
        b_tan, e_tan, [K.shape[1] for K in kernels], [K.shape[1] for K in q_kernels], gap, len(kept)
    )


def axis_rescaling_potential(C: TwistedCochainComplex, axis: int, c: float) -> np.ndarray:
    """Vertex potential whose conjugation multiplies the cut-crossing weights
    of one axis by e^(-c), moving the compensating factor to the next slice."""
    if not 0 <= axis < C.n:
        raise CohomologyError(f"axis {axis} out of range for dimension {C.n}")
    coords = np.array(np.unravel_index(np.arange(C.vertex_count), (C.m,) * C.n))
    target = (C.cuts[axis] + 1) % C.m
    return np.where(coords[axis] == target, float(c), 0.0)


def cut_coboundaries(C: TwistedCochainComplex) -> tuple[sparse.csr_matrix, ...]:
    """The coboundaries D_0..D_(n-1) of the cut complex as sparse matrices,
    rows and columns ordered (direction subset, vertex) as ``C.cell_index``.

    The block of D_k from subset T - t to T, t = T[i], is (-1)^i times the
    weighted difference along axis t, x(v) -> c_t(v) x(v + e_t) - x(v), with
    c_t(v) the holonomy weight of axis t where v sits on its cut and 1
    elsewhere.  Cancelling terms of D_(k+1) D_k multiply the same floats, so
    the coboundaries square to zero exactly.
    """
    m, n = C.m, C.n
    shift = sparse.csr_matrix((np.ones(m), (np.arange(m), (np.arange(m) + 1) % m)), shape=(m, m))
    differences = []
    for t in range(n):
        step = sparse.diags(np.where(np.arange(m) == C.cuts[t], C.weights[t], 1.0)) @ shift - sparse.identity(m)
        differences.append(sparse.kron(sparse.kron(sparse.identity(m**t), step), sparse.identity(m ** (n - 1 - t))))
    out = []
    for k in range(n):
        blocks = [[None] * len(C.subsets[k]) for _ in C.subsets[k + 1]]
        for upper, T in enumerate(C.subsets[k + 1]):
            for i, t in enumerate(T):
                blocks[upper][C.subsets[k].index(T[:i] + T[i + 1:])] = (-1) ** i * differences[t]
        out.append(sparse.bmat(blocks, format="csr"))
    return tuple(out)


def lstsq_image_distance(C: TwistedCochainComplex, a: np.ndarray) -> float:
    """Normalized distance of a two-cochain from the image of the cut D_1 by
    a dense least-squares solve, its singular values cut at ``RANK_RTOL``."""
    D1 = cut_coboundaries(C)[1].toarray()
    solution = np.linalg.lstsq(D1, a, rcond=RANK_RTOL)[0]
    return float(np.linalg.norm(a - D1 @ solution) / np.linalg.norm(a))


def gauge_conjugate(
    C: TwistedCochainComplex, potential: np.ndarray
) -> tuple[sparse.csr_matrix, ...]:
    """Conjugate every cut coboundary by the diagonal rescaling e^(potential).

    ``potential`` is a per-vertex array; a k-cochain rescales by the value at
    its base vertex.  Conjugation is an isomorphism of complexes, so all
    Betti numbers are unchanged whatever the potential.
    """
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (C.vertex_count,):
        raise CohomologyError(
            f"potential must have one value per vertex ({C.vertex_count}), got {potential.shape}"
        )
    scale = np.exp(potential)
    out = []
    for k, D in enumerate(cut_coboundaries(C)):
        upper = len(C.subsets[k + 1])
        lower = len(C.subsets[k])
        S_up = sparse.diags(np.tile(scale, upper))
        S_down_inv = sparse.diags(np.tile(1.0 / scale, lower))
        out.append((S_up @ D @ S_down_inv).tocsr())
    return tuple(out)


def _require_degree(C: TwistedCochainComplex, degree: int, a: np.ndarray) -> np.ndarray:
    if not 0 <= degree <= C.n:
        raise CohomologyError(f"degree {degree} out of range 0..{C.n}")
    a = np.asarray(a, dtype=float)
    if a.shape != (C.cells[degree],):
        raise CohomologyError(
            f"a degree-{degree} cochain has {C.cells[degree]} entries, got {a.shape}"
        )
    return a


def average_cochain(C: TwistedCochainComplex, degree: int, a: np.ndarray) -> np.ndarray:
    """Average a cochain over all grid translations (trivial weights only).

    Averaging is the orthogonal projection onto translation-invariant
    cochains; with trivial weights the coboundaries are translation
    equivariant, so averaging commutes with them exactly.
    """
    if any(w != 1.0 for w in C.weights):
        raise CohomologyError(
            "averaging uses the translation action; it needs trivial weights (mu = 0)"
        )
    a = _require_degree(C, degree, a)
    blocks = a.reshape(len(C.subsets[degree]), C.vertex_count)
    means = blocks.mean(axis=1)
    return np.repeat(means, C.vertex_count)


@dataclass(frozen=True)
class OverlapReport:
    passed: bool
    max_residual: float
    pairs_checked: int
    samples_used: int
    tol: float


def _dropped_name(chart: StructureChart) -> str:
    return chart.name.rsplit("_", 1)[0]


def sphere_overlap_report(
    structure: LcsStructure, samples: int = 60, tol: float = 1e-9, seed: int = 0,
    min_clearance: float = 0.15,
) -> OverlapReport:
    """Chart-to-chart consistency of the sphere-circle atlas.

    For every ordered chart pair with different dropped coordinates, samples
    of the first chart whose image lies well inside the second chart's
    hemisphere are mapped across, and all structure forms are compared.
    """
    if structure.ambient is None:
        raise ModelError("overlap checks need an atlas-based structure")
    charts = structure.charts
    worst = 0.0
    pairs = 0
    used = 0
    for ci, cj in itertools.permutations(charts, 2):
        drop_i, drop_j = _dropped_name(ci), _dropped_name(cj)
        if drop_i == drop_j:
            continue  # same graph direction: transition is the identity
        sign_j = 1.0 if cj.name.endswith("plus") else -1.0
        # transition: express chart-j coordinates in chart-i coordinates
        comps = []
        for n in cj.domain.names:
            comps.append(ci.parametrization.component(n))
        T = SmoothMap(ci.domain, cj.domain, tuple(comps))
        env = ci.domain.sample_points(samples, seed + pairs)
        val_dj = sx.evaluate(ci.parametrization.component(drop_j), env)
        keep = sign_j * val_dj > min_clearance
        if not np.any(keep):
            pairs += 1
            continue
        env_kept = {k: v[keep] for k, v in env.items()}
        used += int(np.sum(keep))
        deltas = [
            a_i - forms.pullback(T, a_j)
            for a_i, a_j in ((ci.alpha, cj.alpha), (ci.phi, cj.phi), (ci.lee, cj.lee))
        ]
        for vals in sx.evaluate_all([c for delta in deltas for c in delta.coeffs.values()], env_kept):
            worst = max(worst, float(np.max(np.abs(vals))))
        pairs += 1
    return OverlapReport(worst <= tol, worst, pairs, used, tol)
