import functools
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lcskit import cohomology, forms, models, numeric, reduction, report, symexpr as sx
from lcskit.forms import SmoothMap, VectorField, linear_domain, pullback
import oracle_utils as oracle
from oracle_utils import random_polynomial_form

R2 = linear_domain("r2", ["x", "y"], -2.0, 2.0)
R3 = linear_domain("r3", ["x", "y", "z"], -2.0, 2.0)

ROTATION = VectorField(R2, (sx.neg(sx.var("y")), sx.var("x")))


def _flow_one(X, x0, time, with_jacobian=False):
    """``numeric.flow`` on a batch of one point."""
    return numeric.flow(X, np.array([x0], dtype=float), np.array([time], dtype=float), with_jacobian)


def test_flow_of_rotation_matches_closed_form():
    t = 0.8
    res = _flow_one(ROTATION, [1.0, 0.0], t, with_jacobian=True)
    c, s = np.cos(t), np.sin(t)
    assert np.allclose(res.point[0], [c, s], atol=1e-9)
    assert np.allclose(res.jacobian[0], [[c, -s], [s, c]], atol=1e-8)


def test_flow_jacobian_matches_fd_oracle():
    X = VectorField(R2, (sx.var("x") * sx.var("y"), sx.sin(sx.var("x"))))
    x0 = np.array([0.3, 0.2])
    t = 0.4
    res = _flow_one(X, x0, t, with_jacobian=True)

    def flow_map(p):
        return _flow_one(X, p, t).point[0]

    J_fd = oracle.fd_jacobian(flow_map, x0)
    assert np.allclose(res.jacobian[0], J_fd, atol=1e-6)


def test_flow_escape_is_masked():
    X = VectorField(R2, (sx.ONE, sx.ZERO))  # constant drift in x
    res = _flow_one(X, [1.5, 0.0], 5.0)
    assert res.escaped.tolist() == [True]
    assert res.escape_time[0] < 5.0
    assert res.point[0].tolist() == pytest.approx([2.0, 0.0])


def test_flow_zero_time_is_identity():
    res = _flow_one(ROTATION, [0.4, -0.2], 0.0, with_jacobian=True)
    assert np.allclose(res.point[0], [0.4, -0.2])
    assert np.allclose(res.jacobian[0], np.eye(2))
    assert not res.escaped[0] and np.isnan(res.escape_time[0])


def test_patching_module_solve_ivp_intercepts_every_flow(monkeypatch):
    # Profilers count integrator work by replacing ``numeric.solve_ivp``.
    original = numeric.solve_ivp
    nfev = []

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        nfev.append(result.nfev)
        return result

    want = _flow_one(ROTATION, [1.0, 0.0], 0.8, with_jacobian=True)
    monkeypatch.setattr(numeric, "solve_ivp", counting)
    got = _flow_one(ROTATION, [1.0, 0.0], 0.8, with_jacobian=True)
    _flow_one(ROTATION, [1.0, 0.0], 0.8)
    _flow_one(ROTATION, [1.0, 0.0], 0.0)  # time zero: nothing to integrate
    escape = _flow_one(VectorField(R2, (sx.ONE, sx.ZERO)), [1.5, 0.0], 5.0)
    assert escape.escaped[0]
    assert len(nfev) == 4 and nfev[2] == 0 and min(nfev[:2] + nfev[3:]) > 0
    assert np.array_equal(got.point, want.point) and np.array_equal(got.jacobian, want.jacobian)


@functools.cache
def _oracle_fields() -> dict[str, VectorField]:
    """ROTATION and the structure fields that the reduction chain flows: those
    of the stage-one charts over the plane and over sphere x circle (N=2)."""
    fields = {"rotation": ROTATION}
    sphere = models.model_sphere_circle(2)
    for label, (chart, decomp, _) in (
        ("plane", reduction.plane_chain_input()),
        ("sphere", reduction.sphere_circle_chain_input(sphere)),
    ):
        stage1 = reduction.build_step1(chart, decomp, reduction.ChainSettings(samples=20, verify_samples=20)).chart
        fields[f"{label}:b"] = stage1.b_field
        fields[f"{label}:e"] = stage1.anti_lee
    return fields


def _captured_flow(X, x0, time, with_jacobian):
    """Run ``numeric.flow`` on the rows ``x0`` (N, d) with times (N,) and
    return its result and each ``numeric.solve_ivp`` call it made, with the
    arguments and the solution."""
    calls = []
    original = numeric.solve_ivp

    def capture(fun, t_span, y0, **options):
        sol = original(fun, t_span, y0, **options)
        calls.append((fun, t_span, y0, options, sol))
        return sol

    with mock.patch.object(numeric, "solve_ivp", capture):
        res = numeric.flow(X, x0, time, with_jacobian=with_jacobian)
    return res, calls


def _assert_flow_matches_scipy_rk45(X, x0, time, with_jacobian):
    """Oracle: scipy's RK45 on the very right-hand side, span and events that
    ``numeric.flow`` hands its integrator for a batch of one, each taken on
    one row.  Returns the flow's escape time (None without an escape)."""
    res, calls = _captured_flow(X, np.array([x0], dtype=float), np.array([time], dtype=float), with_jacobian)
    assert len(calls) == 1
    fun, (t0, t_end), y0, options, ours = calls[0]

    def one_row(g):
        return lambda t, y: g(np.array([t]), y[None])[0]

    events = [one_row(event) for event in options.pop("events") or ()]
    for event in events:
        event.terminal = True
    want = scipy.integrate.solve_ivp(
        one_row(fun), (t0, float(np.asarray(t_end)[0])), y0[0], method="RK45", events=events or None, **options
    )
    assert ours.nfev == want.nfev == ours.row_nfev[0]
    fired = [i for i, t in enumerate(want.t_events or []) if len(t)]
    assert [i for i in ours.event if i >= 0] == fired
    assert res.escaped[0] == bool(fired)
    if fired:
        (i,) = fired
        assert abs(ours.t[0] - want.t_events[i][0]) <= 1e-12
        assert res.escape_time[0] == ours.t[0]
        assert np.allclose(res.point[0], want.y[:X.domain.dim, -1], rtol=0.0, atol=1e-12)
        return res.escape_time[0]
    assert np.array_equal(ours.y[0], want.y[:, -1])
    return None


def _start(X, unit) -> np.ndarray:
    return np.array([
        u if c.kind == forms.ANGULAR else c.lower + u * (c.upper - c.lower)
        for c, u in zip(X.domain.coords, unit)
    ])


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(["rotation", "plane:b", "plane:e", "sphere:b", "sphere:e"]),
    unit=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
    time=st.floats(-3.0, 3.0).filter(lambda t: abs(t) > 1e-3),
    with_jacobian=st.booleans(),
)
def test_dormand_prince_reproduces_scipy_rk45(field, unit, time, with_jacobian):
    X = _oracle_fields()[field]
    _assert_flow_matches_scipy_rk45(X, _start(X, unit), time, with_jacobian)


@pytest.mark.parametrize(
    "field, x0, time",
    [
        ("plane:b", [0.5, 0.0], 3.0),  # unit drift along a on [-1, 1]^2
        ("plane:e", [0.0, 0.5], -3.0),
        ("rotation", [1.9, 1.0], 2.0),  # radius 2.15 crosses y = 2
        ("sphere:e", [0.5, 0.0, 0.0, 0.3, 0.1, 0.2], 2.0),
        ("sphere:e", [0.5, 0.0, 0.0, 0.3, 0.1, 0.2], -2.0),
    ],
)
@pytest.mark.parametrize("with_jacobian", [False, True])
def test_dormand_prince_escapes_where_scipy_rk45_does(field, x0, time, with_jacobian):
    escape_time = _assert_flow_matches_scipy_rk45(_oracle_fields()[field], np.array(x0), time, with_jacobian)
    assert escape_time is not None and 0 < escape_time / time < 1


def test_dormand_prince_gives_up_where_scipy_rk45_does():
    # y' = y^2 from y(0) = 1 blows up at t = 1: both shrink the step below
    # the spacing of floats at the same state after the same calls
    def blow_up(t, y):
        return y * y

    ours = numeric.solve_ivp(blow_up, (0.0, np.array([2.0])), np.array([[1.0]]), rtol=1e-10, atol=1e-12)
    want = scipy.integrate.solve_ivp(blow_up, (0.0, 2.0), np.array([1.0]), method="RK45", rtol=1e-10, atol=1e-12)
    assert not want.success and ours.status.tolist() == [want.status] == [-1]
    assert ours.nfev == want.nfev
    assert np.array_equal(ours.y[0], want.y[:, -1])


_batch_rows = st.lists(
    st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
        st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    ),
    min_size=2,
    max_size=7,
)


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from(["rotation", "plane:b", "plane:e", "sphere:b", "sphere:e"]),
    rows=_batch_rows,
    with_jacobian=st.booleans(),
)
@example(  # drift along a on [-1, 1]^2: escapes forward and backward, a zero and a short row
    field="plane:b",
    rows=[([0.75] * 6, 3.0), ([0.5] * 6, 0.0), ([0.5] * 6, -0.25), ([0.25] * 6, -3.0), ([0.5] * 6, 0.5)],
    with_jacobian=True,
)
def test_each_row_of_a_batched_flow_is_its_batch_of_one(field, rows, with_jacobian):
    # batches mix escaping, time-zero and negative-time rows; every row takes
    # the steps it takes alone, so its end (or escape) is the same bit for bit
    X = _oracle_fields()[field]
    x0 = np.array([_start(X, unit) for unit, _ in rows])
    time = np.array([t for _, t in rows])
    batch, [(*_, sol)] = _captured_flow(X, x0, time, with_jacobian)
    for r in range(len(rows)):
        alone, [(*_, sol_alone)] = _captured_flow(X, x0[r:r + 1], time[r:r + 1], with_jacobian)
        assert batch.point[r].tobytes() == alone.point[0].tobytes()
        assert batch.escaped[r] == alone.escaped[0]
        assert np.array_equal(batch.escape_time[r], alone.escape_time[0], equal_nan=True)
        if with_jacobian:
            assert batch.jacobian[r].tobytes() == alone.jacobian[0].tobytes()
        assert sol.row_nfev[r] == sol_alone.nfev
        assert (sol_alone.nfev == 0) == (time[r] == 0)
    assert sol.nfev == sol.row_nfev.sum()


SPHERE_CHAIN = {"samples": 40, "verify_samples": 30, "flow_samples": 10, "concat_samples": 4}


@pytest.mark.parametrize(
    "task",
    [
        {"kind": "embed", "structure": "sphere2", "samples": 40},
        {"kind": "reduce-chain", "input": "sphere_circle", "structure": "sphere2", **SPHERE_CHAIN},
    ],
    ids=["embed", "reduce-chain"],
)
def test_patching_module_evaluate_sees_symbolic_and_flow_tasks(monkeypatch, task):
    # Profilers count single-expression evaluations by replacing
    # ``symexpr.evaluate``, and need some on symbolic and on flow-driven runs.
    # Batched callers (zero tests, form values, Jacobians, point maps, so every
    # verify task, the plane chain and the sphere stages) go through
    # ``evaluate_all`` instead; the quadrature of Lee-form periods remains,
    # which a product embedding reaches as it classifies its morphism.
    original = sx.evaluate
    calls = []

    def counting(e, env):
        calls.append(e)
        return original(e, env)

    monkeypatch.setattr(sx, "evaluate", counting)
    manifest = report.parse_manifest(
        {
            "seed": 0,
            "structures": {"sphere2": {"catalog": "sphere_circle", "args": {"N": 2, "q": 1.0}}},
            "tasks": [task],
        }
    )
    assert report.run_manifest(manifest).green
    assert calls


def test_numeric_pullback_agrees_with_symbolic():
    x, y = sx.var("x"), sx.var("y")
    F = SmoothMap(R2, R3, (x * y, sx.sin(x), x + y**2))
    a = random_polynomial_form(R3, 2, seed=7)
    sym = pullback(F, a)
    pm = oracle.JetsPointMap(F)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, size=2)
        got = oracle.numeric_pullback(a, pm, x0)
        want = forms.evaluate_form(sym, dict(zip(R2.names, x0)))
        for k in set(got) | set(want):
            assert got.get(k, 0.0) == pytest.approx(want.get(k, 0.0), abs=1e-10)


def test_composed_point_map_chain_rule():
    # the two-stage check's composition: a point map's images pushed through a
    # walked symbolic map, with DF = DG·DF, against the symbolic composite
    x, y = sx.var("x"), sx.var("y")
    F = SmoothMap(R2, R3, (x * y, sx.sin(x), x + y**2))
    z = sx.var("z")
    G = SmoothMap(R3, R2, (sx.var("x") + z, sx.var("y") * z))
    env = {"x": np.array([0.25, -1.5]), "y": np.array([-0.5, 0.75])}
    kept, f_env, JF = reduction._images(oracle.JetsPointMap(F), env, 2)
    _, g_env, JG = reduction._images(G, f_env, 2)
    J = np.einsum("ijk,jlk->ilk", JG, JF)
    sym_comp = oracle.compose(G, F)
    want_val = sx.evaluate_all(sym_comp.components, env)
    assert kept.tolist() == [0, 1]
    assert np.allclose([g_env[n] for n in R2.names], want_val, atol=1e-12)
    assert np.allclose(J, oracle.evaluate_jacobian(sym_comp, env), atol=1e-12)


@pytest.mark.parametrize("with_jacobian", [False, True])
def test_flow_domain_error_keeps_tree_walk_message_and_witness(with_jacobian):
    radicand = sx.var("x") - sx.Const(0.5)
    X = VectorField(R2, (sx.sqrt(radicand), sx.var("y")))
    x0 = np.array([0.25, -0.75])
    with pytest.raises(sx.EvaluationDomainError) as want:
        sx.evaluate(X.components[0], {"x": 0.25, "y": -0.75})
    with pytest.raises(sx.EvaluationDomainError) as got:
        _flow_one(X, x0, 0.1, with_jacobian=with_jacobian)
    assert str(got.value) == str(want.value)
    assert got.value.point == want.value.point == {"x": 0.25, "y": -0.75}


def test_flow_of_field_naming_a_missing_coordinate_raises():
    X = VectorField(R2, (sx.var("z"), sx.ONE))
    with pytest.raises(sx.UnknownCoordinateError, match="'z'"):
        _flow_one(X, [0.0, 0.0], 0.1)


def test_compiled_evaluators_are_built_once_per_object():
    X = VectorField(R2, (sx.var("x") * sx.var("y"), sx.sin(sx.var("x"))))
    _flow_one(X, [0.3, 0.2], 0.4, with_jacobian=True)
    jet = X.jet_at
    _flow_one(X, [0.1, 0.2], 0.4, with_jacobian=True)
    assert X.jet_at is jet
    value, J = jet(np.array([[0.5, 2.0]]))
    assert value[0].tolist() == [1.0, np.sin(0.5)]
    assert J[0].tolist() == [[2.0, 0.5], [np.cos(0.5), 0.0]]


def test_numerical_rank_and_kernel():
    M = np.array([[1.0, 0.0, 0.0], [0.0, 1e-14, 0.0]])
    assert numeric.numerical_rank(M) == 1
    K, nullity = numeric.kernel_bases(M)
    assert K.shape == (3, 3) and nullity == 2
    assert np.all(K[:, 0] == 0.0)  # the padding column in front of the kernel
    assert np.allclose(K[:, 1:].T @ K[:, 1:], np.eye(2), atol=1e-15)
    assert np.allclose(M @ K, 0.0, atol=1e-12)


def _planted_rank_stack(seed: int, batch: int, rows: int, cols: int) -> tuple[np.ndarray, list[int]]:
    """Matrices U diag(s) V^T with orthonormal U, V and s in [1, 10]: every
    nonzero singular value is at least a tenth of the largest, and every zero
    one sits at round-off, far from the rank threshold on either side."""
    rng = np.random.default_rng(seed)
    ranks = [int(rng.integers(0, min(rows, cols) + 1)) for _ in range(batch)]
    stack = np.zeros((batch, rows, cols))
    for i, k in enumerate(ranks):
        U = np.linalg.qr(rng.standard_normal((rows, rows)))[0][:, :k]
        V = np.linalg.qr(rng.standard_normal((cols, cols)))[0][:, :k]
        stack[i] = (U * rng.uniform(1.0, 10.0, k)) @ V.T
    return stack, ranks


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 6),
    rows=st.integers(1, 7),
    cols=st.integers(1, 7),
)
def test_numerical_rank_of_a_stack_matches_numpy_and_qr(seed, batch, rows, cols):
    stack, planted = _planted_rank_stack(seed, batch, rows, cols)
    stacked = numeric.numerical_rank(stack)
    assert stacked.shape == (batch,)
    per_matrix = [numeric.numerical_rank(M) for M in stack]
    assert all(type(r) is int for r in per_matrix)
    assert stacked.tolist() == per_matrix == planted
    # the stacked kernels are the per-matrix reference kernels, bit for bit
    K, nullity = numeric.kernel_bases(stack)
    assert nullity.tolist() == [cols - k for k in planted]
    for Ki, k, M in zip(K, planted, stack):
        assert np.array_equal(Ki[:, k:], oracle.kernel_basis(M))
        assert not Ki[:, :k].any()
    # independent routes: numpy's own relative-threshold rank, and pivoted QR
    assert [int(np.linalg.matrix_rank(M, rtol=numeric.RANK_RTOL)) for M in stack] == planted
    assert [cohomology.matrix_rank_qr(M, rows) for M in stack] == planted


def _planted_block(rng, rows, cols, dtype):
    k = int(rng.integers(0, min(rows, cols) + 1))
    U = np.linalg.qr(rng.standard_normal((rows, rows)).astype(dtype))[0][:, :k]
    V = np.linalg.qr(rng.standard_normal((cols, cols)).astype(dtype))[0][:, :k]
    if dtype is complex:
        U = U * np.exp(2j * np.pi * rng.random(rows))[:, None]
        V = V * np.exp(2j * np.pi * rng.random(cols))[:, None]
    return (U * rng.uniform(1.0, 10.0, k)) @ V.conj().T, k


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    blocks=st.integers(1, 6),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    zero_rows=st.integers(0, 3),
    zero_cols=st.integers(0, 3),
    dtype=st.sampled_from([float, complex]),
)
def test_stacked_rank_is_the_sum_of_planted_block_ranks(seed, blocks, shape, zero_rows, zero_cols, dtype):
    # equal blocks, each padded with zero rows and columns, stacked row-wise:
    # one SVD of the stack ranks the block-diagonal matrix they form
    rng = np.random.default_rng(seed)
    h, w = shape[0] + zero_rows, shape[1] + zero_cols
    stack = np.zeros((blocks, h, w), dtype=dtype)
    planted = 0
    for block in stack:
        block[:shape[0], :shape[1]], k = _planted_block(rng, *shape, dtype)
        planted += k
    assert cohomology.matrix_rank_qr(stack.reshape(blocks * h, w), h) == planted
    diagonal = np.zeros((blocks * h, blocks * w), dtype=dtype)
    for i, block in enumerate(stack):
        diagonal[i * h:(i + 1) * h, i * w:(i + 1) * w] = block
    assert int(np.linalg.matrix_rank(diagonal, rtol=numeric.RANK_RTOL)) == planted


def test_numerical_rank_edge_cases():
    assert numeric.numerical_rank(np.zeros((3, 4))) == 0
    assert numeric.numerical_rank(np.zeros((0, 4))) == 0
    assert numeric.numerical_rank(np.zeros((2, 0, 3))).tolist() == [0, 0]
    assert numeric.numerical_rank([1.0, 2.0]) == 1
    assert cohomology.matrix_rank_qr(np.zeros((3, 4)), 3) == cohomology.matrix_rank_qr(np.zeros((0, 4)), 1) == 0
    assert numeric.count_significant(np.array([[3.0, 1e-12, 0.0], [0.0, 0.0, 0.0]])).tolist() == [1, 0]


def test_jacobian_min_rank_is_the_minimum_over_samples():
    # DF of (x, y) -> (x, x*y, y**2) has rank 2 except where x = y = 0
    R2 = linear_domain("R2", ["x", "y"], -1.0, 1.0)
    x, y = sx.var("x"), sx.var("y")
    F = SmoothMap(R2, linear_domain("R3", ["a", "b", "c"]), (x, x * y, y * y))
    env = R2.sample_points(6, seed=2)
    _, J = forms.jet_arrays(F.components, R2.names, env)
    assert numeric.jacobian_min_rank(J) == numeric.jacobian_min_rank(oracle.evaluate_jacobian(F, env)) == 2
    env["x"][3] = env["y"][3] = 0.0
    assert numeric.jacobian_min_rank(forms.jet_arrays(F.components, R2.names, env)[1]) == 1
    assert numeric.jacobian_min_rank(J[..., :0]) == 2


def test_subspace_gap():
    A = np.array([[1.0], [0.0]])
    B = np.array([[1.0], [1e-12]]) / np.hypot(1.0, 1e-12)
    C = np.array([[0.0], [1.0]])
    gaps = numeric.subspace_gaps(np.stack([A, A]), [1, 1], np.stack([B, C]), [1, 1])
    assert gaps[0] == pytest.approx(1e-12, rel=1e-6)
    assert gaps[1] == pytest.approx(1.0)
    assert oracle.subspace_gap(A, C) == pytest.approx(1.0)
    # dimensions differ: incomparable; both spans zero: no gap
    padded = np.hstack([A, np.zeros((2, 1))])
    assert numeric.subspace_gaps(padded, 1, np.eye(2), 2) == 2.0 == oracle.subspace_gap(A, np.eye(2))
    assert numeric.subspace_gaps(np.zeros((2, 2)), 0, np.zeros((2, 2)), 0) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    data=st.data(),
    log_theta=st.floats(-13.0, -2.0),
)
def test_subspace_gap_reads_a_planted_small_angle(seed, n, data, log_theta):
    # spans of equal dimension k that share k - 1 directions and meet at the
    # principal angle theta in the last: the gap is sin(theta), also far below
    # sqrt(eps), where the cosine formula floors
    k = data.draw(st.integers(1, n - 1))
    theta = 10.0**log_theta
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    A = Q[:, :k]
    B = A.copy()
    B[:, -1] = np.cos(theta) * Q[:, k - 1] + np.sin(theta) * Q[:, k]
    gap = float(numeric.subspace_gaps(A, k, B, k))
    assert abs(gap - np.sin(theta)) <= 1e-6 * np.sin(theta) + 1e-15


def test_wrap_point():
    d = forms.make_domain("mix", [("t", forms.ANGULAR), ("x", "linear", -1.0, 1.0)])
    out = numeric.wrap_point(d, np.array([1.25, -0.5]))
    assert np.allclose(out, [0.25, -0.5])
