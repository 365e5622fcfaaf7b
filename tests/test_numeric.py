import functools
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lcskit import cohomology, forms, models, numeric, reduction, report, symexpr as sx
from lcskit.forms import SmoothMap, VectorField, linear_domain, pullback
import oracle_utils as oracle
from oracle_utils import random_polynomial_form

R2 = linear_domain("r2", ["x", "y"], -2.0, 2.0)
R3 = linear_domain("r3", ["x", "y", "z"], -2.0, 2.0)

ROTATION = VectorField(R2, (sx.neg(sx.var("y")), sx.var("x")))


def test_flow_of_rotation_matches_closed_form():
    t = 0.8
    res = numeric.flow(ROTATION, np.array([1.0, 0.0]), t, with_jacobian=True)
    c, s = np.cos(t), np.sin(t)
    assert np.allclose(res.point, [c, s], atol=1e-9)
    assert np.allclose(res.jacobian, [[c, -s], [s, c]], atol=1e-8)


def test_flow_jacobian_matches_fd_oracle():
    X = VectorField(R2, (sx.var("x") * sx.var("y"), sx.sin(sx.var("x"))))
    x0 = np.array([0.3, 0.2])
    t = 0.4
    res = numeric.flow(X, x0, t, with_jacobian=True)

    def flow_map(p):
        return numeric.flow(X, p, t, check_escape=False).point

    J_fd = oracle.fd_jacobian(flow_map, x0)
    assert np.allclose(res.jacobian, J_fd, atol=1e-6)


def test_flow_escape_raises():
    X = VectorField(R2, (sx.ONE, sx.ZERO))  # constant drift in x
    with pytest.raises(numeric.FlowEscapeError) as err:
        numeric.flow(X, np.array([1.5, 0.0]), 5.0)
    assert err.value.time < 5.0


def test_flow_zero_time_is_identity():
    res = numeric.flow(ROTATION, np.array([0.4, -0.2]), 0.0, with_jacobian=True)
    assert np.allclose(res.point, [0.4, -0.2])
    assert np.allclose(res.jacobian, np.eye(2))


def test_patching_module_solve_ivp_intercepts_every_flow(monkeypatch):
    # Profilers count integrator work by replacing ``numeric.solve_ivp``.
    original = numeric.solve_ivp
    nfev = []

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        nfev.append(result.nfev)
        return result

    x0 = np.array([1.0, 0.0])
    want = numeric.flow(ROTATION, x0, 0.8, with_jacobian=True)
    monkeypatch.setattr(numeric, "solve_ivp", counting)
    got = numeric.flow(ROTATION, x0, 0.8, with_jacobian=True)
    numeric.flow(ROTATION, x0, 0.8)
    numeric.flow(ROTATION, x0, 0.0)  # time zero: nothing to integrate
    with pytest.raises(numeric.FlowEscapeError):
        numeric.flow(VectorField(R2, (sx.ONE, sx.ZERO)), np.array([1.5, 0.0]), 5.0)
    assert len(nfev) == 3 and min(nfev) > 0
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
        stage1 = reduction.build_step1(chart, decomp, samples=20, verify_samples=20).chart
        fields[f"{label}:b"] = stage1.b_field
        fields[f"{label}:e"] = stage1.anti_lee
    return fields


def _captured_integrations(X, x0, time, with_jacobian):
    """Run ``numeric.flow`` and return its escape (or None) and each
    ``numeric.solve_ivp`` call it made, with the arguments and the result."""
    calls = []
    original = numeric.solve_ivp

    def capture(fun, t_span, y0, **options):
        sol = original(fun, t_span, y0, **options)
        calls.append((fun, t_span, y0, options, sol))
        return sol

    with mock.patch.object(numeric, "solve_ivp", capture):
        try:
            numeric.flow(X, x0, time, with_jacobian=with_jacobian)
            escape = None
        except numeric.FlowEscapeError as exc:
            escape = exc
    return escape, calls


def _assert_flow_matches_scipy_rk45(X, x0, time, with_jacobian):
    """Oracle: scipy's RK45 on the very right-hand side, span and events that
    ``numeric.flow`` hands its integrator.  Returns the flow's escape."""
    escape, calls = _captured_integrations(X, x0, time, with_jacobian)
    assert len(calls) == 1
    fun, t_span, y0, options, ours = calls[0]
    for event in options["events"] or ():
        event.terminal = True
    want = scipy.integrate.solve_ivp(fun, t_span, y0, method="RK45", **options)
    assert ours.nfev == want.nfev
    fired = [i for i, t in enumerate(want.t_events or []) if len(t)]
    assert [i for i, t in enumerate(ours.t_events or []) if len(t)] == fired
    assert (escape is not None) == bool(fired)
    if fired:
        (i,) = fired
        assert abs(ours.t_events[i][0] - want.t_events[i][0]) <= 1e-12
        assert escape.time == ours.t_events[i][0]
        assert np.allclose(escape.point, want.y[:X.domain.dim, -1], rtol=0.0, atol=1e-12)
    else:
        assert np.array_equal(ours.y[:, -1], want.y[:, -1])
    return escape


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(["rotation", "plane:b", "plane:e", "sphere:b", "sphere:e"]),
    unit=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
    time=st.floats(-3.0, 3.0).filter(lambda t: abs(t) > 1e-3),
    with_jacobian=st.booleans(),
)
def test_dormand_prince_reproduces_scipy_rk45(field, unit, time, with_jacobian):
    X = _oracle_fields()[field]
    x0 = np.array([
        u if c.kind == forms.ANGULAR else c.lower + u * (c.upper - c.lower)
        for c, u in zip(X.domain.coords, unit)
    ])
    _assert_flow_matches_scipy_rk45(X, x0, time, with_jacobian)


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
    escape = _assert_flow_matches_scipy_rk45(_oracle_fields()[field], np.array(x0), time, with_jacobian)
    assert escape is not None and 0 < escape.time / time < 1


def test_dormand_prince_gives_up_where_scipy_rk45_does():
    # y' = y^2 from y(0) = 1 blows up at t = 1: both shrink the step below
    # the spacing of floats at the same state after the same calls
    def blow_up(t, y):
        return y * y

    ours = numeric.solve_ivp(blow_up, (0.0, 2.0), np.array([1.0]), rtol=1e-10, atol=1e-12)
    want = scipy.integrate.solve_ivp(blow_up, (0.0, 2.0), np.array([1.0]), method="RK45", rtol=1e-10, atol=1e-12)
    assert not ours.success and not want.success
    assert ours.message == want.message
    assert ours.nfev == want.nfev
    assert np.array_equal(ours.y[:, -1], want.y[:, -1])


SPHERE_CHAIN = {"samples": 40, "verify_samples": 30, "flow_samples": 10, "concat_samples": 4}


@pytest.mark.parametrize(
    "task",
    [
        {"kind": "embed", "corpus": "circle"},
        {"kind": "reduce-chain", "input": "sphere_circle", "structure": "sphere2", **SPHERE_CHAIN},
    ],
    ids=["embed", "reduce-chain"],
)
def test_patching_module_evaluate_sees_symbolic_and_flow_tasks(monkeypatch, task):
    # Profilers count single-expression evaluations by replacing
    # ``symexpr.evaluate``, and need some on symbolic and on flow-driven runs.
    # Batched callers (zero tests, form values, Jacobians, point maps, so every
    # verify task and the plane chain) go through ``evaluate_all`` instead;
    # the sphere radicand check and the quadrature of Lee-form periods remain.
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
    pm = numeric.SymbolicPointMap(F)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, size=2)
        got = oracle.numeric_pullback(a, pm, x0)
        want = forms.evaluate_form(sym, dict(zip(R2.names, x0)))
        for k in set(got) | set(want):
            assert got.get(k, 0.0) == pytest.approx(want.get(k, 0.0), abs=1e-10)


def test_composed_point_map_chain_rule():
    x, y = sx.var("x"), sx.var("y")
    F = SmoothMap(R2, R3, (x * y, sx.sin(x), x + y**2))
    z = sx.var("z")
    G = SmoothMap(R3, R2, (sx.var("x") + z, sx.var("y") * z))
    comp = numeric.ComposedPointMap(numeric.SymbolicPointMap(G), numeric.SymbolicPointMap(F))
    x0 = np.array([0.25, -0.5])
    val, J = comp(x0)
    sym_comp = oracle.compose(G, F)
    want_val, want_J = sym_comp.jet_at(x0)
    assert np.allclose(val, want_val, atol=1e-12)
    assert np.allclose(J, want_J, atol=1e-12)


@pytest.mark.parametrize("with_jacobian", [False, True])
def test_flow_domain_error_keeps_tree_walk_message_and_witness(with_jacobian):
    radicand = sx.var("x") - sx.Const(0.5)
    X = VectorField(R2, (sx.sqrt(radicand), sx.var("y")))
    x0 = np.array([0.25, -0.75])
    with pytest.raises(sx.EvaluationDomainError) as want:
        sx.evaluate(X.components[0], {"x": 0.25, "y": -0.75})
    with pytest.raises(sx.EvaluationDomainError) as got:
        numeric.flow(X, x0, 0.1, with_jacobian=with_jacobian)
    assert str(got.value) == str(want.value)
    assert got.value.point == want.value.point == {"x": 0.25, "y": -0.75}


def test_flow_of_field_naming_a_missing_coordinate_raises():
    X = VectorField(R2, (sx.var("z"), sx.ONE))
    with pytest.raises(sx.UnknownCoordinateError, match="'z'"):
        numeric.flow(X, np.array([0.0, 0.0]), 0.1)


def test_compiled_evaluators_are_built_once_per_object():
    X = VectorField(R2, (sx.var("x") * sx.var("y"), sx.sin(sx.var("x"))))
    numeric.flow(X, np.array([0.3, 0.2]), 0.4, with_jacobian=True)
    jet = X.jet_at
    numeric.flow(X, np.array([0.1, 0.2]), 0.4, with_jacobian=True)
    assert X.jet_at is jet
    F = SmoothMap(R2, R3, (sx.var("x"), sx.var("y"), sx.var("x") * sx.var("y")))
    pm = numeric.SymbolicPointMap(F)
    value, J = pm(np.array([0.5, 2.0]))
    assert F.jet_at is F.jet_at
    assert value.tolist() == [0.5, 2.0, 1.0]
    assert J.tolist() == [[1.0, 0.0], [0.0, 1.0], [2.0, 0.5]]


def test_numerical_rank_and_kernel():
    M = np.array([[1.0, 0.0, 0.0], [0.0, 1e-14, 0.0]])
    assert numeric.numerical_rank(M) == 1
    K = numeric.kernel_basis(M)
    assert K.shape == (3, 2)
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


def test_subspace_gap():
    A = np.array([[1.0], [0.0]])
    B = np.array([[1.0], [1e-12]])
    assert numeric.subspace_gap(A, B) < 1e-10
    C = np.array([[0.0], [1.0]])
    assert numeric.subspace_gap(A, C) == pytest.approx(1.0)
    assert numeric.subspace_gap(A, np.eye(2)) == 2.0


def test_wrap_point():
    d = forms.make_domain("mix", [("t", forms.ANGULAR), ("x", "linear", -1.0, 1.0)])
    out = numeric.wrap_point(d, np.array([1.25, -0.5]))
    assert np.allclose(out, [0.25, -0.5])
