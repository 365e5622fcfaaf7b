import numpy as np
import pytest

from lcskit import forms, numeric, symexpr as sx
from lcskit.forms import SmoothMap, VectorField, linear_domain, pullback, random_polynomial_form
import oracle_utils as oracle

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


def test_numeric_pullback_agrees_with_symbolic():
    x, y = sx.var("x"), sx.var("y")
    F = SmoothMap(R2, R3, (x * y, sx.sin(x), x + y**2))
    a = random_polynomial_form(R3, 2, seed=7)
    sym = pullback(F, a)
    pm = numeric.SymbolicPointMap(F)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, size=2)
        got = numeric.numeric_pullback(a, pm, x0)
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
    sym_comp = forms.compose(G, F)
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
