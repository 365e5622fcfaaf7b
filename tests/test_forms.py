import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcskit import forms, numeric, symexpr as sx
from lcskit.forms import (
    ANGULAR,
    Coordinate,
    CoordinateDomain,
    DifferentialForm,
    SmoothMap,
    VectorField,
    basis_vector,
    ext_d,
    evaluate_form,
    identity_map,
    interior,
    linear_domain,
    pullback,
    wedge,
)
import oracle_utils as oracle
from oracle_utils import compose, form_is_zero, lie_bracket, lie_derivative, random_polynomial_form

R2 = linear_domain("r2", ["x", "y"])
R3 = linear_domain("r3", ["x", "y", "z"])
R4 = linear_domain("r4", ["x", "y", "z", "w"])


def _point(domain, seed):
    rng = np.random.default_rng(seed)
    return {n: float(rng.uniform(-0.8, 0.8)) for n in domain.names}


def _form_at(a):
    """Coefficient-value dict of a form at an array-valued point."""

    names = a.domain.names

    def at(x):
        env = {n: float(v) for n, v in zip(names, x)}
        return {idx: float(sx.evaluate(c, env)) for idx, c in a.coeffs.items()}

    return at


def _vectors(dim, count, seed):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1, 1, size=dim) for _ in range(count)]


# ---------------------------------------------------------------------------
# domains


def test_domain_rejects_duplicates_and_empty_ranges():
    with pytest.raises(forms.FormError):
        CoordinateDomain("bad", (Coordinate("x"), Coordinate("x")))
    with pytest.raises(forms.FormError):
        Coordinate("x", "linear", 2.0, -1.0)
    with pytest.raises(forms.FormError):
        Coordinate("x", "radial")


def test_sampling_is_deterministic_and_respects_ranges():
    d = forms.make_domain("mix", [("t", ANGULAR), ("x", "linear", -2.0, 3.0)])
    a = d.sample_points(100, seed=5)
    b = d.sample_points(100, seed=5)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert np.all((a["t"] >= 0) & (a["t"] < 1))
    assert np.all((a["x"] >= -2) & (a["x"] <= 3))
    shrunk = d.sample_points(100, seed=5, margin=0.5)
    assert np.all(np.abs(shrunk["x"] - 0.5) <= 1.25 + 1e-12)


def test_index_lookup_and_errors():
    assert R3.index("z") == 2
    with pytest.raises(sx.UnknownCoordinateError):
        R3.index("q")


# ---------------------------------------------------------------------------
# multi-index handling


@pytest.mark.parametrize(
    "idx,sign,key",
    [((0, 1), 1, (0, 1)), ((1, 0), -1, (0, 1)), ((2, 0, 1), 1, (0, 1, 2)), ((2, 1, 0), -1, (0, 1, 2))],
)
def test_sort_index_signs(idx, sign, key):
    got_sign, got_key = forms._sort_index(idx)
    assert (got_sign, got_key) == (sign, key)


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(5))))
def test_sort_index_matches_inversion_parity(perm):
    sign, key = forms._sort_index(tuple(perm))
    assert key == tuple(range(5))
    assert sign == oracle.permutation_sign(perm)


def test_unordered_coefficients_are_normalised():
    a = DifferentialForm(R3, 2, {(1, 0): sx.ONE})
    assert a.coefficient((0, 1)) == sx.Const(-1.0)
    b = DifferentialForm(R3, 2, {(0, 0): sx.ONE})
    assert not b.coeffs


# ---------------------------------------------------------------------------
# wedge against the shuffle-sum oracle


@pytest.mark.parametrize("deg_a,deg_b", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_wedge_matches_shuffle_oracle(deg_a, deg_b):
    a = random_polynomial_form(R4, deg_a, seed=21)
    b = random_polynomial_form(R4, deg_b, seed=22)
    ab = wedge(a, b)
    x = _point(R4, 31)
    vs = _vectors(4, deg_a + deg_b, 32)
    arr = np.array([x[n] for n in R4.names])
    got = oracle.eval_form_on_vectors(_form_at(ab)(arr), vs)
    want = oracle.wedge_on_vectors(_form_at(a)(arr), deg_a, _form_at(b)(arr), deg_b, vs)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_wedge_graded_anticommutativity():
    for deg_a, deg_b in [(1, 1), (1, 2), (2, 2)]:
        a = random_polynomial_form(R4, deg_a, seed=41)
        b = random_polynomial_form(R4, deg_b, seed=42)
        sign = (-1) ** (deg_a * deg_b)
        delta = wedge(a, b) - wedge(b, a).scaled(sx.Const(float(sign)))
        assert form_is_zero(delta, samples=60, tol=1e-10, seed=4).passed


def test_wedge_with_function_scales():
    f = forms.function_form(R2, sx.var("x"))
    a = DifferentialForm(R2, 1, {(1,): sx.ONE})
    fa = wedge(f, a)
    assert form_is_zero(fa - a.scaled(sx.var("x")), samples=20, seed=0).passed


def test_wedge_beyond_top_degree_is_zero():
    a = random_polynomial_form(R2, 1, seed=1)
    b = random_polynomial_form(R2, 2, seed=2)
    assert not wedge(a, b).coeffs


# ---------------------------------------------------------------------------
# exterior derivative


def test_extd_of_function_is_gradient():
    f = forms.function_form(R3, sx.add(sx.mul(sx.var("x"), sx.var("y")), sx.var("z")))
    df = ext_d(f)
    assert str(df.coefficient((0,))) == "y"
    assert str(df.coefficient((1,))) == "x"
    assert df.coefficient((2,)) == sx.ONE


def test_extd_matches_fd_oracle():
    for degree, seed in [(0, 61), (1, 62), (2, 63)]:
        a = random_polynomial_form(R3, degree, seed=seed)
        da = ext_d(a)
        x = np.array([0.21, -0.43, 0.55])
        vs = _vectors(3, degree + 1, seed)
        got = oracle.eval_form_on_vectors(_form_at(da)(x), vs)
        want = oracle.exterior_derivative_on_vectors(_form_at(a), x, vs)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-7)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_extd_squared_vanishes(degree):
    a = random_polynomial_form(R4, degree, seed=degree + 70)
    dda = ext_d(ext_d(a))
    assert form_is_zero(dda, samples=80, tol=1e-10, seed=8).passed


def test_extd_leibniz_rule():
    a = random_polynomial_form(R4, 1, seed=81)
    b = random_polynomial_form(R4, 1, seed=82)
    lhs = ext_d(wedge(a, b))
    rhs = wedge(ext_d(a), b) - wedge(a, ext_d(b))
    assert form_is_zero(lhs - rhs, samples=60, tol=1e-9, seed=9).passed


# ---------------------------------------------------------------------------
# interior product and Lie derivative


def test_interior_is_evaluation_in_first_slot():
    a = random_polynomial_form(R3, 2, seed=91)
    X = VectorField(R3, (sx.var("y"), sx.Const(2.0), sx.mul(sx.var("x"), sx.var("z"))))
    ia = interior(X, a)
    x = np.array([0.4, 0.1, -0.7])
    v = _vectors(3, 1, 92)[0]
    xv = np.array([sx.evaluate(c, {n: x[i] for i, n in enumerate(R3.names)}) for i, c in enumerate(X.components)])
    got = oracle.eval_form_on_vectors(_form_at(ia)(x), [v])
    want = oracle.eval_form_on_vectors(_form_at(a)(x), [xv, v])
    assert got == pytest.approx(want, rel=1e-10)


def test_interior_squares_to_zero():
    a = random_polynomial_form(R4, 3, seed=95)
    X = VectorField(R4, tuple(sx.var(n) for n in R4.names))
    assert form_is_zero(interior(X, interior(X, a)), samples=40, seed=1).passed


def test_interior_of_function_raises():
    with pytest.raises(forms.DegreeError):
        interior(basis_vector(R2, "x"), forms.function_form(R2, sx.ONE))


def test_lie_derivative_matches_flow_oracle():
    a = random_polynomial_form(R3, 1, seed=101)
    X = VectorField(R3, (sx.var("y"), sx.neg(sx.var("x")), sx.Const(0.5)))
    la = lie_derivative(X, a)
    x = np.array([0.3, -0.2, 0.1])
    vs = _vectors(3, 1, 102)

    def field(p):
        env = {n: p[i] for i, n in enumerate(R3.names)}
        return np.array([sx.evaluate(c, env) for c in X.components])

    got = oracle.eval_form_on_vectors(_form_at(la)(x), vs)
    want = oracle.lie_derivative_on_vectors(_form_at(a), field, x, vs)
    assert got == pytest.approx(want, rel=1e-5, abs=1e-6)


def test_lie_derivative_of_function_is_directional_derivative():
    f = forms.function_form(R2, sx.mul(sx.pow_(sx.var("x"), 2), sx.var("y")))
    X = VectorField(R2, (sx.ONE, sx.var("x")))
    lf = lie_derivative(X, f)
    want = sx.add(sx.mul(2, sx.var("x"), sx.var("y")), sx.mul(sx.var("x"), sx.pow_(sx.var("x"), 2)))
    assert form_is_zero(lf - forms.function_form(R2, want), samples=40, seed=3).passed


def test_lie_bracket_against_second_derivatives():
    X = VectorField(R2, (sx.var("y"), sx.mul(sx.var("x"), sx.var("y"))))
    Y = VectorField(R2, (sx.Const(1.0), sx.pow_(sx.var("x"), 2)))
    f = sx.mul(sx.var("x"), sx.exp(sx.var("y")))

    def directional(Z, g):
        return sx.add(*(sx.mul(c, sx.diff(g, n)) for c, n in zip(Z.components, R2.names)))

    lhs = directional(lie_bracket(X, Y), f)
    rhs = sx.add(directional(X, directional(Y, f)), sx.neg(directional(Y, directional(X, f))))
    assert oracle.expr_is_zero(sx.add(lhs, sx.neg(rhs)), R2, samples=60, tol=1e-9, seed=6).passed


def test_cartan_formula_consistency():
    # L_X d a = d L_X a (both routes through independent compositions)
    a = random_polynomial_form(R3, 1, seed=111)
    X = VectorField(R3, (sx.var("z"), sx.var("x"), sx.sin(sx.var("y"))))
    lhs = lie_derivative(X, ext_d(a))
    rhs = ext_d(lie_derivative(X, a))
    assert form_is_zero(lhs - rhs, samples=60, tol=1e-9, seed=7).passed


# ---------------------------------------------------------------------------
# pullback


def _sample_map(seed):
    x, y = sx.var("x"), sx.var("y")
    return SmoothMap(
        R2,
        R3,
        (sx.mul(x, y), sx.sin(x), sx.add(x, sx.pow_(y, 2))),
    )


def _solid_map():
    """A map with a three-dimensional source: a 3-form pulls back through the
    3 x 3 minors of its Jacobian."""
    x, y, z = sx.var("x"), sx.var("y"), sx.var("z")
    return SmoothMap(R3, R4, (sx.mul(x, y), sx.sin(z), sx.add(x, sx.pow_(y, 2)), sx.add(sx.mul(z, x), y)))


def test_pullback_matches_fd_chain_oracle():
    for F in (_sample_map(0), _solid_map()):
        names = F.source.names
        x = np.array([0.37, -0.21, 0.52][: len(names)])

        def map_func(p):
            env = dict(zip(names, p))
            return np.array([sx.evaluate(c, env) for c in F.components])

        for degree in range(len(names) + 1):  # functions up to top-degree forms
            seed = 120 + degree
            a = random_polynomial_form(F.target, degree, seed=seed)
            fa = pullback(F, a)
            assert fa.coeffs  # no degree pulls back to zero here
            vs = _vectors(len(names), degree, seed)
            got = oracle.eval_form_on_vectors(_form_at(fa)(x), vs)
            want = oracle.pullback_on_vectors(_form_at(a), map_func, x, vs)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-7)


def test_pullback_of_function_composes():
    F = _sample_map(0)
    g = forms.function_form(R3, sx.mul(sx.var("z"), sx.var("x")))
    back = pullback(F, g)
    x, y = sx.var("x"), sx.var("y")
    want = forms.function_form(R2, sx.mul(sx.add(x, sx.pow_(y, 2)), sx.mul(x, y)))
    assert form_is_zero(back - want, samples=40, seed=2).passed


def test_pullback_commutes_with_d():
    F = _sample_map(0)
    a = random_polynomial_form(R3, 1, seed=131)
    lhs = ext_d(pullback(F, a))
    rhs = pullback(F, ext_d(a))
    assert form_is_zero(lhs - rhs, samples=60, tol=1e-9, seed=5).passed


def test_pullback_functoriality():
    x, y, z = sx.var("x"), sx.var("y"), sx.var("z")
    G = SmoothMap(R3, R2, (sx.add(x, z), sx.mul(y, z)))
    F = _sample_map(0)  # R2 -> R3
    a = random_polynomial_form(R2, 1, seed=141)
    lhs = pullback(F, pullback(G, a))  # (G o F)^* in two steps
    rhs = pullback(compose(G, F), a)
    assert form_is_zero(lhs - rhs, samples=60, tol=1e-9, seed=6).passed


def test_pullback_through_identity_is_identity():
    a = random_polynomial_form(R3, 2, seed=151)
    assert form_is_zero(pullback(identity_map(R3), a) - a, samples=30, seed=1).passed


def test_angular_targets_wrap_mod_one():
    circle = forms.make_domain("s1", [("t", ANGULAR)])
    line = linear_domain("line", ["s"], 0.0, 1.0)
    F = SmoothMap(line, circle, (sx.add(sx.var("s"), sx.Const(0.75)),))
    values, _, _ = sx.jets(F.components, {"s": np.array([0.5, 0.1])})
    assert np.allclose(values, [[1.25, 0.85]])
    assert np.allclose(numeric.wrap_point(circle, values.T).T, [[0.25, 0.85]])


# ---------------------------------------------------------------------------
# rank


def _rank(phi, env):
    return forms.nondegeneracy_rank(phi, env, evaluate_form(phi, env))


def test_nondegeneracy_rank_reports_minimum():
    symp = DifferentialForm(R4, 2, {(0, 1): sx.ONE, (2, 3): sx.ONE})
    assert _rank(symp, R4.sample_points(50)) == (4, True)
    degen = DifferentialForm(R4, 2, {(0, 1): sx.ONE})
    assert _rank(degen, R4.sample_points(50)) == (2, False)


def test_nondegeneracy_threshold_is_relative():
    # scale should not change the rank decision
    for eps in (1e-8, 1e-12):
        symp = DifferentialForm(R4, 2, {(0, 1): sx.Const(eps), (2, 3): sx.Const(eps)})
        assert _rank(symp, R4.sample_points(50)) == (4, True)


def test_rank_reads_the_sampled_values_at_their_points():
    # rank 4 where x != 0, 2 at x = 0: only the points the values hold count
    phi = DifferentialForm(R4, 2, {(0, 1): sx.ONE, (2, 3): sx.var("x")})
    env = R4.sample_points(9, seed=3)
    env["x"][4] = 0.0
    values = forms.evaluate_form(phi, env)
    assert np.array_equal(forms.form_matrix(phi, env, values), np.moveaxis(forms.form_values(phi, env), -1, 0))
    assert forms.nondegeneracy_rank(phi, env, values) == (2, False)
    head = {n: v[:4] for n, v in env.items()}
    assert forms.nondegeneracy_rank(phi, head, {k: v[:4] for k, v in values.items()}) == (4, True)


def test_values_check_reads_the_upper_coefficients():
    env = R3.sample_points(5, seed=1)
    residual = np.zeros((3, 3, 5))
    residual[0, 2, 3], residual[2, 0, 3] = -3e-9, 3e-9
    check = forms.values_check(residual, env, 1e-9)
    assert not check.passed and check.max_residual == 3e-9
    assert check.worst_point == {n: env[n][3] for n in R3.names}
    assert forms.values_check(np.zeros((3, 5)), env, 0.0).passed


# ---------------------------------------------------------------------------
# misc


def test_form_arithmetic_checks_compatibility():
    a = random_polynomial_form(R2, 1, seed=1)
    b = random_polynomial_form(R3, 1, seed=1)
    with pytest.raises(forms.DomainMismatchError):
        _ = a + b
    c = random_polynomial_form(R2, 2, seed=1)
    with pytest.raises(forms.DegreeError):
        _ = a + c


def test_random_polynomial_form_deterministic():
    a = random_polynomial_form(R3, 1, seed=33)
    b = random_polynomial_form(R3, 1, seed=33)
    assert form_is_zero(a - b, samples=10, seed=0).max_residual == 0.0


def test_evaluate_form_values():
    a = DifferentialForm(R2, 1, {(0,): sx.var("y")})
    vals = evaluate_form(a, {"x": np.array([0.0, 1.0]), "y": np.array([2.0, 3.0])})
    assert np.allclose(vals[(0,)], [2.0, 3.0])


_CONSTANT_AND_POLY = DifferentialForm(R4, 2, {(0, 2): sx.Const(0.75), (1, 3): sx.mul(sx.var("x"), sx.var("w"))})


@pytest.mark.parametrize("phi", [random_polynomial_form(R4, 2, seed=5), _CONSTANT_AND_POLY])
def test_form_values_two_form_against_multilinear_oracle(phi):
    """Dense two-form values are antisymmetric, equal phi(e_i, e_j) from the
    multilinear oracle at every sample (constant coefficients included), and
    form_matrix holds the same values with the batch axis first."""
    env = R4.sample_points(7, seed=2)
    vals = forms.form_values(phi, env)
    assert vals.shape == (4, 4, 7)
    assert np.array_equal(vals, -np.swapaxes(vals, 0, 1))
    basis = np.eye(4)
    for k in range(7):
        coeffs = {idx: sx.evaluate(c, {n: env[n][k] for n in R4.names}) for idx, c in phi.coeffs.items()}
        for i, j in itertools.product(range(4), repeat=2):
            want = oracle.eval_form_on_vectors(coeffs, [basis[i], basis[j]])
            assert vals[i, j, k] == pytest.approx(want, abs=1e-14)
    assert np.array_equal(forms.form_matrix(phi, env, evaluate_form(phi, env)), np.moveaxis(vals, -1, 0))
    assert forms.form_values(phi, {n: env[n][0] for n in R4.names}).shape == (4, 4)


def test_evaluate_jacobian_against_finite_differences():
    x, y = sx.var("x"), sx.var("y")
    F = SmoothMap(R2, R3, (sx.mul(x, y), sx.Const(2.0), sx.add(sx.sin(x), y)))
    env = R2.sample_points(5, seed=1)
    _, jets_J, _ = sx.jets(F.components, env)
    assert jets_J.shape == (3, 2, 5)

    def value(p):
        return np.array([sx.evaluate(c, dict(zip(R2.names, p))) for c in F.components])

    for J in (jets_J, oracle.evaluate_jacobian(F, env)):
        for k in range(5):
            point = np.array([env[n][k] for n in R2.names])
            assert np.allclose(J[:, :, k], oracle.fd_jacobian(value, point), atol=1e-8)


# ---------------------------------------------------------------------------
# sampled calculus on jets against the symbolic calculus

MIXED = forms.make_domain("mixed", [("x", "linear", -1.0, 1.0), ("y", "linear", -1.0, 1.0), ("t", "angular"), ("z", "linear", -1.0, 1.0)])


def _random_field(seed):
    return VectorField(MIXED, tuple(random_polynomial_form(MIXED, 1, seed).coeffs.values()))


def _assert_sampled_equals(sampled, symbolic, env):
    """Values of a sampled form against the tree walk of a symbolic form or
    field, over the union of their keys (a key either one lacks is zero)."""
    if isinstance(symbolic, VectorField):
        want = {(i,): c for i, c in enumerate(symbolic.components)}
    else:
        want = dict(symbolic.coeffs)
    for key in set(want) | set(sampled.values):
        got = sampled.values.get(key, 0.0)
        expected = sx.evaluate(want.get(key, sx.ZERO), env)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12), key


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 3))
def test_sampled_calculus_equals_the_symbolic_calculus(seed, degree):
    a = random_polynomial_form(MIXED, degree, seed)
    lam = random_polynomial_form(MIXED, 1, seed + 1)
    X, Y = _random_field(seed + 2), _random_field(seed + 3)
    env = MIXED.sample_points(30, seed)
    sa, slam, sX, sY = forms.sample_jets((a, lam, X, Y), env)
    computed = [
        (forms.sampled_d(sa), ext_d(a)),
        (forms.sampled_wedge(slam, sa), wedge(lam, a)),
        (forms.sampled_sum(sa, sa, -1), a - a),
        (forms.lie_derivative(sX, sa), lie_derivative(X, a)),
        (forms.lie_derivative(sX, slam), lie_derivative(X, lam)),
        (forms.lie_bracket(sX, sY), lie_bracket(X, Y)),
    ]
    if degree:
        computed.append((forms.sampled_interior(sX, sa), interior(X, a)))
    for sampled, symbolic in computed:
        _assert_sampled_equals(sampled, symbolic, env)
        # first derivatives come from sample_jets alone: no operation carries them
        assert sampled.grads is None


def test_sampled_d_needs_first_derivatives():
    [sa] = forms.sample_jets((random_polynomial_form(MIXED, 1, 5),), MIXED.sample_points(4, 0))
    with pytest.raises(forms.FormError):
        forms.sampled_d(forms.sampled_sum(sa, sa))


def test_sample_jets_refuses_an_env_out_of_domain_order():
    """Partials are indexed by env position, which must be the domain's."""
    a = random_polynomial_form(MIXED, 1, 5)
    env = MIXED.sample_points(4, 0)
    with pytest.raises(forms.DomainMismatchError):
        forms.sample_jets((a,), dict(reversed(env.items())))
