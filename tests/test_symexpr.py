import copy
import gc
import math
import pickle
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcskit import report
from lcskit import symexpr as sx
from lcskit.forms import VectorField, linear_domain, make_domain
import oracle_utils as oracle
from oracle_utils import central_difference

X, Y = sx.var("x"), sx.var("y")
BOX = linear_domain("box", ["x", "y"])


def _as_func(e):
    return lambda point: sx.evaluate(e, point)


# ---------------------------------------------------------------------------
# differentiation against the frozen finite-difference oracle


def test_diff_matches_central_difference_at_cited_point():
    e = sx.mul(sx.sin(X), sx.exp(Y))
    sym = sx.evaluate(sx.diff(e, "x"), {"x": 0.7, "y": 0.2})
    fd = central_difference(_as_func(e), {"x": 0.7, "y": 0.2}, "x")
    assert abs(sym - fd) < 1e-8


@pytest.mark.parametrize(
    "expr,name",
    [
        (sx.add(sx.pow_(X, 3), sx.mul(2, X, Y)), "x"),
        (sx.sqrt(sx.add(1, sx.pow_(X, 2), sx.pow_(Y, 2))), "y"),
        (sx.mul(sx.exp(sx.mul(X, Y)), sx.cos(X)), "x"),
        (sx.mul(X, sx.pow_(sx.add(1, sx.pow_(Y, 2)), -1)), "y"),
        (sx.pow_(sx.add(1, sx.pow_(X, 2)), Fraction(3, 2)), "x"),
    ],
)
def test_diff_matches_central_difference(expr, name):
    rng = np.random.default_rng(11)
    for _ in range(5):
        pt = {"x": float(rng.uniform(-1, 1)), "y": float(rng.uniform(-1, 1))}
        sym = sx.evaluate(sx.diff(expr, name), pt)
        fd = central_difference(_as_func(expr), pt, name)
        assert abs(sym - fd) < 1e-6 * (1.0 + abs(sym))


def test_diff_second_order_matches_oracle():
    e = sx.mul(sx.sin(X), sx.exp(Y))
    d2 = sx.diff(sx.diff(e, "x"), "x")
    pt = {"x": 0.3, "y": -0.4}
    fd = central_difference(_as_func(sx.diff(e, "x")), pt, "x")
    assert abs(sx.evaluate(d2, pt) - fd) < 1e-6


def test_sqrt_derivative_at_zero_is_domain_error():
    d = sx.diff(sx.sqrt(X), "x")
    with pytest.raises(sx.EvaluationDomainError):
        sx.evaluate(d, {"x": 0.0})


def test_sqrt_of_negative_is_domain_error_with_point():
    with pytest.raises(sx.EvaluationDomainError) as err:
        sx.evaluate(sx.sqrt(X), {"x": -2.0})
    assert err.value.point["x"] == -2.0


def test_division_by_zero_is_domain_error():
    with pytest.raises(sx.EvaluationDomainError):
        sx.evaluate(sx.pow_(X, -1), {"x": np.array([1.0, 0.0, 2.0])})


def test_non_finite_constant_prints_and_raises_domain_error():
    e = sx.mul(sx.Const(math.inf), X)
    assert str(e) == "inf * x"
    with pytest.raises(sx.EvaluationDomainError) as err:
        sx.evaluate(e, {"x": 0.0})
    assert str(err.value) == "non-finite value evaluating 'inf * x' at {'x': 0.0}"
    assert err.value.point == {"x": 0.0}


def test_to_string_of_non_finite_constants():
    assert sx.to_string(sx.Const(math.nan)) == "nan"
    assert sx.to_string(sx.Const(-math.inf)) == "-inf"


def test_repr_shows_the_node_fields():
    assert repr(X) == "Var(name='x')"
    assert repr(sx.mul(X, Y)) == "Mul(factors=(Var(name='x'), Var(name='y')))"
    assert str(sx.mul(X, Y)) == "x * y"


def test_unknown_coordinate_error():
    with pytest.raises(sx.UnknownCoordinateError):
        sx.evaluate(sx.add(X, Y), {"x": 1.0})


# ---------------------------------------------------------------------------
# numerical zero testing
#
# ``sx.is_zero`` judges residual values already sampled; the identity tests
# below reach it through the symbolic route of ``oracle_utils`` (a tree
# evaluated on a fresh draw of points).


def test_is_zero_judges_arrays_of_any_leading_shape():
    env = {"x": np.array([0.1, 0.2, 0.3]), "y": np.array([1.0, 2.0, 3.0])}
    one_form = np.array([[0.0, -2.0, 1.0], [2.0, 0.5, 0.0]])
    two_form = np.zeros((2, 2, 3))
    two_form[1, 0, 2] = -2.5
    check = sx.is_zero([one_form, two_form], env, 2.5)
    # the largest |value| first reached in row-major order, at its point
    assert check == sx.ZeroCheck(True, 2.5, {"x": 0.3, "y": 3.0}, 3, 2.5)
    assert not sx.is_zero([one_form], env, 1.999).passed
    assert sx.is_zero([one_form], env, 2.0).worst_point == {"x": 0.2, "y": 2.0}
    assert sx.is_zero([], env, 0.0) == sx.ZeroCheck(True, 0.0, {}, 3, 0.0)
    assert sx.is_zero([np.zeros(3)], env, 0.0) == sx.ZeroCheck(True, 0.0, {}, 3, 0.0)


def test_is_zero_pythagorean_identity():
    check = oracle.expr_is_zero(sx.add(sx.pow_(sx.sin(X), 2), sx.pow_(sx.cos(X), 2), -1), BOX, samples=200, tol=1e-12, seed=3)
    assert check.passed
    assert check.max_residual < 1e-12


def test_is_zero_binomial_identity():
    e = sx.add(sx.pow_(sx.add(X, Y), 2), sx.neg(sx.pow_(X, 2)), sx.neg(sx.mul(2, X, Y)), sx.neg(sx.pow_(Y, 2)))
    assert oracle.expr_is_zero(e, BOX, samples=100, tol=1e-12, seed=5).passed


def test_is_zero_sine_addition_identity():
    e = sx.add(sx.sin(sx.add(X, Y)), sx.neg(sx.mul(sx.sin(X), sx.cos(Y))), sx.neg(sx.mul(sx.cos(X), sx.sin(Y))))
    assert oracle.expr_is_zero(e, BOX, seed=9).passed


def test_is_zero_rejects_nonzero_and_reports_worst_point():
    check = oracle.expr_is_zero(sx.pow_(X, 2), BOX, samples=500, tol=1e-9, seed=1)
    assert not check.passed
    assert 0.5 < check.max_residual <= 1.0
    assert abs(check.worst_point["x"] ** 2 - check.max_residual) < 1e-15


def test_is_zero_deterministic_given_seed():
    e = sx.mul(sx.sin(X), Y)
    a = oracle.expr_is_zero(e, BOX, samples=64, tol=1e-9, seed=42)
    b = oracle.expr_is_zero(e, BOX, samples=64, tol=1e-9, seed=42)
    assert a == b


def test_is_zero_accepts_iterables():
    checks = oracle.expr_is_zero([sx.add(X, sx.neg(X)), sx.ZERO], BOX, samples=10, seed=0)
    assert checks.passed and checks.max_residual == 0.0


# ---------------------------------------------------------------------------
# constructor rewrites (light, order-preserving)


def test_add_flattens_and_folds_constants():
    e = sx.add(sx.add(X, 1), sx.add(Y, 2))
    assert isinstance(e, sx.Add)
    assert e.terms[0] == sx.Const(3.0)
    assert len(e.terms) == 3


def test_mul_absorbs_zero_and_one():
    assert sx.mul(X, 0) == sx.ZERO
    assert sx.mul(X, 1) is X or sx.mul(X, 1) == X
    assert sx.mul(2, X, 3) == sx.Mul((sx.Const(6.0), X))


def test_pow_identities():
    assert sx.pow_(X, 0) == sx.ONE
    assert sx.pow_(X, 1) == X
    assert sx.pow_(sx.Const(2.0), 10) == sx.Const(1024.0)


def test_sqrt_square_merges_but_square_sqrt_does_not():
    merged = sx.pow_(sx.sqrt(X), 2)
    assert merged == X
    kept = sx.pow_(sx.pow_(X, 2), Fraction(1, 2))
    assert isinstance(kept, sx.Pow) and isinstance(kept.base, sx.Pow)
    # (x^2)^(1/2) must evaluate to |x|, not x
    assert sx.evaluate(kept, {"x": -3.0}) == pytest.approx(3.0)


def test_double_negation_cancels():
    assert sx.neg(sx.neg(X)) == X


def test_constant_call_folds():
    assert sx.sin(sx.Const(0.0)) == sx.Const(0.0)
    assert sx.exp(sx.Const(0.0)) == sx.Const(1.0)


@pytest.mark.parametrize(
    "build,text",
    [
        (lambda: sx.exp(sx.Const(1000.0)), "exp(1000)"),
        (lambda: sx.sin(sx.Const(math.inf)), "sin(inf)"),
        (lambda: sx.pow_(sx.Const(1e200), 2), "1e+200^2"),
        (lambda: sx.pow_(sx.Const(1e300), Fraction(3, 2)), "1e+300^(3/2)"),
        (lambda: sx.parse("exp(1000)*x"), "exp(1000) * x"),
    ],
    ids=["exp-overflow", "sin-of-inf", "power-overflow", "root-overflow", "parsed-exp-overflow"],
)
def test_constant_out_of_range_is_left_for_evaluation(build, text):
    e = build()
    assert not isinstance(e, sx.Const) and str(e) == text
    message = f"non-finite value evaluating '{text}' at {{'x': 0.5}}"
    field = VectorField(linear_domain("seg", ["x"]), (e,))
    for run in (lambda: sx.evaluate(e, {"x": 0.5}), lambda: field.value_at(np.array([[0.5]]))):
        with pytest.raises(sx.EvaluationDomainError) as err:
            run()
        assert str(err.value) == message and err.value.point == {"x": 0.5}


# ---------------------------------------------------------------------------
# parser


@pytest.mark.parametrize(
    "text,point,expected",
    [
        ("2+3*4^2", {}, 50.0),
        ("-x^2", {"x": 3.0}, -9.0),
        ("x^(1/2)", {"x": 4.0}, 2.0),
        ("x^(3/2)", {"x": 4.0}, 8.0),
        ("x^-1", {"x": 4.0}, 0.25),
        ("sqrt(x)*x", {"x": 9.0}, 27.0),
        ("x/y - 1", {"x": 1.0, "y": 4.0}, -0.75),
        ("sin(pi/2)", {}, 1.0),
        ("cos(2*pi*t)", {"t": 1.0}, 1.0),
        ("exp(0)*7", {}, 7.0),
        ("1 - 2 - 3", {}, -4.0),
        ("2*-3", {}, -6.0),
    ],
)
def test_parse_evaluates(text, point, expected):
    assert sx.evaluate(sx.parse(text), point) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bad", ["", "x +", "sin", "(x", "x^y", "bogus(x)", "x ~ y", "1..2"])
def test_parse_errors(bad):
    with pytest.raises(sx.ParseError):
        sx.parse(bad)


def test_parse_error_mentions_position():
    with pytest.raises(sx.ParseError) as err:
        sx.parse("x + * y")
    assert "position" in str(err.value)


@pytest.mark.parametrize(
    "e",
    [
        sx.add(X, sx.mul(Y, 2)),
        sx.add(sx.mul(sx.sin(X), sx.exp(Y)), sx.neg(sx.sqrt(sx.add(1, sx.pow_(X, 2))))),
        sx.pow_(sx.add(1, sx.pow_(Y, 2)), Fraction(-3, 2)),
        sx.add(sx.mul(sx.neg(X), Y), sx.cos(sx.mul(X, Y))),
    ],
)
def test_to_string_round_trips(e):
    back = sx.parse(str(e))
    delta = sx.add(e, sx.neg(back))
    assert oracle.expr_is_zero(delta, BOX, samples=50, seed=2).passed


# ---------------------------------------------------------------------------
# property tests


_leaf = st.sampled_from([X, Y, sx.Const(0.5), sx.Const(-1.5), sx.Const(2.0)])


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: sx.add(*ab)),
        st.tuples(children, children).map(lambda ab: sx.mul(*ab)),
        children.map(sx.sin),
        children.map(sx.cos),
        children.map(lambda e: sx.exp(sx.mul(sx.Const(0.25), e))),
    )


_expr_strategy = st.recursive(_leaf, _combine, max_leaves=8)


@settings(max_examples=40, deadline=None)
@given(_expr_strategy)
def test_mixed_partials_commute(e):
    mixed = sx.add(sx.diff(sx.diff(e, "x"), "y"), sx.neg(sx.diff(sx.diff(e, "y"), "x")))
    assert oracle.expr_is_zero(mixed, BOX, samples=40, tol=1e-8, seed=7).passed


@settings(max_examples=40, deadline=None)
@given(_expr_strategy)
def test_parse_of_printed_tree_matches(e):
    back = sx.parse(sx.to_string(e))
    assert oracle.expr_is_zero(sx.add(e, sx.neg(back)), BOX, samples=30, tol=1e-9, seed=13).passed


@settings(max_examples=30, deadline=None)
@given(_expr_strategy, st.integers(min_value=0, max_value=2**31 - 1))
def test_substitute_then_evaluate_agrees(e, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1, 1, size=2)
    swapped = sx.substitute(e, {"x": sx.Const(a), "y": sx.Const(b)})
    direct = sx.evaluate(e, {"x": a, "y": b})
    assert sx.evaluate(swapped, {}) == pytest.approx(direct, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# expression DAGs over a mixed domain


MIX = make_domain("mix", [("x", "linear", -1.5, 1.5), ("y", "linear", -1.5, 1.5), ("t", "angular")])
_OPS = ("add", "mul", "sin", "cos", "exp", "root", "power", "recip")


def _build_dag(steps, leaves):
    """Grow a pool of expressions whose operands are earlier pool entries, so
    later entries share subtrees (a DAG, not a tree)."""
    pool = list(leaves)
    for op, i, j in steps:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if op == "add":
            e = sx.add(a, b)
        elif op == "mul":
            e = sx.mul(a, b)
        elif op == "sin":
            e = sx.sin(a)
        elif op == "cos":
            e = sx.cos(a)
        elif op == "exp":
            e = sx.exp(sx.sin(a))
        elif op == "root":  # rational power of a positive base
            e = sx.pow_(sx.add(1, sx.mul(a, a)), Fraction(1 + j % 5, 2 + i % 3))
        elif op == "power":
            e = sx.pow_(a, 2 + j % 2)
        else:
            e = sx.pow_(sx.add(1, sx.mul(a, a)), -(1 + j % 2))
        pool.append(e)
    return pool


_dag_steps = st.lists(
    st.tuples(st.sampled_from(_OPS), st.integers(0, 63), st.integers(0, 63)), min_size=1, max_size=12
)


# ---------------------------------------------------------------------------
# a field's values at points, from the tree walk


def test_field_value_domain_error_keeps_message_and_witness():
    exprs = (sx.add(X, Y), sx.mul(sx.sqrt(X), sx.exp(Y)), sx.pow_(X, -1))
    point = {"x": -0.25, "y": 0.5, "z": 0.0}
    with pytest.raises(sx.EvaluationDomainError) as want:
        sx.evaluate(exprs[1], point)
    with pytest.raises(sx.EvaluationDomainError) as got:
        VectorField(linear_domain("xyz", ["x", "y", "z"]), exprs).value_at(np.array([[-0.25, 0.5, 0.0]]))
    assert str(got.value) == str(want.value)
    assert got.value.point == want.value.point == point


def test_field_value_shares_subexpressions_and_constants():
    shared = sx.sin(sx.mul(X, Y))
    decay = sx.exp(sx.mul(sx.Const(-math.inf), X))  # a non-finite constant inside a finite value
    field = VectorField(linear_domain("xyzw", ["x", "y", "z", "w"]), (shared, sx.mul(shared, shared), sx.Const(-2.0), decay))
    got = field.value_at(np.array([[0.3, 0.7, 0.0, 0.0]] * 3))
    s = math.sin(0.3 * 0.7)
    assert got.tolist() == [[s, s * s, -2.0, 0.0]] * 3  # a constant component fills the batch
    assert got[0, 3] == sx.evaluate(decay, {"x": 0.3, "y": 0.7})


# ---------------------------------------------------------------------------
# batch shape of the tree walk against a per-point loop of scalar walks


@settings(max_examples=80, deadline=None)
@given(
    _dag_steps,
    st.lists(
        st.tuples(
            st.floats(min_value=-1.5, max_value=1.5),
            st.floats(min_value=-1.5, max_value=1.5),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_batched_evaluate_has_batch_shape_and_matches_scalar_walks(steps, points):
    T = sx.var("t")
    pool = _build_dag(steps, (X, Y, T, sx.Const(0.5), sx.Const(-1.5)))
    # bare and folded constants, plus the newest entries (which share subtrees)
    exprs = (sx.Const(2.0), sx.mul(sx.sin(sx.Const(0.5)), 3), *pool[-3:])
    columns = np.array(points, dtype=float).T
    env = dict(zip(MIX.names, columns))
    n = len(points)
    for e in exprs:
        scalar_envs = [dict(zip(MIX.names, p)) for p in points]
        try:
            want = np.array([sx.evaluate(e, point) for point in scalar_envs], dtype=float)
        except sx.EvaluationDomainError as err:
            with pytest.raises(sx.EvaluationDomainError) as got:
                sx.evaluate(e, env)
            assert str(got.value) == str(err)
            assert got.value.point == err.point
            continue
        got = sx.evaluate(e, env)
        assert isinstance(got, np.ndarray) and got.shape == (n,)
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# interned nodes: one object per structure, a derivative slot on the node


def _structural_key(e, memo=None):
    """Nested-tuple key of ``e``'s structure, ``Const`` keyed on its float bits
    (so 0.0 and -0.0 differ and every nan with the same bits agrees)."""
    memo = {} if memo is None else memo
    key = memo.get(id(e))
    if key is not None:
        return key
    if isinstance(e, sx.Const):
        key = ("const", struct.pack("<d", e.value))
    elif isinstance(e, sx.Var):
        key = ("var", e.name)
    elif isinstance(e, sx.Add):
        key = ("add", tuple(_structural_key(t, memo) for t in e.terms))
    elif isinstance(e, sx.Mul):
        key = ("mul", tuple(_structural_key(f, memo) for f in e.factors))
    elif isinstance(e, sx.Pow):
        key = ("pow", _structural_key(e.base, memo), e.exponent)
    else:
        key = ("call", e.fn, _structural_key(e.arg, memo))
    memo[id(e)] = key
    return key


_SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 2.0)
_RAW_OPS = ("add", "mul", "sin", "exp", "root", "power", "raw-add", "raw-mul", "raw-pow")


def _build_raw_dag(steps):
    """Like ``_build_dag``, over leaves that include +-0.0, nan and +-inf, and
    with raw node constructors next to the smart ones (they keep constants the
    smart constructors would fold away).  Builds only, never evaluates."""
    pool = [X, Y, *(sx.Const(v) for v in _SPECIAL)]
    for op, i, j in steps:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if op == "add":
            e = sx.add(a, b)
        elif op == "mul":
            e = sx.mul(a, b)
        elif op == "sin":  # raw: a constant argument stays unfolded
            e = sx.Call("sin", a)
        elif op == "exp":
            e = sx.Call("exp", a)
        elif op == "root":
            e = sx.pow_(a, Fraction(1 + j % 5, 2 + i % 3))
        elif op == "power":
            e = sx.pow_(a, -(1 + j % 3))
        elif op == "raw-add":
            e = sx.Add((a, b))
        elif op == "raw-mul":
            e = sx.Mul((sx.Const(_SPECIAL[i % len(_SPECIAL)]), a, b))
        else:
            e = sx.Pow(a, Fraction(j % 7 - 3, 1 + i % 4))
        pool.append(e)
    return pool


_raw_steps = st.lists(
    st.tuples(st.sampled_from(_RAW_OPS), st.integers(0, 63), st.integers(0, 63)), min_size=1, max_size=12
)


@settings(max_examples=60, deadline=None)
@given(_raw_steps, _raw_steps)
def test_interning_gives_one_node_per_structure(steps, other_steps):
    first = _build_raw_dag(steps)
    again = _build_raw_dag(steps)
    assert all(a is b for a, b in zip(first, again))
    nodes = first + _build_raw_dag(other_steps)
    memo: dict = {}
    keys = [_structural_key(e, memo) for e in nodes]
    for a, ka in zip(nodes, keys):
        for b, kb in zip(nodes, keys):
            assert (ka == kb) == (a is b)
            assert (a == b) == (a is b)


def test_const_is_keyed_on_float_bits():
    assert sx.Const(0.0) is not sx.Const(-0.0)
    assert sx.Const(-0.0) is sx.Const(-0.0)
    assert sx.Const(math.nan) is sx.Const(float("nan"))
    assert sx.Const(1) is sx.Const(1.0) is sx.ONE
    assert sx.Pow(X, 2) is sx.Pow(X, Fraction(2))


@settings(max_examples=40, deadline=None)
@given(_dag_steps)
def test_diff_is_the_same_node_from_a_cold_or_a_warmed_slot(steps):
    T = sx.var("t")
    leaves = (X, Y, T, sx.Const(0.5), sx.Const(-1.5))
    gc.collect()  # nodes of earlier examples held only by cycles die here
    pool = _build_dag(steps, leaves)
    cold = sx.diff(pool[-1], "x")
    want = _structural_key(cold)
    del pool
    gc.collect()
    pool = _build_dag(steps, leaves)
    for e in reversed(pool):  # other names and other nodes first
        sx.diff(e, "t")
        sx.diff(e, "y")
    for e in reversed(pool[:-1]):
        sx.diff(e, "x")
    warm = sx.diff(pool[-1], "x")
    assert warm is cold
    assert _structural_key(warm) == want
    assert sx.diff(pool[-1], "x") is warm


@settings(max_examples=40, deadline=None)
@given(_dag_steps, st.lists(st.floats(min_value=-1.2, max_value=1.2), min_size=3, max_size=3))
def test_diff_of_shared_dags_matches_central_difference(steps, point):
    T = sx.var("t")
    pool = _build_dag(steps, (X, Y, T, sx.Const(0.5), sx.Const(-1.5)))
    env = dict(zip(("x", "y", "t"), point))
    for e in pool[-3:]:
        for name in ("x", "t"):
            f = _as_func(e)
            sym = sx.evaluate(sx.diff(e, name), env)
            fd = central_difference(f, env, name)
            assert abs(sym - fd) <= 1e-5 * (1.0 + abs(sym) + abs(f(env)))


def _live_nodes() -> int:
    return sum(len(cls._table) for cls in (sx.Const, sx.Var, sx.Add, sx.Mul, sx.Pow, sx.Call))


def test_no_node_outlives_a_run():
    gc.collect()
    before = _live_nodes()
    manifest = report.load_manifest("selftest")
    rep = report.run_manifest(manifest)
    assert rep.green
    assert _live_nodes() > before
    del manifest, rep
    gc.collect()
    assert _live_nodes() == before


def test_nodes_copy_and_pickle_to_themselves():
    e = sx.add(sx.mul(sx.exp(sx.sqrt(sx.add(1, sx.pow_(X, 2)))), sx.sin(Y)), sx.neg(sx.mul(sx.Const(-0.0), X)))
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert copy.deepcopy([e, {"k": e}])[1]["k"] is e
    assert pickle.loads(pickle.dumps(e)) is e
    assert pickle.loads(pickle.dumps(sx.Const(-0.0))) is sx.Const(-0.0)


def test_nodes_are_immutable():
    e = sx.add(sx.mul(X, Y), 1)
    for node, field in ((e, "terms"), (sx.ONE, "value"), (X, "name"), (sx.sin(X), "other")):
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)


def test_evaluate_computes_a_shared_subtree_once(monkeypatch):
    calls = []
    real_sin = np.sin

    def counting_sin(a):
        calls.append(1)
        return real_sin(a)

    monkeypatch.setattr(np, "sin", counting_sin)
    shared = sx.sin(sx.mul(X, Y))
    e = sx.add(shared, sx.mul(shared, shared), sx.pow_(sx.sin(sx.mul(X, Y)), 2))
    env = {"x": np.array([0.3, -0.8]), "y": np.array([0.7, 0.2])}
    got = sx.evaluate(e, env)
    assert len(calls) == 1
    s = real_sin(env["x"] * env["y"])
    assert got.tobytes() == (s + s * s + np.power(s, 2, dtype=float)).tobytes()


# ---------------------------------------------------------------------------
# one walk for several expressions against one walk per expression


def _outcome(run):
    """``("ok", values)`` or ``(error type, message, witness)`` of a call."""
    try:
        return "ok", run()
    except (sx.EvaluationDomainError, sx.UnknownCoordinateError) as err:
        return type(err), str(err), getattr(err, "point", None)


def _is_block(got, rows: int, env) -> None:
    """``got`` is one float64 array of shape (rows, *batch) for ``env``."""
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == (rows, *sx.batch_shape(env))


def _same_rows(block, want) -> None:
    """Row i of ``block`` is bitwise ``want[i]``, one evaluate per row."""
    assert len(block) == len(want)
    for row, w in zip(block, want):
        assert np.asarray(row).tobytes() == np.asarray(w, dtype=float).tobytes()


_points = st.lists(
    st.tuples(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    ),
    min_size=1,
    max_size=5,
)


def _env(points, scalar):
    if scalar:
        return dict(zip(MIX.names, points[0]))
    return dict(zip(MIX.names, np.array(points, dtype=float).T))


@settings(max_examples=80, deadline=None)
@given(
    _dag_steps,
    _points,
    st.booleans(),
    st.lists(st.integers(0, 63), min_size=1, max_size=8),
    st.integers(0, 8),
)
def test_evaluate_all_equals_one_evaluate_per_expression(steps, points, scalar, picks, bad_at):
    pool = _build_dag(steps, (X, Y, sx.var("t"), sx.Const(0.5), sx.Const(-1.5)))
    # picks repeat pool entries, and later entries share subtrees with earlier ones
    exprs = [pool[i % len(pool)] for i in picks] + [sx.Const(2.0)]
    # a radicand that is negative on part of the domain, at a drawn position
    exprs.insert(bad_at % (len(exprs) + 1), sx.mul(sx.sqrt(X), pool[-1]))
    env = _env(points, scalar)
    want = _outcome(lambda: [sx.evaluate(e, env) for e in exprs])
    got = _outcome(lambda: sx.evaluate_all(exprs, env))
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok"
    _is_block(got[1], len(exprs), env)
    _same_rows(got[1], want[1])


@settings(max_examples=40, deadline=None)
@given(_dag_steps, _points, st.booleans(), st.integers(0, 8))
def test_evaluate_all_raises_unknown_coordinate_where_the_loop_does(steps, points, scalar, at):
    pool = _build_dag(steps, (X, Y, sx.var("t"), sx.Const(0.5), sx.Const(-1.5)))
    exprs = [*pool[-4:], sx.sqrt(X)]
    exprs.insert(at % (len(exprs) + 1), sx.mul(pool[-1], sx.var("z")))
    env = _env(points, scalar)
    want = _outcome(lambda: [sx.evaluate(e, env) for e in exprs])
    assert want[0] in (sx.UnknownCoordinateError, sx.EvaluationDomainError)
    assert _outcome(lambda: sx.evaluate_all(exprs, env)) == want


def test_evaluate_all_names_the_first_non_finite_before_a_later_unbound_variable():
    env = {"x": np.array([0.5, -0.25, -1.0]), "y": np.array([1.0, 2.0, 3.0])}
    exprs = [sx.mul(X, Y), sx.sqrt(X), sx.mul(X, sx.var("z"))]
    with pytest.raises(sx.EvaluationDomainError) as err:
        sx.evaluate_all(exprs, env)
    assert err.value.point == {"x": -0.25, "y": 2.0}
    assert str(err.value) == f"non-finite value evaluating '{sx.to_string(exprs[1])}' at {err.value.point}"


def test_evaluate_all_broadcasts_each_constant_value_once():
    env = {"x": np.array([0.5, -0.25])}
    got = sx.evaluate_all([sx.Const(3.0), X, sx.Const(3.0)], env)
    _is_block(got, 3, env)
    assert got.tolist() == [[3.0, 3.0], [0.5, -0.25], [3.0, 3.0]]
    assert not np.shares_memory(got, env["x"])  # a bare variable is copied into its row


def test_evaluate_all_of_nothing_and_of_scalars():
    nothing = sx.evaluate_all([], {"x": np.zeros(3)})
    _is_block(nothing, 0, {"x": np.zeros(3)})
    got = sx.evaluate_all([sx.mul(X, Y), sx.Const(3.0)], {"x": 2.0, "y": 0.25})
    _is_block(got, 2, {"x": 2.0})
    assert got.tolist() == [0.5, 3.0]
    value = sx.evaluate(sx.mul(X, Y), {"x": 2.0, "y": 0.25})
    assert type(value) is float and value == 0.5


def test_evaluate_all_never_enters_jet_mode(monkeypatch):
    shared = sx.mul(sx.sin(X), Y)  # walked once, from both expressions
    exprs = [
        sx.add(shared, sx.cos(shared)),
        sx.add(sx.mul(sx.exp(shared), sx.pow_(sx.add(1, sx.mul(X, X)), Fraction(1, 2))), sx.neg(sx.pow_(Y, 3))),
        X,
        sx.Const(2.0),
    ]
    walk, kinds, modes = sx._tree_walk, set(), []

    def spy(e, env, seen, grads):
        kinds.add(type(e))
        modes.append(grads)
        return walk(e, env, seen, grads)

    def no_gradient(*args):
        raise AssertionError("evaluate_all built a gradient")

    monkeypatch.setattr(sx, "_tree_walk", spy)
    monkeypatch.setattr(sx, "_keep_gradient", no_gradient)
    env = {"x": np.array([0.3, -0.7]), "y": np.array([1.1, 0.4])}
    sx.evaluate_all(exprs, env)
    sx.evaluate(exprs[1], {"x": 0.3, "y": 1.1})
    assert kinds == {sx.Const, sx.Var, sx.Add, sx.Mul, sx.Pow, sx.Call}
    assert modes and all(grads is None for grads in modes)
    with pytest.raises(AssertionError, match="built a gradient"):  # the spies see jet mode
        sx.jets(exprs, env)


@settings(max_examples=60, deadline=None)
@given(
    _dag_steps,
    st.lists(st.lists(st.integers(0, 63), max_size=4), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
)
def test_zero_checks_equal_one_is_zero_per_group(steps, group_picks, seed, with_bad):
    pool = _build_dag(steps, (X, Y, sx.var("t"), sx.Const(0.5), sx.Const(-1.5)))
    extras = [sx.ZERO, sx.add(pool[-1], sx.neg(pool[-1]))]  # structural zeros are skipped
    if with_bad:
        extras.append(sx.sqrt(X))
    candidates = pool + extras
    groups = [[candidates[i % len(candidates)] for i in picks] for picks in group_picks]
    want = _outcome(lambda: [oracle.expr_is_zero(g, MIX, 12, 1e-9, seed) for g in groups])
    # ZeroCheck equality compares every field: flag, residual, witness, samples, tol
    assert _outcome(lambda: oracle.zero_checks(groups, MIX, 12, 1e-9, seed)) == want


# ---------------------------------------------------------------------------
# forward-mode jets against the tree walk of the symbolic derivative

# A jet and the tree walk of ``diff`` sum the same products of the same
# subexpression values (those values are bit-identical in both walks), in
# different orders and groupings.  So they agree within a few rounding
# errors of the size of those products: the bound is JET_ULPS units of
# machine epsilon times the derivative tree walked with absolute values,
# plus as many smallest normal numbers for subnormal results.  Over 6,000
# drawn examples the largest difference seen was 2 such units.
JET_ULPS = 16


def _magnitude(e, env, memo):
    """|e| walked with absolute values: sums and products of the moduli of
    their operands; a power or a call counts as its own |value|."""
    if isinstance(e, sx.Const):
        return abs(e.value)
    if isinstance(e, sx.Var):
        return np.abs(env[e.name])
    if e not in memo:
        if isinstance(e, sx.Add):
            memo[e] = sum(_magnitude(t, env, memo) for t in e.terms)
        elif isinstance(e, sx.Mul):
            memo[e] = math.prod(_magnitude(f, env, memo) for f in e.factors)
        else:
            memo[e] = np.abs(sx.evaluate(e, env))
    return memo[e]


@settings(max_examples=120, deadline=None)
@given(_dag_steps, _points)
def test_jets_equal_the_tree_walk_of_diff(steps, points):
    pool = _build_dag(steps, (X, Y, sx.var("t"), sx.Const(0.5), sx.Const(-1.5)))
    exprs = pool[-4:]
    env = _env(points, scalar=False)
    want = _outcome(lambda: sx.evaluate_all(exprs, env))
    got = _outcome(lambda: sx.jets(exprs, env))
    if want[0] != "ok":
        # values are checked before partials, expression by expression: a
        # value error is evaluate_all's, unless a partial failed first
        assert got[0] is sx.EvaluationDomainError
        if got[1].startswith("non-finite value"):
            assert got == want
        return
    if got[0] != "ok":
        assert got[0] is sx.EvaluationDomainError and "derivative by" in got[1]
        derivatives = [sx.diff(e, n) for e in exprs for n in MIX.names]
        assert _outcome(lambda: sx.evaluate_all(derivatives, env))[0] is sx.EvaluationDomainError
        return
    values, partials, structural = got[1]
    assert values.tobytes() == want[1].tobytes()
    assert partials.dtype == np.float64 and partials.shape == (len(exprs), len(MIX.names), len(points))
    assert len(structural) == len(exprs)
    memo = {}
    for e, rows, nonzero in zip(exprs, partials, structural):
        assert len(set(nonzero)) == len(nonzero)
        for m, n in enumerate(MIX.names):
            d = sx.diff(e, n)
            if m not in nonzero:
                assert sx.is_structural_zero(d)
                assert rows[m].tobytes() == np.zeros_like(rows[m]).tobytes()
                continue
            tree = sx.evaluate(d, env)
            bound = JET_ULPS * (np.finfo(float).eps * _magnitude(d, env, memo) + np.finfo(float).tiny)
            assert np.all(np.abs(rows[m] - tree) <= bound)


def test_jets_of_scalars_and_constants():
    values, partials, structural = sx.jets([sx.mul(X, Y), sx.Const(3.0), sx.sin(X)], {"x": 2.0, "y": 0.25})
    assert values.tolist() == [0.5, 3.0, math.sin(2.0)]
    assert partials.tolist() == [[0.25, 2.0], [0.0, 0.0], [math.cos(2.0), 0.0]]
    assert [sorted(s) for s in structural] == [[0, 1], [], [0]]
    values, partials, structural = sx.jets([sx.mul(sx.Const(3.0), X)], {"y": np.ones(4), "x": np.zeros(4)})
    assert values.shape == (1, 4) and partials.shape == (1, 2, 4)
    assert partials[0].tolist() == [[0.0] * 4, [3.0] * 4]  # columns in env order
    assert structural == [[1]]


def test_jets_domain_error_keeps_message_and_witness_of_the_tree_walk():
    # a graph chart of the unit sphere on a box that reaches outside the ball
    box = linear_domain("box", ["x", "y", "z"])
    radicand = sx.add(1, sx.neg(sx.pow_(X, 2)), sx.neg(sx.pow_(Y, 2)), sx.neg(sx.pow_(sx.var("z"), 2)))
    exprs = [sx.mul(X, Y), sx.sqrt(radicand), sx.mul(sx.sqrt(radicand), X)]
    env = box.sample_points(50, seed=3)
    with pytest.raises(sx.EvaluationDomainError) as want:
        sx.evaluate_all(exprs, env)
    with pytest.raises(sx.EvaluationDomainError) as got:
        sx.jets(exprs, env)
    assert str(got.value) == str(want.value)
    assert got.value.point == want.value.point
    assert sx.evaluate(radicand, got.value.point) < 0


def test_jets_name_a_non_finite_derivative():
    with pytest.raises(sx.EvaluationDomainError, match="derivative by 'x'") as err:
        sx.jets([sx.sqrt(X)], {"x": np.array([0.5, 0.0, 0.25])})
    assert err.value.point == {"x": 0.0}


def test_jets_raise_unknown_coordinate():
    with pytest.raises(sx.UnknownCoordinateError, match="'z'"):
        sx.jets([X, sx.mul(X, sx.var("z"))], {"x": np.array([0.5]), "y": np.array([0.5])})


@settings(max_examples=40, deadline=None)
@given(_dag_steps, _points, st.booleans(), st.integers(0, 8))
def test_jets_raise_unknown_coordinate_where_the_tree_walk_does(steps, points, scalar, at):
    pool = _build_dag(steps, (X, Y, sx.var("t"), sx.Const(0.5), sx.Const(-1.5)))
    exprs = [*pool[-4:], sx.Const(2.0)]
    exprs.insert(at % (len(exprs) + 1), sx.mul(pool[-1], sx.var("z")))
    env = _env(points, scalar)
    want = _outcome(lambda: sx.evaluate_all(exprs, env))
    got = _outcome(lambda: sx.jets(exprs, env))
    if got[0] is sx.EvaluationDomainError and "derivative by" in got[1]:
        return  # a partial before the unbound variable failed first
    assert got == want
