"""Small symbolic expression kernel for coordinate formulas.

The node set is deliberately tiny: constants, variables, n-ary sums and
products, rational powers, and the scalar calls ``sin``/``cos``/``exp``.
Square roots are powers with exponent 1/2 and negation is multiplication
by -1.  Construction performs only light, order-preserving rewrites
(flattening, constant folding, dropping additive/multiplicative
identities); no general simplification is attempted.

Nodes are interned: building a node returns the one live node with the same
fields, so ``==`` is identity, which is structural equality decided in
O(1).  Mathematical equality is decided numerically, at sample points:
:func:`is_zero` is the one rule that turns sampled residual values into a
pass flag.  :func:`diff` keeps its results on sum, power and call nodes.

Evaluation is vectorised over numpy arrays, by one tree walk with one memo
per call, so each shared subexpression is computed once per sample set.
The walk writes its results straight into dense blocks, one row per
expression.  :func:`evaluate_all` (and :func:`evaluate`, its one-expression
case) is its value mode; :func:`jets` is its jet mode, which also carries
each node's sparse gradient forward, building no derivative tree, and adds
a block of partials over the env's coordinates.  Any non-finite value
or partial (a negative radicand, division by zero, the derivative of
``sqrt`` at 0) raises :class:`EvaluationDomainError` carrying the offending
sample point rather than silently propagating ``nan``.  The walk is the
package's only evaluator: flow right-hand sides, evaluated again and again
on batches of points, walk their trees too.
"""

from __future__ import annotations

import math
import re
import struct
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from . import lazy_import

np = lazy_import("numpy")  # runs at the first evaluation: building expressions needs none

Number = Union[int, float, Fraction]
ExprLike = Union["Expr", Number]

_FUNCTIONS = ("sin", "cos", "exp")


class ExprError(Exception):
    """Base class for expression kernel errors."""


class UnknownCoordinateError(ExprError):
    """A variable was evaluated without a value bound to it."""


class EvaluationDomainError(ExprError):
    """Evaluation left the real domain (non-finite result).

    Attributes:
        point: coordinate assignment at the first offending sample.
    """

    def __init__(self, message: str, point: dict[str, float] | None = None):
        super().__init__(message)
        self.point = point or {}


class ParseError(ExprError):
    """Raised on malformed expression text; message includes the position."""


# ---------------------------------------------------------------------------
# nodes


class Expr:
    """Base expression node.  Build expressions with the module constructors
    (:func:`add`, :func:`mul`, :func:`neg`, :func:`pow_`, :func:`sqrt`, ...),
    not raw nodes; nodes define no arithmetic operators.

    Nodes are interned: constructing a node returns the one live node with
    the same fields (``Const`` keyed on its float bits), so ``==`` and
    ``hash`` are object identity.  A weak table per node class holds them,
    so a node dies when nothing else refers to it.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __str__(self) -> str:
        return to_string(self)

    # -- immutability, copying, pickling ----------------------------------
    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __copy__(self) -> "Expr":
        return self

    def __deepcopy__(self, memo) -> "Expr":
        return self

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


_set = object.__setattr__
_float_bits = struct.Struct("<d").pack


def _interned(cls, key, values: tuple):
    """The live ``cls`` node under ``key``, created from ``values`` (one per
    field) when there is none.

    Keys name children by id, never hold them: a key holding a child would
    keep it alive from the table, and a node whose derivatives lead back to
    it (``exp(u)`` has ``exp(u) * du``) would never die.  A live node holds
    its children, so no other object can take their ids while its entry
    lives.
    """
    node = cls._table.get(key)
    if node is None:
        node = object.__new__(cls)
        for f, v in zip(cls._fields, values):
            _set(node, f, v)
        if isinstance(node, _DerivSlot):
            _set(node, "_derivs", None)
        cls._table[key] = node
    return node


def _ids(nodes: tuple) -> bytes:
    """Intern key of a child tuple: its nodes' ids, packed (a tuple of ints
    costs twice the memory)."""
    return struct.pack(f"{len(nodes)}P", *map(id, nodes))


class Const(Expr):
    __slots__ = ("value",)
    _fields = ("value",)
    _table = weakref.WeakValueDictionary()

    def __new__(cls, value: Number):
        value = float(value)
        return _interned(cls, _float_bits(value), (value,))


class Var(Expr):
    __slots__ = ("name",)
    _fields = ("name",)
    _table = weakref.WeakValueDictionary()

    def __new__(cls, name: str):
        return _interned(cls, name, (name,))


class _DerivSlot(Expr):
    """A node that keeps its derivatives: ``_derivs`` is ``{name:
    diff(node, name)}``, filled by :func:`diff`."""

    __slots__ = ("_derivs",)


class Add(_DerivSlot):
    __slots__ = ("terms",)
    _fields = ("terms",)
    _table = weakref.WeakValueDictionary()

    def __new__(cls, terms: Iterable[Expr]):
        terms = tuple(terms)
        return _interned(cls, _ids(terms), (terms,))


class Mul(Expr):
    __slots__ = ("factors",)
    _fields = ("factors",)
    _table = weakref.WeakValueDictionary()

    def __new__(cls, factors: Iterable[Expr]):
        factors = tuple(factors)
        return _interned(cls, _ids(factors), (factors,))


class Pow(_DerivSlot):
    __slots__ = ("base", "exponent")
    _fields = ("base", "exponent")
    _table = weakref.WeakValueDictionary()

    def __new__(cls, base: Expr, exponent: Number):
        q = exponent if type(exponent) is Fraction else Fraction(exponent)
        return _interned(cls, (id(base), q), (base, q))


class Call(_DerivSlot):
    __slots__ = ("fn", "arg")  # fn is one of _FUNCTIONS
    _fields = ("fn", "arg")
    _table = weakref.WeakValueDictionary()

    def __new__(cls, fn: str, arg: Expr):
        return _interned(cls, (fn, id(arg)), (fn, arg))


ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(x: ExprLike) -> Expr:
    """Coerce a number to a :class:`Const`; pass expressions through."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, Fraction)):
        return Const(float(x))
    raise TypeError(f"cannot interpret {x!r} as an expression")


# ---------------------------------------------------------------------------
# smart constructors (light rewrites only)


def add(*terms: ExprLike) -> Expr:
    """Sum with flattening, constant folding and zero removal."""
    flat: list[Expr] = []
    const = 0.0
    for t in map(as_expr, terms):
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    kept: list[Expr] = []
    for t in flat:
        if isinstance(t, Const):
            const += t.value
        else:
            kept.append(t)
    if const != 0.0:
        kept.insert(0, Const(const))
    if not kept:
        return ZERO
    if len(kept) == 1:
        return kept[0]
    return Add(tuple(kept))


def mul(*factors: ExprLike) -> Expr:
    """Product with flattening, constant folding, and 0/1 absorption."""
    flat: list[Expr] = []
    const = 1.0
    for f in map(as_expr, factors):
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    kept: list[Expr] = []
    for f in flat:
        if isinstance(f, Const):
            const *= f.value
        else:
            kept.append(f)
    if const == 0.0:
        return ZERO
    if not kept:
        return Const(const)
    if const != 1.0:
        kept.insert(0, Const(const))
    if len(kept) == 1:
        return kept[0]
    return Mul(tuple(kept))


def pow_(base: ExprLike, exponent: Number) -> Expr:
    """Power with a rational exponent.

    Rewrites: ``e^0 -> 1``, ``e^1 -> e``, constant folding when the result
    is a finite real, and ``(e^p)^q -> e^(p*q)`` only when ``p`` has an odd
    numerator (that merge is sign- and domain-safe; ``(x^2)^(1/2)`` is
    ``|x|`` and is left alone).
    """
    base = as_expr(base)
    q = Fraction(exponent) if not isinstance(exponent, Fraction) else exponent
    if q == 0:
        return ONE
    if q == 1:
        return base
    if isinstance(base, Const):
        folded = _pow_const(base.value, q)
        if folded is not None:
            return Const(folded)
    if isinstance(base, Pow) and base.exponent.numerator % 2 != 0:
        return pow_(base.base, base.exponent * q)
    return Pow(base, q)


def _pow_const(value: float, q: Fraction) -> float | None:
    try:
        if q.denominator == 1:
            if value == 0.0 and q < 0:
                return None
            return float(value ** q.numerator)
        if value > 0.0 or (value == 0.0 and q > 0):
            return float(value) ** float(q)
    except OverflowError:
        pass
    return None  # invalid, complex or out of range: leave for evaluation to report


def neg(e: ExprLike) -> Expr:
    return mul(Const(-1.0), as_expr(e))


def sqrt(e: ExprLike) -> Expr:
    return pow_(e, Fraction(1, 2))


def _call(fn: str, arg: ExprLike) -> Expr:
    arg = as_expr(arg)
    if isinstance(arg, Const):
        try:
            return Const(getattr(math, fn)(arg.value))
        except (OverflowError, ValueError):
            pass  # out of range: leave for evaluation to report
    return Call(fn, arg)


def sin(e: ExprLike) -> Expr:
    return _call("sin", e)


def cos(e: ExprLike) -> Expr:
    return _call("cos", e)


def exp(e: ExprLike) -> Expr:
    return _call("exp", e)


def var(name: str) -> Expr:
    return Var(name)


def const(value: Number) -> Expr:
    return Const(float(value))


# ---------------------------------------------------------------------------
# structural queries


def is_structural_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


# ---------------------------------------------------------------------------
# differentiation


def diff(e: Expr, name: str) -> Expr:
    """Exact partial derivative of ``e`` with respect to variable ``name``.

    Sums, powers and calls keep their derivatives in a slot on the node, so
    each such (node, name) pair is derived once for as long as the node
    lives.  A product is re-derived from its factors' derivatives each
    time: keeping products' derivatives as well held about 16,000 more nodes
    alive per ``certify-symbolic`` benchmark pass and saved under a tenth of
    its time.
    """
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == name else ZERO
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = diff(f, name)
            if is_structural_zero(df):
                continue
            rest = e.factors[:i] + e.factors[i + 1 :]
            terms.append(mul(df, *rest))
        return add(*terms)
    slot = e._derivs
    if slot is None:
        slot = {}
        _set(e, "_derivs", slot)
    else:
        out = slot.get(name)
        if out is not None:
            return out
    if isinstance(e, Add):
        out = add(*(diff(t, name) for t in e.terms))
    elif isinstance(e, Pow):
        db = diff(e.base, name)
        if is_structural_zero(db):
            out = ZERO
        else:
            out = mul(Const(float(e.exponent)), pow_(e.base, e.exponent - 1), db)
    elif isinstance(e, Call):
        da = diff(e.arg, name)
        if is_structural_zero(da):
            out = ZERO
        else:
            if e.fn == "sin":
                outer = cos(e.arg)
            elif e.fn == "cos":
                outer = neg(sin(e.arg))
            else:  # exp
                outer = exp(e.arg)
            out = mul(outer, da)
    else:
        raise TypeError(f"unknown node {e!r}")
    slot[name] = out
    return out


def substitute(e: Expr, mapping: Mapping[str, ExprLike]) -> Expr:
    """Replace variables by expressions, rebuilding through the constructors."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        repl = mapping.get(e.name)
        return e if repl is None else as_expr(repl)
    if isinstance(e, Add):
        return add(*(substitute(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(substitute(f, mapping) for f in e.factors))
    if isinstance(e, Pow):
        return pow_(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Call):
        return _call(e.fn, substitute(e.arg, mapping))
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# evaluation


_NO_GRADIENT: dict = {}  # the gradient of a constant, shared: never written to


def _tree_walk(e: Expr, env: Mapping[str, np.ndarray], seen: dict, grads: dict | None):
    """Value of ``e`` on ``env``: the one tree walk.  ``seen`` maps each
    compound node already walked on this env to its value, so shared
    subtrees run once.  In value mode ``grads`` is None.  In jet mode it
    maps the variable of the env's coordinate i to its gradient ``{i: 1.0}``,
    and :func:`_keep_gradient` adds each compound node's once it is walked.
    This body holds no comprehension: one would make its names cells,
    which every call pays for, value mode included."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnknownCoordinateError(f"no value bound to coordinate '{e.name}'") from None
    out = seen.get(e)
    if out is not None:
        return out
    if isinstance(e, Add):
        out = _tree_walk(e.terms[0], env, seen, grads)
        for t in e.terms[1:]:
            out = out + _tree_walk(t, env, seen, grads)
    elif isinstance(e, Mul):
        out = _tree_walk(e.factors[0], env, seen, grads)
        for f in e.factors[1:]:
            out = out * _tree_walk(f, env, seen, grads)
    elif isinstance(e, Pow):
        base = _tree_walk(e.base, env, seen, grads)
        q = e.exponent
        if q.denominator == 1:
            out = np.power(base, q.numerator, dtype=float)
        else:
            out = np.power(np.asarray(base, dtype=float), float(q))
    elif isinstance(e, Call):
        out = getattr(np, e.fn)(_tree_walk(e.arg, env, seen, grads))
    else:
        raise TypeError(f"unknown node {e!r}")
    seen[e] = out
    if grads is not None:
        _keep_gradient(e, env, seen, grads)
    return out


def _keep_gradient(e: Expr, env: Mapping[str, np.ndarray], seen: dict, grads: dict) -> None:
    """Keep in ``grads`` the gradient of the compound node ``e``, just
    walked: ``{coordinate index: partial derivative}``, structural zeros
    absent, from its children's gradients and the values the walk reads
    back.  An empty gradient is not kept; gradients are shared, never
    written."""
    if isinstance(e, Add):
        grad = {}
        for t in e.terms:
            for k, d in grads.get(t, _NO_GRADIENT).items():
                grad[k] = grad[k] + d if k in grad else d
    elif isinstance(e, Mul):
        values = [_tree_walk(f, env, seen, grads) for f in e.factors]
        prefix = [None, values[0]]  # prefix[i]: product of the factors before i
        for v in values[1:-1]:
            prefix.append(prefix[-1] * v)
        grad, suffix = {}, None  # suffix: product of the factors after i
        for i in range(len(values) - 1, -1, -1):
            g = grads.get(e.factors[i])
            if g:  # product rule: the partials of factor i times the other factors
                others = prefix[i] if suffix is None else suffix if prefix[i] is None else prefix[i] * suffix
                for k, d in g.items():
                    term = others * d
                    grad[k] = grad[k] + term if k in grad else term
            suffix = values[i] if suffix is None else values[i] * suffix
    else:  # chain rule through a power or a call
        inner = e.base if isinstance(e, Pow) else e.arg
        g = grads.get(inner)
        if not g:
            return
        inner = _tree_walk(inner, env, seen, grads)
        if isinstance(e, Call):
            outer = np.cos(inner) if e.fn == "sin" else -np.sin(inner) if e.fn == "cos" else seen[e]  # exp
        elif e.exponent.denominator == 1:
            outer = e.exponent.numerator * np.power(inner, e.exponent.numerator - 1, dtype=float)
        else:
            outer = float(e.exponent) * np.power(np.asarray(inner, dtype=float), float(e.exponent - 1))
        grad = {k: outer * d for k, d in g.items()}
    if grad:
        grads[e] = grad


def batch_shape(env: Mapping[str, "np.ndarray | float"]) -> tuple[int, ...]:
    """Shape of the batch an env describes: that of its first non-scalar
    value, or ``()`` when every value is a scalar."""
    return next((np.shape(v) for v in env.values() if np.ndim(v)), ())


def _walk_all(exprs: Iterable[Expr], env: Mapping[str, "np.ndarray | float"], jet: bool):
    """The one driver of :func:`_tree_walk`: :func:`evaluate_all`, or with
    ``jet`` :func:`jets`, writing each result into the blocks they return
    and raising the errors they state."""
    exprs = tuple(exprs)
    env_arr = {k: np.asarray(v, dtype=float) for k, v in env.items()}
    names = tuple(env_arr)
    shape = batch_shape(env_arr)
    values = np.empty((len(exprs), *shape))
    seen: dict = {}
    if jet:
        partials = np.zeros((len(exprs), len(names), *shape))
        structural, grads = [], {Var(k): {i: 1.0} for i, k in enumerate(names)}
    else:
        grads = None
    walked, unbound = 0, None
    with np.errstate(all="ignore"):
        for e in exprs:
            try:
                values[walked] = _tree_walk(e, env_arr, seen, grads)
            except UnknownCoordinateError as err:
                unbound = err
                break
            if jet:
                grad = grads.get(e, _NO_GRADIENT)
                for m, d in grad.items():
                    partials[walked, m] = d
                structural.append(list(grad))
            walked += 1
    if not np.isfinite(values[:walked]).all() or (jet and not np.isfinite(partials[:walked]).all()):
        for i in range(walked):  # find the first, in order: each value, then its partials
            rows = [("value", values[i])]
            if jet:
                rows += [(f"derivative by '{names[m]}'", partials[i, m]) for m in structural[i]]
            for what, v in rows:
                if not np.isfinite(v).all():
                    raise _domain_error(what, exprs[i], v, env_arr)
    if unbound is not None:
        raise unbound
    return (values, partials, structural) if jet else values


def evaluate_all(exprs: Iterable[Expr], env: Mapping[str, "np.ndarray | float"]) -> np.ndarray:
    """Evaluate several expressions on one env, each subexpression once (one
    memo spans the call): the value mode of the one tree walk.

    Returns one float64 array of shape ``(len(exprs), *batch)``, with
    ``batch`` the shape of ``env`` (see :func:`batch_shape`; ``()`` for an
    all-scalar env): row i holds expression i, constants broadcast over the
    batch.  The block is checked for finiteness once; when it holds a
    non-finite entry, the first expression, in order, with a non-finite
    value raises :class:`EvaluationDomainError` (with its first offending
    sample point).  An unbound variable raises
    :class:`UnknownCoordinateError` unless an earlier expression is
    non-finite, and expressions after it are not evaluated.
    """
    return _walk_all(exprs, env, jet=False)


def evaluate(e: Expr, env: Mapping[str, "np.ndarray | float"]):
    """Evaluate one expression on scalars or equal-length arrays: row 0 of
    :func:`evaluate_all`, with its errors; a float on an all-scalar env."""
    out = evaluate_all((e,), env)[0]
    return out if out.ndim else float(out)


def jets(exprs: Iterable[Expr], env: Mapping[str, "np.ndarray | float"]) -> tuple:
    """Values and first derivatives of several expressions on one env: the
    jet mode of the one tree walk, which is forward mode (Griewank & Walther,
    *Evaluating Derivatives*, 2008) and builds no derivative tree.

    Returns ``(values, partials, structural)``.  ``values`` is
    :func:`evaluate_all`'s block, bit for bit.  ``partials`` has shape
    ``(len(exprs), len(env), *batch)``: row i, column j holds the partial
    derivative of expression i by the env's j-th coordinate (env order).
    ``structural[i]`` lists the coordinate indices where that partial is
    structurally nonzero; every other entry is 0.0.  Both blocks are
    checked as :func:`evaluate_all`'s is, each value before its structural
    partials, and a non-finite partial raises
    :class:`EvaluationDomainError` naming it.
    """
    return _walk_all(exprs, env, jet=True)


def _domain_error(what: str, e: Expr, out: np.ndarray, env_arr: Mapping[str, np.ndarray]) -> EvaluationDomainError:
    """The error for a non-finite ``out``, witnessed at its first non-finite
    sample."""
    idx = int(np.flatnonzero(~np.isfinite(out))[0])
    point = {k: float(v) if v.ndim == 0 else float(v.flat[idx]) for k, v in env_arr.items()}
    return EvaluationDomainError(f"non-finite {what} evaluating '{to_string(e)}' at {point}", point)


# ---------------------------------------------------------------------------
# zero testing


@dataclass(frozen=True)
class ZeroCheck:
    """Outcome of a sampled zero test.

    Attributes:
        passed: max residual below tolerance.
        max_residual: largest |value| over the sample set.
        worst_point: coordinates where the maximum was attained.
        samples: number of points tested.
        tol: tolerance used.
    """

    passed: bool
    max_residual: float
    worst_point: dict[str, float]
    samples: int
    tol: float


def is_zero(values: Iterable[np.ndarray], env: Mapping[str, np.ndarray], tol: float) -> ZeroCheck:
    """The one pass/fail rule for sampled residuals.

    ``values`` are arrays whose last axis runs over the points of ``env``.
    The :class:`ZeroCheck` reads their largest |value|, witnessed at the
    first point where the first array (in row-major order) to reach it
    does, and passes when that is at most ``tol``; no arrays pass with
    residual 0.
    """
    samples = len(next(iter(env.values())))
    worst = 0.0
    worst_point: dict[str, float] = {}
    rows = [np.reshape(v, (-1, samples)) for v in values]
    if rows:
        vals = np.abs(np.concatenate(rows))
        at = int(np.argmax(vals))  # row-major: the first row to reach the max, at its first point
        worst = float(vals.flat[at])
        if worst > 0.0:
            idx = at % samples
            worst_point = {k: float(v[idx]) for k, v in env.items()}
    return ZeroCheck(worst <= tol, worst, worst_point, samples, tol)


# ---------------------------------------------------------------------------
# printing


def _needs_parens(e: Expr, parent: str) -> bool:
    if isinstance(e, (Const, Var, Call)):
        return isinstance(e, Const) and e.value < 0 and parent in ("mul", "pow", "neg")
    if isinstance(e, Add):
        return parent in ("mul", "pow", "neg")
    if isinstance(e, Mul):
        return parent == "pow"
    if isinstance(e, Pow):
        return parent == "pow"
    return False


def _wrap(e: Expr, parent: str) -> str:
    s = to_string(e)
    return f"({s})" if _needs_parens(e, parent) else s


def _const_str(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e: Expr) -> str:
    """Infix form that reparses to an equivalent expression."""
    if isinstance(e, Const):
        return _const_str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        parts = [to_string(e.terms[0])]
        for t in e.terms[1:]:
            if isinstance(t, Mul) and isinstance(t.factors[0], Const) and t.factors[0].value < 0:
                inner = mul(Const(-t.factors[0].value), *t.factors[1:])
                parts.append(f" - {_wrap(inner, 'mul')}")
            elif isinstance(t, Const) and t.value < 0:
                parts.append(f" - {_const_str(-t.value)}")
            else:
                parts.append(f" + {_wrap(t, 'add')}")
        return "".join(parts)
    if isinstance(e, Mul):
        if isinstance(e.factors[0], Const) and e.factors[0].value == -1.0 and len(e.factors) > 1:
            rest = mul(*e.factors[1:]) if len(e.factors) > 2 else e.factors[1]
            return f"-{_wrap(rest, 'neg')}"
        return " * ".join(_wrap(f, "mul") for f in e.factors)
    if isinstance(e, Pow):
        q = e.exponent
        if q == Fraction(1, 2):
            return f"sqrt({to_string(e.base)})"
        exp_s = str(q.numerator) if q.denominator == 1 else f"({q.numerator}/{q.denominator})"
        return f"{_wrap(e.base, 'pow')}^{exp_s}"
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.arg)})"
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# parser


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stray = text[pos:].lstrip()
            if not stray:
                break
            raise ParseError(f"unexpected character {stray[0]!r} at position {pos}")
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.text!r}")
        self.i += 1
        return tok

    def expect(self, op: str) -> None:
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            where = tok[2] if tok else len(self.text)
            raise ParseError(f"expected {op!r} at position {where} in {self.text!r}")
        self.i += 1

    # expr := term (("+"|"-") term)*
    def expr(self) -> Expr:
        out = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.i += 1
                rhs = self.term()
                out = add(out, rhs if tok[1] == "+" else neg(rhs))
            else:
                return out

    # term := unary (("*"|"/") unary)*
    def term(self) -> Expr:
        out = self.unary()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.i += 1
                rhs = self.unary()
                out = mul(out, rhs) if tok[1] == "*" else mul(out, pow_(rhs, -1))
            else:
                return out

    # unary := "-" unary | power
    def unary(self) -> Expr:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.i += 1
            return neg(self.unary())
        if tok and tok[0] == "op" and tok[1] == "+":
            self.i += 1
            return self.unary()
        return self.power()

    # power := atom ("^" exponent)?    (exponent must be a rational literal)
    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.i += 1
            q = self.exponent()
            return pow_(base, q)
        return base

    def exponent(self) -> Fraction:
        tok = self.peek()
        negate = False
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.i += 1
            negate = tok[1] == "-"
            tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "(":
            self.i += 1
            q = self.exponent_body()
            self.expect(")")
        elif tok and tok[0] == "number":
            self.i += 1
            q = _number_fraction(tok[1], tok[2], self.text)
        else:
            where = tok[2] if tok else len(self.text)
            raise ParseError(
                f"exponent must be a rational literal at position {where} in {self.text!r}"
            )
        return -q if negate else q

    def exponent_body(self) -> Fraction:
        tok = self.peek()
        negate = False
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.i += 1
            negate = tok[1] == "-"
            tok = self.peek()
        if not tok or tok[0] != "number":
            where = tok[2] if tok else len(self.text)
            raise ParseError(f"expected number at position {where} in {self.text!r}")
        self.i += 1
        q = _number_fraction(tok[1], tok[2], self.text)
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "/":
            self.i += 1
            tok = self.next()
            if tok[0] != "number":
                raise ParseError(f"expected denominator at position {tok[2]} in {self.text!r}")
            q = q / _number_fraction(tok[1], tok[2], self.text)
        return -q if negate else q

    def atom(self) -> Expr:
        tok = self.next()
        kind, value, where = tok
        if kind == "number":
            return Const(float(value))
        if kind == "name":
            if value == "pi":
                return Const(math.pi)
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "(":
                if value == "sqrt":
                    self.i += 1
                    inner = self.expr()
                    self.expect(")")
                    return sqrt(inner)
                if value in _FUNCTIONS:
                    self.i += 1
                    inner = self.expr()
                    self.expect(")")
                    return _call(value, inner)
                raise ParseError(f"unknown function {value!r} at position {where}")
            if value == "sqrt" or value in _FUNCTIONS:
                raise ParseError(f"function name {value!r} needs arguments at position {where}")
            return Var(value)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {value!r} at position {where} in {self.text!r}")


def _number_fraction(text: str, where: int, full: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        raise ParseError(f"bad exponent literal {text!r} at position {where} in {full!r}") from None


def parse(text: str) -> Expr:
    """Parse infix text (``+ - * / ^ sin cos exp sqrt``, parentheses, ``pi``).

    Exponents after ``^`` must be rational literals such as ``2``, ``-1``
    or ``(1/2)`` — general expressions in the exponent are rejected.
    """
    p = _Parser(text)
    if not p.tokens:
        raise ParseError("empty expression")
    out = p.expr()
    if p.peek() is not None:
        tok = p.peek()
        raise ParseError(f"trailing input {tok[1]!r} at position {tok[2]} in {text!r}")
    return out
