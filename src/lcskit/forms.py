"""Coordinate domains, differential forms, vector fields, smooth maps.

Every geometric object lives on a :class:`CoordinateDomain`: a named box of
coordinates, each either ``linear`` (an interval) or ``angular`` (period 1,
sampled in [0, 1)).  A degree-k :class:`DifferentialForm` stores symbolic
coefficients keyed by strictly increasing k-tuples of coordinate indices.
The exterior calculus that builds new forms (wedge, d, interior product,
pullback) is symbolic, on top of the :mod:`lcskit.symexpr` kernel;
equality of forms is always decided by sampled residuals, never
structurally.  Values at points come from one :func:`symexpr.evaluate_all`
call per object and sample set, read as rows of the block it returns.

Identities that are only ever checked at sample points are checked there
without building derivative trees: :func:`sample_jets` turns forms and
fields into :class:`SampledForm` values with first derivatives, from one
:func:`symexpr.jets` walk, and a sampled calculus runs on their sparse
index dicts (d from antisymmetrised gradients, wedge and interior products
pointwise, :func:`lie_derivative` in coordinates from the walked partials of
the field and the form, and :func:`lie_bracket` from the fields'
Jacobians).  Every sampled operation returns values alone: first
derivatives come only from the walk, so the product rule lives in
:mod:`lcskit.symexpr`.  Pullbacks are taken the
same way: one :func:`symexpr.jets` walk of a map's components on an env
drawn from its source gives the images and Jacobians DF as its value and
partial blocks, and :func:`sampled_pullback` pulls a target form back
through them.  That walk is the one route from a :class:`SmoothMap` to
values at points: images come back unwrapped, and
:func:`numeric.wrap_point` reduces their angular coordinates where a caller
needs them in [0, 1).  A map's symbolic Jacobian is built only for the
symbolic :func:`pullback`.

Sign conventions used throughout the package:
    * wedge ordering follows the shuffle sign of merging index tuples;
    * ``lie_derivative`` agrees with Cartan's formula ``i_X d + d i_X``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import lazy_import, symexpr as sx
from .symexpr import Expr, ZeroCheck

np = lazy_import("numpy")  # runs at the first sampled evaluation: the exterior calculus is symbolic

LINEAR = "linear"
ANGULAR = "angular"


class FormError(Exception):
    """Base class for errors in the form calculus."""


class DegreeError(FormError):
    """Operation applied to a form of an unsupported degree."""


class DomainMismatchError(FormError):
    """Objects from different coordinate domains were combined."""


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Coordinate:
    """A single named coordinate: ``linear`` on [lower, upper], or ``angular``
    with period 1 (lower/upper ignored)."""

    name: str
    kind: str = LINEAR
    lower: float = -1.0
    upper: float = 1.0

    def __post_init__(self):
        if self.kind not in (LINEAR, ANGULAR):
            raise FormError(f"unknown coordinate kind {self.kind!r}")
        if self.kind == LINEAR and not self.lower < self.upper:
            raise FormError(f"empty range for coordinate {self.name!r}")


@dataclass(frozen=True)
class CoordinateDomain:
    """Named product of coordinate intervals/circles used as a chart domain."""

    name: str
    coords: tuple[Coordinate, ...]

    def __post_init__(self):
        names = [c.name for c in self.coords]
        if len(set(names)) != len(names):
            raise FormError(f"duplicate coordinate names in domain {self.name!r}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.coords)

    def index(self, name: str) -> int:
        for i, c in enumerate(self.coords):
            if c.name == name:
                return i
        raise sx.UnknownCoordinateError(f"domain {self.name!r} has no coordinate {name!r}")

    def coordinate(self, name: str) -> Coordinate:
        return self.coords[self.index(name)]

    def sample_points(self, samples: int, seed: int = 0, margin: float = 0.0) -> dict[str, np.ndarray]:
        """Draw uniform sample points; deterministic in (samples, seed).

        The draws are the stream of numpy's ``default_rng(seed).random``
        (PCG64 seeded by ``SeedSequence``, memoised per seed by
        :func:`pcg64.uniform`): coordinate j takes draws j·samples to
        (j+1)·samples − 1, scaled onto its interval.  ``margin`` shrinks each
        linear interval toward its midpoint by that fraction (angular
        coordinates are unaffected).  Every returned array is fresh.
        """
        from . import pcg64  # loads with the first draw, numpy with it: building a structure loads neither

        draws = pcg64.uniform(seed, samples * self.dim)
        out: dict[str, np.ndarray] = {}
        for j, c in enumerate(self.coords):
            u = draws[j * samples:(j + 1) * samples]
            if c.kind == ANGULAR:
                out[c.name] = u.copy()
            else:
                lo, hi = c.lower, c.upper
                if margin:
                    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * (1.0 - margin)
                    lo, hi = mid - half, mid + half
                out[c.name] = lo + (hi - lo) * u
        return out

    def one_form(self, name: str) -> "DifferentialForm":
        """The basis one-form d<name>."""
        return DifferentialForm(self, 1, {(self.index(name),): sx.ONE})

    def var(self, name: str) -> Expr:
        self.index(name)  # raises if unknown
        return sx.Var(name)


def linear_domain(name: str, names: Sequence[str], lower: float = -1.0, upper: float = 1.0) -> CoordinateDomain:
    return CoordinateDomain(name, tuple(Coordinate(n, LINEAR, lower, upper) for n in names))


def make_domain(name: str, entries: Sequence[tuple]) -> CoordinateDomain:
    """Build a domain from (name, kind) or (name, kind, lower, upper) tuples."""
    coords = []
    for entry in entries:
        coords.append(Coordinate(*entry))
    return CoordinateDomain(name, tuple(coords))


# ---------------------------------------------------------------------------
# forms and fields


def _normalise_coeffs(domain: CoordinateDomain, degree: int, coeffs: Mapping[tuple, "Expr | float"]):
    out: dict[tuple[int, ...], Expr] = {}
    for idx, c in coeffs.items():
        idx = tuple(int(i) for i in idx)
        if len(idx) != degree:
            raise DegreeError(f"index {idx} does not match degree {degree}")
        if any(i < 0 or i >= domain.dim for i in idx):
            raise FormError(f"index {idx} out of range for {domain.dim}-dim domain")
        if len(set(idx)) != len(idx):
            continue  # repeated index: identically zero slot
        perm_sign, key = _sort_index(idx)
        expr = sx.as_expr(c) if perm_sign == 1 else sx.neg(sx.as_expr(c))
        if key in out:
            out[key] = sx.add(out[key], expr)
        else:
            out[key] = expr
    return {k: v for k, v in out.items() if not sx.is_structural_zero(v)}


def _sort_index(idx: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort an index tuple, returning the permutation sign."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(idx)


@dataclass(frozen=True)
class DifferentialForm:
    """Degree-k form with symbolic coefficients on increasing multi-indices."""

    domain: CoordinateDomain
    degree: int
    coeffs: Mapping[tuple[int, ...], Expr] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.degree:
            raise DegreeError(f"negative degree {self.degree}")
        object.__setattr__(self, "coeffs", _normalise_coeffs(self.domain, self.degree, self.coeffs))

    def coefficient(self, idx: Sequence[int]) -> Expr:
        sign, key = _sort_index(tuple(int(i) for i in idx))
        if len(set(key)) != len(key):
            return sx.ZERO
        c = self.coeffs.get(key, sx.ZERO)
        return c if sign == 1 else sx.neg(c)

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        _check_same(self, other)
        merged = dict(self.coeffs)
        for k, v in other.coeffs.items():
            merged[k] = sx.add(merged[k], v) if k in merged else v
        return DifferentialForm(self.domain, self.degree, merged)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __neg__(self) -> "DifferentialForm":
        return self.scaled(sx.Const(-1.0))

    def scaled(self, factor: "Expr | float") -> "DifferentialForm":
        f = sx.as_expr(factor)
        return DifferentialForm(
            self.domain, self.degree, {k: sx.mul(f, v) for k, v in self.coeffs.items()}
        )


def zero_form(domain: CoordinateDomain, degree: int) -> DifferentialForm:
    return DifferentialForm(domain, degree, {})


def function_form(domain: CoordinateDomain, expr: "Expr | float") -> DifferentialForm:
    """Wrap a scalar expression as a 0-form."""
    return DifferentialForm(domain, 0, {(): sx.as_expr(expr)})


@dataclass(frozen=True)
class VectorField:
    """Vector field with one symbolic component per domain coordinate."""

    domain: CoordinateDomain
    components: tuple[Expr, ...]

    def __post_init__(self):
        comps = tuple(sx.as_expr(c) for c in self.components)
        if len(comps) != self.domain.dim:
            raise DomainMismatchError(
                f"{len(comps)} components for {self.domain.dim}-dim domain {self.domain.name!r}"
            )
        object.__setattr__(self, "components", comps)

    def __add__(self, other: "VectorField") -> "VectorField":
        _check_domains(self.domain, other.domain)
        return VectorField(self.domain, tuple(sx.add(a, b) for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "VectorField":
        return VectorField(self.domain, tuple(sx.neg(c) for c in self.components))

    def scaled(self, factor: "Expr | float") -> "VectorField":
        f = sx.as_expr(factor)
        return VectorField(self.domain, tuple(sx.mul(f, c) for c in self.components))

    def value_at(self, x: np.ndarray) -> np.ndarray:
        """The components at points ``x`` (N, dim), in domain order, as
        (N, dim): one :func:`symexpr.evaluate_all` walk on the columns of
        ``x``."""
        return sx.evaluate_all(self.components, dict(zip(self.domain.names, np.transpose(x)))).T

    @cached_property
    def jet_at(self) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """``x -> (components, Jacobians)`` at points (N, dim): values
        (N, dim) and Jacobians (N, dim, dim), each Jacobian contiguous, from
        one :func:`symexpr.evaluate_all` walk on the components and their
        partials (row-major); the partials are derived once, on first use,
        and kept for the field's lifetime."""
        names, d = self.domain.names, self.domain.dim
        exprs = self.components + tuple(sx.diff(c, n) for c in self.components for n in names)

        def jet(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            out = sx.evaluate_all(exprs, dict(zip(names, np.transpose(x))))
            return out[:d].T, np.ascontiguousarray(out[d:].reshape(d, d, len(x)).transpose(2, 0, 1))

        return jet


def basis_vector(domain: CoordinateDomain, name: str) -> VectorField:
    """The coordinate vector field d/d<name>."""
    i = domain.index(name)
    return VectorField(domain, tuple(sx.ONE if j == i else sx.ZERO for j in range(domain.dim)))


@dataclass(frozen=True)
class SmoothMap:
    """Map between domains given by one expression per target coordinate.

    Components targeting an ``angular`` coordinate are understood modulo 1;
    :func:`numeric.wrap_point` reduces them to [0, 1).
    """

    source: CoordinateDomain
    target: CoordinateDomain
    components: tuple[Expr, ...]

    def __post_init__(self):
        comps = tuple(sx.as_expr(c) for c in self.components)
        if len(comps) != self.target.dim:
            raise DomainMismatchError(
                f"{len(comps)} components for {self.target.dim}-dim target {self.target.name!r}"
            )
        object.__setattr__(self, "components", comps)

    def component(self, target_name: str) -> Expr:
        return self.components[self.target.index(target_name)]

    @cached_property
    def jacobian(self) -> tuple[tuple[Expr, ...], ...]:
        """Symbolic Jacobian, derived on first use and kept for the map's
        lifetime: rows indexed by target coordinates, columns by source
        coordinates."""
        src = self.source.names
        return tuple(tuple(sx.diff(c, n) for n in src) for c in self.components)


def identity_map(domain: CoordinateDomain) -> SmoothMap:
    return SmoothMap(domain, domain, tuple(sx.Var(n) for n in domain.names))


def _check_domains(a: CoordinateDomain, b: CoordinateDomain) -> None:
    if a != b:
        raise DomainMismatchError(f"domains {a.name!r} and {b.name!r} differ")


def _check_same(a: DifferentialForm, b: DifferentialForm) -> None:
    _check_domains(a.domain, b.domain)
    if a.degree != b.degree:
        raise DegreeError(f"degree {a.degree} vs {b.degree}")


# ---------------------------------------------------------------------------
# index algebra


def _merge_indices(I: tuple[int, ...], J: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Concatenate-and-sort two increasing tuples; None if they collide."""
    if set(I) & set(J):
        return None
    return _sort_index(I + J)


def _insert_index(i: int, I: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Insert one index into an increasing tuple with the wedge sign."""
    if i in I:
        return None
    pos = sum(1 for j in I if j < i)
    sign = -1 if pos % 2 else 1
    return sign, I[:pos] + (i,) + I[pos:]


# ---------------------------------------------------------------------------
# calculus operations


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Exterior product a ∧ b."""
    _check_domains(a.domain, b.domain)
    degree = a.degree + b.degree
    if degree > a.domain.dim:
        return DifferentialForm(a.domain, degree, {})
    acc: dict[tuple[int, ...], list[Expr]] = {}
    for I, ca in a.coeffs.items():
        for J, cb in b.coeffs.items():
            merged = _merge_indices(I, J)
            if merged is None:
                continue
            sign, K = merged
            term = sx.mul(ca, cb) if sign == 1 else sx.mul(sx.Const(-1.0), ca, cb)
            acc.setdefault(K, []).append(term)
    return DifferentialForm(a.domain, degree, {k: sx.add(*v) for k, v in acc.items()})


def ext_d(a: DifferentialForm) -> DifferentialForm:
    """Exterior derivative."""
    names = a.domain.names
    acc: dict[tuple[int, ...], list[Expr]] = {}
    for I, c in a.coeffs.items():
        for m, name in enumerate(names):
            dc = sx.diff(c, name)
            if sx.is_structural_zero(dc):
                continue
            ins = _insert_index(m, I)
            if ins is None:
                continue
            sign, K = ins
            acc.setdefault(K, []).append(dc if sign == 1 else sx.neg(dc))
    return DifferentialForm(a.domain, a.degree + 1, {k: sx.add(*v) for k, v in acc.items()})


def interior(X: VectorField, a: DifferentialForm) -> DifferentialForm:
    """Interior product i_X a (degree drops by one)."""
    _check_domains(X.domain, a.domain)
    if a.degree == 0:
        raise DegreeError("interior product of a 0-form is undefined")
    acc: dict[tuple[int, ...], list[Expr]] = {}
    for I, c in a.coeffs.items():
        for pos, i in enumerate(I):
            xi = X.components[i]
            if sx.is_structural_zero(xi):
                continue
            K = I[:pos] + I[pos + 1 :]
            term = sx.mul(xi, c)
            acc.setdefault(K, []).append(term if pos % 2 == 0 else sx.neg(term))
    return DifferentialForm(a.domain, a.degree - 1, {k: sx.add(*v) for k, v in acc.items()})


def _minor_det(jac, rows: tuple[int, ...], cols: tuple[int, ...]) -> Expr:
    """Symbolic determinant of the (rows x cols) Jacobian minor."""
    k = len(rows)
    if k == 0:
        return sx.ONE
    if k == 1:
        return jac[rows[0]][cols[0]]
    terms = []
    for pos, r in enumerate(rows):
        entry = jac[r][cols[0]]
        if sx.is_structural_zero(entry):
            continue
        sub = _minor_det(jac, rows[:pos] + rows[pos + 1 :], cols[1:])
        if sx.is_structural_zero(sub):
            continue
        term = sx.mul(entry, sub)
        terms.append(term if pos % 2 == 0 else sx.neg(term))
    return sx.add(*terms) if terms else sx.ZERO


def pullback(F: SmoothMap, a: DifferentialForm) -> DifferentialForm:
    """Pullback F* a of a form on the target of F."""
    _check_domains(F.target, a.domain)
    k = a.degree
    src = F.source
    repl = dict(zip(F.target.names, F.components))
    if k == 0:
        return function_form(src, sx.substitute(a.coefficient(()), repl))
    if k > src.dim:
        return DifferentialForm(src, k, {})
    jac = F.jacobian
    out: dict[tuple[int, ...], list[Expr]] = {}
    composed = {J: sx.substitute(c, repl) for J, c in a.coeffs.items()}
    for I in itertools.combinations(range(src.dim), k):
        terms = []
        for J, cJ in composed.items():
            det = _minor_det(jac, J, I)
            if sx.is_structural_zero(det) or sx.is_structural_zero(cJ):
                continue
            terms.append(sx.mul(cJ, det))
        if terms:
            out[I] = [sx.add(*terms)]
    return DifferentialForm(src, k, {k2: v[0] for k2, v in out.items()})


# ---------------------------------------------------------------------------
# two-form matrices and rank


def form_matrix(
    phi: DifferentialForm, env: Mapping[str, np.ndarray], values: Mapping[tuple[int, ...], np.ndarray]
) -> np.ndarray:
    """Antisymmetric matrices of a two-form at the points of ``env``, shape
    (*batch, d, d), from its coefficient ``values`` there (index tuple ->
    array, as :func:`evaluate_form` gives them)."""
    if phi.degree != 2:
        raise DegreeError("form_matrix expects a two-form")
    return np.moveaxis(_dense(phi, values.items(), sx.batch_shape(env)), (0, 1), (-2, -1))


def nondegeneracy_rank(
    phi: DifferentialForm, env: Mapping[str, np.ndarray], values: Mapping[tuple[int, ...], np.ndarray]
) -> tuple[int, bool]:
    """Minimum numerical rank of a two-form over the points of ``env``, from
    its coefficient ``values`` there (see :func:`form_matrix`).

    Returns (min rank, whether that equals the domain dimension).
    """
    if phi.degree != 2:
        raise DegreeError("nondegeneracy_rank expects a two-form")
    from . import numeric

    ranks = numeric.numerical_rank(form_matrix(phi, env, values))
    min_rank = int(ranks.min()) if ranks.size else 0
    return min_rank, min_rank == phi.domain.dim


# ---------------------------------------------------------------------------
# sampled residuals


def evaluate_form(a: DifferentialForm, env: Mapping[str, np.ndarray]) -> dict[tuple[int, ...], np.ndarray]:
    """Evaluate all coefficients at sample points: rows of one
    :func:`symexpr.evaluate_all` block (numpy floats at a single point
    given by scalars)."""
    return dict(zip(a.coeffs, sx.evaluate_all(a.coeffs.values(), env)))


def form_values(a: DifferentialForm, env: Mapping[str, np.ndarray]) -> np.ndarray:
    """Dense values of a one-form, shape (dim, *batch), or of a two-form,
    antisymmetric in the first two axes, shape (dim, dim, *batch)."""
    if a.degree not in (1, 2):
        raise DegreeError(f"form_values expects a one- or two-form, got degree {a.degree}")
    return _dense(a, evaluate_form(a, env).items(), sx.batch_shape(env))


def _dense(
    a: DifferentialForm, values: Iterable[tuple[tuple[int, ...], np.ndarray]], shape: tuple[int, ...]
) -> np.ndarray:
    """Dense array of a one- or two-form from its coefficient values of batch
    ``shape`` (see :func:`form_values`)."""
    out = np.zeros((a.domain.dim,) * a.degree + shape)
    for idx, vals in values:
        if a.degree == 1:
            out[idx] = vals
        else:
            out[idx] += vals
            out[idx[::-1]] -= vals
    return out


def sampled_pullback(a: DifferentialForm, images: Mapping[str, np.ndarray], J: np.ndarray) -> np.ndarray:
    """Values of a pullback F*a at sampled points, without building it: ``a``
    is evaluated at the images F(x) (an env on F's target) and contracted
    with the Jacobians DF there, ``J`` (tgt, src, n).  A one-form gives
    DFᵀ(a∘F) (src, n), a two-form DFᵀ(a∘F)DF (src, src, n), one stacked
    matmul over the samples."""
    values = form_values(a, images)
    if values.ndim == 2:
        return np.einsum("an,ain->in", values, J)
    Jn = np.moveaxis(J, -1, 0)
    return np.moveaxis(np.swapaxes(Jn, 1, 2) @ np.moveaxis(values, -1, 0) @ Jn, 0, -1)


def values_check(residual: np.ndarray, env: Mapping[str, np.ndarray], tol: float) -> ZeroCheck:
    """:func:`symexpr.is_zero` on the dense values of a one-form (d, n) or
    two-form (d, d, n) residual at the points of ``env``, over its
    coefficients on increasing indices."""
    if residual.ndim == 3:
        residual = residual[np.triu_indices(len(residual), 1)]
    return sx.is_zero([residual], env, tol)


# ---------------------------------------------------------------------------
# sampled calculus on first-order jets


class SampledForm(NamedTuple):
    """A form (or vector field) at the points of one env.

    ``values`` maps increasing index tuples to arrays of the batch shape (a
    vector field is keyed by 1-tuples); ``grads`` maps the same keys to
    ``{coordinate index: partial derivative}`` for the forms and fields
    :func:`sample_jets` walks, and is None for every form the sampled
    calculus computes.  Absent keys and absent gradient entries are
    structural zeros.
    """

    values: dict
    grads: dict | None = None


def sample_jets(items: Sequence["DifferentialForm | VectorField"], env: Mapping[str, np.ndarray]) -> list[SampledForm]:
    """Sampled forms, with first derivatives, of forms and vector fields on
    one domain, from one :func:`symexpr.jets` walk of all their coefficients
    and components on ``env``, an env drawn from that domain (its
    coordinates in domain order).  Each value and partial is a row view of
    the walk's blocks."""
    domain = items[0].domain
    for item in items[1:]:
        _check_domains(domain, item.domain)
    if tuple(env) != domain.names:
        raise DomainMismatchError(f"env coordinates {tuple(env)} are not those of domain {domain.name!r}")
    keyed = [
        item.coeffs.items() if isinstance(item, DifferentialForm)
        else [((i,), c) for i, c in enumerate(item.components) if not sx.is_structural_zero(c)]
        for item in items
    ]
    values, partials, structural = sx.jets([c for pairs in keyed for _, c in pairs], env)
    rows = iter(zip(values, partials, structural))
    out = []
    for pairs in keyed:
        vals, grads = {}, {}
        for I, _ in pairs:
            vals[I], partial, nonzero = next(rows)
            grads[I] = {m: partial[m] for m in nonzero}
        out.append(SampledForm(vals, grads))
    return out


def _grads(a: SampledForm) -> dict:
    """The first derivatives of a sampled form, which only :func:`sample_jets` gives."""
    if a.grads is None:
        raise FormError("a derivative of a sampled form needs its first derivatives, from sample_jets")
    return a.grads


def _add(acc: dict, key: tuple[int, ...], sign: int, value) -> None:
    """Add ``sign * value`` into the values ``acc`` of a sampled form under ``key``."""
    if key in acc:
        acc[key] = acc[key] + value if sign > 0 else acc[key] - value
    else:
        acc[key] = value if sign > 0 else -value


def sampled_sum(a: SampledForm, b: SampledForm, sign: int = 1) -> SampledForm:
    """``a + sign * b`` of two sampled forms of one degree."""
    acc = dict(a.values)
    for key, value in b.values.items():
        _add(acc, key, sign, value)
    return SampledForm(acc)


def sampled_d(a: SampledForm) -> SampledForm:
    """Exterior derivative from the antisymmetrised gradients."""
    acc = {}
    for I, grad in _grads(a).items():
        for m, d in grad.items():
            ins = _insert_index(m, I)
            if ins is not None:
                _add(acc, ins[1], ins[0], d)
    return SampledForm(acc)


def sampled_wedge(a: SampledForm, b: SampledForm) -> SampledForm:
    """Exterior product, pointwise."""
    acc = {}
    for I, x in a.values.items():
        for J, y in b.values.items():
            merged = _merge_indices(I, J)
            if merged is not None:
                _add(acc, merged[1], merged[0], x * y)
    return SampledForm(acc)


def sampled_interior(X: SampledForm, a: SampledForm) -> SampledForm:
    """Interior product i_X a, pointwise; for a one-form a, the pairing
    a(X) under the key ``()``."""
    acc = {}
    for I, y in a.values.items():
        for pos, i in enumerate(I):
            if (i,) in X.values:
                _add(acc, I[:pos] + I[pos + 1 :], -1 if pos % 2 else 1, X.values[(i,)] * y)
    return SampledForm(acc)


def lie_derivative(X: SampledForm, a: SampledForm) -> SampledForm:
    """Lie derivative L_X a of a sampled form along a sampled field, both
    with first derivatives, in coordinates: a_I dx^I gives X(a_I) dx^I plus
    a_I times dx^I with each factor dx^j in turn replaced by
    d(X^j) = Σ_i ∂_i X^j dx^i."""
    acc, field_grads = {}, _grads(X)
    for I, grad in _grads(a).items():
        for m, d in grad.items():
            if (m,) in X.values:
                _add(acc, I, 1, X.values[(m,)] * d)
        for pos, j in enumerate(I):
            for i, d in field_grads.get((j,), {}).items():
                if i == j or i not in I:
                    sign, K = _sort_index(I[:pos] + (i,) + I[pos + 1 :])
                    _add(acc, K, sign, a.values[I] * d)
    return SampledForm(acc)


def lie_bracket(X: SampledForm, Y: SampledForm) -> SampledForm:
    """Commutator [X, Y]^i = X^j d_j Y^i - Y^j d_j X^i of sampled fields
    with first derivatives, from their Jacobians."""
    acc = {}
    for first, second, sign in ((X, Y, 1), (Y, X, -1)):
        for key, grad in _grads(second).items():
            for j, d in grad.items():
                if (j,) in first.values:
                    _add(acc, key, sign, first.values[(j,)] * d)
    return SampledForm(acc)
