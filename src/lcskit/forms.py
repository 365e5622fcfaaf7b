"""Coordinate domains, differential forms, vector fields, smooth maps.

Every geometric object lives on a :class:`CoordinateDomain`: a named box of
coordinates, each either ``linear`` (an interval) or ``angular`` (period 1,
sampled in [0, 1)).  A degree-k :class:`DifferentialForm` stores symbolic
coefficients keyed by strictly increasing k-tuples of coordinate indices.
The exterior calculus (wedge, d, interior product, Lie derivative,
pullback) is implemented symbolically on top of the
:mod:`lcskit.symexpr` kernel; equality of forms is always decided by
sampled residuals, never structurally.  Values at points come from one
:func:`symexpr.evaluate_all` call per object and sample set, and
:func:`forms_are_zero` tests several forms and fields in one such call.

Sign conventions used throughout the package:
    * wedge ordering follows the shuffle sign of merging index tuples;
    * ``lie_derivative`` is Cartan's formula ``i_X d + d i_X``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from . import symexpr as sx
from .symexpr import Expr, ZeroCheck

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

        ``margin`` shrinks each linear interval toward its midpoint by that
        fraction (angular coordinates are unaffected).
        """
        rng = np.random.default_rng(seed)
        out: dict[str, np.ndarray] = {}
        for c in self.coords:
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

    def contains(self, point: Mapping[str, float], slack: float = 0.0) -> bool:
        for c in self.coords:
            if c.kind == LINEAR:
                v = float(point[c.name])
                if not (c.lower - slack <= v <= c.upper + slack):
                    return False
        return True

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

    @property
    def is_structurally_zero(self) -> bool:
        return not self.coeffs

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

    def __mul__(self, factor: "Expr | float") -> "DifferentialForm":
        return self.scaled(factor)

    __rmul__ = __mul__


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

    @cached_property
    def value_at(self) -> Callable[[np.ndarray], np.ndarray]:
        """Compiled ``x -> components at x`` (coordinates in domain order),
        built on first use and kept for the field's lifetime."""
        return sx.lambdify(self.components, self.domain.names)

    @cached_property
    def jet_at(self) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Compiled ``x -> (components, Jacobian)`` at a point, built once."""
        names = self.domain.names
        jacobian = tuple(tuple(sx.diff(c, n) for n in names) for c in self.components)
        return _compile_jet(self.components, jacobian, names)


def basis_vector(domain: CoordinateDomain, name: str) -> VectorField:
    """The coordinate vector field d/d<name>."""
    i = domain.index(name)
    return VectorField(domain, tuple(sx.ONE if j == i else sx.ZERO for j in range(domain.dim)))


@dataclass(frozen=True)
class SmoothMap:
    """Map between domains given by one expression per target coordinate.

    Components targeting an ``angular`` coordinate are understood modulo 1;
    :func:`evaluate_map` reduces them to [0, 1).
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

    @cached_property
    def jet_at(self) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Compiled ``x -> (value, Jacobian)`` at a source point, without
        angular wrapping; built on first use and kept for the map's lifetime."""
        return _compile_jet(self.components, self.jacobian, self.source.names)


def _compile_jet(components: tuple[Expr, ...], jacobian: tuple[tuple[Expr, ...], ...], names: tuple[str, ...]):
    """One compiled function for components and their Jacobian (row-major)."""
    rows, cols = len(components), len(names)
    func = sx.lambdify(components + tuple(e for row in jacobian for e in row), names)

    def jet(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = func(x)
        return out[:rows], out[rows:].reshape(rows, cols)

    return jet


def identity_map(domain: CoordinateDomain) -> SmoothMap:
    return SmoothMap(domain, domain, tuple(sx.Var(n) for n in domain.names))


def evaluate_map(F: SmoothMap, env: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Evaluate a map at sample points, wrapping angular targets into [0, 1).

    Each component comes back as a fresh array of the env's batch shape.
    """
    out: dict[str, np.ndarray] = {}
    for coord, vals in zip(F.target.coords, sx.evaluate_all(F.components, env)):
        vals = np.array(vals)
        if coord.kind == ANGULAR:
            vals = np.mod(vals, 1.0)
        out[coord.name] = vals
    return out


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


def lie_derivative(X: VectorField, a: DifferentialForm) -> DifferentialForm:
    """Cartan's homotopy formula i_X d a + d i_X a."""
    _check_domains(X.domain, a.domain)
    first = interior(X, ext_d(a))
    if a.degree == 0:
        return first
    return first + ext_d(interior(X, a))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Commutator [X, Y] of vector fields."""
    _check_domains(X.domain, Y.domain)
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


def form_matrix(phi: DifferentialForm, env: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate a two-form into antisymmetric matrices, shape (*batch, d, d)."""
    if phi.degree != 2:
        raise DegreeError("form_matrix expects a two-form")
    return np.moveaxis(form_values(phi, env), (0, 1), (-2, -1))


def nondegeneracy_rank(phi: DifferentialForm, samples: int = 50, seed: int = 0) -> tuple[int, bool]:
    """Minimum numerical rank of a two-form over sampled points.

    Returns (min rank, whether that equals the domain dimension).
    """
    if phi.degree != 2:
        raise DegreeError("nondegeneracy_rank expects a two-form")
    from . import numeric  # numeric imports forms at load, so not at module level

    ranks = numeric.numerical_rank(form_matrix(phi, phi.domain.sample_points(samples, seed)))
    min_rank = int(ranks.min()) if ranks.size else 0
    return min_rank, min_rank == phi.domain.dim


# ---------------------------------------------------------------------------
# sampled residuals


def forms_are_zero(
    items: Sequence["DifferentialForm | VectorField"], samples: int = 200, tol: float = 1e-9, seed: int = 0
) -> list[ZeroCheck]:
    """Sampled zero tests of forms and vector fields on one domain, one
    :class:`ZeroCheck` per item, over all coefficients or components.

    Every item is tested on the same points, drawn once, and in one
    evaluation (see :func:`symexpr.zero_checks`), so the subexpressions the
    items share are computed once.
    """
    if not items:
        return []
    domain = items[0].domain
    for item in items[1:]:
        _check_domains(domain, item.domain)
    groups = [item.coeffs.values() if isinstance(item, DifferentialForm) else item.components for item in items]
    return sx.zero_checks(groups, domain, samples, tol, seed)


def form_is_zero(
    a: DifferentialForm, samples: int = 200, tol: float = 1e-9, seed: int = 0
) -> ZeroCheck:
    """Sampled zero test over all coefficients of a form: the one-item case
    of :func:`forms_are_zero`."""
    return forms_are_zero((a,), samples, tol, seed)[0]


def forms_equal(
    a: DifferentialForm, b: DifferentialForm, samples: int = 200, tol: float = 1e-9, seed: int = 0
) -> ZeroCheck:
    return form_is_zero(a - b, samples, tol, seed)


def evaluate_form(a: DifferentialForm, env: Mapping[str, np.ndarray]) -> dict[tuple[int, ...], np.ndarray]:
    """Evaluate all coefficients at sample points (floats at a single
    point given by scalars)."""
    return dict(zip(a.coeffs, sx.evaluate_all(a.coeffs.values(), env)))


def form_values(a: DifferentialForm, env: Mapping[str, np.ndarray]) -> np.ndarray:
    """Dense values of a one-form, shape (dim, *batch), or of a two-form,
    antisymmetric in the first two axes, shape (dim, dim, *batch)."""
    if a.degree not in (1, 2):
        raise DegreeError(f"form_values expects a one- or two-form, got degree {a.degree}")
    out = np.zeros((a.domain.dim,) * a.degree + sx.batch_shape(env))
    for idx, vals in zip(a.coeffs, sx.evaluate_all(a.coeffs.values(), env)):
        if a.degree == 1:
            out[idx] = vals
        else:
            out[idx] += vals
            out[idx[::-1]] -= vals
    return out


def evaluate_jacobian(F: SmoothMap, env: Mapping[str, np.ndarray]) -> np.ndarray:
    """Jacobian of a map at sample points, shape (tgt, src, *batch)."""
    vals = sx.evaluate_all([e for row in F.jacobian for e in row], env)
    return np.array(vals).reshape(F.target.dim, F.source.dim, *sx.batch_shape(env))
