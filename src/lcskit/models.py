"""Catalog of locally conformal symplectic structures of the first kind.

A structure of the first kind carries a potential one-form ``alpha`` with
``phi = d alpha - lee ^ alpha``, a vector field ``B`` with ``lee(B) = 1``,
``i_B phi = -alpha``, ``L_B phi = 0``, and the anti-Lee field ``E`` with
``i_E phi = -lee`` and ``lee(E) = 0`` commuting with ``B``.

Two model families are provided:

* ``model_sphere_circle(N, q)`` — the product of an odd sphere (radius 1,
  inside R^(2N), covered by 4N graph charts) with a circle, carrying the
  scaled standard contact form on the sphere and Lee form d(theta);
* ``model_reduction_universal(k, N, mu)`` — the universal first-kind
  structures on R x (1-jets of functions on T^k x R^N), one global chart,
  with Lee form ds + sum mu_j d(theta_j).

``contact_form`` is the one definition of the contact generator, from which
the sphere x circle potential and every target of :mod:`lcskit.embed` are
built; ``reeb_components`` is its Reeb field R, with eta(R) = |z|^2.

``model_liouville(n)`` builds the exact symplectic plane R^(2n) (zero Lee
form).  It is no catalog entry: no task can use a structure without ``B``.

``validate_first_kind`` certifies the defining identities chart by chart
from sampled first-order jets of phi, lee, alpha, B and E (see
:func:`forms.sample_jets`), building no derivative tree.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import partial

from . import forms, lazy_import, symexpr as sx
from .forms import (
    ANGULAR,
    Coordinate,
    CoordinateDomain,
    DifferentialForm,
    SampledForm,
    SmoothMap,
    VectorField,
    basis_vector,
    ext_d,
    lie_bracket,
    lie_derivative,
    pullback,
    sampled_d,
    sampled_interior,
    sampled_sum,
    sampled_wedge,
    wedge,
)
from .symexpr import Expr, ZeroCheck
from .twisted import d_twisted

np = lazy_import("numpy")  # runs at the first sampled evaluation: building a model is symbolic

FIRST_KIND = "first-kind"
EXACT = "exact"

# ball-box half width: the inscribed cube of the open unit ball, with slack
_BOX_SAFETY = 0.95


class ModelError(Exception):
    """Malformed model data (missing fields, bad parameters)."""


@dataclass(frozen=True)
class StructureChart:
    """One chart of a structure: domain, forms, distinguished fields."""

    domain: CoordinateDomain
    phi: DifferentialForm
    lee: DifferentialForm
    alpha: DifferentialForm | None = None
    b_field: VectorField | None = None
    anti_lee: VectorField | None = None
    parametrization: SmoothMap | None = None  # into an ambient domain, if any
    name: str = ""


class LazyCharts(Sequence):
    """Charts built on first access and kept: a catalog structure's charts
    in their fixed order, of which a run that reads one chart builds one.
    A slice builds the charts it covers and returns them as a tuple."""

    def __init__(self, builders: Iterable[Callable[[], StructureChart]]):
        self._builders = tuple(builders)
        self._built: list[StructureChart | None] = [None] * len(self._builders)

    def __len__(self) -> int:
        return len(self._builders)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        chart = self._built[index]
        if chart is None:
            chart = self._built[index] = self._builders[index]()
        return chart


@dataclass
class LcsStructure:
    """A structure presented by charts, plus catalog metadata."""

    name: str
    kind: str
    charts: Sequence[StructureChart]
    ambient: CoordinateDomain | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.charts[0].domain.dim


# ---------------------------------------------------------------------------
# ambient ingredients


def interleaved_names(N: int) -> list[str]:
    out = []
    for j in range(1, N + 1):
        out.extend([f"x{j}", f"y{j}"])
    return out


def model_liouville(n: int) -> LcsStructure:
    """Exact symplectic structure on R^(2n): d of the tautological form
    sum y_j dx_j, zero Lee form."""
    if n < 1:
        raise ModelError("model_liouville needs n >= 1")
    dom = forms.linear_domain(f"r{2*n}", interleaved_names(n))
    lam = DifferentialForm(dom, 1, {(2 * j,): sx.var(f"y{j+1}") for j in range(n)})
    chart = StructureChart(
        domain=dom,
        phi=ext_d(lam),
        lee=forms.zero_form(dom, 1),
        alpha=lam,
        b_field=None,
        anti_lee=VectorField(dom, (sx.ZERO,) * dom.dim),
        name="global",
    )
    return LcsStructure(f"liouville_{n}", EXACT, (chart,), metadata={"n": n})


def contact_form(domain: CoordinateDomain, N: int, scale: float) -> DifferentialForm:
    """The contact generator (scale/2) sum (y_j dx_j - x_j dy_j) on a domain
    with the interleaved coordinates x1, y1, ..., xN, yN."""
    coeffs: dict[tuple[int, ...], Expr] = {}
    for j in range(1, N + 1):
        coeffs[(domain.index(f"x{j}"),)] = sx.mul(sx.Const(0.5 * scale), sx.var(f"y{j}"))
        coeffs[(domain.index(f"y{j}"),)] = sx.mul(sx.Const(-0.5 * scale), sx.var(f"x{j}"))
    return DifferentialForm(domain, 1, coeffs)


def reeb_components(N: int) -> dict[str, Expr]:
    """Ambient components of the contact Reeb field 2 sum (y_j d/dx_j - x_j d/dy_j)."""
    comps: dict[str, Expr] = {}
    for j in range(1, N + 1):
        comps[f"x{j}"] = sx.mul(sx.Const(2.0), sx.var(f"y{j}"))
        comps[f"y{j}"] = sx.mul(sx.Const(-2.0), sx.var(f"x{j}"))
    return comps


# ---------------------------------------------------------------------------
# odd sphere x circle


def sphere_circle_ambient(N: int) -> CoordinateDomain:
    coords = [Coordinate(n, "linear", -1.0, 1.0) for n in interleaved_names(N)]
    coords.append(Coordinate("theta", ANGULAR))
    return CoordinateDomain(f"sphere{2*N-1}_circle_ambient", tuple(coords))


def sphere_graph_charts(
    N: int, ambient: CoordinateDomain, with_circle: bool = True
) -> list[tuple[str, SmoothMap]]:
    """Graph charts of the unit sphere in R^(2N) (both signs per coordinate).

    Each chart drops one ambient coordinate and represents it as
    +-sqrt(1 - sum of the others squared); the chart domain is the
    inscribed-cube box of half width 0.95/sqrt(2N-1) (every box point lies
    strictly inside the unit ball), optionally times the circle factor.
    """
    names = interleaved_names(N)
    half = _BOX_SAFETY / math.sqrt(max(1, 2 * N - 1))
    charts: list[tuple[str, SmoothMap]] = []
    for drop in names:
        for sign, tag in ((1.0, "plus"), (-1.0, "minus")):
            kept = [n for n in names if n != drop]
            coords = [Coordinate(n, "linear", -half, half) for n in kept]
            if with_circle:
                coords.append(Coordinate("theta", ANGULAR))
            dom = CoordinateDomain(f"chart_{drop}_{tag}", tuple(coords))
            radicand = sx.add(sx.ONE, *(sx.neg(sx.pow_(sx.var(n), 2)) for n in kept))
            dropped_expr = sx.mul(sx.Const(sign), sx.sqrt(radicand))
            comps = []
            for n in ambient.names:
                if n == drop:
                    comps.append(dropped_expr)
                elif n == "theta":
                    comps.append(sx.var("theta"))
                else:
                    comps.append(sx.var(n))
            charts.append((f"{drop}_{tag}", SmoothMap(dom, ambient, tuple(comps))))
    return charts


def model_sphere_circle(N: int, q: float = 1.0) -> LcsStructure:
    """First-kind structure on (odd sphere) x circle.

    The potential is ``q`` times the restricted contact form, the Lee form
    is d(theta), ``phi = d alpha - lee ^ alpha``, ``B = d/d(theta)`` and
    the anti-Lee field is ``-1/q`` times the contact Reeb field.  Since d
    commutes with pullback, ``d alpha`` is the pullback of the constant
    ``q d(eta) = -q sum dx_j ^ dy_j``, differentiated once per model: no
    chart differentiates its potential.  Each of the 4N graph charts is
    built on its first access (see :class:`LazyCharts`).
    """
    if N < 2:
        raise ModelError("model_sphere_circle needs N >= 2 (sphere dimension >= 3)")
    if q == 0.0:
        raise ModelError("the contact scale q must be nonzero")
    ambient = sphere_circle_ambient(N)
    # the contact generator on the product ambient, so pullbacks line up by name
    eta_amb = contact_form(ambient, N, 1.0)
    q_deta = ext_d(eta_amb).scaled(sx.Const(q))
    reeb = reeb_components(N)
    charts = LazyCharts(
        partial(_sphere_circle_chart, label, P, eta_amb, q_deta, reeb, q)
        for label, P in sphere_graph_charts(N, ambient, with_circle=True)
    )
    return LcsStructure(
        f"sphere{2*N-1}_circle_q{q:g}", FIRST_KIND, charts,
        ambient=ambient, metadata={"N": N, "q": q},
    )


def _sphere_circle_chart(
    label: str, P: SmoothMap, eta_amb: DifferentialForm, q_deta: DifferentialForm,
    reeb: dict[str, Expr], q: float,
) -> StructureChart:
    """The chart of :func:`model_sphere_circle` on one graph chart ``P``."""
    dom = P.source
    alpha = pullback(P, eta_amb).scaled(sx.Const(q))
    lee = dom.one_form("theta")
    phi = pullback(P, q_deta) - wedge(lee, alpha)
    b_field = basis_vector(dom, "theta")
    # ambient Reeb components composed through the chart (the dropped
    # coordinate becomes +-sqrt(1 - ...))
    onto_chart = dict(zip(P.target.names, P.components))
    comps = []
    for n in dom.names:
        if n == "theta":
            comps.append(sx.ZERO)
        else:
            comps.append(sx.mul(sx.Const(-1.0 / q), sx.substitute(reeb[n], onto_chart)))
    anti_lee = VectorField(dom, tuple(comps))
    return StructureChart(
        domain=dom, phi=phi, lee=lee, alpha=alpha,
        b_field=b_field, anti_lee=anti_lee, parametrization=P, name=label,
    )


# ---------------------------------------------------------------------------
# universal reduction models


def universal_domain(k: int, N: int) -> CoordinateDomain:
    coords = [Coordinate("s"), Coordinate("u")]
    coords += [Coordinate(f"th{j+1}", ANGULAR) for j in range(k)]
    coords += [Coordinate(f"t{i+1}") for i in range(N)]
    coords += [Coordinate(f"pth{j+1}") for j in range(k)]
    coords += [Coordinate(f"pt{i+1}") for i in range(N)]
    return CoordinateDomain(f"universal_k{k}_n{N}", tuple(coords))


def model_reduction_universal(k: int, N: int, mu: Sequence[float]) -> LcsStructure:
    """Universal first-kind structure on R x (1-jets over T^k x R^N).

    Coordinates (s, u, th_j, t_i, pth_j, pt_i); the potential is
    du - sum pth_j d th_j - sum pt_i d t_i, the Lee form ds + sum mu_j d th_j,
    phi their twisted differential, B = d/ds and anti-Lee field -d/du.
    """
    if k < 0 or N < 0 or k + N == 0:
        raise ModelError("model_reduction_universal needs k + N >= 1")
    mu = tuple(float(m) for m in mu)
    if len(mu) != k:
        raise ModelError(f"mu has {len(mu)} entries, expected k = {k}")
    dom = universal_domain(k, N)
    lam_coeffs: dict[tuple[int, ...], Expr] = {}
    for j in range(k):
        lam_coeffs[(dom.index(f"th{j+1}"),)] = sx.var(f"pth{j+1}")
    for i in range(N):
        lam_coeffs[(dom.index(f"t{i+1}"),)] = sx.var(f"pt{i+1}")
    lam = DifferentialForm(dom, 1, lam_coeffs)
    alpha = dom.one_form("u") - lam
    lee = dom.one_form("s")
    for j in range(k):
        lee = lee + dom.one_form(f"th{j+1}").scaled(sx.Const(mu[j]))
    phi = d_twisted(lee, alpha)
    chart = StructureChart(
        domain=dom, phi=phi, lee=lee, alpha=alpha,
        b_field=basis_vector(dom, "s"), anti_lee=-basis_vector(dom, "u"),
        name="global",
    )
    return LcsStructure(
        f"universal_k{k}_n{N}", FIRST_KIND, (chart,),
        metadata={"k": k, "N": N, "mu": mu},
    )


# ---------------------------------------------------------------------------
# first-kind validation


IDENTITY_LABELS = (
    "d(phi) - lee ^ phi",
    "d_lee(alpha) - phi",
    "i_B(phi) + alpha",
    "i_E(phi) + lee",
    "lee(B) - 1",
    "lee(E)",
    "L_B(phi)",
    "[B, E]",
    "d(lee)",
)


@dataclass(frozen=True)
class FirstKindReport:
    """Residuals of the defining identities, per chart."""

    structure: str
    checks: tuple[tuple[str, str, ZeroCheck], ...]  # (chart, identity, result)
    min_rank: int
    nondegenerate: bool
    passed: bool

    def worst(self) -> float:
        return max((c.max_residual for _, _, c in self.checks), default=0.0)


def validate_first_kind(
    structure: LcsStructure,
    samples: int = 200,
    tol: float = 1e-9,
    seed: int = 0,
) -> FirstKindReport:
    """Certify the defining identities of a first-kind structure chartwise.

    On each chart one :func:`symexpr.jets` walk gives the values and first
    derivatives of phi, lee, alpha, B and E at one sample set, and the nine
    identities are assembled from them by the sampled calculus of
    :mod:`lcskit.forms`; no derivative tree is built.  The two-form's rank
    is read from the same walk's values of phi at the first
    ``min(samples, 60)`` points.
    """
    checks: list[tuple[str, str, ZeroCheck]] = []
    min_rank = None
    for chart in structure.charts:
        if chart.b_field is None or chart.anti_lee is None:
            raise ModelError(
                f"chart {chart.name!r} of {structure.name!r} lacks B or the anti-Lee field"
            )
        if chart.alpha is None:
            raise ModelError(f"chart {chart.name!r} of {structure.name!r} lacks a potential")
        env = chart.domain.sample_points(samples, seed)
        phi, lee, alpha, B, E = forms.sample_jets(
            (chart.phi, chart.lee, chart.alpha, chart.b_field, chart.anti_lee), env
        )
        one = SampledForm({(): np.ones(samples)})
        residuals = {
            "d(phi) - lee ^ phi": sampled_sum(sampled_d(phi), sampled_wedge(lee, phi), -1),
            "d_lee(alpha) - phi": sampled_sum(
                sampled_sum(sampled_d(alpha), sampled_wedge(lee, alpha), -1), phi, -1
            ),
            "i_B(phi) + alpha": sampled_sum(sampled_interior(B, phi), alpha),
            "i_E(phi) + lee": sampled_sum(sampled_interior(E, phi), lee),
            "lee(B) - 1": sampled_sum(sampled_interior(B, lee), one, -1),
            "lee(E)": sampled_interior(E, lee),
            "L_B(phi)": lie_derivative(B, phi),
            "d(lee)": sampled_d(lee),
            "[B, E]": lie_bracket(B, E),
        }
        for label, r in residuals.items():
            checks.append((chart.name, label, sx.is_zero(r.values.values(), env, tol)))
        head = min(samples, 60)
        rank, _full = forms.nondegeneracy_rank(
            chart.phi, {n: v[:head] for n, v in env.items()}, {I: v[:head] for I, v in phi.values.items()}
        )
        min_rank = rank if min_rank is None else min(min_rank, rank)
    nondeg = min_rank == structure.dim
    passed = nondeg and all(c.passed for _, _, c in checks)
    return FirstKindReport(structure.name, tuple(checks), int(min_rank or 0), nondeg, passed)


# ---------------------------------------------------------------------------
# loops for period bookkeeping


def structure_lee_loops(structure: LcsStructure) -> list[SmoothMap]:
    """Canonical loops generating the angular directions of a chart domain.

    For each angular coordinate of the first chart, the loop varies that
    coordinate over a full turn with the other coordinates pinned at the
    centre of the box.
    """
    chart = structure.charts[0]
    dom = chart.domain
    unit = forms.linear_domain(f"loop_{dom.name}", ["t"], 0.0, 1.0)
    loops = []
    for c in dom.coords:
        if c.kind != ANGULAR:
            continue
        comps = []
        for other in dom.coords:
            if other.name == c.name:
                comps.append(sx.var("t"))
            elif other.kind == ANGULAR:
                comps.append(sx.ZERO)
            else:
                comps.append(sx.Const(0.5 * (other.lower + other.upper)))
        loops.append(SmoothMap(unit, dom, tuple(comps)))
    return loops
