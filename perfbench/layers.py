"""Per-layer metrics read from a trace, and the trace's coverage self-check.

Each metric names the workloads meant to exercise it.  A traced run on one of
those workloads that records no span for the metric fails loudly, and so
does a control workload that records a span of a layer it must not touch,
or a pass whose orchestration (time in ``report.run_manifest`` outside every
child span) is more than a small share of the pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from tracer import CoverageError

SYM, FLOWS, TORUS = "certify-symbolic", "reduce-flows", "torus-cohomology"
ALL = (SYM, FLOWS, TORUS)

ORCHESTRATION_SHARE_LIMIT = 0.05

# Span-name prefixes a control workload must not record.
CONTROLS = {
    TORUS: ("symexpr.", "forms.", "numeric."),
    SYM: ("numeric.flow", "numeric.solve_ivp", "cohomology."),
}


@dataclass
class Trace:
    """Per-pass averages of one workload's traced passes."""

    self_s: dict[str, float]
    stats: dict[str, dict[str, float]]
    sample_yield: float | None
    pass_s: float


class Metric(NamedTuple):
    unit: str
    spans: tuple[str, ...]
    on: tuple[str, ...]
    value: Callable[[Trace], float]


def _self_s(span: str, on) -> Metric:
    return Metric("s", (span,), on, lambda t: t.self_s[span])


def _count(span: str, stat: str, on) -> Metric:
    return Metric("count", (span,), on, lambda t: t.stats[span][stat])


def _share(span: str, stat: str, on, unit: str = "ratio") -> Metric:
    def value(t: Trace) -> float:
        calls = t.stats[span]["calls"]
        return t.stats[span][stat] / calls if calls else 0.0

    return Metric(unit, (span,), on, value)


MODEL_FACTORIES = ("models.model_liouville", "models.model_sphere_circle", "models.model_reduction_universal")

LAYER_METRICS = {
    "symexpr.diff.calls": _count("symexpr.diff", "calls", (SYM,)),
    "symexpr.diff.self_s": _self_s("symexpr.diff", (SYM,)),
    "symexpr.substitute.self_s": _self_s("symexpr.substitute", (SYM,)),
    "symexpr.is_zero.self_s": _self_s("symexpr.is_zero", (SYM,)),
    "symexpr.evaluate.calls": _count("symexpr.evaluate", "calls", (SYM, FLOWS)),
    "symexpr.evaluate.self_s": _self_s("symexpr.evaluate", (SYM, FLOWS)),
    "symexpr.evaluate.points_per_call": _share("symexpr.evaluate", "points", (SYM, FLOWS), "points"),
    "symexpr.evaluate.fail": _count("symexpr.evaluate", "fail", (SYM, FLOWS)),
    "symexpr.parse.self_s": _self_s("symexpr.parse", (SYM,)),
    "forms.ext_d.self_s": _self_s("forms.ext_d", (SYM,)),
    "forms.pullback.self_s": _self_s("forms.pullback", (SYM,)),
    "forms.wedge.self_s": _self_s("forms.wedge", (SYM,)),
    "forms.lie_derivative.self_s": _self_s("forms.lie_derivative", (SYM,)),
    "forms.evaluate_form.calls": _count("forms.evaluate_form", "calls", (FLOWS,)),
    "forms.form_matrix.calls": _count("forms.form_matrix", "calls", (SYM,)),
    "forms.nondegeneracy_rank.self_s": _self_s("forms.nondegeneracy_rank", (SYM,)),
    "numeric.flow.calls": _count("numeric.flow", "calls", (FLOWS,)),
    "numeric.flow.self_s": _self_s("numeric.flow", (FLOWS,)),
    "numeric.flow.jacobian_share": _share("numeric.flow", "jacobian", (FLOWS,)),
    "numeric.flow.nfev": _count("numeric.solve_ivp", "nfev", (FLOWS,)),
    "numeric.flow.escape_ratio": _share("numeric.flow", "escape", (FLOWS,)),
    "numeric.numerical_rank.self_s": _self_s("numeric.numerical_rank", (FLOWS,)),
    "twisted.d_twisted.self_s": _self_s("twisted.d_twisted", (SYM, FLOWS)),
    # No manifest task reaches Lee-form extraction today: reads 0 everywhere.
    "twisted.extract_lee.self_s": _self_s("twisted.extract_lee", ()),
    "twisted.classify_morphism.self_s": _self_s("twisted.classify_morphism", (SYM,)),
    "models.model_build.self_s": Metric(
        "s", MODEL_FACTORIES, (SYM, FLOWS), lambda t: sum(t.self_s[s] for s in MODEL_FACTORIES)
    ),
    "models.validate_first_kind.self_s": _self_s("models.validate_first_kind", (SYM,)),
    "embed.build_sphere_pipeline.self_s": _self_s("embed.build_sphere_pipeline", (SYM,)),
    "embed.build_psi2.self_s": _self_s("embed.build_psi2", (SYM,)),
    "embed.build_lcs_embedding.self_s": _self_s("embed.build_lcs_embedding", (SYM,)),
    "reduction.verify_strong_reducibility.calls": _count("reduction.verify_strong_reducibility", "calls", (FLOWS,)),
    "reduction.verify_strong_reducibility.self_s": _self_s("reduction.verify_strong_reducibility", (FLOWS,)),
    "reduction.concatenation_residual.self_s": _self_s("reduction.concatenation_residual", (FLOWS,)),
    "reduction.run_reduction_chain.self_s": _self_s("reduction.run_reduction_chain", (FLOWS,)),
    "reduction.sample_yield": Metric(
        "ratio", ("reduction.verify_strong_reducibility",), (FLOWS,), lambda t: t.sample_yield or 0.0
    ),
    "cohomology.build_torus_complex.self_s": _self_s("cohomology.build_torus_complex", (TORUS,)),
    "cohomology.matrix_rank_qr.calls": _count("cohomology.matrix_rank_qr", "calls", (TORUS,)),
    "cohomology.matrix_rank_qr.self_s": _self_s("cohomology.matrix_rank_qr", (TORUS,)),
    # Computed, not measured: bytes moved are 8x this (float64), cache misses ignored.
    "cohomology.matrix_rank_qr.dense_entries": _count("cohomology.matrix_rank_qr", "dense_entries", (TORUS,)),
    "cohomology.ot_obstruction_check.self_s": _self_s("cohomology.ot_obstruction_check", (TORUS,)),
    "report.run_manifest.self_s": _self_s("report.run_manifest", ALL),
    "report.load_manifest.self_s": _self_s("report.load_manifest", ALL),
    "report.write.self_s": _self_s("report.RunReport.write", ALL),
}


def layer_metrics(trace: Trace) -> dict[str, tuple[float, str]]:
    return {name: (float(m.value(trace)), m.unit) for name, m in LAYER_METRICS.items()}


def check_coverage(workload: str, trace: Trace) -> None:
    """Raise CoverageError when the trace misses what it should measure."""
    problems = []
    for name, metric in LAYER_METRICS.items():
        if workload in metric.on and not any(trace.stats[s]["calls"] for s in metric.spans):
            problems.append(f"{name}: no span of {', '.join(metric.spans)} on {workload}")
    if workload == FLOWS and trace.sample_yield is None:
        problems.append("reduction.sample_yield: no record carries samples_used/samples_skipped")
    for prefix in CONTROLS.get(workload, ()):
        entered = sorted(s for s, st in trace.stats.items() if s.startswith(prefix) and st["calls"])
        if entered:
            problems.append(f"control workload {workload} entered {', '.join(entered)}")
    share = trace.self_s["report.run_manifest"] / trace.pass_s
    if share > ORCHESTRATION_SHARE_LIMIT:
        problems.append(
            f"report.run_manifest self time is {share:.1%} of the pass "
            f"(limit {ORCHESTRATION_SHARE_LIMIT:.0%}): work runs outside every traced layer"
        )
    if problems:
        raise CoverageError("trace coverage self-check failed:\n  " + "\n  ".join(problems))
