"""Span tracer for lcskit, installed from outside the package.

``Tracer.install`` replaces each function named in ``TARGETS`` with a
wrapper, in every ``lcskit.*`` namespace that holds it (modules import
``forms``/``symexpr`` functions by name, so one module attribute is not
enough).  A wrapper opens a span only on the outermost call: ``diff`` and
``substitute`` recurse through their module globals, and spanning every
inner call would measure the tracer.  Spans (name, start, end, parent) are
kept in flat arrays and written out at the end; self time is a span's
duration minus the time its child spans cover.  Exceptions leaving a
wrapped function are counted as failures of that function and re-raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

TARGETS = (
    "symexpr.diff",
    "symexpr.substitute",
    "symexpr.is_zero",
    "symexpr.evaluate",
    "symexpr.parse",
    "forms.ext_d",
    "forms.pullback",
    "forms.wedge",
    "forms.lie_derivative",
    "forms.evaluate_form",
    "forms.form_matrix",
    "forms.nondegeneracy_rank",
    "numeric.flow",
    "numeric.solve_ivp",
    "numeric.numerical_rank",
    "twisted.d_twisted",
    "twisted.extract_lee",
    "twisted.classify_morphism",
    "models.model_liouville",
    "models.model_sphere_circle",
    "models.model_reduction_universal",
    "models.validate_first_kind",
    "embed.build_sphere_pipeline",
    "embed.build_psi2",
    "embed.build_lcs_embedding",
    "reduction.verify_strong_reducibility",
    "reduction.concatenation_residual",
    "reduction.run_reduction_chain",
    "cohomology.build_torus_complex",
    "cohomology.matrix_rank_qr",
    "cohomology.ot_obstruction_check",
    "report.load_manifest",
    "report.run_manifest",
    "report.RunReport.write",
)


class CoverageError(RuntimeError):
    """The trace does not cover what the benchmark claims to measure."""


def _observe_evaluate(stats, bound, result, exc):
    if exc is None:
        stats["points"] += int(np.size(result))


def _observe_flow(stats, bound, result, exc):
    if bound.arguments.get("with_jacobian", False):
        stats["jacobian"] += 1
    if exc is not None and type(exc).__name__ == "FlowEscapeError":
        stats["escape"] += 1


def _observe_solve_ivp(stats, bound, result, exc):
    if exc is None:
        stats["nfev"] += int(result.nfev)


def _observe_rank_qr(stats, bound, result, exc):
    rows, cols = bound.arguments["M"].shape
    stats["dense_entries"] += int(rows) * int(cols)


# Wrapped only to count: ``solve_ivp`` runs inside ``numeric.flow``, whose
# self time should keep the integrator's own work.
COUNT_ONLY = {"numeric.solve_ivp"}

# Observers that need the call's arguments get them bound to the signature,
# so a renamed parameter fails loudly instead of reading the wrong value.
OBSERVERS = {
    "symexpr.evaluate": (_observe_evaluate, False),
    "numeric.flow": (_observe_flow, True),
    "numeric.solve_ivp": (_observe_solve_ivp, False),
    "cohomology.matrix_rank_qr": (_observe_rank_qr, True),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: dict[str, defaultdict[str, int]] = {}
        self._stack: list[int] = []
        self._wrappers: dict[str, tuple[object, object, object]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every target; spans and counts accumulate across installs."""
        if not self._wrappers:
            for target in TARGETS:
                module_name, *path = target.split(".")
                owner = importlib.import_module("lcskit." + module_name)
                try:
                    for part in path[:-1]:
                        owner = getattr(owner, part)
                    original = getattr(owner, path[-1])
                except AttributeError:
                    raise CoverageError(f"lcskit.{target} no longer exists; update perfbench/tracer.py") from None
                self._wrappers[target] = (owner, original, self._wrap(target, original))
        modules = [m for n, m in list(sys.modules.items()) if n == "lcskit" or n.startswith("lcskit.")]
        for target, (owner, original, wrapper) in self._wrappers.items():
            if isinstance(owner, type):  # a method: patch the class only
                self._patch(owner, target.rsplit(".", 1)[1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stats = self.stats.setdefault(name, defaultdict(int))
        observe, needs_binding = OBSERVERS.get(name, (None, False))
        signature = inspect.signature(fn) if needs_binding else None
        starts, ends, parents, span_names = self.span_start, self.span_end, self.span_parent, self.span_name
        stack = self._stack
        clock = time.perf_counter
        active = False

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                result = fn(*args, **kwargs)
                stats["calls"] += 1
                observe(stats, None, result, None)
                return result

            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal active
            if active:  # inner call of a recursion: part of the outer span
                return fn(*args, **kwargs)
            active = True
            span = len(starts)
            span_names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            result = exc = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                stats["fail"] += 1
                raise
            finally:
                ends[span] = clock()
                stack.pop()
                active = False
                stats["calls"] += 1
                if observe is not None:
                    bound = signature.bind(*args, **kwargs) if signature else None
                    observe(stats, bound, result, exc)

        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per wrapped function, summed over its spans."""
        start = np.array(self.span_start, dtype=float)
        duration = np.array(self.span_end, dtype=float) - start
        parent = np.array(self.span_parent, dtype=np.int64)
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        per_name = np.bincount(
            np.array(self.span_name, dtype=np.int64),
            weights=duration - covered,
            minlength=len(self.names),
        )
        return dict(zip(self.names, (float(v) for v in per_name)))

    def write(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start=np.array(self.span_start, dtype=float),
            end=np.array(self.span_end, dtype=float),
        )
