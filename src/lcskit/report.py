"""Manifest-driven verification runs and machine-readable reports.

A manifest is a JSON document declaring named structures (catalog
references or inline chart definitions with expression strings) and an
ordered task list.  Running it produces a report: one record per check,
each carrying the name of the identity it certifies, the measured
residual, the tolerance, rank data, and a pass flag.  Reports serialize
to JSON losslessly and are written atomically; repeated runs with the
same seed produce identical reports apart from timestamps.
"""

from __future__ import annotations

import json
import math
import os
import platform
import tempfile
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib import resources
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:  # annotations only: a structure's modules load when it is built
    from . import models, symexpr as sx

REPORT_FORMAT = "lcskit-report-v2"

_VOLATILE_KEYS = ("started_utc", "wall_time_s", "task_wall_s")


class ManifestError(Exception):
    """Unusable manifest: parse failure, missing field, unresolvable name."""


def _did_you_mean(key, allowed) -> str:
    """A hint naming the allowed key nearest to ``key``, compared without case."""
    import difflib  # only on error paths: it costs every run memory at import

    by_lower = {name.lower(): name for name in allowed}
    key = str(key).lower()
    # a key that extends or abbreviates an allowed one ("tolerance", "tol")
    # is too unlike it for difflib
    near = difflib.get_close_matches(key, by_lower, n=1) or sorted(
        (name for name in by_lower if key.startswith(name) or name.startswith(key)), key=len
    )[-1:]
    return f"; did you mean {by_lower[near[0]]!r}?" if near else ""


# ---------------------------------------------------------------------------
# manifest and command-line values


def _checked(value, key: str, kinds, accept: Callable, what: str):
    """A number from a manifest or the command line, of ``kinds`` and passing
    ``accept``; a bool, a string, or a float where an integer belongs is
    refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, kinds) or not accept(value):
        raise ManifestError(f"{key} must be {what}, got {value!r}")
    return value


def _sample_count(value, key: str) -> int:
    return _checked(value, key, int, lambda v: v > 0, "a positive integer")


def _positive_real(value, key: str) -> float:
    """A tolerance, threshold or window: a finite real above zero."""
    return float(_checked(value, key, (int, float), lambda v: 0 < v < math.inf, "a positive finite number"))


def _finite_real(value, key: str) -> float:
    return float(_checked(value, key, (int, float), math.isfinite, "a finite number"))


def _number_list(value, key: str, check: Callable) -> list:
    """A list of manifest numbers, each passed through ``check(v, key)``."""
    if not isinstance(value, list):
        raise ManifestError(f"{key} must be a list, got {value!r}")
    return [check(v, key) for v in value]


def _grid_integer(value, key: str, low: int, high: float = math.inf) -> int:
    """An integer in [low, high): a seed, torus size, cut position, Betti
    number, catalog dimension, pair count or chart index."""
    span = f"at least {low}" if high == math.inf else f"in [{low}, {high})"
    return _checked(value, key, int, lambda v: low <= v < high, f"an integer {span}")


# ---------------------------------------------------------------------------
# report model


@dataclass(frozen=True)
class CheckRecord:
    """One certified check: the identity it traces to, the measured
    residual against its tolerance, and any rank bookkeeping."""

    name: str
    anchor: str
    max_residual: float | None
    tolerance: float | None
    rank_data: dict
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "rank_data": dict(self.rank_data),
            "passed": self.passed,
            "detail": self.detail,
        }

    @staticmethod
    def from_dict(d: Mapping) -> "CheckRecord":
        return CheckRecord(
            name=d["name"],
            anchor=d["anchor"],
            max_residual=d["max_residual"],
            tolerance=d["tolerance"],
            rank_data=dict(d["rank_data"]),
            passed=d["passed"],
            detail=d.get("detail", ""),
        )


def environment_stamp() -> dict:
    import numpy as np  # a run's tasks have loaded it already; reading a report does not
    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


@dataclass
class RunReport:
    """Full outcome of one manifest run."""

    seed: int
    manifest: str
    environment: dict
    started_utc: str
    wall_time_s: float
    records: list[CheckRecord] = field(default_factory=list)
    task_wall_s: list[float] = field(default_factory=list)  # one entry per task run

    @property
    def green(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "seed": self.seed,
            "manifest": self.manifest,
            "environment": dict(self.environment),
            "started_utc": self.started_utc,
            "wall_time_s": self.wall_time_s,
            "task_wall_s": list(self.task_wall_s),
            "green": self.green,
            "records": [r.to_dict() for r in self.records],
        }

    @staticmethod
    def from_dict(d: Mapping) -> "RunReport":
        if d.get("format") != REPORT_FORMAT:
            raise ManifestError(f"not a {REPORT_FORMAT} document")
        return RunReport(
            seed=d["seed"],
            manifest=d["manifest"],
            environment=dict(d["environment"]),
            started_utc=d["started_utc"],
            wall_time_s=d["wall_time_s"],
            records=[CheckRecord.from_dict(r) for r in d["records"]],
            task_wall_s=list(d.get("task_wall_s", [])),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "RunReport":
        return RunReport.from_dict(json.loads(text))

    def stable_dict(self) -> dict:
        """The report content with run-time-varying fields removed."""
        d = self.to_dict()
        for key in _VOLATILE_KEYS:
            d.pop(key, None)
        return d

    def write(self, path: str) -> None:
        """Atomic write: the file appears complete or not at all."""
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(self.to_json())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def load_report(path: str) -> RunReport:
    try:
        with open(path) as handle:
            return RunReport.from_json(handle.read())
    except OSError as exc:
        raise ManifestError(f"cannot read report {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}:{exc.lineno}: {exc.msg}") from exc


# ---------------------------------------------------------------------------
# manifest model


@dataclass
class Manifest:
    """Parsed manifest: declarations plus an ordered task list."""

    path: str
    seed: int
    samples: int | None
    structures: dict[str, dict]
    tasks: list[dict]

    def __post_init__(self):
        self._cache: dict[str, models.LcsStructure] = {}

    def structure(self, name: str) -> models.LcsStructure:
        if name not in self.structures:
            known = ", ".join(sorted(self.structures)) or "none"
            raise ManifestError(f"unknown structure {name!r} (declared: {known})")
        if name not in self._cache:
            self._cache[name] = _build_structure(name, self.structures[name])
        return self._cache[name]


def load_manifest(path: str) -> Manifest:
    if path == "selftest":
        text = bundled_selftest_text()
        label = "selftest"
    else:
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            raise ManifestError(f"cannot read manifest {path!r}: {exc}") from exc
        label = path
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{label}:{exc.lineno}: {exc.msg}") from exc
    return parse_manifest(data, label)


_MANIFEST_KEYS = ("seed", "samples", "structures", "tasks")


def parse_manifest(data, path: str = "<memory>") -> Manifest:
    if not isinstance(data, dict):
        raise ManifestError("manifest must be a JSON object")
    for key in data:
        if key not in _MANIFEST_KEYS:
            raise ManifestError(
                f"unknown manifest key {key!r} (expected {', '.join(_MANIFEST_KEYS)})"
                + _did_you_mean(key, _MANIFEST_KEYS)
            )
    if "seed" not in data:
        raise ManifestError("manifest must declare a seed (reproducibility)")
    seed = _grid_integer(data["seed"], "seed", 0)
    samples = data.get("samples")
    if samples is not None:
        _sample_count(samples, "samples")
    structures = data.get("structures", {})
    if not isinstance(structures, dict):
        raise ManifestError("structures must be an object of named declarations")
    for name, decl in structures.items():
        if isinstance(decl, dict) and "catalog" in decl:
            _catalog_args(name, decl)
    tasks = data.get("tasks", [])
    if not isinstance(tasks, list) or not all(isinstance(t, dict) for t in tasks):
        raise ManifestError("tasks must be a list of objects")
    for i, task in enumerate(tasks):
        kind = task.get("kind")
        if kind not in _TASK_KEYS:
            raise ManifestError(
                f"task {i}: unknown kind {kind!r} (expected one of {', '.join(sorted(_TASK_KEYS))})"
            )
        allowed = _TASK_KEYS[kind]
        for key in task:
            if key not in allowed:
                raise ManifestError(
                    f"task {i}: unknown {kind} task key {key!r} "
                    f"(expected {', '.join(allowed)}){_did_you_mean(key, allowed)}"
                )
    return Manifest(path, seed, samples, dict(structures), list(tasks))


def bundled_selftest_text() -> str:
    return resources.files("lcskit").joinpath("manifests/selftest.json").read_text()


# ---------------------------------------------------------------------------
# structure declarations


def _build_structure(name: str, decl) -> models.LcsStructure:
    if not isinstance(decl, dict):
        raise ManifestError(f"structure {name!r}: declaration must be an object")
    if "catalog" in decl:
        return _catalog_structure(name, decl)
    if "chart" in decl:
        return _inline_structure(name, decl["chart"])
    raise ManifestError(f"structure {name!r}: expected a 'catalog' reference or an inline 'chart'")


def _at_least(low: int) -> Callable:
    return lambda value, key: _grid_integer(value, key, low)


# Each catalog entry's arguments: name -> (checker, default), where a default
# of None marks a required argument.  They are checked when the manifest loads.
_CATALOG_ARGS: dict[str, dict[str, tuple[Callable, float | None]]] = {
    "liouville": {"n": (_at_least(1), None)},
    "sphere_circle": {"N": (_at_least(2), None), "q": (_finite_real, 1.0)},
    "reduction_universal": {
        "k": (_at_least(0), None),
        "N": (_at_least(0), None),
        "mu": (lambda value, key: _number_list(value, key, _finite_real), None),
    },
}


# reduce-chain task keys passed on to ``reduction.run_reduction_chain``
_CHAIN_KEYS = (
    "samples", "tol", "flow_tol", "window", "margin",
    "flow_samples", "verify_samples", "concat_samples", "concat_tol",
)

# Each task kind's keys, refused when unknown as the manifest loads; their
# values are checked when the task runs.
_TASK_KEYS: dict[str, tuple[str, ...]] = {
    "verify": ("kind", "structure", "samples", "tol"),
    "embed": ("kind", "corpus", "structure", "samples", "tol", "rho", "pairs", "literal_defect"),
    "reduce-chain": ("kind", "input", "structure", "chart_index", *_CHAIN_KEYS),
    "cohomology": (
        "kind", "n", "m", "mu", "cuts", "expect_betti", "euler", "refine", "obstruction", "threshold",
    ),
}


def _catalog_args(name: str, decl: dict) -> dict:
    """The checked keyword arguments of a catalog reference, defaults filled in."""
    entry = decl["catalog"]
    if not isinstance(entry, str) or entry not in _CATALOG_ARGS:
        raise ManifestError(
            f"structure {name!r}: unknown catalog entry {entry!r} "
            f"(expected one of {', '.join(sorted(_CATALOG_ARGS))})"
        )
    args = decl.get("args", {})
    if not isinstance(args, dict):
        raise ManifestError(f"structure {name!r}: args must be an object")
    declared = _CATALOG_ARGS[entry]
    for key in args:
        if key not in declared:
            raise ManifestError(
                f"structure {name!r}: unknown {entry} argument {key!r} "
                f"(expected {', '.join(declared)}){_did_you_mean(key, declared)}"
            )
    checked = {}
    for key, (check, default) in declared.items():
        if key in args:
            checked[key] = check(args[key], f"structure {name!r} argument {key}")
        elif default is None:
            raise ManifestError(f"structure {name!r}: missing argument {key!r}")
        else:
            checked[key] = default
    return checked


def _catalog_structure(name: str, decl: dict) -> models.LcsStructure:
    from . import models
    factories = {
        "liouville": models.model_liouville,
        "sphere_circle": models.model_sphere_circle,
        "reduction_universal": models.model_reduction_universal,
    }
    args = _catalog_args(name, decl)
    try:
        return factories[decl["catalog"]](**args)
    except (models.ModelError, ValueError, TypeError) as exc:
        raise ManifestError(f"structure {name!r}: {exc}") from exc


def _parse_expr(text, where: str) -> sx.Expr:
    from . import symexpr as sx
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return sx.const(text)
    if not isinstance(text, str):
        raise ManifestError(f"{where}: expected an expression string")
    try:
        return sx.parse(text)
    except sx.ParseError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _inline_structure(name: str, chart_decl) -> models.LcsStructure:
    from . import forms, models, symexpr as sx, twisted
    where = f"structure {name!r}"
    if not isinstance(chart_decl, dict):
        raise ManifestError(f"{where}: chart must be an object")
    coords = chart_decl.get("coordinates")
    if not isinstance(coords, list) or not coords:
        raise ManifestError(f"{where}: chart needs a non-empty coordinates list")
    coord_tuples = []
    for c in coords:
        try:
            coord_tuples.append(
                (c["name"], c.get("kind", "linear"), c.get("lower", -1.0), c.get("upper", 1.0))
            )
        except (TypeError, KeyError) as exc:
            raise ManifestError(f"{where}: malformed coordinate entry {c!r}") from exc
    try:
        dom = forms.make_domain(name, coord_tuples)
    except forms.FormError as exc:
        raise ManifestError(f"{where}: {exc}") from exc

    def one_form(key: str, required: bool) -> forms.DifferentialForm | None:
        mapping = chart_decl.get(key)
        if mapping is None:
            if required:
                raise ManifestError(f"{where}: chart needs a {key!r} one-form")
            return None
        if not isinstance(mapping, dict):
            raise ManifestError(f"{where}: {key} must map coordinate names to expressions")
        coeffs = {}
        for cname, text in mapping.items():
            coeffs[(dom.index(cname),)] = _parse_expr(text, f"{where}: {key}[{cname}]")
        return forms.DifferentialForm(dom, 1, coeffs)

    def vector_field(key: str) -> forms.VectorField | None:
        mapping = chart_decl.get(key)
        if mapping is None:
            return None
        if not isinstance(mapping, dict):
            raise ManifestError(f"{where}: {key} must map coordinate names to expressions")
        comps = [sx.ZERO] * dom.dim
        for cname, text in mapping.items():
            comps[dom.index(cname)] = _parse_expr(text, f"{where}: {key}[{cname}]")
        return forms.VectorField(dom, tuple(comps))

    try:
        alpha = one_form("alpha", required=True)
        lee = one_form("lee", required=True)
        phi_decl = chart_decl.get("phi", "twisted")
        if phi_decl == "twisted":
            phi = twisted.d_twisted(lee, alpha)
        elif isinstance(phi_decl, dict):
            coeffs = {}
            for key, text in phi_decl.items():
                parts = key.split("^")
                if len(parts) != 2:
                    raise ManifestError(f"{where}: phi key {key!r} must look like 'x^y'")
                idx = (dom.index(parts[0]), dom.index(parts[1]))
                coeffs[idx] = _parse_expr(text, f"{where}: phi[{key}]")
            phi = forms.DifferentialForm(dom, 2, coeffs)
        else:
            raise ManifestError(f"{where}: phi must be 'twisted' or a coefficient object")
        chart = models.StructureChart(
            dom,
            phi,
            lee,
            alpha,
            vector_field("b_field"),
            vector_field("anti_lee"),
            name=name,
        )
    except (forms.FormError, sx.UnknownCoordinateError) as exc:
        raise ManifestError(f"{where}: {exc}") from exc
    return models.LcsStructure(name, "inline", (chart,))


# ---------------------------------------------------------------------------
# task execution


@dataclass(frozen=True)
class RunOptions:
    """Command-line overrides applied on top of manifest values."""

    seed: int | None = None
    tol: float | None = None
    samples: int | None = None
    fail_fast: bool = False


def _task_samples(task: dict) -> int | None:
    value = task.get("samples")
    return None if value is None else _sample_count(value, f"{task['kind']} task samples")


def _task_tol(task: dict) -> float | None:
    value = task.get("tol")
    return None if value is None else _positive_real(value, f"{task['kind']} task tol")


def _opt(override, task_value, default):
    if override is not None:
        return override
    if task_value is not None:
        return task_value
    return default


def _failure_record(label: str, exc: Exception) -> CheckRecord:
    return CheckRecord(
        name=label,
        anchor="task execution",
        max_residual=None,
        tolerance=None,
        rank_data={},
        passed=False,
        detail=f"{type(exc).__name__}: {exc}",
    )


def _run_verify(manifest: Manifest, task: dict, opts: RunOptions, seed: int) -> list[CheckRecord]:
    from . import models
    sname = task.get("structure")
    if not isinstance(sname, str):
        raise ManifestError("verify task needs a 'structure' name")
    S = manifest.structure(sname)
    samples = _opt(opts.samples, _task_samples(task), manifest.samples or 200)
    tol = _opt(opts.tol, _task_tol(task), 1e-9)
    rep = models.validate_first_kind(S, samples=samples, tol=tol, seed=seed)
    failing = [f"{chart}:{label}" for chart, label, c in rep.checks if not c.passed]
    if not rep.nondegenerate:
        failing.insert(0, f"two-form rank {rep.min_rank} < dimension {S.dim}")
    return [
        CheckRecord(
            name=f"verify:{sname}",
            anchor="first-kind structure identities",
            max_residual=rep.worst(),
            tolerance=tol,
            rank_data={
                "dimension": S.dim,
                "charts": len(S.charts),
                "min_two_form_rank": rep.min_rank,
            },
            passed=rep.passed,
            detail="; ".join(failing) if failing else f"{len(rep.checks)} identities certified",
        )
    ]


def _run_embed(manifest: Manifest, task: dict, opts: RunOptions, seed: int) -> list[CheckRecord]:
    from . import embed
    corpus = {
        "circle": embed.problem_circle,
        "torus": embed.problem_torus,
        "sphere3": embed.problem_sphere3,
        "zero_form": embed.problem_zero_form,
    }
    tol = _opt(opts.tol, _task_tol(task), 1e-9)
    rho = _positive_real(task.get("rho", 1.2), "embed task rho")
    pairs = task.get("pairs")
    if pairs is not None:
        pairs = _grid_integer(pairs, "embed task pairs", 1)
    records: list[CheckRecord] = []
    if "corpus" in task:
        entry = task["corpus"]
        if entry not in corpus:
            raise ManifestError(
                f"unknown corpus entry {entry!r} (expected one of {', '.join(sorted(corpus))})"
            )
        prob = corpus[entry](rho=rho)
        sol = embed.build_sphere_pipeline(prob, N=pairs, tol=tol, seed=seed)
        worst = max((c.max_residual for _, c in sol.certifications), default=0.0)
        records.append(
            CheckRecord(
                name=f"embed:corpus:{entry}",
                anchor="contact pullback identity on the sphere target",
                max_residual=worst,
                tolerance=tol,
                rank_data={"pairs": sol.pairs, "ambient_dim": sol.ambient.dim},
                passed=sol.passed,
            )
        )
        if task.get("literal_defect"):
            lit = embed.build_psi2(prob, tol=tol, seed=seed, doubled_pair=False)
            worst = max((c.max_residual for _, c in lit.defects), default=0.0)
            records.append(
                CheckRecord(
                    name=f"embed:corpus:{entry}:literal-defect",
                    anchor="uncorrected-pair defect equals half the potential differential",
                    max_residual=worst,
                    tolerance=tol,
                    rank_data={"pairs": lit.pairs},
                    passed=all(c.passed for _, c in lit.defects),
                )
            )
        return records
    sname = task.get("structure")
    if not isinstance(sname, str):
        raise ManifestError("embed task needs either a 'corpus' entry or a 'structure' name")
    S = manifest.structure(sname)
    samples = _opt(opts.samples, _task_samples(task), manifest.samples or 200)
    prob, tau = embed.problem_from_sphere_circle(S, rho=rho, samples=max(samples, 200))
    res = embed.build_lcs_embedding(
        S, prob, tau, N=10 if pairs is None else pairs, tol=tol, seed=seed, samples=samples
    )
    worst = max((c.max_residual for _, _, c in res.certifications), default=0.0)
    records.append(
        CheckRecord(
            name=f"embed:product:{sname}",
            anchor="product embedding pullback identities (potential, Lee form, two-form)",
            max_residual=worst,
            tolerance=tol,
            rank_data={
                "immersion_rank": res.immersion_rank,
                "expected_rank": res.expected_rank,
                "target_dim": res.target.dim,
            },
            passed=res.passed,
            detail=f"morphism strict={res.morphism.strict} full={res.morphism.full}",
        )
    )
    return records


_STAGE_ANCHORS = {
    "cotangent_torus_extension": "strong reducibility of the torus-extension graph",
    "jet_space_extension": "strong reducibility of the flow graph in the jet extension",
    "shear_normalization": "shear normalization preserves the structure",
    "universal_transplant": "strong reducibility of the transplanted graph in the universal model",
}


def _chain_kwargs(task: dict, opts: RunOptions, manifest: Manifest) -> dict:
    kwargs = {}
    for key in _CHAIN_KEYS:
        if key in task:
            kwargs[key] = task[key]
            if key.endswith("samples"):
                _sample_count(task[key], f"reduce-chain task {key}")
            elif key.endswith("tol") or key == "window":
                kwargs[key] = _positive_real(task[key], f"reduce-chain task {key}")
            elif key == "margin":  # shrinks each chart interval toward its midpoint
                kwargs[key] = float(_checked(task[key], f"reduce-chain task {key}", (int, float),
                                             lambda v: 0 <= v < 1, "a finite number in [0, 1)"))
    if opts.samples is not None:
        kwargs["samples"] = opts.samples
    elif "samples" not in kwargs and manifest.samples is not None:
        kwargs["samples"] = manifest.samples
    if opts.tol is not None:
        kwargs["tol"] = opts.tol
    return kwargs


def _run_chain(manifest: Manifest, task: dict, opts: RunOptions, seed: int) -> list[CheckRecord]:
    from . import reduction
    source = task.get("input", "sphere_circle")
    if source == "plane":
        chart, decomp, factory = reduction.plane_chain_input()
        label = "plane"
    elif source == "sphere_circle":
        sname = task.get("structure")
        if not isinstance(sname, str):
            raise ManifestError("reduce-chain task on a sphere model needs a 'structure' name")
        S = manifest.structure(sname)
        index = _grid_integer(task.get("chart_index", 0), "reduce-chain task chart_index", 0, len(S.charts))
        chart, decomp, factory = reduction.sphere_circle_chain_input(S, chart_index=index)
        label = sname
    else:
        raise ManifestError(f"unknown chain input {source!r} (expected 'plane' or 'sphere_circle')")
    chain = reduction.run_reduction_chain(
        chart, decomp, factory, seed=seed, **_chain_kwargs(task, opts, manifest)
    )
    records = []
    for step in chain.steps:
        rank_data: dict = {"dimension": step.chart.domain.dim}
        detail = ""
        if step.report is not None:
            rep = step.report
            residual = rep.worst_pullback()
            tolerance = rep.pullback_tol
            detail = (
                f"tangency=({rep.b_tangency:.2e},{rep.e_tangency:.2e})<={rep.tol:.0e} "
                f"gap={rep.quotient_kernel_gap:.2e}<={rep.gap_tol:.0e}"
            )
            rank_data.update(
                distribution_rank=rep.distribution_rank,
                two_form_kernel_rank=rep.two_form_kernel_rank,
                kernel_ranks_agree=rep.kernel_ranks_agree,
                samples_used=rep.samples_used,
                samples_skipped=rep.samples_skipped,
            )
        else:
            residual = max((v for _, v in step.extras), default=0.0)
            tolerance = None
        records.append(
            CheckRecord(
                name=f"chain:{label}:{step.name}",
                anchor=_STAGE_ANCHORS.get(step.name, "reduction stage certification"),
                max_residual=residual,
                tolerance=tolerance,
                rank_data=rank_data,
                passed=step.passed,
                detail=detail,
            )
        )
    records.append(
        CheckRecord(
            name=f"chain:{label}:concatenation",
            anchor="two-stage against one-stage quotient agreement",
            max_residual=chain.concatenation,
            tolerance=chain.concatenation_tol,
            rank_data={
                "samples_used": chain.concatenation_samples_used,
                "samples_skipped": chain.concatenation_samples_skipped,
            },
            passed=chain.concatenation_passed,
        )
    )
    return records


def _mu_label(mu) -> str:
    return "(" + ",".join(format(float(v), "g") for v in mu) + ")"


def _run_cohomology(manifest: Manifest, task: dict, opts: RunOptions, seed: int) -> list[CheckRecord]:
    from . import cohomology
    for key in ("n", "m"):
        if key not in task:
            raise ManifestError(f"cohomology task needs {key!r}")
    # the obstruction lives on two-cells, so it needs a torus of dimension 2 or more
    n = _grid_integer(task["n"], "cohomology task n", 2 if task.get("obstruction") else 1)
    m = _grid_integer(task["m"], "cohomology task m", 2)
    if task.get("obstruction"):
        threshold = _positive_real(task.get("threshold", 0.1), "cohomology task threshold")
        rep = cohomology.ot_obstruction_check(n, m, threshold=threshold)
        return [
            CheckRecord(
                name=f"cohomology:obstruction:T{n}:m{m}",
                anchor="area cochain obstruction distance and invariant closedness",
                max_residual=rep.invariant_residual,
                tolerance=0.0,
                rank_data={},
                passed=rep.passed,
                detail=f"distance={rep.distance!r} threshold={threshold!r}",
            )
        ]
    mu = _number_list(task.get("mu", [0.0] * n), "cohomology task mu", _finite_real)
    cuts = task.get("cuts")
    if cuts is not None:
        if not isinstance(cuts, list) or len(cuts) != n:
            raise ManifestError(f"cohomology task cuts must be a list of {n} grid positions, got {cuts!r}")
        cuts = [_grid_integer(c, "cohomology task cuts", 0, m) for c in cuts]
    expected = task.get("expect_betti")
    if expected is not None:
        expected = _number_list(expected, "cohomology task expect_betti", lambda b, k: _grid_integer(b, k, 0))
    C = cohomology.build_torus_complex(n, m, mu, cuts)
    betti = cohomology.twisted_betti(C)
    base = f"cohomology:T{n}:m{m}:mu{_mu_label(mu)}"
    records = []
    matched = expected is None or expected == betti
    records.append(
        CheckRecord(
            name=f"{base}:betti",
            anchor="twisted Betti numbers of the grid torus",
            max_residual=None,
            tolerance=None,
            rank_data={"betti": betti, "cells": list(C.cells)},
            passed=matched,
            detail="" if matched else f"expected {expected}, computed {betti}",
        )
    )
    if task.get("euler", True):
        # The alternating sum of b_k = c_k - r_k - r_(k-1) is that of the cell
        # counts for any ranks; b_k >= 0 is what tests the ranks themselves.
        alternating = sum((-1) ** k * b for k, b in enumerate(betti))
        records.append(
            CheckRecord(
                name=f"{base}:euler",
                anchor="euler characteristic vanishes on the torus",
                max_residual=None,
                tolerance=None,
                rank_data={"alternating_sum": alternating},
                passed=alternating == 0 and min(betti) >= 0,
            )
        )
    if task.get("refine"):
        fine = cohomology.twisted_betti(cohomology.build_torus_complex(n, 2 * m, mu))
        records.append(
            CheckRecord(
                name=f"{base}:refine",
                anchor="grid refinement stability of Betti numbers",
                max_residual=None,
                tolerance=None,
                rank_data={"coarse": betti, "fine": fine},
                passed=betti == fine,
            )
        )
    return records


_TASK_RUNNERS: dict[str, Callable] = {
    "verify": _run_verify,
    "embed": _run_embed,
    "reduce-chain": _run_chain,
    "cohomology": _run_cohomology,
}


def _task_label(task: dict, index: int) -> str:
    kind = task.get("kind", "?")
    target = task.get("structure") or task.get("corpus") or task.get("input") or ""
    return f"task[{index}]:{kind}:{target}" if target else f"task[{index}]:{kind}"


def run_manifest(manifest: Manifest, opts: RunOptions | None = None) -> RunReport:
    """Execute every task in declaration order and assemble the report.

    Manifest-level problems (unknown names, missing fields) raise
    ``ManifestError``; computational failures inside a task become failing
    records and the run continues unless ``opts.fail_fast``.
    """
    opts = opts or RunOptions()
    if opts.seed is not None:
        _grid_integer(opts.seed, "--seed", 0)
    if opts.samples is not None:
        _sample_count(opts.samples, "--samples")
    if opts.tol is not None:
        _positive_real(opts.tol, "--tol")
    seed = opts.seed if opts.seed is not None else manifest.seed
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    clock = time.perf_counter_ns()
    records: list[CheckRecord] = []
    task_wall_s: list[float] = []
    done_us = 0  # whole microseconds from the start to the end of the last task
    for i, task in enumerate(manifest.tasks):
        runner = _TASK_RUNNERS[task["kind"]]
        try:
            batch = runner(manifest, task, opts, seed)
        except ManifestError:
            raise
        except Exception as exc:  # recorded, not fatal: the run must finish
            batch = [_failure_record(_task_label(task, i), exc)]
        records.extend(batch)
        elapsed_us = (time.perf_counter_ns() - clock) // 1000
        task_wall_s.append((elapsed_us - done_us) / 1e6)
        done_us = elapsed_us
        if opts.fail_fast and any(not r.passed for r in batch):
            break
    return RunReport(
        seed=seed,
        manifest=manifest.path,
        environment=environment_stamp(),
        started_utc=started,
        # floored like the task times, so those never sum past it
        wall_time_s=(time.perf_counter_ns() - clock) // 1000 / 1e6,
        records=records,
        task_wall_s=task_wall_s,
    )
