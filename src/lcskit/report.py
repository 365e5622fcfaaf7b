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
    import platform

    import numpy as np  # a run's tasks have loaded it already; reading a report does not

    # platform.platform() on Linux, less its processor field: that field runs
    # `uname -p` in a subprocess, and is blank or the machine name there
    libc = "".join(platform.libc_ver())
    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": "-".join(filter(None, (platform.system(), platform.release(), platform.machine(), "with", libc))),
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
    """Parsed manifest: checked declarations plus an ordered task list."""

    path: str
    seed: int
    structures: dict[str, dict]
    tasks: list[dict]

    def __post_init__(self):
        self._cache: dict[str, models.LcsStructure] = {}

    def structure(self, name: str) -> models.LcsStructure:
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


def bundled_selftest_text() -> str:
    return resources.files("lcskit").joinpath("manifests/selftest.json").read_text()


# ---------------------------------------------------------------------------
# manifest schema
#
# Every key a manifest may hold is declared once below, as name ->
# (checker, default); a default of _REQUIRED marks a key that must be given,
# and None one whose absence the runner reads as "not asked for".
# ``parse_manifest`` walks these tables before any task runs and refuses an
# unknown or missing key, a value of the wrong type or out of range, and a
# broken cross-key rule.  Only two checks wait for the structure to be
# built: parsing expression text (which needs ``symexpr`` and numpy) and the
# upper bound of a chain's ``chart_index``.  The runners read checked values.


class _Check:
    """A value rule: ``check(value, where)`` returns the value, converted, or
    refuses it, naming ``where`` it stands and ``what`` it must be.  A bool, a
    string or a float where an integer belongs is refused, never coerced."""

    def __init__(self, what: str, accept: Callable, convert: Callable = lambda value, where: value):
        self.what, self.accept, self.convert = what, accept, convert

    def __call__(self, value, where: str):
        if not self.accept(value):
            raise ManifestError(f"{where} must be {self.what}, got {value!r}")
        return self.convert(value, where)


def _number(value, kinds=(int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _integer(low: int, high: float = math.inf) -> _Check:
    span = f"at least {low}" if high == math.inf else f"in [{low}, {high})"
    return _Check(f"an integer {span}", lambda v: _number(v, int) and low <= v < high)


def _real(what: str, accept: Callable) -> _Check:
    return _Check(what, lambda v: _number(v) and accept(v), lambda v, where: float(v))


def _list_of(item: _Check, what: str) -> _Check:
    return _Check(what, lambda v: isinstance(v, list), lambda v, where: [item(x, where) for x in v])


def _one_of(*choices: str) -> _Check:
    return _Check("one of " + ", ".join(choices), lambda v: isinstance(v, str) and v in choices)


def _of_type(what: str, kind: type) -> _Check:
    return _Check(what, lambda v: isinstance(v, kind))


_REQUIRED = object()
_COUNT = _Check("a positive integer", lambda v: _number(v, int) and v > 0)
_POSITIVE = _real("a positive finite number", lambda v: 0 < v < math.inf)
_FINITE = _real("a finite number", math.isfinite)
_FLAG = _of_type("a boolean", bool)
_STRUCTURE = _of_type("a declared structure name", str)
_EXPRESSION = _Check(
    "an expression string or a finite number", lambda v: isinstance(v, str) or _number(v) and math.isfinite(v)
)
_COMPONENTS = _Check(
    "an object mapping coordinate names to expressions",
    lambda v: isinstance(v, dict),
    lambda v, where: {name: _EXPRESSION(text, f"{where}[{name}]") for name, text in v.items()},
)

_MANIFEST_KEYS = {
    "seed": (_integer(0), _REQUIRED),
    "samples": (_COUNT, None),
    "structures": (_of_type("an object of named declarations", dict), {}),
    "tasks": (
        _Check("a list of objects", lambda v: isinstance(v, list) and all(isinstance(t, dict) for t in v)), []
    ),
}

_CATALOG_ARGS = {
    "sphere_circle": {"N": (_integer(2), _REQUIRED), "q": (_FINITE, 1.0)},
    "reduction_universal": {
        "k": (_integer(0), _REQUIRED),
        "N": (_integer(0), _REQUIRED),
        "mu": (_list_of(_FINITE, "a list of k finite numbers"), _REQUIRED),
    },
}

_COORDINATE_KEYS = {
    "name": (_of_type("a string", str), _REQUIRED),
    "kind": (_one_of("linear", "angular"), "linear"),
    "lower": (_FINITE, -1.0),
    "upper": (_FINITE, 1.0),
}

_CHART_KEYS = {
    "coordinates": (
        _Check(
            "a non-empty list of coordinate objects",
            lambda v: isinstance(v, list) and len(v) > 0,
            lambda v, where: [
                _walk(c, _COORDINATE_KEYS, f"{where}[{i}]", "coordinate key") for i, c in enumerate(v)
            ],
        ),
        _REQUIRED,
    ),
    "alpha": (_COMPONENTS, _REQUIRED),
    "lee": (_COMPONENTS, _REQUIRED),
    "phi": (
        _Check(
            "'twisted' or an object mapping 'x^y' to expressions",
            lambda v: v == "twisted" or isinstance(v, dict),
            lambda v, where: v if v == "twisted" else _COMPONENTS.convert(v, where),
        ),
        "twisted",
    ),
    "b_field": (_COMPONENTS, None),
    "anti_lee": (_COMPONENTS, None),
}

_STRUCTURE_KEYS = {
    "catalog": (_one_of(*_CATALOG_ARGS), None),
    "args": (_of_type("an object", dict), {}),
    "chart": (_Check("an object", lambda v: True, lambda v, where: _walk(v, _CHART_KEYS, where, "chart key")),
              None),
}

# reduce-chain keys: the fields of ``reduction.ChainSettings`` but its seed, with its defaults
_CHAIN_ARGS = {
    "samples": (_COUNT, 150),
    "tol": (_POSITIVE, 1e-8),
    "flow_tol": (_POSITIVE, 1e-6),
    "window": (_POSITIVE, 0.25),
    # the share by which sampling shrinks each chart interval toward its midpoint
    "margin": (_real("a finite number in [0, 1)", lambda v: 0 <= v < 1), 0.5),
    "flow_samples": (_COUNT, 40),
    "verify_samples": (_COUNT, 100),
    "concat_samples": (_COUNT, 16),
    "concat_tol": (_POSITIVE, 1e-6),
}

# embed keys: the fields of ``embed.EmbedSettings`` but its seed, with its defaults
_EMBED_ARGS = {
    "samples": (_COUNT, 200),
    "tol": (_POSITIVE, 1e-9),
    "rho": (_real("a finite number above 1", lambda v: 1 < v < math.inf), 1.2),
    "pairs": (_integer(1), None),
}

_KIND = (_of_type("the task kind", str), _REQUIRED)

_TASK_KEYS = {
    "verify": {"kind": _KIND, "structure": (_STRUCTURE, _REQUIRED), "samples": (_COUNT, 200),
               "tol": (_POSITIVE, 1e-9)},
    "embed": {
        "kind": _KIND,
        "corpus": (_one_of("circle", "torus", "sphere3", "zero_form"), None),
        "structure": (_STRUCTURE, None),
        **_EMBED_ARGS,
        "literal_defect": (_FLAG, False),
    },
    "reduce-chain": {
        "kind": _KIND,
        "input": (_one_of("plane", "sphere_circle"), "sphere_circle"),
        "structure": (_STRUCTURE, None),
        "chart_index": (_integer(0), 0),
        **_CHAIN_ARGS,
    },
    "cohomology": {
        "kind": _KIND,
        "n": (_integer(1), _REQUIRED),
        "m": (_integer(2), _REQUIRED),
        "mu": (_list_of(_FINITE, "a list of n finite numbers"), None),
        # checked against n and m, with the other cross-key rules
        "cuts": (_Check("a list of n integers in [0, m)", lambda v: v is not None), None),
        "expect_betti": (_list_of(_integer(0), "a list of integers at least 0"), None),
        "euler": (_FLAG, True),
        "refine": (_FLAG, False),
        "obstruction": (_FLAG, False),
        "threshold": (_POSITIVE, 0.1),
    },
}


def _walk(raw, keys: dict, where: str, noun: str, label: str | None = None) -> dict:
    """``raw`` checked against ``keys``: every declared key present, defaults
    filled in.  Unknown and missing keys are refused ``where`` they stand;
    each value is checked as ``<label> <key>`` (``label`` defaults to
    ``where``)."""
    label = where if label is None else label
    if not isinstance(raw, dict):
        raise ManifestError(f"{label} must be an object, got {raw!r}")
    prefix = f"{where}: " if where else ""
    for key in raw:
        if key not in keys:
            raise ManifestError(
                f"{prefix}unknown {noun} {key!r} (expected {', '.join(keys)}){_did_you_mean(key, keys)}"
            )
    checked = {}
    for key, (check, default) in keys.items():
        if key in raw:
            checked[key] = check(raw[key], f"{label} {key}" if label else key)
        elif default is _REQUIRED:
            raise ManifestError(f"{prefix}missing {noun} {key!r}")
        else:
            checked[key] = default
    return checked


def parse_manifest(data, path: str = "<memory>") -> Manifest:
    if not isinstance(data, dict):
        raise ManifestError("manifest must be a JSON object")
    top = _walk(data, _MANIFEST_KEYS, "", "manifest key")
    structures = {name: _structure_decl(name, decl) for name, decl in top["structures"].items()}
    tasks = [_task(i, raw, structures, top["samples"]) for i, raw in enumerate(top["tasks"])]
    return Manifest(path, top["seed"], structures, tasks)


def _structure_decl(name: str, raw) -> dict:
    where = f"structure {name!r}"
    decl = _walk(raw, _STRUCTURE_KEYS, where, "structure key")
    entry = decl["catalog"]
    if (entry is None) == (decl["chart"] is None):
        raise ManifestError(f"{where}: expected either a 'catalog' reference or an inline 'chart'")
    if entry is None:
        if "args" in raw:
            raise ManifestError(f"{where}: args belong to a 'catalog' reference")
        _chart_rules(decl["chart"], f"{where} chart")
        return decl
    args = decl["args"] = _walk(
        decl["args"], _CATALOG_ARGS[entry], where, f"{entry} argument", f"{where} argument"
    )
    if entry == "sphere_circle" and args["q"] == 0:
        raise ManifestError(f"{where}: sphere_circle needs a nonzero contact scale q")
    if entry == "reduction_universal" and args["k"] + args["N"] == 0:
        raise ManifestError(f"{where}: reduction_universal needs k + N >= 1")
    if entry == "reduction_universal" and len(args["mu"]) != args["k"]:
        raise ManifestError(f"{where} argument mu must be a list of k finite numbers, got {args['mu']!r}")
    return decl


def _chart_rules(chart: dict, where: str) -> None:
    """Coordinates named once with non-empty ranges; every component and
    ``phi`` key names declared coordinates."""
    names = [c["name"] for c in chart["coordinates"]]
    for i, c in enumerate(chart["coordinates"]):
        if names.index(c["name"]) != i:
            raise ManifestError(f"{where} coordinates[{i}]: duplicate coordinate name {c['name']!r}")
        if c["kind"] == "linear" and not c["lower"] < c["upper"]:
            raise ManifestError(f"{where} coordinates[{i}]: empty range [{c['lower']}, {c['upper']}]")
    for key in ("alpha", "lee", "b_field", "anti_lee", "phi"):
        components = chart[key] if isinstance(chart[key], dict) else {}
        for slot in components:
            parts = _slot_names(key, slot)
            if len(parts) != (2 if key == "phi" else 1):
                raise ManifestError(f"{where} phi key {slot!r} must look like 'x^y'")
            for part in parts:
                if part not in names:
                    raise ManifestError(
                        f"{where} {key}[{slot}]: unknown coordinate {part!r} "
                        f"(declared: {', '.join(names)}){_did_you_mean(part, names)}"
                    )


def _slot_names(key: str, slot: str) -> list[str]:
    """The coordinates a component key names: ``x`` in a one-form or field, ``x^y`` in phi."""
    return slot.split("^") if key == "phi" else [slot]


def _task(index: int, raw: dict, structures: dict, samples: int | None) -> dict:
    where = f"task {index}"
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in _TASK_KEYS:
        raise ManifestError(
            f"{where}: unknown kind {kind!r} (expected one of {', '.join(sorted(_TASK_KEYS))})"
        )
    keys = _TASK_KEYS[kind]
    if samples is not None and "samples" in keys:
        raw = {"samples": samples, **raw}  # the manifest's samples stand in for the task's own
    label = f"{where}: {kind} task"
    task = _walk(raw, keys, where, f"{kind} task key", label)
    name = task.get("structure")
    if name is not None and name not in structures:
        known = ", ".join(sorted(structures)) or "none"
        raise ManifestError(f"{where}: unknown structure {name!r} (declared: {known})")
    if kind == "embed" and (task["corpus"] is None) == (name is None):
        raise ManifestError(f"{label} needs either a 'corpus' entry or a 'structure' name")
    if kind == "reduce-chain" and task["input"] == "sphere_circle" and name is None:
        raise ManifestError(f"{label} on a sphere model needs a 'structure' name")
    if kind == "reduce-chain" and task["input"] == "plane" and ({"structure", "chart_index"} & set(raw)):
        raise ManifestError(f"{label} on input 'plane' takes no 'structure' or 'chart_index'")
    if kind == "cohomology":
        n, m = task["n"], task["m"]
        if task["obstruction"]:  # the obstruction lives on two-cells
            _integer(2)(n, f"{label} n")
        if task["mu"] is None:
            task["mu"] = [0.0] * n
        elif len(task["mu"]) != n:
            raise ManifestError(f"{label} mu must be a list of {n} finite numbers, got {task['mu']!r}")
        cuts = task["cuts"]
        if cuts is not None:
            if not isinstance(cuts, list) or len(cuts) != n:
                raise ManifestError(f"{label} cuts must be a list of {n} grid positions, got {cuts!r}")
            task["cuts"] = [_integer(0, m)(c, f"{label} cuts") for c in cuts]
    return task


# ---------------------------------------------------------------------------
# structure declarations


def _build_structure(name: str, decl: dict) -> models.LcsStructure:
    from . import models
    factories = {
        "sphere_circle": models.model_sphere_circle,
        "reduction_universal": models.model_reduction_universal,
    }
    if decl["catalog"] is not None:
        return factories[decl["catalog"]](**decl["args"])
    return _inline_structure(name, decl["chart"])


def _parse_expr(text, where: str) -> sx.Expr:
    from . import symexpr as sx
    if not isinstance(text, str):
        return sx.const(text)
    try:
        return sx.parse(text)
    except sx.ParseError as exc:
        raise ManifestError(f"{where}: {exc}") from exc


def _inline_structure(name: str, decl: dict) -> models.LcsStructure:
    from . import forms, models, symexpr as sx, twisted
    where = f"structure {name!r}"
    coords = [(c["name"], c["kind"], c["lower"], c["upper"]) for c in decl["coordinates"]]
    dom = forms.make_domain(name, coords)

    def coefficients(key: str) -> dict:
        return {
            tuple(map(dom.index, _slot_names(key, slot))): _parse_expr(text, f"{where}: {key}[{slot}]")
            for slot, text in decl[key].items()
        }

    def vector_field(key: str) -> forms.VectorField | None:
        if decl[key] is None:
            return None
        comps = [sx.ZERO] * dom.dim
        for (i,), expr in coefficients(key).items():
            comps[i] = expr
        return forms.VectorField(dom, tuple(comps))

    alpha = forms.DifferentialForm(dom, 1, coefficients("alpha"))
    lee = forms.DifferentialForm(dom, 1, coefficients("lee"))
    if decl["phi"] == "twisted":
        phi = twisted.d_twisted(lee, alpha)
    else:
        phi = forms.DifferentialForm(dom, 2, coefficients("phi"))
    fields = vector_field("b_field"), vector_field("anti_lee")
    chart = models.StructureChart(dom, phi, lee, alpha, *fields, name=name)
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


def _failure_record(label: str, exc: Exception) -> CheckRecord:
    return CheckRecord(label, "task execution", None, None, {}, False, f"{type(exc).__name__}: {exc}")


def _raised_record(name: str, anchor: str, exc) -> CheckRecord:
    """The record of a certificate that failed by raising: its own name and
    residual, with the failing check's message as detail."""
    return CheckRecord(name, anchor, exc.check.max_residual, exc.check.tol, {}, False, str(exc))


def _run_verify(manifest: Manifest, task: dict, seed: int) -> list[CheckRecord]:
    from . import models
    sname = task["structure"]
    S = manifest.structure(sname)
    rep = models.validate_first_kind(S, samples=task["samples"], tol=task["tol"], seed=seed)
    failing = [f"{chart}:{label}" for chart, label, c in rep.checks if not c.passed]
    if not rep.nondegenerate:
        failing.insert(0, f"two-form rank {rep.min_rank} < dimension {S.dim}")
    return [
        CheckRecord(
            name=f"verify:{sname}",
            anchor="first-kind structure identities",
            max_residual=rep.worst(),
            tolerance=task["tol"],
            rank_data={"dimension": S.dim, "charts": len(S.charts), "min_two_form_rank": rep.min_rank},
            passed=rep.passed,
            detail="; ".join(failing) if failing else f"{len(rep.checks)} identities certified",
        )
    ]


def _run_embed(manifest: Manifest, task: dict, seed: int) -> list[CheckRecord]:
    from . import embed
    settings = embed.EmbedSettings(seed=seed, **{key: task[key] for key in _EMBED_ARGS})
    tol, entry = settings.tol, task["corpus"]
    if entry is not None:
        name, anchor = f"embed:corpus:{entry}", "contact pullback identity on the sphere target"
        corpus = {
            "circle": embed.problem_circle,
            "torus": embed.problem_torus,
            "sphere3": embed.problem_sphere3,
            "zero_form": embed.problem_zero_form,
        }
        prob, stages = corpus[entry](), settings.corpus_stages()
        try:
            sol = embed.build_sphere_pipeline(prob, stages)
        except embed.CertificationError as exc:
            return [_raised_record(name, anchor, exc)]
        worst = max((c.max_residual for _, c in sol.certifications), default=0.0)
        records = [
            CheckRecord(
                name=name,
                anchor=anchor,
                max_residual=worst,
                tolerance=tol,
                rank_data={"pairs": sol.pairs, "ambient_dim": sol.ambient.dim},
                passed=sol.passed,
            )
        ]
        if task["literal_defect"]:
            lit = embed.build_psi2(prob, stages, doubled_pair=False)
            worst = max((c.max_residual for _, c in lit.defects), default=0.0)
            records.append(
                CheckRecord(
                    name=f"{name}:literal-defect",
                    anchor="uncorrected-pair defect equals half the potential differential",
                    max_residual=worst,
                    tolerance=tol,
                    rank_data={"pairs": lit.pairs},
                    passed=all(c.passed for _, c in lit.defects),
                )
            )
        return records
    name = f"embed:product:{task['structure']}"
    anchor = "product embedding pullback identities (potential, Lee form, two-form)"
    S = manifest.structure(task["structure"])
    prob, tau = embed.problem_from_sphere_circle(S)
    try:
        res = embed.build_lcs_embedding(S, prob, tau, settings)
    except embed.CertificationError as exc:
        return [_raised_record(name, anchor, exc)]
    # the sphere pipeline's own checks count with the product map's pullbacks
    checks = [c for _, _, c in res.certifications] + [c for _, c in res.solution.certifications]
    worst = max((c.max_residual for c in checks), default=0.0)
    return [
        CheckRecord(
            name=name,
            anchor=anchor,
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
    ]


_STAGE_ANCHORS = {
    "cotangent_torus_extension": "strong reducibility of the torus-extension graph",
    "jet_space_extension": "strong reducibility of the flow graph in the jet extension",
    "shear_normalization": "shear normalization preserves the structure",
    "universal_transplant": "strong reducibility of the transplanted graph in the universal model",
}


def _run_chain(manifest: Manifest, task: dict, seed: int) -> list[CheckRecord]:
    from . import reduction
    if task["input"] == "plane":
        chart, decomp, factory = reduction.plane_chain_input()
        label = "plane"
    else:
        label = task["structure"]
        S = manifest.structure(label)
        # the one value checked here: its bound is the built structure's chart count
        index = _integer(0, len(S.charts))(task["chart_index"], "reduce-chain task chart_index")
        chart, decomp, factory = reduction.sphere_circle_chain_input(S, chart_index=index)
    settings = reduction.ChainSettings(seed=seed, **{key: task[key] for key in _CHAIN_ARGS})
    chain = reduction.run_reduction_chain(chart, decomp, factory, settings)
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


def _run_cohomology(manifest: Manifest, task: dict, seed: int) -> list[CheckRecord]:
    from . import cohomology
    n, m, mu = task["n"], task["m"], task["mu"]
    if task["obstruction"]:
        rep = cohomology.ot_obstruction_check(n, m, threshold=task["threshold"])
        return [
            CheckRecord(
                name=f"cohomology:obstruction:T{n}:m{m}",
                anchor="area cochain obstruction distance and invariant closedness",
                max_residual=rep.invariant_residual,
                tolerance=0.0,
                rank_data={},
                passed=rep.passed,
                detail=f"distance={rep.distance!r} threshold={task['threshold']!r}",
            )
        ]
    expected = task["expect_betti"]
    C = cohomology.build_torus_complex(n, m, mu, task["cuts"])
    betti = cohomology.twisted_betti(C)
    base = f"cohomology:T{n}:m{m}:mu{_mu_label(mu)}"

    def discrete(suffix: str, anchor: str, rank_data: dict, passed: bool, detail: str = "") -> CheckRecord:
        return CheckRecord(f"{base}:{suffix}", anchor, None, None, rank_data, passed, detail)

    matched = expected is None or expected == betti
    records = [
        discrete("betti", "twisted Betti numbers of the grid torus", {"betti": betti, "cells": list(C.cells)},
                 matched, "" if matched else f"expected {expected}, computed {betti}")
    ]
    if task["euler"]:
        # The alternating sum of b_k = c_k - r_k - r_(k-1) is that of the cell
        # counts for any ranks; b_k >= 0 is what tests the ranks themselves.
        alternating = sum((-1) ** k * b for k, b in enumerate(betti))
        records.append(discrete("euler", "euler characteristic vanishes on the torus",
                                {"alternating_sum": alternating}, alternating == 0 and min(betti) >= 0))
    if task["refine"]:
        fine = cohomology.twisted_betti(cohomology.build_torus_complex(n, 2 * m, mu))
        records.append(discrete("refine", "grid refinement stability of Betti numbers",
                                {"coarse": betti, "fine": fine}, betti == fine))
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

    The command-line overrides are checked as the manifest's own values are,
    and replace a task's ``samples`` and ``tol`` where its kind takes them.
    Input problems raise ``ManifestError``; computational failures inside a
    task become failing records and the run continues unless
    ``opts.fail_fast``.
    """
    opts = opts or RunOptions()
    seed = manifest.seed if opts.seed is None else _integer(0)(opts.seed, "--seed")
    overrides = {}
    if opts.samples is not None:
        overrides["samples"] = _COUNT(opts.samples, "--samples")
    if opts.tol is not None:
        overrides["tol"] = _POSITIVE(opts.tol, "--tol")
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    clock = time.perf_counter_ns()
    records: list[CheckRecord] = []
    task_wall_s: list[float] = []
    done_us = 0  # whole microseconds from the start to the end of the last task
    for i, task in enumerate(manifest.tasks):
        task = {**task, **{key: value for key, value in overrides.items() if key in task}}
        try:
            batch = _TASK_RUNNERS[task["kind"]](manifest, task, seed)
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
