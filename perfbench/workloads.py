"""Seeded workload manifests and the output checks applied to their reports.

Each workload is a manifest generated from the benchmark seed.  The checks
here are independent of the report's own pass flags: Betti numbers are
compared with their closed form, the obstruction distance is held to its
bound, and every record's pass flag must hold.  Failures listed in
``KNOWN_DEFECTS`` are still counted as failures; they only keep the run from
being declared incorrect.
"""

from __future__ import annotations

import math
import random
import re

SQRT2 = math.sqrt(2.0)

# Inline chart declaration: the only manifest route through ``symexpr.parse``.
PLANE_CHART = {
    "coordinates": [
        {"name": "a", "lower": -1.0, "upper": 1.0},
        {"name": "b", "lower": -1.0, "upper": 1.0},
    ],
    "alpha": {"b": "1"},
    "lee": {"a": "2/2"},
    "phi": "twisted",
    "b_field": {"a": "1"},
    "anti_lee": {"b": "-1"},
}


def _sphere(N: int, q: float) -> dict:
    return {"catalog": "sphere_circle", "args": {"N": N, "q": q}}


def _universal(k: int, N: int, mu: list[float]) -> dict:
    return {"catalog": "reduction_universal", "args": {"k": k, "N": N, "mu": mu}}


def certify_symbolic(seed: int) -> dict:
    """Symbolic construction (diff, pullback, Lie derivatives) dominates."""
    structures = {
        "sphere2": _sphere(2, 1.0),
        "sphere3": _sphere(3, 2.0),
        "sphere4": _sphere(4, 1.0),
        "universal_k1": _universal(1, 2, [1.0]),
        "universal_k2": _universal(2, 3, [1.0, SQRT2]),
        "plane": {"chart": PLANE_CHART},
    }
    tasks = [{"kind": "verify", "structure": name, "tol": 1e-9} for name in structures]
    tasks += [
        {"kind": "embed", "corpus": corpus, "tol": 1e-9, "literal_defect": True}
        for corpus in ("circle", "torus", "sphere3")
    ]
    tasks += [
        {"kind": "embed", "structure": name, "pairs": 10, "tol": 1e-8, "samples": 120}
        for name in ("sphere2", "sphere3")
    ]
    return {"seed": seed, "samples": 150, "structures": structures, "tasks": tasks}


def reduce_flows(seed: int) -> dict:
    """Per-point flows (solve_ivp with tree-walk right-hand sides) dominate."""
    chain = {"samples": 100, "verify_samples": 80, "flow_samples": 30, "concat_samples": 10}
    return {
        "seed": seed,
        "samples": 150,
        "structures": {"sphere2": _sphere(2, 1.0), "sphere3": _sphere(3, 2.0)},
        "tasks": [
            {"kind": "reduce-chain", "input": "plane"},
            {"kind": "reduce-chain", "input": "sphere_circle", "structure": "sphere2", **chain},
            {"kind": "reduce-chain", "input": "sphere_circle", "structure": "sphere3", **chain},
        ],
    }


def closed_form_betti(n: int, mu) -> list[int]:
    """Twisted Betti numbers of the n-torus: C(n, k) for trivial holonomy,
    all zero as soon as one axis carries a nontrivial weight (Kuenneth)."""
    if all(float(v) == 0.0 for v in mu):
        return [math.comb(n, k) for k in range(n + 1)]
    return [0] * (n + 1)


def torus_cohomology(seed: int) -> dict:
    """Dense pivoted QR on the grid-torus coboundaries dominates.

    The seed picks the holonomy exponents; the Euler check is left on only
    where it is cheap, since it repeats the rank work on the untwisted
    complex.
    """
    rng = random.Random(seed)
    irrational = [rng.uniform(0.5, 1.5), 0.0, 0.0]
    nontrivial = [rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), 0.0, 0.0]
    tasks = []
    for n, m, mu in ((2, 32, [0.0, 0.0]), (3, 8, [0.0] * 3), (3, 8, irrational), (4, 4, nontrivial)):
        tasks.append(
            {"kind": "cohomology", "n": n, "m": m, "mu": mu,
             "expect_betti": closed_form_betti(n, mu), "euler": False}
        )
    tasks.append(
        {"kind": "cohomology", "n": 2, "m": 6, "mu": [0.0, 0.0],
         "expect_betti": closed_form_betti(2, [0.0, 0.0]), "refine": True}
    )
    for n, m in ((2, 8), (3, 4), (3, 6)):
        tasks.append({"kind": "cohomology", "n": n, "m": m, "obstruction": True, "threshold": 0.1})
    return {"seed": seed, "tasks": tasks}


WORKLOADS = {
    "certify-symbolic": certify_symbolic,
    "reduce-flows": reduce_flows,
    "torus-cohomology": torus_cohomology,
}

# Record-name patterns that fail today for a reason tracked in ROADMAP.md:
# ``ot_obstruction_check`` returns a distance above its bound of 1 at n=3
# (scipy's gelsd least squares on a rank-deficient matrix).  They are counted
# as failures; a later fix turns them green without any change here.
KNOWN_DEFECTS = (re.compile(r"cohomology:obstruction:T3:m\d+$"),)

DISTANCE_BOUND = 1.0 + 1e-12
_DETAIL_FLOAT = r"=([-+0-9.eE]+|nan|inf)"


def _detail_value(detail: str, key: str) -> float | None:
    match = re.search(key + _DETAIL_FLOAT, detail)
    return float(match.group(1)) if match else None


def _torus_params(name: str) -> tuple[int, list[float]]:
    # cohomology:T<n>:m<m>:mu(<v>,<v>,...):<suffix>
    parts = name.split(":")
    n = int(parts[1][1:])
    mu = [float(v) for v in parts[3][3:-1].split(",")]
    return n, mu


def record_problems(record) -> list[str]:
    """Every check a record fails, beyond and including its own pass flag."""
    problems = []
    if not record.passed:
        problems.append("report pass flag is false")
    name = record.name
    if name.startswith("cohomology:obstruction:"):
        distance = _detail_value(record.detail, "distance")
        if distance is None or not 0.0 <= distance <= DISTANCE_BOUND:
            problems.append(f"obstruction distance {distance!r} outside [0, 1+1e-12]")
    elif name.startswith("cohomology:") and name.endswith((":betti", ":refine")):
        n, mu = _torus_params(name)
        expected = closed_form_betti(n, mu)
        rank_data = record.rank_data
        computed = [rank_data["betti"]] if "betti" in rank_data else [rank_data["coarse"], rank_data["fine"]]
        if any(list(b) != expected for b in computed):
            problems.append(f"Betti numbers {computed} differ from the closed form {expected}")
    return problems


def is_known_defect(name: str) -> bool:
    return any(p.match(name) for p in KNOWN_DEFECTS)


def certificate_margin(records) -> float:
    """Smallest margin of any certified quantity from its pass/fail limit, in
    decades (powers of ten).

    Residual checks contribute log10(tolerance / residual); residuals that are
    exactly zero have no finite margin and are skipped.  The obstruction check
    contributes log10(distance / threshold), with the distance clipped to its
    bound of 1 so that an out-of-bound value is counted as a failure by
    ``record_problems`` and not as extra margin.
    """
    margins = []
    for r in records:
        if r.name.startswith("cohomology:obstruction:"):
            distance = _detail_value(r.detail, "distance")
            threshold = _detail_value(r.detail, "threshold")
            if distance is not None and threshold:
                margins.append(math.log10(min(distance, 1.0) / threshold))
        elif r.max_residual and r.tolerance:
            margins.append(math.log10(r.tolerance / r.max_residual))
    return min(margins)


def sample_yield(records) -> float | None:
    """Share of drawn reduction samples that were used (not skipped)."""
    used = sum(r.rank_data.get("samples_used", 0) for r in records)
    skipped = sum(r.rank_data.get("samples_skipped", 0) for r in records)
    return used / (used + skipped) if used + skipped else None
