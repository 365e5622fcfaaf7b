"""Acceptance suite: one test per top-level criterion, tolerances pinned.

Each test prints a single pass line on success; a failing criterion shows
up as a failed test with the measured numbers in the assertion message.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import lcskit.cohomology as coh
import lcskit.embed as embed
import lcskit.forms as forms
import lcskit.models as models
import lcskit.reduction as reduction
import lcskit.report as report
import oracle_utils
from oracle_utils import average_cochain, betti_numbers_svd, chart_form, cut_coboundaries

SQRT2 = math.sqrt(2.0)


def _announce(num: int, label: str) -> None:
    print(f"[PASS] criterion {num}: {label}")


# ---------------------------------------------------------------------------
# 1. corpus pipeline: corrected closing pair, residual < 1e-8, < 10 s/case


def test_criterion_1_contact_corpus_pipeline():
    corpus = [
        ("circle", embed.problem_circle),
        ("torus", embed.problem_torus),
        ("sphere3", embed.problem_sphere3),
    ]
    for name, factory in corpus:
        start = time.perf_counter()
        sol = embed.build_sphere_pipeline(factory(), embed.EmbedSettings().corpus_stages())
        assert sol.passed and sol.stage == 3, f"{name}: pipeline not certified"
        # independent re-certification at 1000 fresh seeded samples
        eta_c = models.contact_form(sol.ambient, sol.pairs, sol.scale)
        chart_domains = dict(sol.problem.charts)
        for cname, psi in sol.maps:
            theta = chart_form(sol.problem, chart_domains[cname])
            check = oracle_utils.forms_equal(forms.pullback(psi, eta_c), theta, 1000, 1e-8, seed=123)
            assert check.passed, (
                f"{name}/{cname}: pullback residual {check.max_residual:.3e} at 1000 samples"
            )
            assert check.max_residual < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"{name}: {elapsed:.1f}s exceeds the 10s budget"
    _announce(1, "contact-form corpus pipeline residual < 1e-8, < 10s per case")


# ---------------------------------------------------------------------------
# 2. the uncorrected closing pair misses by exactly half d(phi)


def test_criterion_2_literal_closing_pair_defect():
    for factory in (embed.problem_circle, embed.problem_torus, embed.problem_sphere3):
        sol = embed.build_psi2(factory(), embed.EmbedSettings().corpus_stages(), doubled_pair=False)
        assert sol.defects, "literal build must measure its defect"
        worst = max(c.max_residual for _, c in sol.defects)
        assert all(c.passed for _, c in sol.defects)
        assert worst < 1e-9, f"defect mismatch {worst:.3e}"
    _announce(2, "uncorrected-pair defect equals half d(phi) within 1e-9")


# ---------------------------------------------------------------------------
# 3. sphere-times-circle product embedding: three identities + morphism


def test_criterion_3_sphere_circle_product_embedding():
    S = models.model_sphere_circle(2, q=1.0)
    prob, tau = embed.problem_from_sphere_circle(S)
    res = embed.build_lcs_embedding(S, prob, tau, embed.EmbedSettings(samples=200, tol=1e-8, pairs=10, seed=0))
    assert res.passed
    worst = max(c.max_residual for _, _, c in res.certifications)
    assert worst < 1e-8, f"identity residual {worst:.3e}"
    labels = {lbl for _, lbl, _ in res.certifications}
    assert {
        "pullback(scale * eta) - alpha",
        "pullback(d theta) - lee",
        "pullback(scale * twisted form) - phi",
        "left inverse: L∘psi - P",
        "left inverse: L·Dpsi - DP",
    } <= labels
    assert res.morphism.strict and res.morphism.full
    _announce(3, "product embedding identities < 1e-8, injective immersion by left inverse, morphism strict and full")


# ---------------------------------------------------------------------------
# 4. first-kind axiom suite over the model grid


def test_criterion_4_first_kind_axiom_suite():
    start = time.perf_counter()
    grid = [models.model_sphere_circle(2), models.model_sphere_circle(3)]
    for k, N, mu in [
        (1, 2, (1.0,)),
        (1, 2, (SQRT2,)),
        (1, 3, (1.0,)),
        (1, 3, (SQRT2,)),
        (2, 2, (1.0, SQRT2)),
        (2, 3, (1.0, SQRT2)),
    ]:
        grid.append(models.model_reduction_universal(k, N, mu))
    for S in grid:
        rep = models.validate_first_kind(S, samples=200, tol=1e-9, seed=0)
        assert rep.passed, f"{S.name}: worst residual {rep.worst():.3e}"
        assert rep.worst() < 1e-9
        assert rep.nondegenerate
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    _announce(4, "first-kind axioms < 1e-9 at 200 samples/chart across the model grid")


# ---------------------------------------------------------------------------
# 5. four-stage reduction chain on the sphere-times-circle input


def test_criterion_5_reduction_chain():
    chart, decomp, factory = reduction.sphere_circle_chain_input(
        models.model_sphere_circle(2, q=1.0)
    )
    chain = reduction.run_reduction_chain(chart, decomp, factory, reduction.ChainSettings(seed=0))
    assert chain.passed
    for step in chain.steps:
        assert step.passed, f"stage {step.name} failed"
        if step.report is not None:
            assert step.report.passed, f"stage {step.name}: reducibility certificate failed"
    assert chain.concatenation < 1e-6, f"concatenation residual {chain.concatenation:.3e}"
    worst_pullback = max(
        s.report.worst_pullback() for s in chain.steps if s.report is not None
    )
    assert worst_pullback < 1e-6
    _announce(5, "four-stage chain reconstructs the structure; two-stage agreement < 1e-6")


# ---------------------------------------------------------------------------
# 6. twisted cohomology on the grid torus


def test_criterion_6_twisted_cohomology():
    start = time.perf_counter()
    flat = coh.build_torus_complex(2, 8)
    assert coh.twisted_betti(flat) == [1, 2, 1]
    twisted = coh.build_torus_complex(2, 8, (1.0, 0.0))
    assert coh.twisted_betti(twisted) == [0, 0, 0]
    for C in (flat, twisted):
        assert coh.twisted_betti(C) == betti_numbers_svd(cut_coboundaries(C), C.cells)
        assert sum((-1) ** k * b for k, b in enumerate(coh.twisted_betti(C))) == 0
    for mu in [(1.0, 0.0), (0.0, SQRT2), (1.0, 1.0)]:
        b = coh.twisted_betti(coh.build_torus_complex(2, 8, mu))
        assert b[0] == 0 and b[-1] == 0, f"mu={mu}: ends {b}"
    for mu in [None, (1.0, 0.0)]:
        assert coh.twisted_betti(coh.build_torus_complex(2, 8, mu)) == coh.twisted_betti(
            coh.build_torus_complex(2, 16, mu)
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    _announce(6, "grid-torus Betti numbers match the dense oracle; stable under refinement")


# ---------------------------------------------------------------------------
# 7. obstruction skeleton: area cochain, invariant closedness, averaging


def test_criterion_7_obstruction_skeleton():
    rep = coh.ot_obstruction_check(2, 8, threshold=0.1)
    assert rep.passed
    assert rep.distance > 0.1, f"distance {rep.distance}"
    assert rep.invariant_residual == 0.0
    C = coh.build_torus_complex(2, 8)
    basis = coh.invariant_cochain_basis(C, 1)
    D1 = cut_coboundaries(C)[1]
    assert np.max(np.abs(D1 @ basis)) == 0.0
    rng = np.random.default_rng(0)
    a = rng.standard_normal(C.cells[1])
    avg = average_cochain(C, 1, a)
    again = average_cochain(C, 1, avg)
    assert np.max(np.abs(again - avg)) < 1e-14, "averaging not idempotent"
    commute = D1 @ avg - average_cochain(C, 2, D1 @ a)
    assert np.max(np.abs(commute)) < 1e-13, "averaging does not commute with D"
    _announce(7, "area-cochain distance > 0.1; invariant cochains exactly closed")


# ---------------------------------------------------------------------------
# 8. determinism of the bundled self-test


def test_criterion_8_selftest_determinism():
    runs = []
    for _ in range(2):
        manifest = report.load_manifest("selftest")
        rep = report.run_manifest(manifest)
        assert rep.green, "self-test manifest must be green"
        runs.append(json.dumps(rep.stable_dict(), sort_keys=True))
    assert runs[0] == runs[1], "reports differ beyond timestamps"
    _announce(8, "bundled self-test deterministic modulo timestamps")


TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def test_stable_dumps_identical_across_blas_thread_counts(tmp_path):
    """Every bundled run's stable report, as ``tests/stable_dumps.py`` writes
    it (the self-test and each benchmark workload at its seeds), is
    byte-identical with one and with two BLAS threads."""
    dumps = {}
    for threads in ("1", "2"):
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            PYTHONPATH=SRC + (os.pathsep + path if path else ""),
        )
        out = tmp_path / threads
        done = subprocess.run(
            [sys.executable, os.path.join(TESTS, "stable_dumps.py"), str(out)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        dumps[threads] = {p.name: p.read_text() for p in out.iterdir()}
    assert len(dumps["1"]) == 13 and all(json.loads(text)["records"] for text in dumps["1"].values())
    assert dumps["1"] == dumps["2"], "reports depend on the BLAS thread count: " + ", ".join(
        sorted(name for name in dumps["1"] if dumps["1"][name] != dumps["2"].get(name))
    )
