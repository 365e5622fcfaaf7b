"""The benchmark's tracer contract, held by the suite.

``perfbench/run.py --trace 1`` wraps every function its tracer names (a
missing name fails the install, whatever the workload) and fails its
coverage self-check when a workload no longer reaches a layer it claims to
measure.  Running it here makes such a change fail the tests, not only a
manual traced run.  The test only reads ``perfbench/``; the run writes its
span dumps under ``.bench_out/``.

``torus-cohomology`` is left out: its pass takes about 0.025 s, so the
self-check's limit of 5% on orchestration time outside every traced layer
(about 1 ms) is met or missed by timer noise: on a 2-vCPU VM its traced
runs read 1.7-4.7%, and 4 of 31 runs with a 1 s window failed at 5.1-6.6%.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify-symbolic", "reduce-flows")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_passes_its_coverage_check(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
