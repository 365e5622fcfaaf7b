"""lcskit benchmark: seeded certification workloads, timed end to end.

    python3 perfbench/run.py --workload certify-symbolic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs untraced and traced passes side by side and
prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child process: the
# obstruction distance at (3,6) depends on the BLAS thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from statistics import median  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import CoverageError, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Measured operations repeat in this order, so every metric gets samples from
# across the window: on a shared host the speed of a core drifts by up to
# +-20% over seconds and minutes.  Set-ups are cheap and noisy, so they come
# most often.
CYCLE = ("cli", "pass", "setup", "setup", "pass", "cli", "pass", "setup", "setup", "pass", "setup")
MINIMUM = {"pass": 2, "setup": 2, "cli": 1}
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# output checks


class Checks:
    """Every record of every pass, checked; the first pass is the reference
    that later passes (and the cold CLI reports) must reproduce exactly."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, list[str]] = {}
        self.reference: dict | None = None

    def add(self, rep, label: str) -> None:
        stable = rep.stable_dict()
        if self.reference is None:
            self.reference = stable
        diverged = stable != self.reference
        if diverged and not rep.records:
            self.attempted += 1
            self.failed += 1
            self.failures.setdefault(f"<{label}>", []).append("report differs from the first pass")
        for record in rep.records:
            problems = workloads.record_problems(record)
            if diverged:
                problems.append(f"{label}: report differs from the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.failures.setdefault(record.name, problems)

    @property
    def correct(self) -> bool:
        """Records were checked and every failure is a known defect."""
        return bool(self.reference and self.reference["records"]) and all(
            workloads.is_known_defect(name) for name in self.failures
        )


# ---------------------------------------------------------------------------
# passes


def run_pass(report, manifest_path: str, report_path: str):
    """One in-process pass: parse a fresh manifest, run it, write the report."""
    gc.collect()
    start = time.perf_counter()
    manifest = report.load_manifest(manifest_path)
    rep = report.run_manifest(manifest)
    rep.write(report_path)
    return time.perf_counter() - start, rep


def run_child(*args: str) -> dict:
    """A fresh interpreter running perfbench/cold.py; adds its wall time."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "cold.py"), *args],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"cold run {' '.join(args[:1])} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def describe(values: list[float]) -> str:
    # The highest percentile with ten samples beyond it needs 11+ samples; the
    # runs here take fewer, so the maximum is reported with the count.
    return f"median of n={len(values)}, max {max(values):.4f}, all {[round(v, 4) for v in values]}"


def measure(report, manifest_path: str, tmp: str, seconds: float, checks: Checks) -> dict:
    """End-to-end metrics, tracing off."""
    report_path = os.path.join(tmp, "pass.report.json")
    _, rep = run_pass(report, manifest_path, report_path)  # warm-up
    checks.add(rep, "warm-up pass")
    first_records = rep.records
    run_s, setup_s, cli_s, rss_mb = [], [], [], []

    def timed_pass() -> None:
        elapsed, rep = run_pass(report, manifest_path, report_path)
        run_s.append(elapsed)
        checks.add(rep, f"pass {len(run_s)}")

    def cold_setup() -> None:
        setup_s.append(run_child("setup", manifest_path)["setup_s"])

    def cold_cli() -> None:
        out = os.path.join(tmp, f"cli-{len(cli_s)}.report.json")
        child = run_child("cli", manifest_path, out)
        if child["exit"] not in (0, 1):
            raise BenchError(f"lcskit run exited {child['exit']} (unusable input)")
        cli_s.append(child["wall_s"])
        rss_mb.append(child["maxrss_kb"] / 1024.0)
        checks.add(report.load_report(out), f"cold cli run {len(cli_s)}")

    operations = {"pass": (timed_pass, run_s), "setup": (cold_setup, setup_s), "cli": (cold_cli, cli_s)}
    durations: dict[str, list[float]] = {op: [] for op in operations}
    deadline = time.perf_counter() + seconds
    for op in itertools.cycle(CYCLE):
        if time.perf_counter() + median(durations[op] or [0.0]) > deadline:
            if all(len(operations[o][1]) >= n for o, n in MINIMUM.items()):
                break
            if len(operations[op][1]) >= MINIMUM[op]:
                continue  # past the window: only make up missing minimums
        start = time.perf_counter()
        operations[op][0]()
        durations[op].append(time.perf_counter() - start)

    for name, values in (("run_s", run_s), ("cli_s", cli_s), ("setup_s", setup_s), ("peak_rss_mb", rss_mb)):
        print(f"  {name:<12} {describe(values)}")
    return {
        "run_s": (median(run_s), "s"),
        "cli_s": (median(cli_s), "s"),
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (median(rss_mb), "MB"),
        "pass_ratio": ((checks.attempted - checks.failed) / checks.attempted, "ratio"),
        "certificate_margin": (workloads.certificate_margin(first_records), "decades"),
    }


def measure_traced(report, workload: str, seed: int, manifest_path: str, tmp: str, seconds: float, checks: Checks) -> dict:
    """Per-layer metrics from traced passes, each paired with an untraced one."""
    report_path = os.path.join(tmp, "pass.report.json")
    _, rep = run_pass(report, manifest_path, report_path)  # warm-up
    checks.add(rep, "warm-up pass")
    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        elapsed, rep = run_pass(report, manifest_path, report_path)
        plain.append(elapsed)
        checks.add(rep, f"untraced pass {len(plain)}")
        tracer.install()
        try:
            elapsed, rep = run_pass(report, manifest_path, report_path)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        checks.add(rep, f"traced pass {len(traced)}")

    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload}-{seed}.npz"))
    passes = len(traced)
    stats = defaultdict(lambda: defaultdict(float))
    for span, counts in tracer.stats.items():
        for key, value in counts.items():
            stats[span][key] = value / passes
    trace = layers.Trace(
        self_s={span: t / passes for span, t in tracer.self_times().items()},
        stats=stats,
        sample_yield=workloads.sample_yield(rep.records),
        pass_s=sum(traced) / passes,
    )
    layers.check_coverage(workload, trace)
    metrics = layers.layer_metrics(trace)
    overhead = median(traced) - median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"  untraced pass {describe(plain)}")
    print(f"  traced pass   {describe(traced)}")
    print(f"  tracing overhead {overhead:.4f} s per pass ({overhead / median(plain):.1%})")
    return metrics


# ---------------------------------------------------------------------------
# machine stamp


def machine_stamp() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    package = os.path.join(SRC, "lcskit")
    src_lines = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as handle:
                src_lines += sum(1 for _ in handle)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_lcskit_lines": src_lines,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement window after the warm-up pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lcskit", "__init__.py")):
        print(f"error: no lcskit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from lcskit import report

    os.makedirs(OUT, exist_ok=True)
    checks = Checks()
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            manifest_path = os.path.join(tmp, f"{args.workload}.json")
            with open(manifest_path, "w") as handle:
                json.dump(workloads.WORKLOADS[args.workload](args.seed), handle, indent=1)
            print("machine", json.dumps(machine_stamp()))
            print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
            if args.trace:
                metrics = measure_traced(report, args.workload, args.seed, manifest_path, tmp, args.seconds, checks)
            else:
                metrics = measure(report, manifest_path, tmp, args.seconds, checks)
    except (BenchError, CoverageError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, problems in checks.failures.items():
        tag = "known defect" if workloads.is_known_defect(name) else "FAILED"
        print(f"  [{tag}] {name}: {'; '.join(problems)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
