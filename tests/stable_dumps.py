"""Write the ``RunReport.stable_dict()`` dumps that tell whether a change moved
any reported value.

Runs ``selftest`` at seeds 0, 7, 13 and 21 and every workload manifest of
``perfbench/workloads.py`` at seeds 7, 13 and 21, and writes each report's
stable content, with its ``manifest`` field replaced by the workload label,
as ``<label>-<seed>.json`` into the directory named on the command line::

    PYTHONPATH=src python tests/stable_dumps.py before/
    PYTHONPATH=src python tests/stable_dumps.py after/
    diff -r before after

An empty ``diff -r`` between two checkouts' dumps means every residual,
rank, detail and pass flag is byte-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from lcskit import report
from run_census import _workloads

SELFTEST_SEEDS = (0, 7, 13, 21)
WORKLOAD_SEEDS = (7, 13, 21)


def dumps() -> dict[str, dict]:
    """File name -> stable report content, for every bundled run."""
    runs = [("selftest", seed, report.load_manifest("selftest")) for seed in SELFTEST_SEEDS]
    for name, build in _workloads().items():
        runs += [(name, seed, report.parse_manifest(build(seed), name)) for seed in WORKLOAD_SEEDS]
    out = {}
    for label, seed, manifest in runs:
        stable = report.run_manifest(manifest, report.RunOptions(seed=seed)).stable_dict()
        out[f"{label}-{seed}.json"] = {**stable, "manifest": label}
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: stable_dumps.py OUTPUT_DIR", file=sys.stderr)
        return 2
    directory = Path(argv[0])
    directory.mkdir(parents=True, exist_ok=True)
    for name, content in dumps().items():
        (directory / name).write_text(json.dumps(content, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
