"""Record the code objects of ``lcskit`` that the bundled runs enter.

Runs ``lcskit run selftest``, every workload manifest of
``perfbench/workloads.py`` at seeds 7 and 21, and ``lcskit report`` on one of
the reports, all in this one interpreter under ``sys.setprofile``, and
writes the :func:`code_location` of every code object they enter to the
JSON file named on the command line::

    PYTHONPATH=src python tests/run_census.py entered.json

Run it in a fresh interpreter: a memo filled earlier in the process (the
seeded streams of ``pcg64``, interned expression nodes) could otherwise keep
a function from being entered.  ``tests/test_hygiene.py`` reads the file.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
import types
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 21)


def code_location(code: types.CodeType) -> tuple[str, int, str, int]:
    """Where a code object comes from: its file, first line and name, and a
    checksum of its bytecode, which tells apart two lambdas on one line."""
    return code.co_filename, code.co_firstlineno, code.co_name, zlib.crc32(code.co_code)


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def entered_code() -> set:
    """Code objects entered by the bundled runs, imports included."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        manifests = ["selftest"]
        for name, build in _workloads().items():
            for seed in SEEDS:
                path = Path(tmp, f"{name}-{seed}.json")
                path.write_text(json.dumps(build(seed)))
                manifests.append(str(path))
        reports = [str(Path(tmp, f"{i}.report.json")) for i in range(len(manifests))]
        runs = [["run", manifest, "-q", "-o", out] for manifest, out in zip(manifests, reports)]
        runs.append(["report", reports[0]])
        sys.setprofile(profile)
        try:
            from lcskit import cli

            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(argv) for argv in runs]
        finally:
            sys.setprofile(None)
    if any(codes):
        raise SystemExit(f"a bundled run failed: exit codes {codes}")
    return entered


def main(out: str) -> None:
    entered = sorted(code_location(code) for code in entered_code())
    Path(out).write_text(json.dumps(entered))


if __name__ == "__main__":
    main(sys.argv[1])
