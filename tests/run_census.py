"""Record what of ``lcskit`` the bundled runs execute.

Runs ``lcskit run selftest``, every workload manifest of
``perfbench/workloads.py`` at seeds 7 and 21, and ``lcskit report`` on one of
the reports, all in this one interpreter.  By default it runs them under
``sys.setprofile`` and writes the :func:`code_location` of every code object
they enter to the JSON file named on the command line::

    PYTHONPATH=src python tests/run_census.py entered.json

``tests/test_hygiene.py`` reads that file.  With ``--lines`` it runs them
under ``sys.settrace`` instead and writes, per module of ``src/lcskit``, the
:func:`executable_lines` that no run executes, as line ranges::

    PYTHONPATH=src python tests/run_census.py --lines unexecuted.txt

Run it in a fresh interpreter: a memo filled earlier in the process (the
seeded streams of ``pcg64``, interned expression nodes) could otherwise keep
a function or a line from being run.
"""

from __future__ import annotations

import ast
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
PACKAGE = ROOT / "src" / "lcskit"
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


def run_bundled(hook, install=sys.setprofile) -> None:
    """Run every bundled run, imports included, with ``hook`` installed by
    ``install`` (``sys.setprofile`` or ``sys.settrace``)."""
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
        install(hook)
        try:
            from lcskit import cli

            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(argv) for argv in runs]
        finally:
            install(None)
    if any(codes):
        raise SystemExit(f"a bundled run failed: exit codes {codes}")


def entered_code() -> set:
    """Code objects entered by the bundled runs."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    run_bundled(profile)
    return entered


def executed_lines() -> dict[str, set[int]]:
    """Resolved file name -> the lines of it that the bundled runs execute,
    for the files of ``src/lcskit``; a function's entry counts its first line."""
    executed: dict[str, set[int]] = {}
    ours: dict[str, str | None] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            path = Path(filename).resolve()
            ours[filename] = str(path) if path.parent == PACKAGE else None
        if ours[filename] is None:
            return None
        executed.setdefault(ours[filename], set()).add(frame.f_lineno)
        return trace

    run_bundled(trace, sys.settrace)
    return executed


def executable_lines(source: str, filename: str) -> set[int]:
    """The lines of ``source`` that compile to code, less every line of a
    ``raise`` statement and every ``except`` clause's own line."""
    lines = set()

    def walk(code: types.CodeType) -> None:
        lines.update(line for _, _, line in code.co_lines() if line)  # a module's entry is line 0
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const)

    walk(compile(source, filename, "exec", dont_inherit=True))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            lines -= set(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.ExceptHandler):
            lines.discard(node.lineno)
    return lines


def line_ranges(lines) -> str:
    """Sorted lines as comma-separated ranges: ``3, 5-7``."""
    spans: list[list[int]] = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def unexecuted_report(executed: dict[str, set[int]]) -> str:
    """One line per module of ``src/lcskit``: its executable lines that no
    bundled run executes."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        missed = executable_lines(path.read_text(), str(path)) - executed.get(str(path.resolve()), set())
        out.append(f"{path.name}: {line_ranges(missed)}" if missed else f"{path.name}: -")
    return "\n".join(out) + "\n"


def main(argv: list[str]) -> None:
    if argv[:1] == ["--lines"] and len(argv) == 2:
        Path(argv[1]).write_text(unexecuted_report(executed_lines()))
    elif len(argv) == 1:
        Path(argv[0]).write_text(json.dumps(sorted(code_location(code) for code in entered_code())))
    else:
        raise SystemExit("usage: run_census.py [--lines] OUT")


if __name__ == "__main__":
    main(sys.argv[1:])
