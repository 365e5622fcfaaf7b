"""Command-line front end: run verification manifests, print reports.

Subcommands::

    lcskit run <manifest>           execute every task
    lcskit verify <manifest>        only the first-kind identity tasks
    lcskit embed <manifest>         only the embedding tasks
    lcskit reduce-chain <manifest>  only the reduction-chain tasks
    lcskit cohomology <manifest>    only the grid-torus cohomology tasks
    lcskit report <file>            pretty-print an existing report

The manifest path ``selftest`` names the bundled self-test manifest.
Exit codes: 0 when every executed record passes, 1 when a check fails,
2 for unusable input.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .report import (
    ManifestError,
    RunOptions,
    RunReport,
    load_manifest,
    load_report,
    run_manifest,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcskit",
        description="manifest-driven verification of locally conformal symplectic toolkit identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name: str, help_text: str) -> None:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("manifest", help="manifest path, or 'selftest' for the bundled one")
        cmd.add_argument("-o", "--output", help="report file (default: <manifest>.report.json)")
        cmd.add_argument("--seed", type=int, help="override the manifest seed")
        cmd.add_argument("--tol", type=float, help="override task tolerances")
        cmd.add_argument("--samples", type=int, help="override task sample counts")
        cmd.add_argument(
            "--fail-fast", action="store_true", help="stop after the first failing task"
        )
        cmd.add_argument("-q", "--quiet", action="store_true", help="suppress the summary table")

    add_run_command("run", "execute every task in a manifest")
    add_run_command("verify", "run the first-kind identity tasks")
    add_run_command("embed", "run the embedding tasks")
    add_run_command("reduce-chain", "run the reduction-chain tasks")
    add_run_command("cohomology", "run the grid-torus cohomology tasks")

    show = sub.add_parser("report", help="pretty-print an existing report file")
    show.add_argument("file", help="report JSON file")
    return parser


_KIND_FOR_COMMAND = {
    "verify": "verify",
    "embed": "embed",
    "reduce-chain": "reduce-chain",
    "cohomology": "cohomology",
}


def _default_output(manifest_path: str) -> str:
    stem = os.path.splitext(os.path.basename(manifest_path))[0] or "manifest"
    return f"{stem}.report.json"


def _print_report(rep: RunReport, stream) -> None:
    print(f"manifest: {rep.manifest}   seed: {rep.seed}", file=stream)
    env = rep.environment
    print(
        f"environment: package {env.get('package')} / python {env.get('python')} / "
        f"numpy {env.get('numpy')}",
        file=stream,
    )
    print(f"started: {rep.started_utc}   wall time: {rep.wall_time_s}s", file=stream)
    for i, seconds in enumerate(rep.task_wall_s):
        print(f"  task[{i}] wall time: {seconds}s", file=stream)
    if not rep.records:
        print("no records (empty task list)", file=stream)
    for record in rep.records:
        status = "PASS" if record.passed else "FAIL"
        residual = "-" if record.max_residual is None else format(record.max_residual, ".3e")
        tolerance = "-" if record.tolerance is None else format(record.tolerance, ".0e")
        line = f"[{status}] {record.name}  residual={residual}  tol={tolerance}  ({record.anchor})"
        print(line, file=stream)
        if record.detail:
            print(f"       {record.detail}", file=stream)
    passed = sum(1 for r in rep.records if r.passed)
    verdict = "green" if rep.green else "RED"
    print(f"{passed}/{len(rep.records)} records passed -> {verdict}", file=stream)


def _execute(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    kind = _KIND_FOR_COMMAND.get(args.command)
    if kind is not None:
        manifest = dataclasses.replace(manifest, tasks=[t for t in manifest.tasks if t["kind"] == kind])
    opts = RunOptions(
        seed=args.seed,
        tol=args.tol,
        samples=args.samples,
        fail_fast=args.fail_fast,
    )
    rep = run_manifest(manifest, opts)
    output = args.output or _default_output(args.manifest)
    rep.write(output)
    if not args.quiet:
        _print_report(rep, sys.stdout)
        print(f"report written to {output}")
    return 0 if rep.green else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            rep = load_report(args.file)
            _print_report(rep, sys.stdout)
            return 0 if rep.green else 1
        return _execute(args)
    except ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
