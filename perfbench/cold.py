"""One fresh-interpreter run, for the cold metrics of the benchmark.

    python3 perfbench/cold.py setup <manifest>
    python3 perfbench/cold.py cli <manifest> <report>

``setup`` times ``import lcskit`` + ``load_manifest`` + building every
declared structure.  ``cli`` runs the manifest through ``lcskit.cli.main``,
as ``lcskit run`` would.  Both need the repository's ``src`` directory on
PYTHONPATH and print one JSON line, which includes the process's peak
resident memory.
"""

import json
import resource
import sys
import time


def setup(manifest_path: str) -> dict:
    start = time.perf_counter()
    from lcskit import report

    manifest = report.load_manifest(manifest_path)
    for name in manifest.structures:
        manifest.structure(name)
    return {"setup_s": time.perf_counter() - start}


def cli(manifest_path: str, report_path: str) -> dict:
    from lcskit import cli

    return {"exit": cli.main(["run", manifest_path, "-o", report_path, "-q"])}


if __name__ == "__main__":
    mode, *paths = sys.argv[1:]
    result = {"setup": setup, "cli": cli}[mode](*paths)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
