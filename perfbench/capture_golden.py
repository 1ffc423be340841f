"""Capture the golden payloads the checker compares stdout against.

    python3 perfbench/capture_golden.py

Runs every derive/scan/conjecture job of the default seed's first passes
once, checks each output (certificate replay, symbolic verification,
frontier cells), and writes
  golden/digests.json   {workload: {job key: sha256 of stdout}}
  golden/payloads.json  {job key: stdout} for the jobs that do not depend
                        on the seed, kept in full so a change can be diffed.
Run it only at a commit whose outputs are trusted; a later change that
alters an output must argue for it rather than re-capture.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checker import OK, Checker, sha256  # noqa: E402
from worker import run_cli  # noqa: E402
from workloads import pass_jobs  # noqa: E402

DEFAULT_SEED = 0
# passes covered: every pass of a run up to --seconds 44 (scan-grid) and
# 49 (derive-cells)
PASSES = {"scan-grid": 2, "derive-cells": 4}


def main() -> int:
    digests: dict[str, dict[str, str]] = {}
    payloads: dict[str, str] = {}
    checker = Checker({})
    for workload, passes in PASSES.items():
        table = digests.setdefault(workload, {})
        for pass_index in range(passes):
            for job in pass_jobs(workload, DEFAULT_SEED, pass_index):
                if job["key"] in table:
                    continue
                outcome = run_cli(job["argv"])
                verdict, why = checker.check(job, outcome)
                if verdict != OK:
                    print(f"refusing to capture {job['key']}: {why}", file=sys.stderr)
                    return 1
                table[job["key"]] = sha256(outcome["stdout"])
                if "--coeffs" not in job["key"]:
                    payloads[job["key"]] = outcome["stdout"]
        print(f"{workload}: {len(table)} payloads", file=sys.stderr)
    out = HERE / "golden"
    out.mkdir(exist_ok=True)
    for name, data in (("digests.json", digests), ("payloads.json", payloads)):
        with open(out / name, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
