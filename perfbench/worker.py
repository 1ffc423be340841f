"""One benchmark worker: a fresh interpreter that runs a workload's jobs.

Started by run.py with one JSON argument:
    {"workload", "seed", "passes", "trace", "check"}
It runs that many whole passes of the workload's job list. Jobs run one at
a time in this
process (a closed loop with one client); each is an in-process
`steinforge.cli.main(argv)` call with stdout captured, or one library call.
Outputs are checked only after the timed loop, so the checker cannot warm
the program's caches. The report is one JSON line on stdout.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import steinforge  # noqa: E402
import steinforge.cli  # noqa: E402

from checker import FAILED, KNOWN, check_records  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import pass_jobs  # noqa: E402

GOLDEN = HERE / "golden" / "digests.json"


def _prepare(job: dict):
    """Resolve a job to (callable, args) before its timer starts. Functions
    are looked up on their modules at call time, so tracer wrappers apply."""
    if job["kind"] == "cli":
        return run_cli, (job["argv"],)
    params = job["params"]
    # the package binds the name `catalog` to the function, not the module
    catalog = importlib.import_module("steinforge.catalog")
    if job["call"] == "mutation_controls":
        entry = catalog.catalog(params["catalog"])
        verify = importlib.import_module("steinforge.verify")
        return verify.mutation_controls, (entry.operator, entry.pushforward)
    if job["call"] == "verify_table1_extrema":
        return catalog.verify_table1_extrema, (params["n"],)
    raise ValueError(f"unknown library call {job['call']!r}")


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = steinforge.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue()}


def _digest(outcome: dict) -> str:
    if "error" in outcome:
        text = outcome["error"]
    elif "stdout" in outcome:
        text = f"{outcome['rc']}\n{outcome['stdout']}"
    else:
        text = repr(outcome["value"])
    return hashlib.sha256(text.encode()).hexdigest()


def run(config: dict) -> dict:
    tracer = Tracer()
    if config["trace"]:
        tracer.install()
    records = []
    pass_times: list[float] = []
    start = time.perf_counter()
    for pass_index in range(config["passes"]):
        pass_start = time.perf_counter()
        for job in pass_jobs(config["workload"], config["seed"], pass_index):
            fn, args = _prepare(job)
            tracer.active = config["trace"]
            t0 = time.perf_counter()
            try:
                value = tracer.run_job(len(records), fn, *args) \
                    if config["trace"] else fn(*args)
                outcome = value if job["kind"] == "cli" else {"value": value}
            except Exception as exc:  # a failed job is counted, not fatal
                outcome = {"error": repr(exc)}
            elapsed = time.perf_counter() - t0
            tracer.active = False
            records.append((job, outcome, elapsed))
        pass_times.append(time.perf_counter() - pass_start)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "jobs": len(records), "passes": len(pass_times), "wall_s": wall,
        "pass_s": pass_times, "peak_rss_mb": peak_rss_mb,
        "latencies_ms": [1000.0 * e for _, _, e in records],
        "digests": [_digest(o) for _, o, _ in records],
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "steinforge": getattr(steinforge, "__version__", None)},
    }
    if config["check"]:
        with open(GOLDEN) as fh:
            golden = json.load(fh).get(config["workload"], {})
        verdicts, report["certificate_terms"], report["coeff_bits"] = check_records(
            golden, [(job, outcome) for job, outcome, _ in records])
        report["failed"] = sum(v in (FAILED, KNOWN) for v, _ in verdicts)
        report["known_red"] = sum(v == KNOWN for v, _ in verdicts)
        report["unexpected"] = sorted({f"{job['key']}: {why}" for (job, _, _), (v, why)
                                       in zip(records, verdicts) if v == FAILED})
    if config["trace"]:
        report["trace"] = {"targets": tracer.summary(), "found": tracer.found,
                           "normals": tracer.normals, "absent": tracer.absent,
                           "spans": len(tracer.spans)}
    return report


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))), flush=True)
