"""steinforge benchmark: one seeded workload, checked, with metrics.

    python3 perfbench/run.py --workload scan-grid --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; steinforge is imported from src/.
With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer ones. Every run starts fresh worker interpreters,
so nothing carries over between runs. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, pass_jobs, passes_for  # noqa: E402

SETUP_LAUNCHES = 5          # measured fresh imports of steinforge.cli per run
IMPORT_LAUNCHES = 3         # -X importtime launches in a traced run
TAIL_LADDER = (50, 75, 90, 95, 99)
DEADLINE_S = 170            # a run must end within 180 s

END_TO_END = {              # name: unit
    "setup_s": "s", "jobs_per_s": "1/s", "job_ms.p50": "ms",
    "job_ms.tail": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


def _layer_metrics() -> dict[str, str]:
    """Per-layer metric names and units; BENCHMARK.json lists the same."""
    with_self = ("cli.main", "derivation.minimal_scan", "derivation.derive_operator",
                 "derivation.operator_image", "poly.Polynomial.compose",
                 "gaussian.gauss_hermite_rule", "gaussian.pushforward_moment",
                 "operators.expectation_applied")
    busy_only = ("verify.verify_symbolic", "verify.verify_quadrature",
                 "verify.verify_monte_carlo", "verify.mutation_controls",
                 "verify.verify_noncentral_operator", "noncentral.density_integral",
                 "catalog.verify_table1_extrema")
    count_only = ("terms.ExpectationVector.init", "noncentral.noncentral_pdf",
                  "gaussian.chunk_normals")
    units = {"cli.import_s": "s", "cli.import_scipy_s": "s"}
    for name in with_self + busy_only + count_only:
        units[f"{name}.calls"] = "count"
        if name not in count_only:
            units[f"{name}.busy_s"] = "s"
        if name in with_self:
            units[f"{name}.self_s"] = "s"
    units.update({
        "derivation.derive_operator.found_ratio": "ratio",
        "derivation.operator_image.calls_per_derive": "ratio",
        "derivation.certificate_terms": "count",
        "derivation.max_coeff_bits": "bits",
        "gaussian.normals_per_s": "1/s",
        "trace.overhead_ratio": "ratio",
    })
    return units


PER_LAYER = _layer_metrics()


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    """Pinned environment: BLAS/OpenMP pools at one thread, the scan thread
    option unset, string hashing fixed."""
    env = {k: v for k, v in os.environ.items() if k != "STEINFORGE_THREADS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])))
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds from launching a fresh interpreter until steinforge.cli is
    imported; one unmeasured launch first compiles the bytecode."""
    code = "import steinforge.cli; print('ready', flush=True)"
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError("steinforge.cli does not import")
    return times[1:]


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in a
    `-X importtime` log (post-order, two spaces of indent per level)."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    total, ancestors = 0, []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.")
                                for a in ancestors):
            total += cumulative
        ancestors.append(name)
    return total / 1e6


def measure_imports(env: dict) -> tuple[float, float]:
    """Median (import steinforge.cli, of which scipy) in fresh interpreters."""
    code = ("import sys, time; sys.stderr.write('@@start\\n'); "
            "t = time.perf_counter(); import steinforge.cli; "
            "print(time.perf_counter() - t)")
    cli, scipy = [], []
    for _ in range(IMPORT_LAUNCHES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise BenchError("steinforge.cli does not import")
        cli.append(float(proc.stdout))
        scipy.append(scipy_import_s(proc.stderr.split("@@start", 1)[1]))
    return statistics.median(cli), statistics.median(scipy)


def run_worker(env: dict, deadline: float, **config) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_percentile(pass_size: int) -> int:
    """Highest ladder percentile with at least 10 samples above it in one
    pass; every run holds at least one whole pass."""
    return max(p for p in TAIL_LADDER if pass_size * (100 - p) >= 1000)


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(report: dict, setup: list[float], tail_p: int) -> dict:
    lat = report["latencies_ms"]
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": report["jobs"] / report["wall_s"],
        "job_ms.p50": statistics.median(lat),
        "job_ms.tail": percentile(lat, tail_p),
        "peak_rss_mb": report["peak_rss_mb"],
        "ok_ratio": (report["jobs"] - report["failed"]) / report["jobs"],
    }


def per_layer(traced: dict, untraced: dict, imports: tuple[float, float]) -> dict:
    targets = traced["trace"]["targets"]
    out = {"cli.import_s": imports[0], "cli.import_scipy_s": imports[1]}
    for name in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if field in ("calls", "busy_s", "self_s"):
            out[name] = targets[prefix][field]
    derives = targets["derivation.derive_operator"]["calls"]
    normals_busy = targets["gaussian.chunk_normals"]["busy_s"]
    terms, bits = traced["certificate_terms"], traced["coeff_bits"]
    out.update({
        "derivation.derive_operator.found_ratio":
            traced["trace"]["found"] / derives if derives else 0.0,
        "derivation.operator_image.calls_per_derive":
            targets["derivation.operator_image"]["calls"] / derives if derives else 0.0,
        "derivation.certificate_terms": statistics.fmean(terms) if terms else 0.0,
        "derivation.max_coeff_bits": max(bits, default=0),
        "gaussian.normals_per_s":
            traced["trace"]["normals"] / normals_busy if normals_busy else 0.0,
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
    })
    return out


def loadavg() -> list[float] | None:
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "steinforge" / "cli.py").is_file():
        print(f"error: no steinforge sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    tail_p = tail_percentile(len(pass_jobs(args.workload, args.seed, 0)))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **machine(),
              "loadavg_before": loadavg()}
    common = {"deadline": deadline, "workload": args.workload, "seed": args.seed}
    try:
        if args.trace:
            imports = measure_imports(env)
            # the same single pass, untraced and then traced, each in a fresh
            # interpreter; per-layer counts are per pass of the job list
            untraced = run_worker(env, **common, passes=1, trace=False, check=False)
            report = run_worker(env, **common, passes=1, trace=True, check=True)
            if untraced["digests"] != report["digests"]:
                raise BenchError("tracing changed a job output")
            metrics = per_layer(report, untraced, imports)
            units = PER_LAYER
            record["absent"] = report["trace"]["absent"]
        else:
            setup = measure_setup(env)
            report = run_worker(env, **common, trace=False, check=True,
                                passes=passes_for(args.workload, args.seconds))
            metrics = end_to_end(report, setup, tail_p)
            units = END_TO_END
            record["setup_launches_s"] = setup
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tail = percentile(report["latencies_ms"], tail_p)
    record.update(loadavg_after=loadavg(), versions=report["versions"],
                  jobs=report["jobs"], passes=report["passes"],
                  wall_s=report["wall_s"], known_red=report["known_red"],
                  unexpected_failures=report["unexpected"], tail_percentile=tail_p,
                  samples_above_tail=sum(v > tail for v in report["latencies_ms"]))
    print("record " + json.dumps(record))
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not report["unexpected"],
        "attempted": report["jobs"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
