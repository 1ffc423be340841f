"""Seeded job lists for the three benchmark workloads.

A run executes whole passes over a workload's job list. Pass `p` of seed
`s` is fully determined by `(workload, s, p)`, and the number of passes by
the run's length. A job is a plain dict: either a CLI call (`argv`) or one
public library call (`call` plus JSON-able `params`), together with what
the checker needs to know about it (`poly`, `expect_minimal`, `reference`,
`truth`). The program only ever sees the generated inputs.
"""
from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("scan-grid", "derive-cells", "verify-routes")

# MC sample count for verify jobs: the CLI default of 1e6 makes one job cost
# about a second; 2e5 keeps the Philox sampler busy while letting a pass hold
# enough jobs for a latency tail. The 5-standard-error gate does not depend
# on the sample count.
MC_SAMPLES = 200_000

# Run seconds per pass: a run of S seconds executes max(1, S // PASS_S)
# whole passes, so the work per run depends only on the arguments. On a
# 2-core Xeon a pass takes 15-25 s (scan-grid), 5-9 s (derive-cells, whose
# checks cost as much again) and 5-7 s (verify-routes); at S = 15 that is
# 1, 1 and 2 passes.
PASS_S = {"scan-grid": 15.0, "derive-cells": 10.0, "verify-routes": 7.0}

CATALOG_KEYS = ("normal", "centered-chi2", "h3", "h4", "quadratic")
VERIFY_METHODS = ("symbolic", "quadrature", "mc")

# Frontier facts (order, degree) of the minimal cells, as recorded in the
# roadmap; each scan below covers its cell.
FRONTIER = {"H3": [3, 4], "H4": [2, 3], "H5": [7, 6], "H6": [3, 6]}

_LEADS = ("1", "-1", "2", "-2", "3", "1/2", "-1/2", "3/2")

# coefficients, lowest first, of the polynomials named in job lists
_NAMED = {"x": "0,1", "x^2-1": "-1,0,1", "x^2+2x+1": "1,2,1",
          "x^3-3x": "0,-3,0,1", "x^3+x^2": "0,0,1,1",
          "x^4-6x^2+3": "3,0,-6,0,1", "H5": "0,15,0,-10,0,1",
          "H6": "-15,0,45,0,-15,0,1"}


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # str seeds hash through SHA-512, so the stream is the same in every
    # interpreter regardless of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _frac(rng: random.Random) -> str:
    return str(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))))


def random_coeffs(rng: random.Random, degree: int) -> str:
    """Comma-separated rational coefficients, lowest first, exact degree.
    Pass them as `--coeffs=...`: a leading minus would read as an option."""
    return ",".join([_frac(rng) for _ in range(degree)] + [rng.choice(_LEADS)])


def _cli(argv: list[str], **extra) -> dict:
    return {"kind": "cli", "argv": argv, "key": " ".join(argv), **extra}


def _exact(argv: list[str], poly: str, **extra) -> dict:
    """A derive/scan/conjecture job; `poly` is the polynomial the payload
    must echo, in the payload's canonical strings."""
    if poly in _NAMED:
        poly = _NAMED[poly]
    return _cli(argv, poly=[str(Fraction(c)) for c in poly.split(",")], **extra)


def _lib(call: str, **params) -> dict:
    args = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return {"kind": "lib", "call": call, "params": params,
            "key": f"{call}({args})"}


def _scan_grid(rng: random.Random) -> list[dict]:
    jobs = [
        _exact(["conjecture", "--hermite", "5", "--max-order", "10",
                "--max-degree", "6"], "H5", expect_minimal=FRONTIER["H5"]),
        _exact(["conjecture", "--hermite", "6", "--max-order", "8",
                "--max-degree", "6"], "H6", expect_minimal=FRONTIER["H6"]),
        _exact(["scan", "--poly", "x^3-3x", "--max-order", "5",
                "--max-degree", "4"], "x^3-3x", expect_minimal=FRONTIER["H3"]),
        _exact(["scan", "--poly", "x^4-6x^2+3", "--max-order", "3",
                "--max-degree", "3"], "x^4-6x^2+3", expect_minimal=FRONTIER["H4"]),
        _exact(["scan", "--poly", "x^3+x^2", "--max-order", "5",
                "--max-degree", "4"], "x^3+x^2"),
    ]
    # (degree, max order, max degree, count): small grids; the degree 2 and 3
    # grids reach their frontier, 4 and 5 stay below it. The counts put the
    # median inside the ~85 ms degree 4/5 group and p75 inside the ~280 ms
    # degree 3 group, so neither sits on the edge between two cost groups.
    for degree, max_order, max_degree, count in ((2, 2, 2, 19), (3, 4, 3, 14),
                                                 (4, 2, 3, 4), (5, 3, 2, 4)):
        for _ in range(count):
            coeffs = random_coeffs(rng, degree)
            jobs.append(_exact(["scan", f"--coeffs={coeffs}",
                                "--max-order", str(max_order),
                                "--max-degree", str(max_degree)], coeffs))
    return jobs


def _derive_cells(rng: random.Random) -> list[dict]:
    jobs = [
        _exact(["derive", "--poly", text, "--order", str(m), "--degree", str(d)],
               text, reference=reference)
        for text, m, d, reference in (
            ("x", 1, 1, {"catalog": "normal"}),
            ("x^2-1", 1, 1, {"catalog": "centered-chi2"}),
            ("x^3-3x", 5, 2, {"catalog": "h3"}),
            ("x^4-6x^2+3", 3, 2, {"catalog": "h4"}),
            ("x^2+2x+1", 2, 1, {"quadratic": ["1", "2", "1"]}))]
    # every cell of a window per degree, twice, with a fresh P per job; the
    # windows for degrees 2-4 straddle the frontier, so found and
    # infeasible-at-bounds cells both occur; only coefficients vary by seed
    for degree, orders, degrees in ((2, (1, 3), (0, 2)), (3, (2, 5), (1, 4)),
                                    (4, (3, 5), (2, 5)), (5, (2, 4), (2, 5))):
        for _ in range(2):
            for m in range(orders[0], orders[1] + 1):
                for d in range(degrees[0], degrees[1] + 1):
                    coeffs = random_coeffs(rng, degree)
                    jobs.append(_exact(["derive", f"--coeffs={coeffs}", "--order",
                                        str(m), "--degree", str(d)], coeffs))
    return jobs


def _verify_routes(rng: random.Random) -> list[dict]:
    jobs = []
    for key in CATALOG_KEYS:
        for method in VERIFY_METHODS:
            argv = ["verify", "--catalog", key, "--methods", method]
            if method == "mc":
                argv += ["--samples", str(MC_SAMPLES),
                         "--seed", str(rng.randrange(1 << 32))]
            jobs.append(_cli(argv, truth="pass"))
        jobs.append(_lib("mutation_controls", catalog=key))
    for n in range(2, 7):
        jobs.append(_lib("verify_table1_extrema", n=n))
    # the three pairs the test suite pins, two known-red pairs, then seeded
    # integer k >= 2 (see the benchmark README for the failing region)
    pairs = [("1", "1"), ("2", "0.5"), ("4", "3"), ("2.5", "1"), ("1", "2")]
    pairs += [(str(rng.randint(2, 10)), str(rng.randint(0, 32) / 4))
              for _ in range(20)]
    for k, lam in pairs:
        jobs.append(_cli(["noncentral", "--k", k, "--lambda", lam, "--verify"],
                         truth="pass"))
    return jobs


_BUILDERS = {"scan-grid": _scan_grid, "derive-cells": _derive_cells,
             "verify-routes": _verify_routes}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_S[workload]))


def pass_jobs(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The job list of one pass, in execution order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = _rng(workload, seed, pass_index)
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    return jobs
