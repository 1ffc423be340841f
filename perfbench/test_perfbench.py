"""Tests of the benchmark itself: determinism, checker negative controls,
tracer mechanics and metric bookkeeping.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import steinforge  # noqa: E402
import steinforge.cli  # noqa: E402
from checker import FAILED, KNOWN, KNOWN_RED, OK, Checker, sha256  # noqa: E402
from run import END_TO_END, PER_LAYER, scipy_import_s, tail_percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_cli  # noqa: E402
from workloads import WORKLOADS, pass_jobs  # noqa: E402

H3_JOB = next(j for j in pass_jobs("derive-cells", 0, 0)
              if j["key"] == "derive --poly x^3-3x --order 5 --degree 2")


@pytest.fixture(scope="module")
def h3_outcome():
    return run_cli(H3_JOB["argv"])


def _with_payload(outcome: dict, edit) -> dict:
    payload = json.loads(outcome["stdout"])
    edit(payload)
    return {"rc": outcome["rc"], "stdout": json.dumps(payload, indent=2) + "\n"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert pass_jobs(workload, 7, 0) == pass_jobs(workload, 7, 0)
    assert pass_jobs(workload, 7, 0) != pass_jobs(workload, 8, 0)
    assert pass_jobs(workload, 7, 0) != pass_jobs(workload, 7, 1)


def test_known_red_verdicts_stay_in_the_mix():
    keys = {j["key"] for j in pass_jobs("verify-routes", 3, 0)}
    assert set(KNOWN_RED) <= keys


def test_true_derivation_passes(h3_outcome):
    assert Checker({}).check(H3_JOB, h3_outcome) == (OK, "")


def test_corrupted_multiplier_fails(h3_outcome):
    def corrupt(payload):
        cell = payload["certificate"]["multipliers"][0]
        cell["value"] = str(int(cell["value"].split("/")[0]) + 1)
    verdict, why = Checker({}).check(H3_JOB, _with_payload(h3_outcome, corrupt))
    assert verdict == FAILED and "certificate" in why


def test_mutant_operator_fails(h3_outcome):
    def mutate(payload):
        row = payload["operator"]["coefficients"][0]
        row[0] = str(int(row[0]) + 1)
    verdict, _ = Checker({}).check(H3_JOB, _with_payload(h3_outcome, mutate))
    assert verdict == FAILED


def test_golden_mismatch_fails(h3_outcome):
    checker = Checker({H3_JOB["key"]: sha256("something else")})
    assert checker.check(H3_JOB, h3_outcome)[0] == FAILED
    checker = Checker({H3_JOB["key"]: sha256(h3_outcome["stdout"])})
    assert checker.check(H3_JOB, h3_outcome)[0] == OK


def test_undetected_mutant_fails():
    job = {"kind": "lib", "call": "mutation_controls", "key": "mutation_controls(x)"}
    assert Checker({}).check(job, {"value": [(0, 0, True), (0, 1, True)]})[0] == OK
    assert Checker({}).check(job, {"value": [(0, 0, True), (0, 1, False)]})[0] == FAILED


def test_wrong_verdict_fails_unless_known_red():
    stdout = json.dumps({"pass": False}) + "\n"
    known = {"kind": "cli", "argv": ["verify"], "truth": "pass",
             "key": next(iter(KNOWN_RED))}
    other = dict(known, key="verify --catalog normal --methods quadrature")
    assert Checker({}).check(known, {"rc": 1, "stdout": stdout})[0] == KNOWN
    assert Checker({}).check(other, {"rc": 1, "stdout": stdout})[0] == FAILED
    assert Checker({}).check(other, {"rc": 64, "stdout": ""})[0] == FAILED
    assert Checker({}).check(other, {"error": "ValueError()"})[0] == FAILED


def test_scan_frontier_and_upset_checked():
    job = next(j for j in pass_jobs("scan-grid", 0, 0)
               if j["key"] == "scan --poly x^4-6x^2+3 --max-order 3 --max-degree 3")
    outcome = run_cli(job["argv"])
    assert Checker({}).check(job, outcome)[0] == OK

    def drop_found(payload):
        for cell in payload["grid"]:
            if cell["order"] == 3 and cell["degree"] == 3:
                cell["status"] = "infeasible-at-bounds"
    assert Checker({}).check(job, _with_payload(outcome, drop_found))[0] == FAILED
    moved = dict(job, expect_minimal=[3, 2])
    assert Checker({}).check(moved, outcome)[0] == FAILED


def test_tracer_wraps_every_binding():
    gaussian = sys.modules["steinforge.gaussian"]
    verify = sys.modules["steinforge.verify"]
    derivation = sys.modules["steinforge.derivation"]
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.gauss_hermite_rule is gaussian.gauss_hermite_rule
        assert hasattr(verify.gauss_hermite_rule, "__wrapped__")
        assert steinforge.cli.derive_operator is derivation.derive_operator
        assert hasattr(steinforge.cli.derive_operator, "__wrapped__")
        tracer.active = True
        tracer.run_job(0, run_cli, ["derive", "--poly", "x", "--order", "1",
                                     "--degree", "1"])
        tracer.run_job(1, verify.verify_quadrature,
                       steinforge.catalog("normal").operator, steinforge.Polynomial.x())
        tracer.active = False
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert not hasattr(verify.gauss_hermite_rule, "__wrapped__")
    assert summary["derivation.derive_operator"]["calls"] == 1
    assert summary["gaussian.gauss_hermite_rule"]["calls"] == 1
    assert summary["terms.ExpectationVector.init"]["calls"] > 0
    assert tracer.found == 1
    main = summary["cli.main"]
    assert 0 < main["self_s"] < main["busy_s"]


def test_tracer_reports_absent_targets():
    tracer = Tracer(targets=(("gaussian", "no_such_function", "span"),
                             ("nosuchmodule", "f", "span")))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["gaussian.no_such_function", "nosuchmodule.f"]
    assert tracer.summary()["gaussian.no_such_function"]["calls"] == 0


def test_self_time_from_parent_ids():
    tracer = Tracer(targets=(("x", "outer", "span"), ("x", "inner", "span")))
    tracer.spans = [(1, 0, 0, "job", 0.0, 10.0), (2, 1, 0, "x.outer", 1.0, 9.0),
                    (3, 2, 0, "x.inner", 2.0, 5.0), (4, 2, 0, "x.inner", 6.0, 7.0),
                    (5, 4, 0, "x.inner", 6.2, 6.8)]
    summary = tracer.summary()
    assert summary["x.outer"]["self_s"] == pytest.approx(4.0)
    assert summary["x.inner"]["busy_s"] == pytest.approx(4.0)  # nested call once
    assert summary["x.inner"]["self_s"] == pytest.approx(3.0 + 0.4 + 0.6)


def test_scipy_share_of_importtime():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:       400 |        450 |     scipy.linalg",
        "import time:        10 |        760 |   steinforge.gaussian",
        "import time:        30 |       1000 | steinforge",
    ])
    assert scipy_import_s(log) == pytest.approx(750e-6)


def test_tail_percentile_has_ten_samples_above():
    assert tail_percentile(46) == 75
    assert tail_percentile(100) == 90
    for workload in WORKLOADS:
        k = len(pass_jobs(workload, 0, 0))
        assert k * (100 - tail_percentile(k)) >= 1000


def test_benchmark_json_matches_reported_metrics():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
