"""Correctness checks for every job output.

A job fails when it raises, exits 64 or 70, or its output fails its check:

* derive / scan / conjecture: stdout must equal the golden payload where
  one was captured; every found result must replay its certificate exactly
  (`verify_certificate`) and annihilate monomials to degree 30
  (`verify_symbolic`); catalog reproductions must be proportional to the
  catalog operator; scan grids must be complete, form an up-set, name the
  first found cell as minimal, and hit the roadmap's frontier cells.
* verify / noncentral / mutation controls / extrema: the verdict must match
  the truth. Catalog operators are true, so the correct verdict is pass;
  +1-coefficient mutants are false, so each must be detected.

KNOWN_RED lists the verdicts that are wrong at the seed commit for a
documented reason. They still count as failed; they only do not make the run
incorrect, so that any other failure does.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from steinforge.catalog import catalog, quadratic_operator
from steinforge.derivation import (Certificate, DerivationResult, SearchBounds,
                                   verify_certificate)
from steinforge.operators import DiffOperator, proportional_eq
from steinforge.poly import Polynomial
from steinforge.verify import verify_symbolic

SYMBOLIC_DEGREE = 30

KNOWN_RED = {
    "verify --catalog h3 --methods quadrature":
        "201-node Gauss-Hermite rule aliases sine(1) under H3 (residual 443)",
    "verify --catalog h4 --methods quadrature":
        "201-node Gauss-Hermite rule cannot resolve sine(1), cosine(0.5) and "
        "gaussian-bump under H4 (residuals 217, 194, 41)",
    "noncentral --k 2.5 --lambda 1 --verify":
        "density quadrature misses 1e-8 at non-integer k (sine(1) residual 1.8e-7)",
    "noncentral --k 1 --lambda 2 --verify":
        "density quadrature misses 1e-8 for k < 2, lambda >= 2, where the "
        "density is unbounded at 0 (sine(1) residual 4.2e-4)",
}

OK, FAILED, KNOWN = "ok", "failed", "known-red"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CheckError(Exception):
    """The output is wrong in a way no verdict explains."""


class VerdictMismatch(Exception):
    """The program's verdict differs from the truth."""



def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _bits(q: Fraction) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


class Checker:
    """Checks job outcomes; found results are verified once per payload."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self._verified: dict[str, str | None] = {}
        self.certificate_terms: list[int] = []
        self.coeff_bits: list[int] = []

    def check(self, job: dict, outcome: dict) -> tuple[str, str]:
        """Return (OK | FAILED | KNOWN, reason) for one job outcome."""
        if "error" in outcome:
            return FAILED, f"raised {outcome['error']}"
        try:
            if job["kind"] == "lib":
                self._check_lib(job, outcome["value"])
            else:
                self._check_cli(job, outcome["rc"], outcome["stdout"])
        except CheckError as exc:
            return FAILED, str(exc)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            return FAILED, f"malformed output: {exc!r}"
        except VerdictMismatch as exc:
            if job["key"] in KNOWN_RED:
                return KNOWN, KNOWN_RED[job["key"]]
            return FAILED, str(exc)
        return OK, ""

    # -- CLI jobs -------------------------------------------------------------

    def _check_cli(self, job: dict, rc: int, stdout: str) -> None:
        _require(rc not in (64, 70), f"exit {rc}")
        expected = self.golden.get(job["key"])
        if expected is not None:
            _require(sha256(stdout) == expected, "stdout differs from golden")
        payload = json.loads(stdout)
        command = job["argv"][0]
        if command == "derive":
            self._check_derive(job, rc, payload)
        elif command == "scan":
            self._check_scan(job, rc, payload)
        elif command == "conjecture":
            self._check_scan(job, rc, payload["scan"])
        elif command in ("verify", "noncentral"):
            _require(rc in (0, 1), f"exit {rc}")
            _require(payload["pass"] == (rc == 0), "verdict disagrees with exit code")
            verdict = "pass" if payload["pass"] else "fail"
            if verdict != job["truth"]:
                raise VerdictMismatch(f"verdict {verdict}, truth {job['truth']}")
        else:
            raise CheckError(f"no check for command {command!r}")

    def _check_derive(self, job: dict, rc: int, payload: dict) -> None:
        argv = job["argv"]
        order = int(argv[argv.index("--order") + 1])
        degree = int(argv[argv.index("--degree") + 1])
        _require(payload["poly"] == job["poly"], "payload echoes another polynomial")
        _require(payload["bounds"]["M"] == order and payload["bounds"]["D"] == degree,
                 "payload bounds differ from the requested cell")
        status = payload["status"]
        if status == "infeasible-at-bounds":
            _require(rc == 2, f"infeasible with exit {rc}")
            _require(payload["operator"] is None, "infeasible result has an operator")
            _require("reference" not in job, "catalog reproduction not found")
            return
        _require(status == "found" and rc == 0, f"status {status!r} with exit {rc}")
        op = self.check_found(payload)
        reference = job.get("reference")
        if reference:
            if "catalog" in reference:
                ref_op = catalog(reference["catalog"]).operator
            else:
                ref_op = quadratic_operator(*reference["quadratic"])
            _require(proportional_eq(op, ref_op)[0],
                     "operator is not proportional to the catalog operator")

    def _check_scan(self, job: dict, rc: int, scan: dict) -> None:
        _require(scan["poly"] == job["poly"], "payload echoes another polynomial")
        max_order, max_degree = scan["max_order"], scan["max_coeff_degree"]
        grid = {(c["order"], c["degree"]): c["status"] for c in scan["grid"]}
        cells = [(m, d) for m in range(max_order + 1) for d in range(max_degree + 1)]
        _require(sorted(grid) == cells and len(scan["grid"]) == len(cells),
                 "grid does not cover the requested cells exactly")
        _require(set(grid.values()) <= {"found", "infeasible-at-bounds"},
                 "unknown cell status")
        for (m, d), status in grid.items():
            if status == "found":
                for up in ((m + 1, d), (m, d + 1)):
                    _require(grid.get(up, "found") == "found",
                             f"found cells are not an up-set at {up}")
        first = next((list(c) for c in cells if grid[c] == "found"), None)
        _require(scan["minimal"] == first, "minimal is not the first found cell")
        if "expect_minimal" in job:
            _require(first == job["expect_minimal"],
                     f"minimal {first} differs from frontier {job['expect_minimal']}")
        _require(rc == (0 if first else 2), f"exit {rc} for minimal {first}")
        if first is None:
            _require(scan["result"] is None, "result without a minimal cell")
            return
        result = scan["result"]
        _require(result["status"] == "found" and
                 [result["bounds"]["M"], result["bounds"]["D"]] == first,
                 "result is not the minimal cell's")
        op = self.check_found(result)
        _require(scan["leading_coefficient"] == op.to_dict()["coefficients"][-1],
                 "leading coefficient differs from the operator's")

    # -- found results --------------------------------------------------------

    def check_found(self, result: dict) -> DiffOperator:
        """Replay the certificate and verify symbolically; raises CheckError."""
        P = Polynomial.from_strings(result["poly"])
        op = DiffOperator.from_dict(result["operator"])
        multipliers = {(m["k"], m["j"]): Fraction(m["value"])
                       for m in result["certificate"]["multipliers"]}
        self.certificate_terms.append(len(multipliers))
        self.coeff_bits.append(max(
            [_bits(v) for v in multipliers.values()] +
            [_bits(c) for p in op.coefficients for c in p.coeffs]))
        key = sha256(json.dumps(result, sort_keys=True))
        if key not in self._verified:
            self._verified[key] = self._verify(result, P, op, multipliers)
        if self._verified[key]:
            raise CheckError(self._verified[key])
        return op

    @staticmethod
    def _verify(result: dict, P: Polynomial, op: DiffOperator,
                multipliers: dict) -> str | None:
        b = result["bounds"]
        if op.is_zero or op.order > b["M"] or any(
                p.degree > b["D"] for p in op.coefficients):
            return "operator outside its bounds"
        derivation = DerivationResult(
            status="found", poly=P,
            bounds_used=SearchBounds(b["M"], b["D"], b["I"], b["J"]),
            operator=op, certificate=Certificate(multipliers))
        if not verify_certificate(derivation, P):
            return "certificate does not replay"
        if not verify_symbolic(op, P, SYMBOLIC_DEGREE).passed:
            return f"operator fails symbolic annihilation to degree {SYMBOLIC_DEGREE}"
        return None

    # -- library jobs ---------------------------------------------------------

    def _check_lib(self, job: dict, value) -> None:
        call = job["call"]
        if call == "mutation_controls":
            _require(len(value) > 0, "no mutants")
            missed = [(m, d) for m, d, detected in value if not detected]
            if missed:
                raise VerdictMismatch(f"mutants {missed} verdict pass, truth fail")
        elif call == "verify_table1_extrema":
            if not value.passed:
                raise VerdictMismatch("extrema verdict fail, truth pass")
        else:
            raise CheckError(f"no check for call {call!r}")


def check_records(golden: dict[str, str], pairs: list[tuple[dict, dict]]):
    """Check (job, outcome) pairs; returns the verdicts and, per found
    result, its certificate size and largest coefficient in bits."""
    checker = Checker(golden)
    verdicts = [checker.check(job, outcome) for job, outcome in pairs]
    return verdicts, checker.certificate_terms, checker.coeff_bits
