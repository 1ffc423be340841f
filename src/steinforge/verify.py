"""Independent numerical validation of operators along three routes.

Symbolic: exact annihilation on monomials through pushforward moments.
Quadrature: Gauss-Hermite integration of (A f)(P(z)) for smooth
non-polynomial f. Monte Carlo: seeded chunked sampling with a five
standard-error gate, so a correct operator fails a single test with
probability below 1e-6. One Monte Carlo pass serves the whole suite: each
chunk is drawn once, P and the operator's coefficients are evaluated on it
once, and each function keeps its own running sums, so every function's
estimate is the one a pass of its own would give.

Noncentral chi-square has no polynomial pushforward; its density route
integrates (A f) against the density by the composite rule of `noncentral`
behind its resolution gate, and a check passes only when the rule
resolved and the residual is within tolerance. Only that route touches
scipy.special; scipy.integrate is not used.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .gaussian import QuadratureRule, chunk_indices, chunk_normals, gauss_hermite_rule
from .noncentral import (NoncentralParams, density_integral,
                         resolved_density_integral, sample_noncentral)
from .operators import DiffOperator, expectation_applied
from .poly import Polynomial
from .testfunctions import TestFunction, default_suite, monomial

Target = Union[Polynomial, NoncentralParams]

# Largest n whose Gauss-Hermite rule builds in float64. exp(-z^2/4) underflows
# to 0 beyond z = 54.57; the outermost node is 54.56 at n = 765 and 54.60 at
# n = 766, where the Newton polish divides 0 by 0 and validation fails.
MAX_QUADRATURE_NODES = 765


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "residual": self.residual,
                "tolerance": self.tolerance, "pass": self.passed,
                "params": self.params}


@dataclass(frozen=True)
class VerificationReport:
    method: str  # symbolic | quadrature | monte-carlo | density
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"method": self.method,
                "tests": [c.to_dict() for c in self.checks],
                "pass": self.passed}


def verify_symbolic(op: DiffOperator, P: Polynomial,
                    max_degree: int = 30) -> VerificationReport:
    """Exact E[(A x^n)(W)] for n = 0..max_degree; pass only on exact zeros."""
    checks = []
    for n in range(max_degree + 1):
        residual = expectation_applied(op, P, Polynomial.monomial(n))
        checks.append(CheckResult(
            name=f"monomial({n})", residual=float(residual), tolerance=0.0,
            passed=(residual == 0), params={"degree": n}))
    return VerificationReport(method="symbolic", checks=tuple(checks))


def _coefficient_values(op: DiffOperator, w: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(order, coefficient polynomial at w) for each nonzero coefficient."""
    return [(m, pm.eval_float(w)) for m, pm in enumerate(op.coefficients)
            if not pm.is_zero]


def _applied(coefficients: list[tuple[int, np.ndarray]], f: TestFunction,
             w: np.ndarray) -> np.ndarray:
    total = 0.0
    for m, values in coefficients:
        total = total + values * f.derivative(w, m)
    return total


def operator_values(op: DiffOperator, f: TestFunction, w: np.ndarray) -> np.ndarray:
    """(A f) evaluated at the points w."""
    return _applied(_coefficient_values(op, w), f, w)


def target_expectation(target: Target, h: TestFunction,
                       rule: Optional[QuadratureRule] = None) -> float:
    """Quadrature estimate of E[h(W)] for W = P(Z) or W noncentral chi-square."""
    if isinstance(target, Polynomial):
        if rule is None:
            rule = gauss_hermite_rule(201)
        z, wts = rule.arrays()
        return float(np.dot(wts, h(target.eval_float(z))))
    return density_integral(target, h)


def verify_quadrature(op: DiffOperator, P: Polynomial,
                      suite: Sequence[TestFunction] = (),
                      nodes: int = 201, tol: float = 1e-8) -> VerificationReport:
    """Residual sum(w_i * (A f)(P(z_i))) per suite function."""
    if nodes < 50:
        raise ValueError("need at least 50 quadrature nodes")
    if nodes > MAX_QUADRATURE_NODES:
        raise ValueError(
            f"at most {MAX_QUADRATURE_NODES} quadrature nodes build in float64")
    suite = tuple(suite) or default_suite()
    for f in suite:
        f.derivative(0.0, op.order)  # raises when the order is unavailable
    rule = gauss_hermite_rule(nodes)
    z, wts = rule.arrays()
    w = P.eval_float(z)
    checks = []
    for f in suite:
        residual = float(np.dot(wts, operator_values(op, f, w)))
        checks.append(CheckResult(
            name=f.name, residual=residual, tolerance=tol,
            passed=abs(residual) <= tol, params={"nodes": nodes}))
    return VerificationReport(method="quadrature", checks=tuple(checks))


def verify_monte_carlo(op: DiffOperator, target: Target,
                       suite: Sequence[TestFunction] = (),
                       samples: int = 1_000_000, seed: int = 0) -> VerificationReport:
    """Seeded Monte Carlo estimate of E[(A f)(W)] per suite function, each
    behind a 5-standard-error gate.

    Sampling is chunked by (seed, chunk index), so the estimate is identical
    regardless of chunking or threading. Each chunk is drawn once and the
    operator's coefficients are evaluated on it once; every suite function
    keeps its own running sums, added chunk by chunk in the same order.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    suite = tuple(suite) or default_suite()
    if isinstance(target, Polynomial):
        draws = (target.eval_float(chunk_normals(seed, idx, samples))
                 for idx in chunk_indices(samples))
    else:
        draws = (x for _, x in sample_noncentral(target, seed, samples))
    totals = [0.0] * len(suite)
    totals_sq = [0.0] * len(suite)
    for w in draws:
        coefficients = _coefficient_values(op, w)
        for i, f in enumerate(suite):
            vals = _applied(coefficients, f, w)
            totals[i] += float(vals.sum())
            totals_sq[i] += float(np.dot(vals, vals))
    checks = []
    for f, total, total_sq in zip(suite, totals, totals_sq):
        mean = total / samples
        variance = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
        se = float(np.sqrt(variance / samples))
        checks.append(CheckResult(
            name=f.name, residual=mean, tolerance=5.0 * se,
            passed=abs(mean) <= 5.0 * se,
            params={"samples": samples, "seed": seed, "standard_error": se}))
    return VerificationReport(method="monte-carlo", checks=tuple(checks))


def verify_all(op: DiffOperator, P: Polynomial,
               suite: Sequence[TestFunction] = (),
               methods: Sequence[str] = ("symbolic", "quadrature", "monte-carlo"),
               max_degree: int = 30, nodes: int = 201, tol: float = 1e-8,
               samples: int = 1_000_000, seed: int = 0) -> list[VerificationReport]:
    """Run the requested verification routes against one operator.

    The zero operator annihilates every f, so a pass for it would certify
    nothing; it is refused before any route runs.
    """
    if op.is_zero:
        raise ValueError("the zero operator annihilates everything; nothing to verify")
    suite = tuple(suite) or default_suite()
    reports = []
    for method in methods:
        if method == "symbolic":
            reports.append(verify_symbolic(op, P, max_degree))
        elif method == "quadrature":
            reports.append(verify_quadrature(op, P, suite, nodes, tol))
        elif method in ("mc", "monte-carlo"):
            reports.append(verify_monte_carlo(op, P, suite, samples, seed))
        else:
            raise ValueError(f"unknown verification method {method!r}")
    return reports


def verify_noncentral_operator(params: NoncentralParams,
                               suite: Sequence[TestFunction] = (),
                               tol: float = 1e-8) -> VerificationReport:
    """Integrate (A f)(x) against the noncentral chi-square density.

    The operator is the second-order one for (k, lam). Each residual is a
    resolved_density_integral over (0, cutoff), the exponentially small tail
    neglected; a check passes only when its rule resolved and the residual
    is within tol. The cutoff, the final panel count and whether the gate
    resolved are recorded in each check.
    """
    from .catalog import noncentral_chi2_operator
    op = noncentral_chi2_operator(params.k, params.lam)
    suite = tuple(suite) or default_suite()
    cutoff = params.density_cutoff()
    checks = []
    for f in suite:
        f.derivative(0.0, op.order)
        result = resolved_density_integral(
            params, lambda x, f=f: operator_values(op, f, x), tol)
        checks.append(CheckResult(
            name=f.name, residual=result.value, tolerance=tol,
            passed=result.resolved and abs(result.value) <= tol,
            params={"k": params.k, "lambda": params.lam, "cutoff": cutoff,
                    "panels": result.panels, "resolved": result.resolved}))
    return VerificationReport(method="density", checks=tuple(checks))


def mutation_controls(op: DiffOperator, P: Polynomial,
                      suite: Sequence[TestFunction] = (),
                      nodes: int = 201, tol: float = 1e-8) -> list[tuple[int, int, bool]]:
    """Bump each stored coefficient by +1 and record whether quadrature fails.

    Returns (order, degree, detected) triples; detected means at least one
    suite function exceeded tolerance. A detection means something only on a
    leg that the unmutated operator passes: where the rule already fails the
    operator itself, every mutant fails there too. With the default 201-node
    rule and suite, 8 of the 13 h3 mutants and all 10 h4 mutants are detected
    only on such legs (h3 fails sine(1); h4 fails all three), so read these
    verdicts next to the unmutated operator's verify_quadrature report.
    """
    suite = tuple(suite) or default_suite()
    results = []
    for m, pm in enumerate(op.coefficients):
        width = max(pm.degree + 1, 1)
        for d in range(width):
            bumped = list(pm.coeffs) + [0] * (d + 1 - len(pm.coeffs))
            bumped[d] += 1
            rows = [list(p.coeffs) for p in op.coefficients]
            rows[m] = bumped
            mutant = DiffOperator.from_rows(rows)
            report = verify_quadrature(mutant, P, suite, nodes, tol)
            results.append((m, d, not report.passed))
    return results
