"""Independent numerical validation of operators along three routes.

Symbolic: exact annihilation on monomials through pushforward moments.
For A = sum_m p_m(x) d^m/dx^m with p_m(x) = sum_d q_(m,d) x^d, the
monomial x^n gives, in closed form,
    E[(A x^n)(W)] = sum_(m <= n) n!/(n-m)! sum_d q_(m,d) mu_(d+n-m),
with mu_k = E[P(Z)^k] the exact pushforward moments: the pairs of
`operators.moment_relation`, which `operators.moment_recursion` solves.
All moments come from one call to `poly.power_table`; no operator is
applied to a polynomial.
`operators.expectation_applied` is the general route for any polynomial f
and gives the same values.
Quadrature: Gauss-Hermite integration of (A f)(P(z)) for smooth
non-polynomial f. Monte Carlo: seeded chunked sampling with a five
standard-error gate, so a correct operator fails a single test with
probability below 1e-6. One Monte Carlo pass serves the whole suite: each
chunk is drawn once, P and the operator's coefficients are evaluated on it
once, in blocks; sums run over the whole chunk, and each function keeps its
own running sums, so every function's estimate is the one a pass of its own
would give. Every route applies the operator through the factored
derivatives of `testfunctions`, so each transcendental factor of a test
function (sin, cos or exp) is evaluated once per point set, not once per
derivative order.

Noncentral chi-square has no polynomial pushforward; its density route
integrates the moments and each (A f) against the density in one pass of
the resolution gate of `noncentral`, and a check passes only when its rule
resolved and it is within tolerance. No route loads scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gaussian import (_BLOCK, _CHUNK, chunk_indices, chunk_normals,
                       gauss_hermite_rule)
from .noncentral import NoncentralParams, resolved_density_integrals
from .operators import DiffOperator, moment_relation
from .poly import Polynomial, power_table
from .testfunctions import TestFunction, default_suite

# Largest n whose Gauss-Hermite rule builds in float64. exp(-z^2/4) underflows
# to 0 beyond z = 54.57; the outermost node is 54.56 at n = 765 and 54.60 at
# n = 766, where the Newton polish divides 0 by 0 and validation fails.
MAX_QUADRATURE_NODES = 765

# Largest Monte Carlo sample count. On a 2-core x86_64 host the h3 route
# draws about 1.6 million samples per second, so 1e9 samples take about ten
# minutes; larger counts would run for hours and are refused up front.
MAX_SAMPLES = 10 ** 9


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
    """Exact E[(A x^n)(W)] for n = 0..max_degree; pass only on exact zeros.

    Each residual is the closed form of the module docstring, read off one
    table of pushforward moments.
    """
    relations = [moment_relation(op, n) for n in range(max_degree + 1)]
    mus = power_table(P, max((i for rel in relations for i, _ in rel), default=0))[2]
    checks = []
    for n, relation in enumerate(relations):
        residual = sum((c * mus[i] for i, c in relation), Fraction(0))
        try:
            value = float(residual)
        except OverflowError:
            raise ValueError(
                f"residual of monomial({n}) is beyond float range") from None
        checks.append(CheckResult(
            name=f"monomial({n})", residual=value, tolerance=0.0,
            passed=(residual == 0), params={"degree": n}))
    return VerificationReport(method="symbolic", checks=tuple(checks))


def _coefficient_values(op: DiffOperator, w: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(order, coefficient polynomial at w) for each nonzero coefficient."""
    return [(m, pm.eval_float(w)) for m, pm in enumerate(op.coefficients)
            if not pm.is_zero]


def _applied(coefficients: list[tuple[int, np.ndarray]], f: TestFunction,
             w: np.ndarray) -> np.ndarray:
    """(A f) at w from its coefficient values: for each transcendental factor
    g of f, the values p_m(w) c_m(w) of the orders m whose derivative
    carries g are summed first, so each g is evaluated once on w."""
    factored = f.factored(w, max((m for m, _ in coefficients), default=0))
    sums: dict[int, np.ndarray] = {}
    for m, values in coefficients:
        index, c = factored[m]
        sums[index] = sums[index] + values * c if index in sums else values * c
    total = 0.0
    for index, partial in sums.items():
        total = total + partial * f.factor(w, index)
    return total


def operator_values(op: DiffOperator, f: TestFunction, w: np.ndarray) -> np.ndarray:
    """(A f) evaluated at the points w."""
    return _applied(_coefficient_values(op, w), f, w)


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
    z, wts = gauss_hermite_rule(nodes)
    w = P.eval_float(z)
    checks = []
    for f in suite:
        residual = float(np.dot(wts, operator_values(op, f, w)))
        checks.append(CheckResult(
            name=f.name, residual=residual, tolerance=tol,
            passed=abs(residual) <= tol, params={"nodes": nodes}))
    return VerificationReport(method="quadrature", checks=tuple(checks))


def verify_monte_carlo(op: DiffOperator, P: Polynomial,
                       suite: Sequence[TestFunction] = (),
                       samples: int = 1_000_000, seed: int = 0) -> VerificationReport:
    """Seeded Monte Carlo estimate of E[(A f)(W)] per suite function, each
    behind a 5-standard-error gate.

    Sampling is chunked by (seed, chunk index), so the estimate is identical
    regardless of chunking. Each chunk is drawn once and the operator's
    coefficients are evaluated on it once, block by block of gaussian._BLOCK
    samples into one value buffer, so no temporary grows with the chunk.
    Sums run over each whole buffered row, so they are those of a whole-chunk
    evaluation; every suite function keeps its own running sums, added chunk
    by chunk in the same order.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    if samples > MAX_SAMPLES:
        raise ValueError(f"at most {MAX_SAMPLES:.0e} Monte Carlo samples")
    suite = tuple(suite) or default_suite()
    totals = [0.0] * len(suite)
    totals_sq = [0.0] * len(suite)
    values = np.empty((len(suite), _CHUNK))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for idx in chunk_indices(samples):
            z = chunk_normals(seed, idx, samples)
            size = len(z)
            for start in range(0, size, _BLOCK):
                w = P.eval_float(z[start:start + _BLOCK])
                coefficients = _coefficient_values(op, w)
                for i, f in enumerate(suite):
                    values[i, start:start + len(w)] = _applied(coefficients, f, w)
            del z
            for i, vals in enumerate(values[:, :size]):
                totals[i] += float(vals.sum())
                totals_sq[i] += float(np.dot(vals, vals))
    checks = []
    for f, total, total_sq in zip(suite, totals, totals_sq):
        mean = total / samples
        variance = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
        se = float(np.sqrt(variance / samples))
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise ValueError(
                f"Monte Carlo sums of {f.name} are beyond float range")
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

    The zero operator annihilates every f and an empty method list checks
    nothing, so a pass for either would certify nothing; both are refused
    before any route runs, as are an unknown method name and a coefficient
    of the operator or of P beyond float range, which the float routes
    cannot evaluate.
    """
    if op.is_zero:
        raise ValueError("the zero operator annihilates everything; nothing to verify")
    named = [(f"operator coefficient of x^{d} f^({m})", c)
             for m, pm in enumerate(op.coefficients) for d, c in enumerate(pm.coeffs)]
    named += [(f"coefficient of x^{d} in P", c) for d, c in enumerate(P.coeffs)]
    for name, c in named:
        try:
            float(c)
        except OverflowError:
            raise ValueError(f"{name} is beyond float range") from None
    if not methods:
        raise ValueError("no verification method given; nothing to verify")
    for method in methods:
        if method not in ("symbolic", "quadrature", "mc", "monte-carlo"):
            raise ValueError(f"unknown verification method {method!r}")
    suite = tuple(suite) or default_suite()
    reports = []
    for method in methods:
        if method == "symbolic":
            reports.append(verify_symbolic(op, P, max_degree))
        elif method == "quadrature":
            reports.append(verify_quadrature(op, P, suite, nodes, tol))
        else:
            reports.append(verify_monte_carlo(op, P, suite, samples, seed))
    return reports


@dataclass(frozen=True)
class DensityReport:
    moments: dict[str, float]
    operator_report: VerificationReport
    passed: bool

    def to_dict(self) -> dict:
        return self.moments | {"operator_report": self.operator_report.to_dict()}


def verify_noncentral_operator(op: DiffOperator, params: NoncentralParams,
                               suite: Sequence[TestFunction] = (),
                               tol: float = 1e-8) -> DensityReport:
    """Normalization (tolerance 1e-10), mean and variance (1e-8) against
    their exact values, the variance about the exact mean so that no
    integral depends on another, and E[(A f)(X)] against 0 (tolerance tol),
    in one resolved_density_integrals pass over (0, cutoff). A leg passes
    only when it resolved; operator checks record cutoff, panels, resolved.
    """
    suite = tuple(suite) or default_suite()
    moments = ("normalization", "mean", "variance")
    legs = [(lambda x: 1.0, 1.0, 1e-10), (lambda x: x, params.mean, 1e-8),
            (lambda x: (x - params.mean) ** 2, params.variance, 1e-8)]
    legs += [(lambda x, f=f: operator_values(op, f, x), 0.0, tol) for f in suite]
    results = resolved_density_integrals(params, [(h, t) for h, _, t in legs])
    passed = [r.resolved and abs(r.value - exact) <= t
              for r, (_, exact, t) in zip(results, legs)]
    report = VerificationReport(method="density", checks=tuple(
        CheckResult(name=f.name, residual=r.value, tolerance=tol, passed=ok,
                    params={"k": params.k, "lambda": params.lam,
                            "cutoff": params.density_cutoff(),
                            "panels": r.panels, "resolved": r.resolved})
        for f, r, ok in zip(suite, results[len(moments):], passed[len(moments):])))
    return DensityReport({name: r.value for name, r in zip(moments, results)},
                         report, all(passed))


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
