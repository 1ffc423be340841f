"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Each criterion asserts what the engine certifies: exact annihilation
and certificate replay, the order/degree frontier the exact scans find, and
numerical residuals on an integrator that resolves the integrand. A fixed
201-node Gauss-Hermite rule cannot resolve f(P(z)) for cubic and higher
pushforwards, so numerical legs are checked against a composite
Gauss-Legendre reference that is validated against exact moments and shown
converged by doubling its panels; the 201-node route is asserted on the legs
its rule provably resolves and its error is reported on the others. Every
mended criterion carries a negative control showing that it can fail. The
README's "Acceptance suite" section carries the analysis.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from steinforge.catalog import (catalog, quadratic_operator,
                                verify_table1_extrema)
from steinforge.derivation import (derive_operator, ibp_identity, minimal_scan,
                                   verify_certificate)
from steinforge.gaussian import gauss_hermite_rule
from steinforge.noncentral import NoncentralParams, density_integral, noncentral_pdf
from steinforge.operators import DiffOperator, moment_recursion, proportional_eq
from steinforge.poly import Polynomial, gaussian_moment, hermite, pushforward_moment
from steinforge.terms import ExpectationVector
from steinforge.testfunctions import cosine, gaussian_bump, sine
from steinforge.verify import (verify_monte_carlo, verify_noncentral_operator,
                               verify_quadrature, verify_symbolic)

H3 = hermite(3)
H4 = hermite(4)
SUITE = (sine(1.0), cosine(0.5), gaussian_bump())
NONCENTRAL_PAIRS = [(1.0, 1.0), (2.0, 0.5), (4.0, 3.0)]
TOL = 1e-8


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- resolved reference integrator ---------------------------------------------
#
# A fixed Gauss-Hermite rule samples f(P(z)) at fixed nodes; once |P'| is large
# in the Gaussian bulk the integrand oscillates between nodes and adding nodes
# does not converge. The reference is 16-point Gauss-Legendre on equal panels
# of [-12, 12] against the Gaussian density: its resolution grows with the
# panel count, and the mass beyond |z| = 12 is below 1e-32, which leaves
# integrands of polynomial degree <= 36 in z accurate to about 1e-13.

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
HALF_WIDTH = 12.0
PANELS = 20_000
EPS = float(np.finfo(float).eps)
MAX_Z_DEGREE = 36


def reference_rule(panels: int, chunk: int = 1_000):
    """Nodes and Gaussian-density weights of the reference rule, `chunk`
    panels at a time, so that no array grows with the panel count."""
    h = 2 * HALF_WIDTH / panels
    for start in range(0, panels, chunk):
        left = -HALF_WIDTH + h * np.arange(start, min(start + chunk, panels))
        z = (left[:, None] + 0.5 * h * (1.0 + GL_NODES)).ravel()
        w = np.tile(0.5 * h * GL_WEIGHTS, len(left)) \
            * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        yield z, w


def validate_reference(panels: int, polys) -> None:
    """Check the reference rule against exact E[Z^k] for k <= 36 and exact
    E[P(Z)^d] for deg(P) * d <= 36, relative to sum(w |integrand|), at the
    same 1e-12 that _validate_rule applies to Gauss-Hermite rules."""
    powers = [(None, MAX_Z_DEGREE)] + [(P, MAX_Z_DEGREE // P.degree)
                                       for P in polys]
    got = [np.zeros(top + 1) for _, top in powers]
    magnitude = [np.zeros(top + 1) for _, top in powers]
    for z, w in reference_rule(panels):
        for (P, top), g, mag in zip(powers, got, magnitude):
            base = z if P is None else P.eval_float(z)
            values = w
            for k in range(top + 1):
                g[k] += values.sum()
                mag[k] += np.abs(values).sum()
                values = values * base
    for (P, top), g, mag in zip(powers, got, magnitude):
        for k in range(top + 1):
            exact = float(gaussian_moment(k) if P is None
                          else pushforward_moment(P, k))
            assert abs(g[k] - exact) <= 1e-12 * mag[k], \
                (f"reference rule at {panels} panels: E[({P or 'z'})^{k}] "
                 f"= {g[k]!r}, exact {exact!r}")


def operator_sums(rule, P: Polynomial, ops):
    """sum(w (A f)(P(z))) and sum(w |(A f)(P(z))|) over a rule given as
    (nodes, weights) chunks, indexed [operator, SUITE function]."""
    residual = np.zeros((len(ops), len(SUITE)))
    scale = np.zeros_like(residual)
    order = max(op.order for op in ops)
    for z, w in rule:
        W = P.eval_float(z)
        derivatives = [[f.derivative(W, m) for m in range(order + 1)]
                       for f in SUITE]
        for i, op in enumerate(ops):
            terms = [(m, p.eval_float(W)) for m, p in enumerate(op.coefficients)
                     if not p.is_zero]
            for j, fm in enumerate(derivatives):
                values = sum(c * fm[m] for m, c in terms)
                residual[i, j] += float(np.dot(w, values))
                scale[i, j] += float(np.dot(w, np.abs(values)))
    return residual, scale


def test_criterion_1_catalog_fidelity():
    start = time.monotonic()
    targets = [
        ("normal", catalog("normal").operator, Polynomial([0, 1])),
        ("centered-chi2", catalog("centered-chi2").operator,
         Polynomial([-1, 0, 1])),
        ("h3", catalog("h3").operator, H3),
        ("h4", catalog("h4").operator, H4),
    ]
    for a, b, c in [(1, 0, 0), (1, 2, 1), (1, -3, 0)]:
        targets.append((f"quadratic({a},{b},{c})", quadratic_operator(a, b, c),
                        Polynomial([c, b, a])))
    # noncentral entries carry no pushforward; their checks are criterion 6
    for k, lam in NONCENTRAL_PAIRS:
        assert catalog("noncentral-chi2", k=k, lam=lam).pushforward is None
    failures = [name for name, op, P in targets
                if not verify_symbolic(op, P, 30).passed]
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    report(1, ok, f"symbolic annihilation to degree 30, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 5.0


def test_criterion_2_derivation_reproduces_known_operators():
    start = time.monotonic()
    cases = []
    r = derive_operator(H3, 5, 2)
    cases.append(("h3", r, H3, catalog("h3").operator))
    r = derive_operator(H4, 3, 2)
    cases.append(("h4", r, H4, catalog("h4").operator))
    r = derive_operator(Polynomial([0, 1]), 1, 1)
    cases.append(("normal", r, Polynomial([0, 1]), catalog("normal").operator))
    r = derive_operator(Polynomial([-1, 0, 1]), 1, 1)
    cases.append(("centered-chi2", r, Polynomial([-1, 0, 1]),
                  catalog("centered-chi2").operator))
    r = derive_operator(Polynomial([1, 2, 1]), 2, 1)
    cases.append(("quadratic(1,2,1)", r, Polynomial([1, 2, 1]),
                  quadratic_operator(1, 2, 1)))
    r = derive_operator(Polynomial([0, -3, 1]), 2, 1)
    cases.append(("quadratic(1,-3,0)", r, Polynomial([0, -3, 1]),
                  quadratic_operator(1, -3, 0)))
    problems = []
    for name, result, P, reference in cases:
        if not result.found:
            problems.append(f"{name}: not found")
            continue
        equal, ratio = proportional_eq(result.operator, reference)
        if not equal or ratio.denominator != 1:
            problems.append(f"{name}: not an integer multiple of the reference")
        if not verify_certificate(result, P):
            problems.append(f"{name}: certificate does not replay")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 30.0
    report(2, ok, f"six derivations with exact certificates, {elapsed:.2f}s")
    assert not problems, problems
    assert elapsed < 30.0


def _minimal_cells(cells: set) -> set:
    return {c for c in cells
            if not any(o != c and o[0] <= c[0] and o[1] <= c[1] for o in cells)}


def test_criterion_3_minimality_scans_all_infeasible():
    # Below the classical orders (5 for H3, 3 for H4) no operator exists at
    # the classical coefficient degree 2, but higher-degree coefficients buy
    # lower order: every find below carries a certificate that replays
    # exactly and annihilates monomials to degree 30, so the test pins the
    # frontier the scans find.
    start = time.monotonic()
    scans = {"H3": (H3, minimal_scan(H3, 4, 6), 5, {(3, 4), (4, 3)}),
             "H4": (H4, minimal_scan(H4, 2, 6), 3, {(2, 3)})}
    elapsed = time.monotonic() - start
    problems = []
    evidence = []
    for name, (P, scan, classical_order, frontier) in scans.items():
        found = {cell for cell, s in scan.grid.items() if s == "found"}
        low = {cell: s for cell, s in scan.grid.items()
               if cell[0] < classical_order and cell[1] <= 2}
        if set(low.values()) != {"infeasible-at-bounds"}:
            problems.append(f"{name}: degree <= 2 cells {low}")
        if _minimal_cells(found) != frontier:
            problems.append(f"{name}: frontier {sorted(_minimal_cells(found))}")
        if scan.minimal != min(frontier):
            problems.append(f"{name}: minimal {scan.minimal}")
        up = {(m, d) for m, d in scan.grid
              if any(m >= a and d >= b for a, b in found)}
        if up != found:
            problems.append(f"{name}: found cells not an up-set, "
                            f"missing {sorted(up - found)}")
        for m, d in sorted(found):
            r = derive_operator(P, m, d)
            if not (verify_certificate(r, P)
                    and verify_symbolic(r.operator, P, 30).passed):
                problems.append(f"{name}@({m},{d}): find does not replay")
        evidence.append(f"{name} minimal cells {sorted(_minimal_cells(found))}"
                        f" ({len(found)} certified finds)")
    ok = not problems and elapsed < 300.0
    report(3, ok, "degree <= 2 infeasible below the classical orders; "
           + ", ".join(evidence))
    assert elapsed < 300.0
    assert not problems, problems


def test_criterion_4_cross_method_agreement():
    start = time.monotonic()
    targets = [
        ("normal", catalog("normal").operator, Polynomial([0, 1])),
        ("centered-chi2", catalog("centered-chi2").operator,
         Polynomial([-1, 0, 1])),
        ("h3", catalog("h3").operator, H3),
        ("h4", catalog("h4").operator, H4),
    ]
    for a, b, c in [(1, 0, 0), (1, 2, 1), (1, -3, 0)]:
        targets.append((f"quadratic({a},{b},{c})", quadratic_operator(a, b, c),
                        Polynomial([c, b, a])))
    validate_reference(PANELS, [P for _, _, P in targets])
    hermite_rule = [gauss_hermite_rule(201)]
    ref_failures, unconverged, rule_failures, unresolved = [], [], [], []
    mc_failures, undetected, route_detected = [], [], []
    weakest = math.inf
    legs = len(targets) * len(SUITE)
    for name, op, P in targets:
        # the slots verify.mutation_controls bumps; a +1 in slot (m, d) adds
        # the basis integral E[W^d f^(m)(W)] to every residual
        slots = [(m, d) for m, p in enumerate(op.coefficients)
                 for d in range(max(p.degree + 1, 1))]
        ops = [op] + [DiffOperator.single(m, Polynomial.monomial(d))
                      for m, d in slots]
        rows = [p.coeffs for p in op.coefficients]
        sizes = np.array([abs(float(rows[m][d])) if d < len(rows[m]) else 0.0
                          for m, d in slots])
        ref, _ = operator_sums(reference_rule(PANELS), P, ops)
        doubled, _ = operator_sums(reference_rule(2 * PANELS), P, [op])
        rule, _ = operator_sums(hermite_rule, P, ops)
        # the rule's error on a leg is at most this, whatever the residual
        rule_error_bound = sizes @ np.abs(rule[1:] - ref[1:])
        program = verify_quadrature(op, P, SUITE, nodes=201, tol=TOL)
        mc = verify_monte_carlo(op, P, SUITE, samples=1_000_000, seed=2024)
        for j, (f, check, mc_check) in enumerate(zip(SUITE, program.checks,
                                                      mc.checks)):
            leg = f"{name}+{f.name}"
            if abs(ref[0, j]) > TOL:
                ref_failures.append(f"{leg} ({ref[0, j]:.1e})")
            if abs(doubled[0, j] - ref[0, j]) > TOL / 10:
                unconverged.append(leg)
            if rule_error_bound[j] <= TOL / 10:
                if not check.passed:
                    rule_failures.append(f"{leg} ({check.residual:.1e})")
            else:
                unresolved.append(
                    f"{leg} (rule error {check.residual - ref[0, j]:.1e})")
            if not mc_check.passed:
                mc_failures.append(leg)
        # a mutant counts as detected only on a leg that the unmutated
        # operator passes under the same route
        ref_passing = np.abs(ref[0]) <= TOL
        rule_passing = np.array([c.passed for c in program.checks])
        for k, (m, d) in enumerate(slots):
            signal = np.abs(ref[0] + ref[k + 1])
            if not np.any((signal > TOL) & ref_passing):
                undetected.append(f"{name}[{m},{d}]")
            else:
                weakest = min(weakest, signal[ref_passing].max())
            route_detected.append(bool(np.any(
                (np.abs(rule[0] + rule[k + 1]) > TOL) & rule_passing)))
    elapsed = time.monotonic() - start
    ok = not (ref_failures or unconverged or rule_failures or mc_failures
              or undetected) and elapsed < 120.0
    report(4, ok,
           f"{legs} legs within {TOL:g} on the reference ({2 * PANELS} panels "
           f"agree to {TOL / 10:g}), MC gate clean; every mutant detected "
           f"(weakest {weakest:.1e}); 201-node rule asserted on "
           f"{legs - len(unresolved)} resolved legs and detects "
           f"{sum(route_detected)} of {len(route_detected)} mutants on legs "
           f"it passes; "
           f"unresolved: {', '.join(unresolved)}; {elapsed:.1f}s")
    assert not ref_failures, ref_failures
    assert not unconverged, unconverged
    assert not rule_failures, rule_failures
    assert not mc_failures, mc_failures
    assert not undetected, undetected
    assert elapsed < 120.0


def test_criterion_5_moment_program():
    # anchors pre-validated by the direct expansion oracle
    assert pushforward_moment(H3, 2) == 6
    assert pushforward_moment(H3, 4) == 3348
    assert pushforward_moment(H4, 2) == 24
    assert pushforward_moment(H4, 3) == 1728
    ok = True
    for P, op in [(H3, catalog("h3").operator), (H4, catalog("h4").operator)]:
        mus = moment_recursion(op, [1, 0], 12)
        for d in range(13):
            ok = ok and mus[d] == pushforward_moment(P, d)
    report(5, ok, "recursion matches direct expansion exactly to degree 12")
    assert ok


def test_criterion_6_noncentral_chi_square():
    start = time.monotonic()
    problems = []
    for k, lam in NONCENTRAL_PAIRS:
        params = NoncentralParams(k=k, lam=lam)
        total = density_integral(params, lambda x: 1.0)
        mean = density_integral(params, lambda x: x)
        second = density_integral(params, lambda x: x * x)
        if abs(total - 1.0) > 1e-10:
            problems.append(f"normalization({k},{lam})")
        if abs(mean - (k + lam)) > 1e-8:
            problems.append(f"mean({k},{lam})")
        if abs((second - mean * mean) - 2 * (k + 2 * lam)) > 1e-8:
            problems.append(f"variance({k},{lam})")
        if not verify_noncentral_operator(params, SUITE, tol=1e-8).passed:
            problems.append(f"operator({k},{lam})")
    mu = 1.25
    params1 = NoncentralParams(k=1.0, lam=mu * mu)
    for x in [0.05, 0.4, 1.3, 3.7, 8.0]:
        reference = (math.exp(-0.5 * (math.sqrt(x) - mu) ** 2)
                     + math.exp(-0.5 * (math.sqrt(x) + mu) ** 2)) \
            / (2 * math.sqrt(2 * math.pi * x))
        if abs(noncentral_pdf(x, params1) - reference) > 1e-10 * reference:
            problems.append(f"k1-pdf({x})")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 30.0
    report(6, ok, f"density, moments and operator checks, {elapsed:.1f}s")
    assert not problems, problems
    assert elapsed < 30.0


def test_criterion_7_extrema_table():
    reports = {n: verify_table1_extrema(n, tolerance=1e-10) for n in range(2, 7)}
    ok = all(r.passed for r in reports.values())
    # spot-check the closed radical forms are among the matched values
    vals5 = sorted(c.expected for c in reports[5].checks if c.kind == "max")
    assert vals5 == pytest.approx([4 * math.sqrt(6 * (3 - math.sqrt(6))),
                                   4 * math.sqrt(6 * (3 + math.sqrt(6)))])
    vals6 = sorted(c.expected for c in reports[6].checks if c.kind == "min")
    assert vals6 == pytest.approx([-20 * (2 + math.sqrt(10))] * 2 + [-15.0])
    report(7, ok, "critical points located and matched at 1e-10 for n=2..6")
    assert ok, {n: r.to_dict() for n, r in reports.items() if not r.passed}


def _conjecture_case(n: int, max_order: int, max_degree: int,
                     printed_conjecture: Polynomial, threshold: int):
    start = time.monotonic()
    scan = minimal_scan(hermite(n), max_order, max_degree)
    elapsed = time.monotonic() - start
    payload = {
        "hermite": n,
        "minimal": scan.minimal,
        "elapsed_seconds": elapsed,
        "comparison": None,
        "divides": None,
        "found_below_threshold": sorted(
            [cell for cell, s in scan.grid.items()
             if s == "found" and cell[0] < threshold]),
    }
    mc_ok = symbolic_ok = True
    if scan.result is not None:
        op = scan.result.operator
        P = hermite(n)
        assert verify_certificate(scan.result, P)
        symbolic_ok = verify_symbolic(op, P, 30).passed
        mc_ok = verify_monte_carlo(op, P, [sine(1.0)], 1_000_000, seed=8).passed
        proportional, ratio = proportional_eq(
            DiffOperator.single(0, op.coefficients[-1]),
            DiffOperator.single(0, printed_conjecture))
        payload["comparison"] = {"proportional": proportional,
                                 "ratio": None if ratio is None else str(ratio)}
        payload["divides"] = printed_conjecture.divides(op.coefficients[-1])
    return payload, scan, symbolic_ok, mc_ok


# Panels at which the reference resolves each find's legs; the doubling check
# in criterion 8 is what shows that these counts suffice.
CONJECTURE_PANELS = {5: 50_000, 6: 400_000}


def _scale_largest_coefficient(op: DiffOperator, factor: Fraction) -> DiffOperator:
    rows = [list(p.coeffs) for p in op.coefficients]
    m, d = max(((m, d) for m, row in enumerate(rows) for d in range(len(row))),
               key=lambda slot: abs(rows[slot[0]][slot[1]]))
    rows[m][d] *= factor
    return DiffOperator.from_rows(rows)


def test_criterion_8_conjecture_program():
    printed5 = Polynomial([27648, 0, -576, 0, 1])
    printed6 = Polynomial([-3600, -1200, 95, 1])
    corrected6 = Polynomial([-36000, -1200, 95, 1])

    pay5, scan5, sym5, mc5 = _conjecture_case(5, 10, 6, printed5, threshold=9)
    pay6, scan6, sym6, mc6 = _conjecture_case(6, 8, 6, printed6, threshold=6)
    # report emitted regardless of outcome
    assert pay5["minimal"] is not None or pay5["comparison"] is None
    assert pay6["minimal"] is not None or pay6["comparison"] is None
    assert pay5["elapsed_seconds"] < 1800 and pay6["elapsed_seconds"] < 1800
    # the suspicion outcome is reported, not asserted
    print(f"  conjecture H5: minimal={pay5['minimal']}, "
          f"quartic divides leading: {pay5['divides']}, "
          f"found below order 9: {pay5['found_below_threshold']}")
    print(f"  conjecture H6: minimal={pay6['minimal']}, "
          f"printed cubic divides leading: {pay6['divides']}, "
          f"found below order 6: {pay6['found_below_threshold']}")
    if pay6["minimal"] is not None:
        lead6 = scan6.result.operator.coefficients[-1]
        print("  conjecture H6: extrema-root cubic (constant -36000) divides "
              f"leading: {corrected6.divides(lead6)}")
    assert sym5 and sym6, "found operators must annihilate exactly"
    assert mc5 and mc6, "found operators must pass the MC gate"
    # The finds are normalized to coprime integers (largest coefficients
    # 7.5e22 and 2.0e12), so their scale is a convention and an absolute
    # tolerance means nothing. Each residual is bounded relative to
    # sum(w |A f|): float64 summation over N points errs by at most
    # N * eps of that sum, whatever the integrand.
    failures, unconverged, control_detections = [], [], []
    for n, scan in ((5, scan5), (6, scan6)):
        assert scan.result is not None, f"H{n}: no operator to check"
        P = hermite(n)
        op = scan.result.operator
        panels = CONJECTURE_PANELS[n]
        tol = 16 * panels * EPS
        assert tol <= TOL
        validate_reference(panels, (P,))
        control = _scale_largest_coefficient(op, 1 + Fraction(1, 10 ** 4))
        res, scale = operator_sums(reference_rule(panels), P, [op, control])
        doubled, _ = operator_sums(reference_rule(2 * panels), P, [op])
        relative = np.abs(res) / scale
        for j, f in enumerate(SUITE):
            leg = f"H{n}+{f.name}"
            if relative[0, j] > tol:
                failures.append(f"{leg} ({relative[0, j]:.1e} > {tol:.1e})")
            elif relative[1, j] > tol:
                control_detections.append(f"{leg} ({relative[1, j]:.1e})")
            if abs(doubled[0, j] - res[0, j]) > tol * scale[0, j] / 10:
                unconverged.append(leg)
        print(f"  conjecture H{n}: relative residuals "
              f"{', '.join(f'{r:.1e}' for r in relative[0])} at {panels} "
              f"panels, tolerance {tol:.1e}; largest coefficient x(1+1e-4): "
              f"{', '.join(f'{r:.1e}' for r in relative[1])}")
    ok = not failures and not unconverged and bool(control_detections)
    report(8, ok, "scans, exact checks, MC, comparisons and scale-free "
           f"reference residuals pass; control fails {control_detections}")
    assert not failures, failures
    assert not unconverged, unconverged
    assert control_detections, "the scaled-coefficient control passed every leg"


def term_integrals(rule, P: Polynomial, f, max_i: int, max_j: int) -> np.ndarray:
    """table[i, j] = sum(w z^i f^(j)(P(z))): the terms T(i, j) of a vector."""
    table = np.zeros((max_i + 1, max_j + 1))
    for z, w in rule:
        W = P.eval_float(z)
        for j in range(max_j + 1):
            values = w * f.derivative(W, j)
            for i in range(max_i + 1):
                table[i, j] += values.sum()
                values = values * z
    return table


def vector_value(vec: ExpectationVector, table: np.ndarray) -> float:
    return sum(float(c) * table[i, j] for (i, j), c in vec.items())


def test_criterion_9_identity_soundness():
    rng = np.random.default_rng(7)
    cases = {
        "H3": H3,
        "H4": H4,
        "x^2+2x": Polynomial([0, 2, 1]),
        "x^3+x^2": Polynomial([0, 0, 1, 1]),
    }
    f = sine(1.0)
    validate_reference(PANELS, cases.values())
    failures = {}
    unconverged = []
    worst_all = 0.0
    control = None
    for name, P in cases.items():
        identities = [ibp_identity(int(rng.integers(1, 9)),
                                   int(rng.integers(0, 5)), P)
                      for _ in range(50)]
        max_i = max(i for vec in identities for (i, _), _ in vec.items())
        max_j = max(j for vec in identities for (_, j), _ in vec.items())
        table = term_integrals(reference_rule(PANELS), P, f, max_i, max_j)
        doubled = term_integrals(reference_rule(2 * PANELS), P, f, max_i, max_j)
        bad = 0
        worst = 0.0
        for vec in identities:
            residual = vector_value(vec, table)
            worst = max(worst, abs(residual))
            if abs(residual) > TOL:
                bad += 1
            if abs(vector_value(vec, doubled) - residual) > TOL / 10:
                unconverged.append(f"{name}: {vec}")
        if bad:
            failures[name] = (bad, worst)
        worst_all = max(worst_all, worst)
        if control is None:
            # negative control: the first identity with its leading
            # coefficient bumped by +1 is no longer a zero-mean vector
            lead = identities[0].support()[-1]
            bumped = identities[0] + ExpectationVector({lead: 1})
            control = (f"{name} {lead}", vector_value(bumped, table))
    ok = not failures and not unconverged and abs(control[1]) > TOL
    report(9, ok,
           f"50 random identities per pushforward within {TOL:g} on the "
           f"reference (worst {worst_all:.1e}); bumped control {control[0]} "
           f"gives {control[1]:.1e}" if ok else
           f"failures {failures}, unconverged {unconverged}, "
           f"control {control}")
    assert not failures, failures
    assert not unconverged, unconverged
    assert abs(control[1]) > TOL, control
