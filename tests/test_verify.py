"""Numerical verification routes: symbolic, quadrature, Monte Carlo."""
from __future__ import annotations

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from steinforge.catalog import catalog
from steinforge import gaussian, verify
from steinforge.cli import main
from steinforge.gaussian import (QuadratureValidationError, chunk_indices,
                                 gauss_hermite_rule)
from steinforge.noncentral import NoncentralParams, resolved_density_integrals
from steinforge.operators import DiffOperator, expectation_applied
from steinforge.poly import Polynomial, hermite, pushforward_moment
from steinforge.testfunctions import (cosine, default_suite, gaussian_bump,
                                      monomial, sine)
from steinforge.verify import (MAX_QUADRATURE_NODES, MAX_SAMPLES, CheckResult,
                               VerificationReport, mutation_controls, verify_all,
                               verify_monte_carlo, verify_quadrature,
                               verify_symbolic)

H3 = hermite(3)
H4 = hermite(4)


class TestTestFunctions:
    @pytest.mark.parametrize("f", [sine(1.0), cosine(0.5), gaussian_bump(),
                                   monomial(6)])
    def test_derivatives_consistent_with_finite_differences(self, f):
        xs = np.linspace(-2.0, 2.5, 10)
        h = 1e-5
        for order in range(0, 4):
            approx = (f.derivative(xs + h, order) - f.derivative(xs - h, order)) \
                / (2 * h)
            exact = f.derivative(xs, order + 1)
            scale = np.maximum(np.abs(exact), 1.0)
            assert np.all(np.abs(approx - exact) / scale < 1e-6)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            sine(1.0).derivative(0.0, 13)

    @staticmethod
    def _direct(f, x, m, flip_quadrant=None):
        # the per-order formulas, one transcendental call per order; with
        # flip_quadrant set, the sign of the derivatives whose phase
        # m + s falls in that quadrant mod 4 is flipped (a negative control)
        if f.kind == "monomial":
            n = int(f.param)
            return math.prod(range(n - m + 1, n + 1)) * x ** (n - m) if m <= n else 0.0 * x
        if f.kind == "gaussian-bump":
            return (-1.0) ** m * hermite(m).eval_float(x) * np.exp(-0.5 * x * x)
        w = f.param
        value = w ** m * (np.sin if f.kind == "sine" else np.cos)(w * x + m * np.pi / 2.0)
        shift = int(f.kind == "cosine")
        return -value if (m + shift) % 4 == flip_quadrant else value

    def _factored_agrees(self, f, flip_quadrant=None):
        x = np.linspace(-50.0, 50.0, 2001)
        for m in range(13):
            want = self._direct(f, x, m, flip_quadrant)
            magnitude = float(np.max(np.abs(want)))
            if np.max(np.abs(f.derivative(x, m) - want)) > 1e-12 * magnitude:
                return False
        return True

    @pytest.mark.parametrize("f", [sine(1.0), sine(2.5), cosine(0.5), cosine(3.0),
                                   gaussian_bump(), monomial(6), monomial(12)])
    def test_factored_derivatives_match_the_per_order_formulas(self, f):
        assert self._factored_agrees(f)

    @pytest.mark.parametrize("f", [sine(1.0), cosine(0.5)])
    @pytest.mark.parametrize("quadrant", [0, 1, 2, 3])
    def test_one_flipped_quadrant_is_caught(self, f, quadrant):
        assert not self._factored_agrees(f, flip_quadrant=quadrant)

    def test_each_transcendental_factor_once_per_block(self, monkeypatch):
        # h3 has orders 0-5: each Monte Carlo block evaluates sin and cos of
        # x and of x/2 and one exp, not one call per order and function
        from steinforge.testfunctions import TestFunction
        calls = []
        original = TestFunction.factor
        monkeypatch.setattr(TestFunction, "factor", lambda self, x, index:
                            calls.append((self.name, index)) or original(self, x, index))
        verify_monte_carlo(catalog("h3").operator, H3, default_suite(),
                           samples=gaussian._CHUNK, seed=1)
        blocks = gaussian._CHUNK // gaussian._BLOCK
        assert sorted(calls) == sorted(blocks * [
            ("cosine(0.5)", 0), ("cosine(0.5)", 1), ("gaussian-bump", 0),
            ("sine(1)", 0), ("sine(1)", 1)])

    def test_names(self):
        assert sine(1.0).name == "sine(1)"
        assert cosine(0.5).name == "cosine(0.5)"
        assert gaussian_bump().name == "gaussian-bump"


class TestSymbolic:
    def test_h3_clean(self):
        assert verify_symbolic(catalog("h3").operator, H3, 30).passed

    def test_h4_clean(self):
        assert verify_symbolic(catalog("h4").operator, H4, 30).passed

    def test_sign_flip_fails_at_degree_one(self):
        flipped = DiffOperator.from_rows([[0, 1], [1]])
        report = verify_symbolic(flipped, Polynomial.x(), 2)
        assert not report.passed
        failing = {c.params["degree"]: c.residual for c in report.checks
                   if not c.passed}
        assert abs(failing[1]) == 2


def applied_report(op, P, max_degree=30):
    """verify_symbolic's report through the general route: apply the
    operator to each monomial, then take pushforward moments."""
    checks = []
    for n in range(max_degree + 1):
        residual = expectation_applied(op, P, Polynomial.monomial(n))
        checks.append(CheckResult(
            name=f"monomial({n})", residual=float(residual), tolerance=0.0,
            passed=(residual == 0), params={"degree": n}))
    return VerificationReport(method="symbolic", checks=tuple(checks))


_COEFF = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def pushforwards(draw):
    """P of degree 0-4 with small rational coefficients, constants included."""
    degree = draw(st.integers(0, 4))
    lead = draw(_COEFF.filter(lambda c: c != 0))
    return Polynomial([draw(_COEFF) for _ in range(degree)] + [lead])


@st.composite
def operators(draw):
    """Nonzero operators of order 0-5 with coefficients of degree up to 3."""
    order = draw(st.integers(0, 5))
    rows = [draw(st.lists(_COEFF, max_size=4)) for _ in range(order)]
    rows.append(draw(st.lists(_COEFF, max_size=3))
                + [draw(_COEFF.filter(lambda c: c != 0))])
    return DiffOperator.from_rows(rows)


class TestSymbolicClosedForm:
    @settings(deadline=None, max_examples=60)
    @given(operators(), pushforwards(), st.integers(0, 30))
    def test_matches_applied_route(self, op, P, max_degree):
        assert verify_symbolic(op, P, max_degree) == applied_report(op, P, max_degree)

    @pytest.mark.parametrize("key", ["normal", "centered-chi2", "h3", "h4",
                                     "quadratic"])
    def test_catalog_matches_applied_route(self, key):
        entry = catalog(key)
        report = verify_symbolic(entry.operator, entry.pushforward)
        assert report.passed
        assert report == applied_report(entry.operator, entry.pushforward)

    def test_one_wrong_moment_fails_h3(self, monkeypatch):
        # negative control: the residuals are read from the moment table, so
        # one corrupted moment must show
        original = verify.power_table

        def corrupted(P, d):
            r, powers, mus = original(P, d)
            mus[6] += 1
            return r, powers, mus

        monkeypatch.setattr(verify, "power_table", corrupted)
        assert not verify_symbolic(catalog("h3").operator, H3).passed

    @pytest.mark.parametrize("key", ["h3", "h4"])
    def test_mutant_fails_at_first_degree_it_reaches(self, key):
        # a +1 on q_(m,d) adds n!/(n-m)! mu_(d+n-m) to residual n: zero below
        # n = m, and below the first n >= m whose moment is nonzero
        entry = catalog(key)
        P = entry.pushforward
        rows = [list(p.coeffs) for p in entry.operator.coefficients]
        for m, row in enumerate(rows):
            for d in range(len(row)):
                bumped = [list(r) for r in rows]
                bumped[m][d] += 1
                report = verify_symbolic(DiffOperator.from_rows(bumped), P)
                first = next(n for n in range(m, 31)
                             if pushforward_moment(P, d + n - m))
                assert all(c.passed for c in report.checks[:first]), (m, d)
                check = report.checks[first]
                assert not check.passed, (m, d)
                assert check.residual == float(
                    math.perm(first, m) * pushforward_moment(P, d + first - m))


class TestTargetExpectation:
    """E[h(W)] through the 201-node rule arrays and the gated density rule."""

    @staticmethod
    def rule_expectation(P, h):
        z, wts = gauss_hermite_rule(201)
        return float(np.dot(wts, h(P.eval_float(z))))

    def test_centered_chi2_mean(self):
        val = self.rule_expectation(Polynomial([-1, 0, 1]), monomial(1))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_h3_second_moment(self):
        val = self.rule_expectation(H3, monomial(2))
        assert val == pytest.approx(6.0, abs=1e-10)

    def test_odd_symmetry(self):
        val = self.rule_expectation(Polynomial.x(), sine(1.0))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_noncentral_mean(self):
        [result] = resolved_density_integrals(NoncentralParams(2, 0.5),
                                              [(monomial(1), 1e-10)])
        assert result.resolved
        assert result.value == pytest.approx(2.5, abs=1e-10)


class TestQuadrature:
    @pytest.mark.parametrize("key,poly", [
        ("normal", Polynomial([0, 1])),
        ("centered-chi2", Polynomial([-1, 0, 1])),
    ])
    def test_low_degree_pushforwards_pass_full_suite(self, key, poly):
        rep = verify_quadrature(catalog(key).operator, poly, default_suite())
        assert rep.passed

    def test_quadratic_instance_passes(self):
        from steinforge.catalog import quadratic_operator
        rep = verify_quadrature(quadratic_operator(1, 2, 1),
                                Polynomial([1, 2, 1]), default_suite())
        assert rep.passed

    def test_h3_parity_protected_functions_pass(self):
        # for the odd cubic pushforward the cosine and bump integrands are
        # odd in z, so the symmetric rule annihilates them to roundoff
        rep = verify_quadrature(catalog("h3").operator, H3,
                                [cosine(0.5), gaussian_bump()])
        assert rep.passed

    def test_h3_sine_hits_rule_resolution_limit(self):
        # sin(P(z)) oscillates faster than a 201-node rule can resolve once
        # |P'| is large inside the Gaussian bulk; the residual is rule error,
        # not operator error (the operator is exact on monomials to degree 30)
        rep = verify_quadrature(catalog("h3").operator, H3, [sine(1.0)])
        assert not rep.passed
        assert abs(rep.checks[0].residual) > 1.0

    def test_residual_matches_direct_formula(self):
        from steinforge.verify import operator_values
        op = catalog("h4").operator
        rep = verify_quadrature(op, H4, [sine(1.0)], nodes=101)
        z, wts = gauss_hermite_rule(101)
        direct = float(np.dot(wts, operator_values(op, sine(1.0),
                                                   H4.eval_float(z))))
        assert rep.checks[0].residual == direct

    def test_mutated_constant_fails(self):
        rows = [list(p.coeffs) for p in catalog("centered-chi2")
                .operator.coefficients]
        rows[1][0] += 1  # 2(1+x) f' becomes (3+2x) f'
        mutant = DiffOperator.from_rows(rows)
        rep = verify_quadrature(mutant, Polynomial([-1, 0, 1]), default_suite())
        assert not rep.passed

    def test_minimum_node_count(self):
        with pytest.raises(ValueError):
            verify_quadrature(catalog("h3").operator, H3, [sine(1.0)], nodes=10)

    def test_maximum_node_count(self):
        with pytest.raises(ValueError):
            verify_quadrature(catalog("h3").operator, H3, [sine(1.0)],
                              nodes=MAX_QUADRATURE_NODES + 1)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_node_limit_is_the_largest_buildable_rule(self):
        nodes, _ = gauss_hermite_rule(MAX_QUADRATURE_NODES)
        assert nodes.size == MAX_QUADRATURE_NODES
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(QuadratureValidationError):
                gauss_hermite_rule(MAX_QUADRATURE_NODES + 1)


def _whole_chunk_monte_carlo(op, P, suite, samples, seed):
    """verify_monte_carlo with each chunk evaluated whole, not in blocks: the
    reference whose report the blocked path must give byte for byte."""
    totals = [0.0] * len(suite)
    totals_sq = [0.0] * len(suite)
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in chunk_indices(samples):
            w = P.eval_float(gaussian.chunk_normals(seed, idx, samples))
            coefficients = verify._coefficient_values(op, w)
            for i, f in enumerate(suite):
                vals = verify._applied(coefficients, f, w)
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


class TestMonteCarlo:
    @settings(deadline=None, max_examples=25)
    @given(st.sampled_from(["normal", "centered-chi2", "h3", "h4", "quadratic"]),
           st.integers(0, 2 ** 64 + 5), st.integers(10_000, 300_000))
    @example("h3", 1, gaussian._CHUNK)
    @example("h4", 7, gaussian._CHUNK + gaussian._BLOCK + 1)
    @example("quadratic", 3, 2 * gaussian._CHUNK + 100)  # last block partial
    def test_blocks_give_the_whole_chunk_report(self, key, seed, samples):
        entry = catalog(key)
        suite = default_suite() + (monomial(3),)
        blocked = verify_monte_carlo(entry.operator, entry.pushforward, suite,
                                     samples, seed)
        whole = _whole_chunk_monte_carlo(entry.operator, entry.pushforward,
                                         suite, samples, seed)
        assert json.dumps(blocked.to_dict()) == json.dumps(whole.to_dict())

    def test_working_set_does_not_grow_with_samples(self):
        # tracemalloc sees numpy's buffers: one (suite, chunk) value buffer,
        # one chunk of draws and per-block temporaries; the whole-chunk
        # reference holds chunk-sized temporaries and must exceed the bound
        op = catalog("h3").operator
        verify_monte_carlo(op, H3, samples=10_000)  # loads numpy.random

        def peak(route, samples):
            tracemalloc.start()
            try:
                route(op, H3, default_suite(), samples, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        large = peak(verify_monte_carlo, 1_000_000)
        assert large < 3_000_000
        assert abs(peak(verify_monte_carlo, 200_000) - large) <= 0.1 * large
        assert peak(_whole_chunk_monte_carlo, 1_000_000) > 3_000_000

    def test_h3_sine_gate(self):
        rep = verify_monte_carlo(catalog("h3").operator, H3, [sine(1.0)],
                                 samples=1_000_000, seed=11)
        assert rep.passed

    def test_normal_variance_scale(self):
        rep = verify_monte_carlo(catalog("normal").operator, Polynomial.x(),
                                 [monomial(2)], samples=1_000_000, seed=5)
        se = rep.checks[0].params["standard_error"]
        # Var(2Z - Z^3) = 7, so the standard error is sqrt(7)/1000
        assert 2e-3 < se < 4e-3
        assert rep.passed

    def test_determinism(self):
        a = verify_monte_carlo(catalog("h4").operator, H4, [cosine(0.5)],
                               samples=50_000, seed=99)
        b = verify_monte_carlo(catalog("h4").operator, H4, [cosine(0.5)],
                               samples=50_000, seed=99)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_one_draw_per_chunk(self, monkeypatch):
        # every suite function is estimated from the same draws, so an mc job
        # draws each chunk once
        calls = []
        original = gaussian._normal_chunk

        def counted(seed, index, size):
            calls.append(index)
            return original(seed, index, size)

        monkeypatch.setattr(gaussian, "_normal_chunk", counted)
        samples = 200_000
        code = main(["verify", "--catalog", "h3", "--methods", "mc",
                     "--samples", str(samples), "--seed", "4"])
        assert code == 0
        assert calls == list(chunk_indices(samples))

    def test_suite_report_matches_single_function_reports(self):
        suite = default_suite()
        joint = verify_monte_carlo(catalog("h4").operator, H4, suite,
                                   samples=50_000, seed=12)
        single = [verify_monte_carlo(catalog("h4").operator, H4, [f],
                                     samples=50_000, seed=12).checks[0]
                  for f in suite]
        assert list(joint.checks) == single

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            verify_monte_carlo(catalog("h4").operator, H4, [sine(1.0)],
                               samples=100, seed=0)

    def test_maximum_samples_refused_before_any_draw(self, monkeypatch):
        def refuse(seed, index, size):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(gaussian, "_normal_chunk", refuse)
        assert MAX_SAMPLES == 10 ** 9
        with pytest.raises(ValueError, match="at most"):
            verify_monte_carlo(catalog("h3").operator, H3, [sine(1.0)],
                               samples=MAX_SAMPLES + 1, seed=0)


def test_mutation_controls_all_detected():
    # meaningful control: the unmutated operator passes the same suite
    P = Polynomial([-1, 0, 1])
    op = catalog("centered-chi2").operator
    assert verify_quadrature(op, P, default_suite()).passed
    results = mutation_controls(op, P, default_suite())
    assert results and all(detected for _, _, detected in results)
    results_n = mutation_controls(catalog("normal").operator, Polynomial([0, 1]),
                                  default_suite())
    assert results_n and all(detected for _, _, detected in results_n)


# (order, degree, detected) per catalog key, as the per-order test functions
# gave them before the derivatives were factored
MUTATION_TRIPLES = {
    "normal": [(0, 0, True), (0, 1, True), (1, 0, True)],
    "centered-chi2": [(0, 0, True), (0, 1, True), (1, 0, True), (1, 1, True)],
    "h3": [(0, 0, True), (0, 1, True), (1, 0, True), (2, 0, True), (2, 1, True),
           (3, 0, True), (3, 1, True), (3, 2, True), (4, 0, True), (4, 1, True),
           (5, 0, True), (5, 1, True), (5, 2, True)],
    "h4": [(0, 0, True), (0, 1, True), (1, 0, True), (1, 1, True), (2, 0, True),
           (2, 1, True), (2, 2, True), (3, 0, True), (3, 1, True), (3, 2, True)],
    "quadratic": [(0, 0, True), (0, 1, True), (1, 0, True), (1, 1, True),
                  (2, 0, True), (2, 1, True)],
}


@pytest.mark.parametrize("key", sorted(MUTATION_TRIPLES))
def test_mutation_control_verdicts_are_pinned(key):
    entry = catalog(key)
    assert mutation_controls(entry.operator, entry.pushforward) == MUTATION_TRIPLES[key]


@pytest.mark.parametrize("key,failing,only_there", [("h3", ["sine(1)"], 8),
                                                    ("h4", ["sine(1)", "cosine(0.5)",
                                                            "gaussian-bump"], 10)])
def test_known_red_quadrature_legs_and_mutant_counts(key, failing, only_there):
    # the 201-node rule fails these legs of the unmutated operator by more
    # than 1, and the mutation_controls docstring counts the mutants that are
    # detected only there
    entry = catalog(key)
    report = verify_quadrature(entry.operator, entry.pushforward)
    assert [c.name for c in report.checks if not c.passed] == failing
    assert all(abs(c.residual) > 1.0 for c in report.checks if not c.passed)
    passing = [f for f, c in zip(default_suite(), report.checks) if c.passed]
    rows = [list(p.coeffs) for p in entry.operator.coefficients]
    only = 0
    for m, d, _ in MUTATION_TRIPLES[key]:
        mutant_rows = [list(r) for r in rows]
        mutant_rows[m] += [0] * (d + 1 - len(mutant_rows[m]))
        mutant_rows[m][d] += 1
        mutant = DiffOperator.from_rows(mutant_rows)
        only += not passing or verify_quadrature(mutant, entry.pushforward, passing).passed
    assert only == only_there


def test_verify_all_refuses_an_empty_method_list():
    # a report list with no routes would pass while checking nothing
    for methods in ((), []):
        with pytest.raises(ValueError, match="no verification method"):
            verify_all(catalog("h3").operator, H3, methods=methods)


def test_report_json_shape():
    rep = verify_quadrature(catalog("normal").operator, Polynomial.x(),
                            [sine(1.0)])
    d = rep.to_dict()
    assert d["method"] == "quadrature" and d["pass"] is True
    assert set(d["tests"][0]) == {"name", "residual", "tolerance", "pass",
                                  "params"}


def test_three_route_agreement_on_certified_operator():
    from steinforge.derivation import derive_operator
    result = derive_operator(Polynomial([1, 2, 1]), 2, 1)
    op = result.operator
    P = Polynomial([1, 2, 1])
    assert verify_symbolic(op, P, 20).passed
    assert verify_quadrature(op, P, default_suite()).passed
    assert verify_monte_carlo(op, P, [sine(1.0)], 100_000, seed=3).passed
