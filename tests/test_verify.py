"""Numerical verification routes: symbolic, quadrature, Monte Carlo."""
from __future__ import annotations

import json

import numpy as np
import pytest

from steinforge.catalog import catalog
from steinforge import gaussian
from steinforge.cli import main
from steinforge.gaussian import (QuadratureValidationError, chunk_indices,
                                 gauss_hermite_rule, hermite)
from steinforge.noncentral import NoncentralParams
from steinforge.operators import DiffOperator
from steinforge.poly import Polynomial
from steinforge.testfunctions import (cosine, default_suite, gaussian_bump,
                                      monomial, sine)
from steinforge.verify import (MAX_QUADRATURE_NODES, mutation_controls,
                               target_expectation, verify_monte_carlo,
                               verify_quadrature, verify_symbolic)

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


class TestTargetExpectation:
    def test_centered_chi2_mean(self):
        val = target_expectation(Polynomial([-1, 0, 1]), monomial(1))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_h3_second_moment(self):
        val = target_expectation(H3, monomial(2))
        assert val == pytest.approx(6.0, abs=1e-10)

    def test_odd_symmetry(self):
        val = target_expectation(Polynomial.x(), sine(1.0))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_noncentral_mean(self):
        val = target_expectation(NoncentralParams(2, 0.5), monomial(1))
        assert val == pytest.approx(2.5, abs=1e-10)


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
        from steinforge.gaussian import gauss_hermite_rule
        from steinforge.verify import operator_values
        op = catalog("h4").operator
        rep = verify_quadrature(op, H4, [sine(1.0)], nodes=101)
        z, wts = gauss_hermite_rule(101).arrays()
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
        assert gauss_hermite_rule(MAX_QUADRATURE_NODES).n == MAX_QUADRATURE_NODES
        for _ in range(2):  # a failed build is not cached
            with pytest.raises(QuadratureValidationError):
                gauss_hermite_rule(MAX_QUADRATURE_NODES + 1)


class TestMonteCarlo:
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

        def counted(seed, index):
            calls.append(index)
            return original(seed, index)

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
