"""Noncentral chi-square density, Bessel series and operator checks."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import special

from steinforge.catalog import noncentral_chi2_operator
from steinforge.noncentral import (NoncentralParams, bessel_i, density_integral,
                                   noncentral_pdf, sample_noncentral)
from steinforge.testfunctions import default_suite, gaussian_bump, sine
from steinforge.verify import (operator_values, verify_monte_carlo,
                               verify_noncentral_operator)

PAIRS = [(1.0, 1.0), (2.0, 0.5), (4.0, 3.0)]


class TestBessel:
    def test_at_zero(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(1.0, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh(x)
        got = bessel_i(0.5, 1.0)
        want = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 2.5, 7.0])
    def test_against_scipy(self, nu):
        for x in [1e-3, 0.1, 1.0, 5.0, 20.0, 100.0]:
            assert bessel_i(nu, x) == pytest.approx(float(special.iv(nu, x)),
                                                    rel=1e-12)

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            bessel_i(0.0, 1e6)

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_i(0.0, -1.0)
        with pytest.raises(ValueError):
            bessel_i(-1.0, 1.0)


class TestParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            NoncentralParams(k=0, lam=1)
        with pytest.raises(ValueError):
            NoncentralParams(k=2, lam=-0.5)
        with pytest.raises(ValueError):
            NoncentralParams(k=2, lam=1.0, means=(1.0,))
        with pytest.raises(ValueError):
            NoncentralParams(k=2, lam=5.0, means=(1.0, 1.0))

    def test_from_means(self):
        p = NoncentralParams.from_means([1.0, -1.0, 0.0])
        assert p.k == 3 and p.lam == pytest.approx(2.0)

    def test_default_means(self):
        p = NoncentralParams(k=3, lam=4.0)
        assert p.component_means() == (2.0, 0.0, 0.0)


class TestDensity:
    @pytest.mark.parametrize("k,lam", PAIRS)
    def test_normalizes(self, k, lam):
        total = density_integral(NoncentralParams(k=k, lam=lam), lambda x: 1.0)
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("k,lam", PAIRS)
    def test_mean_and_variance(self, k, lam):
        params = NoncentralParams(k=k, lam=lam)
        mean = density_integral(params, lambda x: x)
        second = density_integral(params, lambda x: x * x)
        assert mean == pytest.approx(k + lam, abs=1e-8)
        assert second - mean * mean == pytest.approx(2 * (k + 2 * lam), abs=1e-8)

    def test_k1_change_of_variables(self):
        # X = (Z + mu)^2 has density (phi(sqrt(x)-mu) + phi(sqrt(x)+mu))/(2 sqrt(x))
        mu = 1.25
        params = NoncentralParams(k=1.0, lam=mu * mu)

        def phi(t):
            return math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)

        for x in [0.05, 0.3, 1.0, 2.7, 6.0, 11.5]:
            want = (phi(math.sqrt(x) - mu) + phi(math.sqrt(x) + mu)) \
                / (2 * math.sqrt(x))
            assert noncentral_pdf(x, params) == pytest.approx(want, rel=1e-10)

    def test_central_limit_branch(self):
        params0 = NoncentralParams(k=2.0, lam=0.0)
        small = NoncentralParams(k=2.0, lam=1e-9)
        for x in [0.2, 1.0, 3.0]:
            assert noncentral_pdf(x, params0) == pytest.approx(
                0.5 * math.exp(-0.5 * x), rel=1e-12)
            assert noncentral_pdf(x, small) == pytest.approx(
                0.5 * math.exp(-0.5 * x), rel=1e-6)

    def test_zero_below_support(self):
        assert noncentral_pdf(-1.0, NoncentralParams(k=2, lam=1)) == 0.0
        assert noncentral_pdf(0.0, NoncentralParams(k=2, lam=1)) == 0.0


class TestOperatorChecks:
    def test_k1_sine(self):
        rep = verify_noncentral_operator(NoncentralParams(k=1, lam=1),
                                         [sine(1.0)], tol=1e-8)
        assert rep.passed

    def test_k4_bump(self):
        rep = verify_noncentral_operator(NoncentralParams(k=4, lam=3),
                                         [gaussian_bump()], tol=1e-8)
        assert rep.passed

    @pytest.mark.parametrize("k,lam", PAIRS)
    def test_full_suite(self, k, lam):
        rep = verify_noncentral_operator(NoncentralParams(k=k, lam=lam))
        assert rep.passed
        assert all(c.params["cutoff"] > 0 for c in rep.checks)

    @pytest.mark.parametrize("k,lam", PAIRS + [(2.5, 1.0), (3.0, 0.0)])
    def test_scalar_integrand_matches_array_integrand(self, k, lam):
        # the integrand takes quad's float x as is; residuals must equal,
        # bit for bit, those of the integrand wrapping x in a 0-d array
        params = NoncentralParams(k=k, lam=lam)
        op = noncentral_chi2_operator(k, lam)
        report = verify_noncentral_operator(params)
        reference = [density_integral(
            params, lambda x, f=f: float(operator_values(op, f, np.asarray(x))))
            for f in default_suite()]
        assert [c.residual for c in report.checks] == reference


class TestSampling:
    def test_chunked_determinism(self):
        params = NoncentralParams(k=2, lam=0.5)
        a = np.concatenate([x for _, x in sample_noncentral(params, 7, 100_000)])
        b = np.concatenate([x for _, x in sample_noncentral(params, 7, 100_000)])
        assert np.array_equal(a, b)

    def test_sample_moments(self):
        params = NoncentralParams(k=4, lam=3.0)
        x = np.concatenate([c for _, c in sample_noncentral(params, 3, 1_000_000)])
        assert x.mean() == pytest.approx(params.mean, abs=5 * math.sqrt(
            params.variance / 1e6))

    def test_mc_agrees_with_density_route(self):
        params = NoncentralParams(k=2, lam=0.5)
        mc = verify_monte_carlo(
            __import__("steinforge.catalog", fromlist=["noncentral_chi2_operator"])
            .noncentral_chi2_operator(2, 0.5),
            params, sine(1.0), samples=1_000_000, seed=21)
        density = verify_noncentral_operator(params, [sine(1.0)])
        assert mc.passed and density.passed
        se = mc.checks[0].params["standard_error"]
        assert abs(mc.checks[0].residual - density.checks[0].residual) <= 5 * se

    def test_fractional_k_cannot_sample(self):
        with pytest.raises(ValueError):
            NoncentralParams(k=2.5, lam=1.0).component_means()
