"""Noncentral chi-square density, Bessel series and operator checks."""
from __future__ import annotations

import importlib
import math

import numpy as np
import pytest
from scipy import special

from steinforge import noncentral
from steinforge.catalog import noncentral_chi2_operator
from steinforge.noncentral import (NoncentralParams, _density_rule,
                                   _log_density_factor, bessel_i,
                                   density_integral, noncentral_pdf,
                                   sample_noncentral)
from steinforge.operators import DiffOperator
from steinforge.testfunctions import default_suite, gaussian_bump, sine
from steinforge.verify import verify_monte_carlo, verify_noncentral_operator

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
        # func is called once with the rule's whole node array, and a scalar
        # return is broadcast to the same value as the equal array return
        params = NoncentralParams(k=k, lam=lam)
        nodes, _ = _density_rule(params, 64)
        seen = []

        def one(x):
            seen.append(x)
            return 1.0

        scalar = density_integral(params, one, 64)
        assert len(seen) == 1 and seen[0] is nodes
        assert scalar == density_integral(params, np.ones_like, 64)

    @pytest.mark.parametrize("k,lam", PAIRS + [(2.5, 1.0), (1.0, 8.0), (3.0, 0.0),
                                               (10.0, 200.0)])
    def test_rule_density_matches_pointwise_pdf(self, k, lam):
        # the log-space density folded into the weights against the
        # per-point Bessel-series reference
        params = NoncentralParams(k=k, lam=lam)
        x = np.concatenate([_density_rule(params, 32)[0][::7], [1e-3, 0.5, 7.0]])
        x = x[x < 3 * params.mean + 60]  # keep the series reference finite
        got = np.exp(_log_density_factor(x, params)) * x ** (0.5 * k - 1.0)
        want = np.array([noncentral_pdf(v, params) for v in x])
        assert got == pytest.approx(want, rel=1e-11, abs=1e-300)

    @pytest.mark.parametrize("k,lam", [(1.0, 2.0), (2.5, 1.0), (4.0, 3.0),
                                       (3.0, 60.0)])
    def test_residuals_match_mpmath_reference(self, k, lam):
        params = NoncentralParams(k=k, lam=lam)
        report = verify_noncentral_operator(params)
        assert report.passed
        for check in report.checks:
            assert check.params["resolved"] is True
            reference = _mpmath_residual(k, lam, check.name,
                                         params.density_cutoff())
            assert abs(check.residual - reference) <= 1e-12, check.name

    @pytest.mark.parametrize("k,lam", [(1.0, 2.0), (2.5, 1.0)])
    def test_mutants_fail(self, k, lam, monkeypatch):
        # negative control: each +1-coefficient mutant of the operator fails
        # on a leg whose rule resolved
        # the package binds the name `catalog` to the function, not the module
        catalog_module = importlib.import_module("steinforge.catalog")
        rows = [list(p.coeffs) for p in noncentral_chi2_operator(k, lam).coefficients]
        slots = [(m, d) for m, row in enumerate(rows) for d in range(len(row))]
        for m, d in slots:
            bumped = [list(row) for row in rows]
            bumped[m][d] += 1
            mutant = DiffOperator.from_rows(bumped)
            monkeypatch.setattr(catalog_module, "noncentral_chi2_operator",
                                lambda k, lam, mutant=mutant: mutant)
            report = verify_noncentral_operator(NoncentralParams(k=k, lam=lam))
            assert not report.passed
            assert any(c.params["resolved"] and abs(c.residual) > c.tolerance
                       for c in report.checks), (m, d)

    @pytest.mark.parametrize("tol", [1e-8, 1e3])
    def test_capped_gate_is_unresolved_and_fails(self, tol, monkeypatch):
        # negative control: a gate that cannot double never passes a check,
        # not even one whose residual lies within a loose tolerance
        monkeypatch.setattr(noncentral, "MAX_PANELS", 1)
        report = verify_noncentral_operator(NoncentralParams(k=2.0, lam=0.5),
                                            tol=tol)
        assert not report.passed
        for check in report.checks:
            assert check.params["panels"] == 1
            assert check.params["resolved"] is False and not check.passed
            if tol > 1:
                assert abs(check.residual) <= check.tolerance

    @pytest.mark.parametrize("lam", [400.0, 2000.0])
    def test_large_lambda_resolves(self, lam):
        # the Bessel series overflows here; the log-space rule does not. At
        # lambda = 2000 sine(1) is still off by 2.9e3 at 64 panels, so the
        # verdict rests on the doubling
        params = NoncentralParams(k=3.0, lam=lam)
        with pytest.raises(OverflowError):
            noncentral_pdf(params.density_cutoff(), params)
        report = verify_noncentral_operator(params)
        assert report.passed
        assert all(c.params["resolved"] for c in report.checks)


def _mpmath_residual(k: float, lam: float, name: str, cutoff: float) -> float:
    """E[(A f)(X) 1{X < cutoff}] for the catalog operator, by 30-digit mpmath."""
    import mpmath
    with mpmath.workdps(30):
        k, lam = mpmath.mpf(k), mpmath.mpf(lam)
        nu = k / 2 - 1

        def derivatives(x):
            if name == "sine(1)":
                return mpmath.sin(x), mpmath.cos(x), -mpmath.sin(x)
            if name == "cosine(0.5)":
                return (mpmath.cos(x / 2), -mpmath.sin(x / 2) / 2,
                        -mpmath.cos(x / 2) / 4)
            bump = mpmath.exp(-x * x / 2)
            return bump, -x * bump, (x * x - 1) * bump

        def integrand(x):
            f0, f1, f2 = derivatives(x)
            applied = 4 * x * f2 + (2 * k - 4 * x) * f1 + (x - k - lam) * f0
            pdf = (mpmath.exp(-(x + lam) / 2) * (x / lam) ** (nu / 2)
                   * mpmath.besseli(nu, mpmath.sqrt(lam * x)) / 2)
            return applied * pdf

        # tanh-sinh takes the x^(k/2-1) endpoint; Gauss-Legendre the bulk, in
        # panels of 16 up to 12 standard deviations past the mean
        end = min(cutoff, float(k + lam + 12 * mpmath.sqrt(2 * (k + 2 * lam))))
        points = [1.0]
        while points[-1] + 16 < end:
            points.append(points[-1] + 16)
        points += [end, cutoff]
        value = (mpmath.quad(integrand, [0, 1])
                 + mpmath.quad(integrand, points, method="gauss-legendre"))
        return float(value)


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
            params, [sine(1.0)], samples=1_000_000, seed=21)
        density = verify_noncentral_operator(params, [sine(1.0)])
        assert mc.passed and density.passed
        se = mc.checks[0].params["standard_error"]
        assert abs(mc.checks[0].residual - density.checks[0].residual) <= 5 * se

    def test_fractional_k_cannot_sample(self):
        with pytest.raises(ValueError):
            NoncentralParams(k=2.5, lam=1.0).component_means()
