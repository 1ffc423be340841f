"""Noncentral chi-square density, Bessel series and operator checks."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy import special

from steinforge import noncentral
from steinforge.catalog import noncentral_chi2_operator
from steinforge.cli import main
from steinforge.noncentral import (FIRST_PANELS, NoncentralParams, _density_rule,
                                   _log_density_factor, _log_scaled_bessel,
                                   bessel_i, density_integral, noncentral_pdf,
                                   resolved_density_integrals)
from steinforge.operators import DiffOperator
from steinforge.testfunctions import default_suite, gaussian_bump, sine
from steinforge.verify import operator_values, verify_noncentral_operator

PAIRS = [(1.0, 1.0), (2.0, 0.5), (4.0, 3.0)]


def check_operator(params: NoncentralParams, suite=(), tol: float = 1e-8):
    """The density report of the catalog operator for params."""
    op = noncentral_chi2_operator(params.k, params.lam)
    return verify_noncentral_operator(op, params, suite, tol)


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


# Orders nu = k/2 - 1, each with the largest z = sqrt(lam x) the density
# rule reaches at it, rounded up: the first panel's weights overflow for k
# above about 374, and at large k already for moderate lam; above z = 2^30
# the Bessel factor is NaN.
BESSEL_DOMAIN = [(nu, 2.0 ** 30) for nu in (
    -0.9, -0.5, 0.0, 0.25, 0.5, 1.0, 2.5, 4.0, 6.3, 8.5, 10.0, 12.5, 15.0,
    19.99, 20.0, 25.0, 39.0)] + [(49.0, 6e7), (74.0, 5e5), (99.0, 4e4),
                                 (124.0, 8e3), (149.0, 2e3), (169.0, 800.0),
                                 (179.0, 400.0), (190.0, 200.0)]
# read once, so a negative control that halves it leaves the grid as it is
HANKEL_Z = noncentral.HANKEL_Z


def _bessel_grid(nu: float, z_max: float) -> np.ndarray:
    """Fixed points, both sides of each branch threshold, and a geometric
    sweep up to z_max."""
    thresholds = [HANKEL_Z, 0.5 * nu * nu, 2.0 * math.sqrt(nu + 1.0)]
    sides = [v for t in thresholds for v in (np.nextafter(t, 0.0), t, 1.01 * t)]
    z = np.concatenate([[0.0, 1e-300, 1e-3, 0.5, 2.0, 5.0, 9.0, 12.0, 15.0],
                        sides, np.geomspace(1.0, z_max, 24)])
    return np.unique(z[z <= z_max])


@lru_cache(maxsize=None)
def _bessel_reference(nu: float, z_max: float) -> tuple[np.ndarray, np.ndarray]:
    """The grid and log(Gamma(nu+1) (z/2)^(-nu) I_nu(z) e^(-z)) on it, by
    40-digit mpmath.besseli."""
    import mpmath
    z = _bessel_grid(nu, z_max)
    with mpmath.workdps(40):
        n = mpmath.mpf(nu)
        want = [0.0 if v == 0.0 else float(
            mpmath.loggamma(n + 1) - n * mpmath.log(mpmath.mpf(v) / 2)
            + mpmath.log(mpmath.besseli(n, mpmath.mpf(v))) - mpmath.mpf(v))
            for v in z]
    return z, np.array(want)


def _bessel_errors_above_bound() -> list[tuple[float, float, float]]:
    """(nu, z, error) wherever _log_scaled_bessel is off its reference by
    more than 1e-13 (nu <= 10) or 1e-12 (larger nu) in the log, that is in
    relative terms."""
    bad = []
    for nu, z_max in BESSEL_DOMAIN:
        z, want = _bessel_reference(nu, z_max)
        with np.errstate(invalid="ignore"):  # a mutant's NaN counts as an error
            error = np.abs(_log_scaled_bessel(nu, z) - want)
        bound = 1e-13 if nu <= 10.0 else 1e-12
        bad += [(nu, v, e) for v, e in zip(z, error) if not e <= bound]
    return bad


class TestScaledBessel:
    def test_matches_mpmath_over_the_reachable_domain(self):
        assert _bessel_errors_above_bound() == []

    @pytest.mark.parametrize("name", ["HANKEL_Z", "DEBYE_NU"])
    def test_halved_threshold_fails(self, name, monkeypatch):
        # negative control: each asymptotic branch is too coarse below its
        # threshold, and the grid samples it there
        monkeypatch.setattr(noncentral, name, 0.5 * getattr(noncentral, name))
        assert _bessel_errors_above_bound() != []

    def test_nan_beyond_the_validated_range(self):
        z = np.array([0.0, 2.0 ** 30, np.nextafter(2.0 ** 30, np.inf), 1e10])
        for nu in (-0.5, 4.0, 39.0):
            got = _log_scaled_bessel(nu, z)
            assert got[0] == 0.0 and np.isfinite(got[1]) and np.isnan(got[2:]).all()


class TestParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            NoncentralParams(k=0, lam=1)
        with pytest.raises(ValueError):
            NoncentralParams(k=2, lam=-0.5)

    @pytest.mark.parametrize("k,lam", [(math.inf, 1.0), (2.0, math.inf),
                                       (math.nan, 1.0), (2.0, math.nan)])
    def test_non_finite_rejected(self, k, lam):
        with pytest.raises(ValueError, match="finite"):
            NoncentralParams(k=k, lam=lam)


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
        rep = check_operator(NoncentralParams(k=1, lam=1), [sine(1.0)], tol=1e-8)
        assert rep.passed

    def test_k4_bump(self):
        rep = check_operator(NoncentralParams(k=4, lam=3), [gaussian_bump()],
                             tol=1e-8)
        assert rep.passed

    @pytest.mark.parametrize("k,lam", PAIRS)
    def test_full_suite(self, k, lam):
        rep = check_operator(NoncentralParams(k=k, lam=lam))
        assert rep.passed
        assert all(c.params["cutoff"] > 0 for c in rep.operator_report.checks)

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
        assert len(seen) == 1 and seen[0].tobytes() == nodes.tobytes()
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
        report = check_operator(params)
        assert report.passed
        for check in report.operator_report.checks:
            assert check.params["resolved"] is True
            reference = _mpmath_residual(k, lam, check.name,
                                         params.density_cutoff())
            assert abs(check.residual - reference) <= 1e-12, check.name

    @pytest.mark.parametrize("k,lam", [(1.0, 2.0), (2.5, 1.0)])
    def test_mutants_fail(self, k, lam):
        # negative control: each +1-coefficient mutant of the operator fails
        # on a leg whose rule resolved
        rows = [list(p.coeffs) for p in noncentral_chi2_operator(k, lam).coefficients]
        slots = [(m, d) for m, row in enumerate(rows) for d in range(len(row))]
        for m, d in slots:
            bumped = [list(row) for row in rows]
            bumped[m][d] += 1
            mutant = DiffOperator.from_rows(bumped)
            report = verify_noncentral_operator(mutant, NoncentralParams(k=k, lam=lam))
            assert not report.passed
            assert any(c.params["resolved"] and abs(c.residual) > c.tolerance
                       for c in report.operator_report.checks), (m, d)

    @pytest.mark.parametrize("tol", [1e-8, 1e3])
    def test_capped_gate_is_unresolved_and_fails(self, tol, monkeypatch):
        # negative control: a gate that cannot double never passes a check,
        # not even one whose residual lies within a loose tolerance
        monkeypatch.setattr(noncentral, "MAX_PANELS", 1)
        report = check_operator(NoncentralParams(k=2.0, lam=0.5), tol=tol)
        assert not report.passed
        for check in report.operator_report.checks:
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
        report = check_operator(params)
        assert report.passed
        assert all(c.params["resolved"] for c in report.operator_report.checks)


@pytest.mark.parametrize("power", [-0.5, 0.0, 0.25, 0.5, 1.0, 4.0, 49.0, 149.0, 199.0])
def test_jacobi_rule_matches_references(power):
    # nodes against scipy's roots_jacobi; weights against a 40-digit mpmath
    # rule to 1e-13, and against scipy to 2e-12, since scipy's own weights
    # are up to 9e-13 off the mpmath rule (at power 149)
    import mpmath
    nodes, weights = noncentral._jacobi_rule(power)
    scipy_nodes, scipy_weights = special.roots_jacobi(noncentral.PANEL_NODES, 0.0, power)
    with mpmath.workdps(40):
        ref_nodes, ref_weights = mpmath.gauss_quadrature(
            noncentral.PANEL_NODES, "jacobi", 0, mpmath.mpf(power))
        ref_weights = np.array([float(w) for w in ref_weights])
    assert np.max(np.abs(nodes - scipy_nodes)) <= 1e-14
    assert np.max(np.abs(nodes - [float(x) for x in ref_nodes])) <= 1e-14
    kept = ref_weights > 1e-290
    assert kept.any()
    assert np.max(np.abs(weights - ref_weights)[kept] / ref_weights[kept]) <= 1e-13
    assert np.max(np.abs(weights - scipy_weights)[kept] / scipy_weights[kept]) <= 2e-12


class TestRuleCache:
    @pytest.mark.parametrize("k,lam,panels", [(1.0, 2.0, 32), (2.5, 1.0, 64),
                                              (2.0, 0.0, 1), (10.0, 200.0, 128)])
    def test_density_rule_matches_fresh_reference_rules(self, k, lam, panels,
                                                        monkeypatch):
        # the cached reference rules, of power k/2 - 1 and of power 0, give
        # the bits that fresh Gauss-Jacobi builds give
        params = NoncentralParams(k=k, lam=lam)
        cached = _density_rule(params, panels)
        monkeypatch.setattr(noncentral, "_jacobi_rule",
                            noncentral._jacobi_rule.__wrapped__)
        fresh = _density_rule(params, panels)
        for got, want in zip(cached, fresh):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_reference_rules_refuse_writes(self):
        for a in (*noncentral._jacobi_rule(0.25), *noncentral._jacobi_rule(0.0)):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_reference_rules_built_once_per_k(self, monkeypatch):
        noncentral._jacobi_rule.cache_clear()
        built = []
        original = noncentral.golub_welsch
        monkeypatch.setattr(noncentral, "golub_welsch",
                            lambda diag, *a: built.append(diag[0]) or original(diag, *a))
        for lam in (0.5, 1.5):
            for panels in (8, 16):
                _density_rule(NoncentralParams(k=3.0, lam=lam), panels)
        # one build per power: k/2 - 1 = 0.5 for the first panel, then 0
        # (Gauss-Legendre) for the others
        assert built == [0.5 / 2.5, 0.0]

    def test_one_density_rule_per_panel_count_per_job(self, monkeypatch, capsys):
        # every leg of a job shares one rule per panel count, and no rule is
        # kept from one job to the next: each build runs the rule's body,
        # which asks for the Gauss-Legendre reference rule once
        asked, references = [], []
        rule, reference = noncentral._density_rule, noncentral._jacobi_rule
        monkeypatch.setattr(noncentral, "_density_rule",
                            lambda params, panels: asked.append(panels)
                            or rule(params, panels))
        monkeypatch.setattr(noncentral, "_jacobi_rule",
                            lambda power: references.append(power) or reference(power))
        argv = ["noncentral", "--k", "3", "--lambda", "1", "--verify"]
        outputs = [(main(argv), capsys.readouterr().out) for _ in range(2)]
        assert outputs[0][0] == 0 and outputs[0] == outputs[1]
        assert asked == [32, 64, 32, 64]
        assert references.count(0.0) == 4

    @pytest.mark.parametrize("k", [2.0, 3.0])
    def test_non_finite_weights_raise(self, k):
        # the Bessel factor is NaN above z = 2^30 (about 1.07e9), beyond the
        # range it is validated on, which lambda = 1e10 reaches inside the cutoff
        with pytest.raises(ValueError, match="lambda = 10000000000.0"):
            _density_rule(NoncentralParams(k=k, lam=1e10), 64)


def _gate_alone(params: NoncentralParams, func, tol: float):
    """(value, panels, resolved) of one integrand behind the resolution
    gate, each panel count's estimate by its own density_integral call."""
    panels = min(FIRST_PANELS, noncentral.MAX_PANELS)
    value = density_integral(params, func, panels)
    while panels < noncentral.MAX_PANELS:
        previous, panels = value, 2 * panels
        value = density_integral(params, func, panels)
        if abs(value - previous) <= 0.1 * tol:
            return value, panels, True
    return value, panels, False


class TestSharedGate:
    @pytest.mark.parametrize("k,lam", [(1.0, 2.0), (3.0, 1.0), (3.0, 400.0)])
    def test_each_leg_matches_a_gate_of_its_own(self, k, lam):
        # the moment legs and the operator legs of a job
        params = NoncentralParams(k=k, lam=lam)
        op = noncentral_chi2_operator(k, lam)
        legs = [(lambda x: 1.0, 1e-10), (lambda x: x, 1e-8),
                (lambda x: (x - params.mean) ** 2, 1e-8)]
        legs += [(lambda x, f=f: operator_values(op, f, x), 1e-8)
                 for f in default_suite()]
        shared = resolved_density_integrals(params, legs)
        assert [tuple(r) for r in shared] == [_gate_alone(params, func, tol)
                                              for func, tol in legs]

    def test_legs_stopping_at_different_panel_counts(self, monkeypatch):
        # one leg resolves at the second panel count, another oscillates too
        # fast to resolve and runs to the cap
        monkeypatch.setattr(noncentral, "MAX_PANELS", 256)
        params = NoncentralParams(k=3.0, lam=1.0)
        legs = [(lambda x: np.sin(50.0 * x), 1e-12), (lambda x: 1.0, 1e-10),
                (lambda x: x, 1e-8)]
        shared = [tuple(r) for r in resolved_density_integrals(params, legs)]
        assert shared == [_gate_alone(params, func, tol) for func, tol in legs]
        assert [r[1:] for r in shared] == [(256, False), (64, True), (64, True)]


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
