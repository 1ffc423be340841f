"""Noncentral chi-square: density and density rule.

The density route exists because this law is a k-fold sum rather than a
single polynomial pushforward, so the symbolic annihilation path does not
apply; verification integrates the operator against the density instead.

Density rule. E[h(X)] is integrated over (0, density_cutoff()) by one
composite rule of equal panels with PANEL_NODES nodes each: Gauss-Jacobi
with weight x^(k/2-1) on the first panel, so the endpoint power (a
singularity for k < 2) is integrated exactly, and Gauss-Legendre, which is
Gauss-Jacobi with power 0, on the others. The weights carry the smooth rest
of the density, pdf(x) / x^(k/2-1), computed in log space, so no lam
overflows it. The integrand is called once, on the whole node array. The
cutoff is mean + 40 standard deviations, floored at (sqrt(lam) + 7)^2 so
that small k and lam leave no measurable mass beyond it; k below MIN_K is
refused, because k/2 is formed as (k/2 - 1) + 1 and its rounding error
grows as 1/k.

Resolution gate. resolved_density_integrals doubles each integrand's
panels from FIRST_PANELS until two consecutive estimates agree within its
tol/10, up to MAX_PANELS, building each count's rule once for all that are
still open. A verdict uses the finer estimate and needs the gate resolved.

Bessel factor. The density's smooth factor needs the modified Bessel
function I_nu; _log_scaled_bessel computes it with numpy alone (a series,
then the Hankel or the Debye expansion), so this module loads no scipy. The
Gauss-Jacobi rule of every panel is built by gaussian.golub_welsch, also
with numpy alone. bessel_i and noncentral_pdf are the per-point series
reference that tests compare the rule against; the series overflows for
large lam * x, the rule does not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gaussian import golub_welsch


@dataclass(frozen=True)
class NoncentralParams:
    """Finite degrees of freedom k > 0 and finite noncentrality lam >= 0,
    with a finite mean and variance."""

    k: float
    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and math.isfinite(self.lam)):
            raise ValueError("degrees of freedom and noncentrality must be finite")
        if self.k <= 0:
            raise ValueError("degrees of freedom must be positive")
        if self.lam < 0:
            raise ValueError("noncentrality must be nonnegative")
        # the mean k + lam is at most the variance, so this covers both
        if not math.isfinite(self.variance):
            raise ValueError(
                f"noncentral variance 2(k + 2 lambda) overflows float64 at "
                f"k = {self.k}, lambda = {self.lam}")

    @property
    def mean(self) -> float:
        return self.k + self.lam

    @property
    def variance(self) -> float:
        return 2.0 * (self.k + 2.0 * self.lam)

    def density_cutoff(self) -> float:
        """Upper integration limit: mean + 40 standard deviations, floored
        at (sqrt(lam) + 7)^2. Below k = 1 the law lies stochastically below
        that of (Z + sqrt(lam))^2, Z standard Gaussian, so the mass beyond
        the floor is at most 2 Phi(-7) < 3e-12; above it the first bound
        binds and the neglected tail decays exponentially."""
        return max(self.mean + 40.0 * math.sqrt(self.variance),
                   (math.sqrt(self.lam) + 7.0) ** 2)


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind by direct series summation.

    Terms are accumulated until they fall below 1e-17 of the partial sum;
    accuracy is ~1e-12 relative for x <= 100. Arguments large enough to
    overflow the series raise OverflowError.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if nu < -0.5:
        raise ValueError("order must be >= -1/2")
    half = 0.5 * x
    if x == 0.0:
        if nu == 0:
            return 1.0
        if nu > 0:
            return 0.0
        raise OverflowError("series diverges at x = 0 for negative order")
    term = math.pow(half, nu) / math.gamma(nu + 1.0)
    total = term
    quarter_sq = half * half
    k = 0
    while True:
        k += 1
        term *= quarter_sq / (k * (nu + k))
        total += term
        if math.isinf(total) or math.isinf(term):
            raise OverflowError(f"Bessel series overflows at x = {x}")
        if term < 1e-17 * total:
            return total


def noncentral_pdf(x: float, params: NoncentralParams) -> float:
    """Density at x; zero for x <= 0. lam = 0 uses the central limit branch."""
    if x <= 0.0:
        return 0.0
    k, lam = params.k, params.lam
    if lam == 0.0:
        return (x ** (0.5 * k - 1.0) * math.exp(-0.5 * x)
                / (2.0 ** (0.5 * k) * math.gamma(0.5 * k)))
    return (0.5 * math.exp(-0.5 * (x + lam))
            * (x / lam) ** (0.25 * k - 0.5)
            * bessel_i(0.5 * k - 1.0, math.sqrt(lam * x)))


# Nodes per panel of the composite density rule.
PANEL_NODES = 20
# The resolution gate compares FIRST_PANELS with twice as many, and doubles
# until two consecutive estimates agree or MAX_PANELS is reached.
FIRST_PANELS = 32
MAX_PANELS = 4096
# Smallest k the density rule serves. k/2 reaches the first panel's rule
# and the Bessel series as (k/2 - 1) + 1, rounded with a relative error up
# to about 2e-16 / k that the normalization inherits: within 8e-12 of 1 at
# k = 1e-5 for lam in {0, 0.01, 1, 100, 1e4}, but 8.7e-11 off at 1e-6.
MIN_K = 1e-5


# Branches of _log_scaled_bessel. Below the series threshold the 0F1 series
# is summed; above it the Hankel expansion serves orders below DEBYE_NU and
# the Debye expansion the rest. Over the (nu, z) the density rule reaches,
# the log is within 3e-14 of a 40-digit reference for nu <= 10 and within
# 3e-13 beyond. MAX_BESSEL_Z is the largest z validated; above it the
# function returns NaN.
HANKEL_Z = 20.0
HANKEL_TERMS = 30
DEBYE_NU = 20.0
DEBYE_TERMS = 12
MAX_BESSEL_Z = 2.0 ** 30


@lru_cache(maxsize=1)
def _debye_polynomials() -> tuple[np.ndarray, ...]:
    """Coefficients, lowest power first, of the first DEBYE_TERMS Debye
    polynomials: u_0 = 1 and
    u_(k+1)(p) = p^2 (1 - p^2) u_k'(p) / 2 + int_0^p (1 - 5t^2) u_k(t) dt / 8,
    formed exactly and then rounded."""
    polys = [[Fraction(1)]]
    for _ in range(DEBYE_TERMS - 1):
        u = polys[-1]
        nxt = [Fraction(0)] * (len(u) + 3)
        for i, c in enumerate(u):
            nxt[i + 1] += i * c / 2 + c / (8 * (i + 1))
            nxt[i + 3] -= i * c / 2 + 5 * c / (8 * (i + 3))
        polys.append(nxt)
    return tuple(np.array([float(c) for c in u]) for u in polys)


def _log_scaled_bessel(nu: float, z: np.ndarray) -> np.ndarray:
    """log(0F1(; nu+1; z^2/4) e^(-z)) = log(Gamma(nu+1) (z/2)^(-nu) I_nu(z) e^(-z))
    for nu > -1 and z >= 0, with numpy alone; 0 at z = 0.

    Series where z < max(HANKEL_Z, nu^2/2) for nu < DEBYE_NU, and where
    z^2/4 <= nu + 1 otherwise: the terms y^j / (j! (nu+1)_j), y = z^2/4, are
    positive and are summed until each is below 1e-17 of the sum. Hankel
    above that for nu < DEBYE_NU: e^(-z) I_nu(z) ~ (2 pi z)^(-1/2) sum_k
    (-1)^k a_k(nu) / z^k with a_k / a_(k-1) = (4 nu^2 - (2k-1)^2) / (8k); at
    z >= nu^2/2 no term exceeds the one before, and at z >= HANKEL_Z the
    first term omitted is below 1e-17. Debye above it for nu >= DEBYE_NU:
    with s = sqrt(nu^2 + z^2) and p = nu/s,
    I_nu(z) ~ e^s (z / (nu + s))^nu (2 pi s)^(-1/2) sum_k u_k(p) / nu^k,
    uniformly in z; its factor (z/2)^nu cancels before rounding.
    """
    out = np.empty_like(z)
    if nu < DEBYE_NU:
        series = z < max(HANKEL_Z, 0.5 * nu * nu)
    else:
        series = 0.25 * z * z <= nu + 1.0
    zs = z[series]
    y = 0.25 * zs * zs
    term = np.ones_like(zs)
    total = np.ones_like(zs)
    j = 0
    while np.any(term > 1e-17 * total):
        j += 1
        term = term * y / ((nu + j) * j)
        total = total + term
    out[series] = np.log(total) - zs
    za = z[~series]
    if nu < DEBYE_NU:
        term = np.ones_like(za)
        total = np.ones_like(za)
        for k in range(1, HANKEL_TERMS + 1):
            term = term * ((2 * k - 1) ** 2 - 4.0 * nu * nu) / (8 * k * za)
            total = total + term
        out[~series] = (math.lgamma(nu + 1.0) - nu * np.log(0.5 * za)
                        - 0.5 * np.log(2.0 * math.pi * za) + np.log(total))
    else:
        s = np.hypot(nu, za)
        p = nu / s
        total = np.zeros_like(za)
        for u in reversed(_debye_polynomials()):
            total = total / nu + np.polynomial.polynomial.polyval(p, u)
        out[~series] = (math.lgamma(nu + 1.0) + nu * np.log(2.0 / (nu + s))
                        + nu * nu / (s + za) - 0.5 * np.log(2.0 * math.pi * s)
                        + np.log(total))
    out[z > MAX_BESSEL_Z] = np.nan
    return out


def _log_density_factor(x: np.ndarray, params: NoncentralParams) -> np.ndarray:
    """log(pdf(x) / x^(k/2 - 1)) for x > 0, without overflow.

    pdf(x) / x^(k/2-1) = 2^(-k/2) e^(-(x+lam)/2) 0F1(; k/2; z^2/4) / Gamma(k/2)
    with z = sqrt(lam x). _log_scaled_bessel gives 0F1 scaled by e^(-z), and
    the exponentials meet as -(sqrt(x) - sqrt(lam))^2 / 2, so nothing
    overflows at any lam; at lam = 0 the factor 0F1 is 1.
    """
    half_k = 0.5 * params.k
    return (_log_scaled_bessel(half_k - 1.0, np.sqrt(params.lam * x))
            - 0.5 * (np.sqrt(x) - math.sqrt(params.lam)) ** 2
            - math.lgamma(half_k) - half_k * math.log(2.0))


@lru_cache(maxsize=32)
def _jacobi_rule(power: float) -> tuple[np.ndarray, np.ndarray]:
    """PANEL_NODES-node Gauss-Jacobi rule on (-1, 1) for the weight
    (1 + t)^power, as read-only arrays (nodes, weights); power 0 is the
    Gauss-Legendre rule.

    gaussian.golub_welsch builds it from the orthonormal Jacobi recurrence
    (alpha = 0, beta = power), and the weights are scaled to the weight's
    mass 2^(power+1) / (power+1). That mass is formed first, so a power too
    large for float64 raises OverflowError before any array work.
    """
    mass = 2.0 ** (power + 1.0) / (power + 1.0)
    k = np.arange(1.0, PANEL_NODES + 1)
    s = 2.0 * k + power
    off = 2.0 * k * (k + power) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    diag = np.empty(PANEL_NODES)
    diag[0] = power / (power + 2.0)
    diag[1:] = power * power / (s[:-1] * (s[:-1] + 2.0))
    nodes, weights = golub_welsch(diag, off, lambda t: power * np.log1p(t))
    weights = weights * (mass / weights.sum())
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _density_rule(params: NoncentralParams,
                  panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, density folded in, of the composite rule on (0, cutoff).

    `panels` equal panels of PANEL_NODES nodes each: Gauss-Jacobi with weight
    x^(k/2-1) on the first, so the endpoint power is integrated exactly, and
    Gauss-Legendre, `_jacobi_rule(0.0)`, on the rest. The reference rules are
    built once per power, this rule on every call. ValueError marks a rule
    float64 cannot serve: k below MIN_K, first-panel weights that overflow
    at large k (400 at lam = 1), and a Bessel factor that is NaN for
    sqrt(lam x) above MAX_BESSEL_Z.
    """
    if panels < 1:
        raise ValueError("need at least one panel")
    if params.k < MIN_K:
        raise ValueError(
            f"noncentral density rule is refused at k = {params.k}, lambda = "
            f"{params.lam}: below k = {MIN_K:g}, forming k/2 as (k/2 - 1) + 1 "
            f"in float64 moves the normalization by more than 1e-11")
    power = 0.5 * params.k - 1.0
    width = params.density_cutoff() / panels
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            t, wj = _jacobi_rule(power)
            first_w = wj * (0.5 * width) ** (power + 1.0)
    except ArithmeticError:
        raise ValueError(
            f"noncentral density rule does not build in float64 at k = "
            f"{params.k}, lambda = {params.lam}: the first panel's Gauss-Jacobi "
            f"weights, scaled by its half-width to the power k/2, overflow"
        ) from None
    first = 0.5 * width * (t + 1.0)
    u, wl = _jacobi_rule(0.0)
    left = width * np.arange(1, panels)[:, None]
    rest = (left + 0.5 * width * (u + 1.0)).ravel()
    # lam x overflows from about lam = 1e155; non-finite weights are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        first_w = first_w * np.exp(_log_density_factor(first, params))
        rest_w = np.tile(0.5 * width * wl, panels - 1) * np.exp(
            power * np.log(rest) + _log_density_factor(rest, params))
    nodes = np.concatenate([first, rest])
    weights = np.concatenate([first_w, rest_w])
    if not np.all(np.isfinite(weights)):
        raise ValueError(
            f"noncentral density rule has non-finite weights at k = "
            f"{params.k}, lambda = {params.lam}: the Bessel factor is "
            f"validated only for sqrt(lambda x) up to {MAX_BESSEL_Z:g}")
    return nodes, weights


def density_integral(params: NoncentralParams, func,
                     panels: int = 2 * FIRST_PANELS):
    """Integral of func(x) * pdf(x) over (0, cutoff) by the composite rule.

    `func` receives the whole node array; a scalar return is broadcast. A
    sequence of such funcs gives the list of their integrals.
    """
    x, w = _density_rule(params, panels)
    if callable(func):
        return float(np.dot(w, np.broadcast_to(func(x), x.shape)))
    return [float(np.dot(w, np.broadcast_to(f(x), x.shape))) for f in func]


class ResolvedIntegral(NamedTuple):
    """An estimate, the panel count it used, and whether the gate resolved."""

    value: float
    panels: int
    resolved: bool


def resolved_density_integrals(params: NoncentralParams,
                                legs) -> list[ResolvedIntegral]:
    """density_integral behind a resolution gate, for each (func, tol) leg.

    A leg's panel count doubles from FIRST_PANELS until two consecutive
    estimates agree within tol/10, giving the finer one, or reaches
    MAX_PANELS, giving the last with resolved False. One density_integral
    call per panel count serves every leg still open.
    """
    panels = min(FIRST_PANELS, MAX_PANELS)
    results = [ResolvedIntegral(value, panels, False) for value in
               density_integral(params, [func for func, _ in legs], panels)]
    while panels < MAX_PANELS and not all(r.resolved for r in results):
        panels *= 2
        pending = [i for i, r in enumerate(results) if not r.resolved]
        finer = density_integral(params, [legs[i][0] for i in pending], panels)
        for i, value in zip(pending, finer):
            results[i] = ResolvedIntegral(
                value, panels, abs(value - results[i].value) <= 0.1 * legs[i][1])
    return results
