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
overflows it. The integrand is called once, on the whole node array.

Resolution gate. resolved_density_integral starts at FIRST_PANELS against
twice as many and doubles until two consecutive estimates agree within
tol/10, up to MAX_PANELS. A density verdict uses the finer estimate and
passes only when the gate resolved.

scipy. The rule needs scipy.special only for ive, imported inside the
function that uses it, so importing this module loads no scipy. The
Gauss-Jacobi rule of every panel is built by gaussian.golub_welsch with
numpy alone, so scipy.linalg never loads. bessel_i and noncentral_pdf are
the per-point series reference that tests compare the rule against; the
series overflows for large lam * x, the rule does not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gaussian import golub_welsch


@dataclass(frozen=True)
class NoncentralParams:
    """Finite degrees of freedom k > 0 and finite noncentrality lam >= 0."""

    k: float
    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and math.isfinite(self.lam)):
            raise ValueError("degrees of freedom and noncentrality must be finite")
        if self.k <= 0:
            raise ValueError("degrees of freedom must be positive")
        if self.lam < 0:
            raise ValueError("noncentrality must be nonnegative")

    @property
    def mean(self) -> float:
        return self.k + self.lam

    @property
    def variance(self) -> float:
        return 2.0 * (self.k + 2.0 * self.lam)

    def density_cutoff(self) -> float:
        """Upper integration limit; the neglected tail decays exponentially."""
        return self.mean + 40.0 * math.sqrt(self.variance)


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


def _log_density_factor(x: np.ndarray, params: NoncentralParams) -> np.ndarray:
    """log(pdf(x) / x^(k/2 - 1)) for x > 0, without overflow.

    pdf(x) / x^(k/2-1) = 2^(-k/2) e^(-(x+lam)/2) 0F1(; k/2; y) / Gamma(k/2)
    with y = lam x / 4. Where y <= k/2 (always when lam = 0) the 0F1 series
    is summed to 20 terms: each term is at most 1/j! there and the sum is at
    least 1, so the relative remainder is below 1e-19. Elsewhere
    0F1(; nu+1; y) = Gamma(nu+1) (z/2)^(-nu) I_nu(z) with z = sqrt(lam x) and
    nu = k/2 - 1, and with I_nu(z) = ive(nu, z) e^z the exponentials meet as
    -(sqrt(x) - sqrt(lam))^2 / 2, so nothing overflows at any lam.
    """
    from scipy.special import ive
    half_k = 0.5 * params.k
    y = 0.25 * params.lam * x
    series = y <= half_k
    out = np.empty_like(x)
    ys = y[series]
    term = np.ones_like(ys)
    total = np.ones_like(ys)
    for j in range(1, 21):
        term = term * ys / ((half_k + j - 1.0) * j)
        total = total + term
    out[series] = (np.log(total) - math.lgamma(half_k)
                   - 0.5 * (x[series] + params.lam))
    xb = x[~series]
    z = np.sqrt(params.lam * xb)
    nu = half_k - 1.0
    out[~series] = (np.log(ive(nu, z)) - nu * np.log(0.5 * z)
                    - 0.5 * (np.sqrt(xb) - math.sqrt(params.lam)) ** 2)
    return out - half_k * math.log(2.0)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


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
    return _read_only(nodes, weights * (mass / weights.sum()))


@lru_cache(maxsize=32)
def _density_rule(params: NoncentralParams,
                  panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, density folded in, of the composite rule on (0, cutoff).

    `panels` equal panels of PANEL_NODES nodes each: Gauss-Jacobi with weight
    x^(k/2-1) on the first, so the endpoint power is integrated exactly, and
    Gauss-Legendre, `_jacobi_rule(0.0)`, on the rest. The reference rules are
    built once per power; the arrays are cached and read-only. ValueError
    marks a rule that does not build in float64: the first panel's weights
    overflow at large k (400 at lam = 1), and scipy.special.ive is NaN for
    sqrt(lam x) above about 1e9.
    """
    if panels < 1:
        raise ValueError("need at least one panel")
    power = 0.5 * params.k - 1.0
    width = params.density_cutoff() / panels
    try:
        with np.errstate(over="raise"):
            t, wj = _jacobi_rule(power)
            first_w = wj * (0.5 * width) ** (power + 1.0)
    except (OverflowError, FloatingPointError):
        raise ValueError(
            f"noncentral density rule does not build in float64 at k = "
            f"{params.k}, lambda = {params.lam}: the first panel's Gauss-Jacobi "
            f"weights, scaled by its half-width to the power k/2, overflow") from None
    first = 0.5 * width * (t + 1.0)
    first_w = first_w * np.exp(_log_density_factor(first, params))
    u, wl = _jacobi_rule(0.0)
    left = width * np.arange(1, panels)[:, None]
    rest = (left + 0.5 * width * (u + 1.0)).ravel()
    rest_w = np.tile(0.5 * width * wl, panels - 1) * np.exp(
        power * np.log(rest) + _log_density_factor(rest, params))
    nodes = np.concatenate([first, rest])
    weights = np.concatenate([first_w, rest_w])
    if not np.all(np.isfinite(weights)):
        raise ValueError(
            f"noncentral density rule has non-finite weights at k = "
            f"{params.k}, lambda = {params.lam}: scipy.special.ive fails "
            f"for sqrt(lambda x) above about 1e9")
    return _read_only(nodes, weights)


def density_integral(params: NoncentralParams, func,
                     panels: int = 2 * FIRST_PANELS) -> float:
    """Integral of func(x) * pdf(x) over (0, cutoff) by the composite rule.

    `func` receives the whole node array; a scalar return is broadcast.
    """
    x, w = _density_rule(params, panels)
    return float(np.dot(w, np.broadcast_to(func(x), x.shape)))


class ResolvedIntegral(NamedTuple):
    """An estimate, the panel count it used, and whether the gate resolved."""

    value: float
    panels: int
    resolved: bool


def resolved_density_integral(params: NoncentralParams, func,
                              tol: float) -> ResolvedIntegral:
    """density_integral behind a resolution gate.

    Starting from FIRST_PANELS panels, the count doubles until two
    consecutive estimates agree within tol/10; the finer one is returned.
    Reaching MAX_PANELS first returns the last estimate with resolved False.
    """
    panels = min(FIRST_PANELS, MAX_PANELS)
    value = density_integral(params, func, panels)
    while panels < MAX_PANELS:
        previous, panels = value, 2 * panels
        value = density_integral(params, func, panels)
        if abs(value - previous) <= 0.1 * tol:
            return ResolvedIntegral(value, panels, True)
    return ResolvedIntegral(value, panels, False)
