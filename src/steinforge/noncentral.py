"""Noncentral chi-square: density, density rule and sampling.

The density route exists because this law is a k-fold sum rather than a
single polynomial pushforward, so the symbolic annihilation path does not
apply; verification integrates the operator against the density instead,
and for integer degrees of freedom a sampling route cross-checks it.

Density rule. E[h(X)] is integrated over (0, density_cutoff()) by one
composite rule of equal panels with PANEL_NODES nodes each: Gauss-Jacobi
with weight x^(k/2-1) on the first panel, so the endpoint power (a
singularity for k < 2) is integrated exactly, and Gauss-Legendre on the
others. The weights carry the smooth rest of the density,
pdf(x) / x^(k/2-1), computed in log space, so no lam overflows it. The
integrand is called once, on the whole node array.

Resolution gate. resolved_density_integral starts at FIRST_PANELS against
twice as many and doubles until two consecutive estimates agree within
tol/10, up to MAX_PANELS. A density verdict uses the finer estimate and
passes only when the gate resolved.

scipy. The rule needs scipy.special only (ive, gammaln, roots_jacobi; the
last loads scipy.linalg), imported inside the functions that use it, so
importing this module loads no scipy. bessel_i and noncentral_pdf are the
per-point series reference that tests compare the rule against; the series
overflows for large lam * x, the rule does not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .gaussian import _CHUNK, _normal_chunk


@dataclass(frozen=True)
class NoncentralParams:
    """Degrees of freedom k > 0 and noncentrality lam >= 0.

    When component means are given, k must be their (integer) count and
    lam their squared sum; that form enables exact sampling as a sum of
    squared shifted Gaussians.
    """

    k: float
    lam: float
    means: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("degrees of freedom must be positive")
        if self.lam < 0:
            raise ValueError("noncentrality must be nonnegative")
        if self.means is not None:
            if len(self.means) != int(self.k) or self.k != int(self.k):
                raise ValueError("means require integer k matching their count")
            if abs(sum(m * m for m in self.means) - self.lam) > 1e-12:
                raise ValueError("noncentrality must equal the squared mean sum")

    @classmethod
    def from_means(cls, means: Sequence[float]) -> "NoncentralParams":
        means = tuple(float(m) for m in means)
        return cls(k=float(len(means)), lam=sum(m * m for m in means), means=means)

    def component_means(self) -> tuple[float, ...]:
        """Means for sampling; defaults to (sqrt(lam), 0, ..., 0)."""
        if self.means is not None:
            return self.means
        if self.k != int(self.k):
            raise ValueError("sampling requires integer degrees of freedom")
        return (math.sqrt(self.lam),) + (0.0,) * (int(self.k) - 1)

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
    from scipy.special import gammaln, ive
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
    out[series] = (np.log(total) - gammaln(half_k)
                   - 0.5 * (x[series] + params.lam))
    xb = x[~series]
    z = np.sqrt(params.lam * xb)
    nu = half_k - 1.0
    out[~series] = (np.log(ive(nu, z)) - nu * np.log(0.5 * z)
                    - 0.5 * (np.sqrt(xb) - math.sqrt(params.lam)) ** 2)
    return out - half_k * math.log(2.0)


@lru_cache(maxsize=32)
def _density_rule(params: NoncentralParams,
                  panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, density folded in, of the composite rule on (0, cutoff).

    `panels` equal panels of PANEL_NODES nodes each: Gauss-Jacobi with weight
    x^(k/2-1) on the first, so the endpoint power is integrated exactly, and
    Gauss-Legendre on the rest. The arrays are cached and read-only.
    """
    from scipy.special import roots_jacobi
    if panels < 1:
        raise ValueError("need at least one panel")
    power = 0.5 * params.k - 1.0
    width = params.density_cutoff() / panels
    t, wj = roots_jacobi(PANEL_NODES, 0.0, power)
    first = 0.5 * width * (t + 1.0)
    first_w = wj * (0.5 * width) ** (power + 1.0) \
        * np.exp(_log_density_factor(first, params))
    u, wl = np.polynomial.legendre.leggauss(PANEL_NODES)
    left = width * np.arange(1, panels)[:, None]
    rest = (left + 0.5 * width * (u + 1.0)).ravel()
    rest_w = np.tile(0.5 * width * wl, panels - 1) * np.exp(
        power * np.log(rest) + _log_density_factor(rest, params))
    nodes = np.concatenate([first, rest])
    weights = np.concatenate([first_w, rest_w])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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


def sample_noncentral(params: NoncentralParams, seed: int,
                      total: int) -> Iterator[tuple[int, np.ndarray]]:
    """Chunked deterministic draws of X = sum (Z_i + mu_i)^2, integer k only.

    Component i consumes the Philox stream keyed by (seed, (i+1) << 40 | chunk),
    so the draw sequence is independent of chunk scheduling.
    """
    mus = params.component_means()
    chunks = (total + _CHUNK - 1) // _CHUNK
    for idx in range(chunks):
        size = min(_CHUNK, total - idx * _CHUNK)
        x = np.zeros(size)
        for comp, mu in enumerate(mus):
            z = _normal_chunk(seed, ((comp + 1) << 40) + idx)[:size]
            x += (z + mu) ** 2
        yield idx, x
