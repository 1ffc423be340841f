"""Noncentral chi-square: density, Bessel series, and operator checks.

The density route exists because this law is a k-fold sum rather than a
single polynomial pushforward, so the symbolic annihilation path does not
apply; verification integrates the operator against the density instead,
and for integer degrees of freedom a sampling route cross-checks it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

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


def density_integral(params: NoncentralParams, func) -> float:
    """Integral of func(x) * pdf(x) over (0, cutoff) by adaptive quadrature."""
    # lazy: commands that never integrate numerically start faster
    from scipy.integrate import quad
    cutoff = params.density_cutoff()
    value, _ = quad(lambda x: func(x) * noncentral_pdf(x, params), 0.0, cutoff,
                    epsabs=1e-13, epsrel=1e-12, limit=400)
    return value


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
