"""Gauss-Hermite quadrature and seeded Gaussian sampling, in float64.

The weight is the standard Gaussian density exp(-x^2/2)/sqrt(2*pi). The
exact quantities these are checked against, Hermite polynomials and Gaussian
moments, live in `poly`, which loads no numpy.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .poly import gaussian_moment


class QuadratureValidationError(RuntimeError):
    """A constructed rule failed its exactness check against known moments."""


def _validate_rule(nodes: np.ndarray, weights: np.ndarray, rtol: float = 1e-12) -> None:
    n = len(nodes)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise QuadratureValidationError(
            f"insufficient float precision at n={n}; lower n")
    if abs(weights.sum() - 1.0) > 1e-13:
        raise QuadratureValidationError(f"weights sum to {weights.sum()!r}, not 1")
    if not np.all(np.diff(nodes) > 0):
        raise QuadratureValidationError("nodes not strictly increasing")
    # Exactness check up to degree 2n-1. Powers are computed on nodes scaled
    # by the largest node so that nothing overflows even at n ~ 200, and the
    # reference moment is rescaled exactly through Fraction before rounding.
    scale = float(np.max(np.abs(nodes))) if n > 1 else 1.0
    scaled = nodes / scale
    powers = weights.copy()
    for k in range(0, 2 * n):
        if k > 0:
            powers = powers * scaled
        got = float(powers.sum())
        expected_exact = gaussian_moment(k) / (Fraction(scale) ** k if k else 1)
        expected = float(expected_exact)
        if 0.0 < expected < 1e-250:
            # scaled reference leaves the reliable float64 range (only
            # reachable for n well above 201); nothing left to compare
            continue
        if expected == 0.0:
            # odd moment: compare against the same-magnitude positive sum
            magnitude = float(np.dot(weights, np.abs(scaled) ** k)) if k else 1.0
            if abs(got) > rtol * max(magnitude, 1e-300):
                raise QuadratureValidationError(
                    f"odd moment {k} residual {got!r} at n={n}")
        elif abs(got - expected) > rtol * abs(expected):
            raise QuadratureValidationError(
                f"moment {k} mismatch at n={n}: {got!r} vs {expected!r}")


def _orthonormal_hermite_values(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Damped values q_k = p_k * exp(-x^2/4) of the orthonormal Hermite
    polynomials p_0..p_n at x.

    Returns (q_n(x), sum of q_k(x)^2 for k < n). The damping factor is
    constant in k, so the three-term recurrence is unchanged, ratios equal
    the undamped ratios, and magnitudes stay bounded for any practical n.
    """
    prev = np.exp(-0.25 * x * x)
    total = prev * prev
    cur = x * prev
    for k in range(1, n):
        total = total + cur * cur
        prev, cur = cur, (x * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)
    return cur, total


# Built rules by n. The arrays are read-only, so sharing them is safe.
_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Hermite rule for the weight exp(-z^2/2)/sqrt(2*pi),
    as read-only float64 arrays (nodes, weights).

    Weights sum to 1; nodes are strictly increasing and sign-symmetric, and
    the rule integrates z^k exactly for k <= 2n-1. Nodes start as
    eigenvalues of the symmetric tridiagonal Jacobi matrix of the Hermite
    recurrence (off-diagonal sqrt(k)) and are polished by Newton steps on
    the orthonormal recurrence; weights are the Christoffel numbers
    1 / sum_k p_k(x_i)^2. The rule is checked against exact moments up to
    degree 2n-1 before being returned. Built rules are cached by n; a build
    that fails raises again on the next call.
    """
    if n in _RULES:
        return _RULES[n]
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        nodes = np.array([0.0])
        weights = np.array([1.0])
    else:
        # lazy: commands that never integrate numerically start faster
        from scipy.linalg import eigh_tridiagonal
        diag = np.zeros(n)
        off = np.sqrt(np.arange(1.0, n))
        nodes, _ = eigh_tridiagonal(diag, off, select="a")
        # Newton polish: p_n'(x) = sqrt(n) p_{n-1}(x); eigenvalues are close
        # enough that three steps reach the float64 fixed point.
        for _ in range(3):
            pn, _ = _orthonormal_hermite_values(nodes, n)
            pn1, _ = _orthonormal_hermite_values(nodes, n - 1)
            nodes = nodes - pn / (math.sqrt(n) * pn1)
        _, sumsq = _orthonormal_hermite_values(nodes, n)
        weights = np.exp(-0.5 * nodes * nodes) / sumsq
        # enforce exact +/- symmetry of the nodes and weights
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
        weights = weights / weights.sum()
    _validate_rule(nodes, weights)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    rule = _RULES[n] = nodes, weights
    return rule


_CHUNK = 1 << 16


def _normal_chunk(seed: int, index: int) -> np.ndarray:
    """One deterministic chunk of standard normals keyed by (seed, chunk index).

    Uniforms come from a counter-based Philox stream and are mapped through
    the Box-Muller transform, so chunk i is the same regardless of how many
    chunks were drawn before it.
    """
    key = np.array([seed % (1 << 64), index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    u = gen.random(_CHUNK)
    u1 = 1.0 - u[0::2]  # in (0, 1]: keeps log() finite
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(_CHUNK)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out


def chunk_indices(total: int) -> range:
    """Chunk indices covering `total` samples; last chunk may be partial."""
    return range((total + _CHUNK - 1) // _CHUNK)


def chunk_normals(seed: int, index: int, total: int) -> np.ndarray:
    """Chunk `index` of a `total`-sample stream, truncated at the stream end."""
    start = index * _CHUNK
    return _normal_chunk(seed, index)[: min(_CHUNK, total - start)]
