"""Gauss-Hermite quadrature and seeded Gaussian sampling, in float64.

The weight is the standard Gaussian density exp(-x^2/2)/sqrt(2*pi). Rules
are built with numpy alone (golub_welsch, which noncentral's Gauss-Jacobi
panel rule shares) and checked against exact Gaussian moments. Normals come
in seeded chunks, drawn in blocks of _BLOCK samples; Monte Carlo evaluates
them in the same blocks and sums over the whole chunk.
"""
from __future__ import annotations

import numpy as np


class QuadratureValidationError(RuntimeError):
    """A constructed rule failed its exactness check against known moments."""


def _scaled_moments(scale: float, count: int) -> list[float]:
    """E[Z^k] / scale^k for k < count, each correctly rounded.

    One int true division per k over running integer powers of scale's
    exact ratio: Python rounds int / int correctly, as float(Fraction)
    does, so these are the values float(gaussian_moment(k) /
    Fraction(scale) ** k) without a Fraction power per k.
    """
    num, den = scale.as_integer_ratio()
    moment, num_k, den_k = 1, 1, 1
    out = []
    for k in range(count):
        if k:
            num_k *= num
            den_k *= den
            if k % 2 == 0:
                moment *= k - 1
        out.append(moment * den_k / num_k if k % 2 == 0 else 0.0)
    return out


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
    # reference moment is rescaled exactly before rounding.
    scale = float(np.max(np.abs(nodes))) if n > 1 else 1.0
    scaled = nodes / scale
    powers = weights.copy()
    for k, expected in enumerate(_scaled_moments(scale, 2 * n)):
        if k > 0:
            powers = powers * scaled
        got = float(powers.sum())
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


def _damped_recurrence(x: np.ndarray, diag: np.ndarray, off: np.ndarray,
                       log_weight) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped orthonormal polynomials q_k = d * p_k at x, d^2 proportional to
    the weight function at x (largest d^2 = 1).

    Returns (q_n(x), q_n'(x), sum of q_k(x)^2 for k < n, d^2), where q_n'
    stands for d * p_n'. The damping is constant in k, so q_k and d * p_k'
    follow the undamped three-term recurrence and its derivative, ratios
    equal the undamped ratios, and magnitudes stay bounded where p_k grows
    like 1 / sqrt(weight).
    """
    lw = log_weight(x)
    q = np.exp(0.5 * (lw - lw.max()))
    damping_sq = q * q
    total = damping_sq
    q_prev = dq = dq_prev = np.zeros_like(x)
    for k in range(len(diag)):
        if k:
            total = total + q * q
        b = off[k - 1] if k else 0.0
        q_prev, q, dq_prev, dq = (
            q, ((x - diag[k]) * q - b * q_prev) / off[k],
            dq, ((x - diag[k]) * dq + q - b * dq_prev) / off[k])
    return q, dq, total, damping_sq


def golub_welsch(diag: np.ndarray, off: np.ndarray,
                 log_weight) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of len(diag) nodes for a weight function w, with weights
    proportional to the Christoffel numbers (callers scale them).

    The orthonormal polynomials of w satisfy
        x p_k = off[k] p_(k+1) + diag[k] p_k + off[k-1] p_(k-1),
    so off holds len(diag) entries and only its last is outside the Jacobi
    matrix; log_weight(x) is log w(x) up to a constant. Following Golub &
    Welsch (Math. Comp. 1969), the nodes start as the eigenvalues of the
    symmetric tridiagonal Jacobi matrix (numpy's eigvalsh, so no scipy) and
    are polished by three Newton steps on the damped recurrence, which reach
    the float64 fixed point; the weights are 1 / sum_k p_k(x_i)^2 from the
    polished recurrence, which keeps the small ones to full relative
    precision where eigenvector weights do not.
    """
    jacobi = np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1)
    nodes = np.linalg.eigvalsh(jacobi)
    for _ in range(3):
        q, dq, _, _ = _damped_recurrence(nodes, diag, off, log_weight)
        nodes = nodes - q / dq
    _, _, total, damping_sq = _damped_recurrence(nodes, diag, off, log_weight)
    return nodes, damping_sq / total


# Built rules by n. The arrays are read-only, so sharing them is safe.
_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Hermite rule for the weight exp(-z^2/2)/sqrt(2*pi),
    as read-only float64 arrays (nodes, weights).

    Weights sum to 1; nodes are strictly increasing and sign-symmetric, and
    the rule integrates z^k exactly for k <= 2n-1. golub_welsch builds it
    from the Hermite recurrence (diagonal 0, off-diagonal sqrt(k)) with
    numpy alone, damping by exp(-z^2/4) up to a constant; the nodes and
    weights are then made exactly +/- symmetric. The rule is checked against exact moments
    up to degree 2n-1 before being returned. Built rules are cached by n; a
    build that fails raises again on the next call.
    """
    if n in _RULES:
        return _RULES[n]
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        nodes = np.array([0.0])
        weights = np.array([1.0])
    else:
        nodes, weights = golub_welsch(np.zeros(n), np.sqrt(np.arange(1.0, n + 1)),
                                      lambda z: -0.5 * z * z)
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
        weights = weights / weights.sum()
    _validate_rule(nodes, weights)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    rule = _RULES[n] = nodes, weights
    return rule


_CHUNK = 1 << 16
# Samples per block: chunks are drawn and evaluated in blocks, so each
# temporary is 32 KB; only sums see the whole chunk.
_BLOCK = 1 << 12


def _normal_chunk(seed: int, index: int, size: int) -> np.ndarray:
    """The first `size` <= _CHUNK standard normals of one deterministic
    chunk keyed by (seed, chunk index).

    Uniforms come from a counter-based Philox stream and are mapped through
    the Box-Muller transform, so chunk i is the same regardless of how many
    chunks were drawn before it. Only the ceil(size / _BLOCK) blocks of
    _BLOCK samples that hold the prefix are drawn; consecutive draws
    continue one stream and Box-Muller maps each pair on its own, so the
    bytes are those of the prefix of one whole-chunk draw.
    """
    key = np.array([seed % (1 << 64), index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    out = np.empty(-(-size // _BLOCK) * _BLOCK)
    for start in range(0, len(out), _BLOCK):
        u = gen.random(_BLOCK)
        # 1 - u is in (0, 1], so log() is finite
        r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        angle = 2.0 * np.pi * u[1::2]
        out[start:start + _BLOCK:2] = r * np.cos(angle)
        out[start + 1:start + _BLOCK:2] = r * np.sin(angle)
    return out[:size]


def chunk_indices(total: int) -> range:
    """Chunk indices covering `total` samples; last chunk may be partial."""
    return range((total + _CHUNK - 1) // _CHUNK)


def chunk_normals(seed: int, index: int, total: int) -> np.ndarray:
    """Chunk `index` of a `total`-sample stream, truncated at the stream end."""
    return _normal_chunk(seed, index, min(_CHUNK, total - index * _CHUNK))
