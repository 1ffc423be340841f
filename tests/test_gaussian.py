"""Hermite polynomials, Gaussian moments, quadrature, sampling."""
from __future__ import annotations

import copy
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinforge import gaussian
from steinforge.derivation import derive_operator, operator_image, verify_certificate
from steinforge.gaussian import (QuadratureValidationError, _scaled_moments,
                                 _validate_rule, chunk_indices, chunk_normals,
                                 gauss_hermite_rule)
from steinforge.poly import (Polynomial, gaussian_moment, hermite, power_table,
                             pushforward_moment)
from steinforge.verify import verify_symbolic
from test_derivation import rational_polys


def test_hermite_small():
    assert hermite(0) == Polynomial([1])
    assert hermite(1) == Polynomial([0, 1])
    assert hermite(2) == Polynomial([-1, 0, 1])
    assert hermite(3) == Polynomial([0, -3, 0, 1])
    assert hermite(4) == Polynomial([3, 0, -6, 0, 1])
    assert hermite(5) == Polynomial([0, 15, 0, -10, 0, 1])
    assert hermite(6) == Polynomial([-15, 0, 45, 0, -15, 0, 1])


def test_hermite_derivative_identity():
    for n in range(1, 13):
        assert hermite(n).derivative() == n * hermite(n - 1)


def test_gaussian_moment_values():
    assert gaussian_moment(0) == 1
    assert gaussian_moment(4) == 3
    assert gaussian_moment(7) == 0
    # (12-1)!! computed independently
    assert gaussian_moment(12) == math.prod(range(1, 12, 2)) == 10395


def test_pushforward_moment_examples():
    assert pushforward_moment(hermite(3), 2) == 6
    assert pushforward_moment(hermite(4), 2) == 24
    assert pushforward_moment(hermite(4), 0) == 1
    assert pushforward_moment(Polynomial([1, 2, 3]), 0) == 1


def test_pushforward_orthogonality_factorial():
    for n in range(1, 9):
        assert pushforward_moment(hermite(n), 2) == math.factorial(n)


@settings(deadline=None, max_examples=30)
@given(rational_polys(), st.lists(st.integers(0, 40), min_size=1, max_size=4))
def test_powers_and_moments_match_composition(P, ds):
    # the table's integer powers, asked for in any order, equal r^d times
    # x^d composed with P, and each moment equals that expansion summed
    # against E[Z^i]
    for d in ds:
        reference = Polynomial.monomial(d).compose(P)
        r, powers, moments = power_table(P, d)
        assert len(powers) == len(moments) == d + 1
        assert r == math.lcm(*[c.denominator for c in P.coeffs])
        assert all(isinstance(c, int) for c in powers[d])
        assert Polynomial(powers[d]) == reference * r ** d
        expected = sum((c * gaussian_moment(i) for i, c in enumerate(reference.coeffs)),
                       Fraction(0))
        assert moments[d] == pushforward_moment(P, d) == expected


def test_power_beyond_recursion_limit():
    r, powers, moments = power_table(Polynomial.constant(2), 5000)
    assert r == 1 and powers[5000] == [2 ** 5000] and moments[5000] == 2 ** 5000


def test_power_table_of_zero_and_of_a_rational_constant():
    assert power_table(Polynomial.zero(), 3) == (1, [[1], [], [], []], [1, 0, 0, 0])
    assert power_table(Polynomial.constant(Fraction(1, 2)), 2) == (
        2, [[1], [1], [1]], [1, Fraction(1, 2), Fraction(1, 4)])


def test_power_table_refuses_negative_degrees():
    with pytest.raises(ValueError):
        power_table(hermite(3), -1)
    with pytest.raises(ValueError):
        pushforward_moment(hermite(3), -1)


def test_power_table_edits_reach_no_later_caller():
    # every call builds its own table: editing in place every list one call
    # returns changes no later table, operator image, symbolic check or
    # certificate replay for the same P
    H3 = hermite(3)
    result = derive_operator(H3, 5, 2)
    op = result.operator
    table = copy.deepcopy(power_table(H3, 40))
    image = operator_image(op, H3)
    symbolic = verify_symbolic(op, H3).to_dict()
    assert symbolic["pass"] and verify_certificate(result, H3)
    r, powers, moments = power_table(H3, 40)
    for power in powers:
        power[0] += 1
    powers.append([1])
    moments[2] += 1
    moments.append(Fraction(1))
    assert power_table(H3, 40) == table
    assert operator_image(op, H3) == image
    assert verify_symbolic(op, H3).to_dict() == symbolic
    assert verify_certificate(result, H3)


def test_hermite_orthogonality():
    # E[He_m He_n] = n! [m=n], via exact product expansion
    for m in range(0, 9):
        for n in range(0, 9):
            prod = hermite(m) * hermite(n)
            val = sum((c * gaussian_moment(i) for i, c in enumerate(prod.coeffs)),
                      Fraction(0))
            assert val == (math.factorial(n) if m == n else 0)


def test_rule_small_closed_forms():
    nodes, weights = gauss_hermite_rule(1)
    assert nodes.tolist() == [0.0] and weights.tolist() == [1.0]
    nodes, weights = gauss_hermite_rule(2)
    assert nodes == pytest.approx([-1.0, 1.0], abs=1e-15)
    assert weights == pytest.approx([0.5, 0.5], abs=1e-15)
    nodes, weights = gauss_hermite_rule(3)
    s3 = math.sqrt(3.0)
    assert nodes == pytest.approx([-s3, 0.0, s3], abs=1e-14)
    assert weights == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-14)


@pytest.mark.parametrize("n", list(range(1, 61)) + [101, 201])
def test_rule_validates_all_required_sizes(n):
    nodes, weights = gauss_hermite_rule(n)  # construction runs the moment check
    assert nodes.dtype == weights.dtype == np.float64
    assert nodes.shape == weights.shape == (n,)
    assert abs(weights.sum() - 1.0) <= 1e-13
    assert np.all(np.diff(nodes) > 0)
    # symmetry: +/- node pairs with equal weights
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])


def test_rule_is_built_once_per_n():
    assert gauss_hermite_rule(201) is gauss_hermite_rule(201)


def test_cached_rule_is_read_only():
    nodes, weights = gauss_hermite_rule(7)
    before = nodes.copy(), weights.copy()
    for array in (nodes, weights):
        with pytest.raises(ValueError):
            array[0] = 1.0
        with pytest.raises(ValueError):
            array *= 2.0
    again = gauss_hermite_rule(7)
    assert again[0] is nodes and again[1] is weights
    assert np.array_equal(nodes, before[0]) and np.array_equal(weights, before[1])


def _stream(seed: int, total: int) -> np.ndarray:
    return np.concatenate([chunk_normals(seed, i, total)
                           for i in chunk_indices(total)])


def test_sampler_determinism():
    a = _stream(7, 100_000)
    assert a.shape == (100_000,)
    assert np.array_equal(a, _stream(7, 100_000))
    assert not np.array_equal(a, _stream(8, 100_000))


def test_chunk_is_independent_of_the_stream_length():
    # chunk i depends only on (seed, i): a longer stream extends a shorter one
    short, long = _stream(3, 100_000), _stream(3, 200_000)
    assert np.array_equal(long[:100_000], short)
    assert not np.array_equal(chunk_normals(3, 0, 200_000),
                              chunk_normals(3, 1, 200_000))


def _whole_chunk(seed: int, index: int) -> np.ndarray:
    """Chunk `index` drawn whole, with the angle formed once for cos and
    once for sin: the reference for `_normal_chunk`."""
    key = np.array([seed % (1 << 64), index], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(gaussian._CHUNK)
    r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    want = np.empty(gaussian._CHUNK)
    want[0::2] = r * np.cos(2.0 * np.pi * u[1::2])
    want[1::2] = r * np.sin(2.0 * np.pi * u[1::2])
    return want


@pytest.mark.parametrize("seed,index", [(0, 0), (7, 3), (2 ** 64 + 5, 1), (12345, 40)])
def test_chunk_bytes_match_the_two_angle_expression(seed, index):
    # Box-Muller with the angle 2 pi u2 formed once gives the bits of the
    # expression that formed it once for cos and once for sin
    got = gaussian._normal_chunk(seed, index, gaussian._CHUNK)
    assert got.tobytes() == _whole_chunk(seed, index).tobytes()


@pytest.mark.parametrize("size", [1, 2, 3392, 4095, 4096, 4097, 65535, 65536])
def test_a_partial_chunk_is_the_prefix_of_the_whole_draw(size):
    # only the blocks that hold the prefix are drawn, from the same stream;
    # 3392 is the last chunk of a 200 000-sample run
    seed, index = 11, 3
    want = _whole_chunk(seed, index)[:size].tobytes()
    assert gaussian._normal_chunk(seed, index, size).tobytes() == want
    total = index * gaussian._CHUNK + size
    assert chunk_normals(seed, index, total).tobytes() == want


def test_sampler_clt_bounds():
    x = _stream(12345, 1_000_000)
    assert abs(x.mean()) <= 5e-3
    assert abs(x.var(ddof=1) - 1.0) <= 1e-2


@given(st.integers(0, 40))
def test_odd_moments_vanish(n):
    assert gaussian_moment(2 * n + 1) == 0


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 12), st.integers(0, 8))
def test_quadrature_matches_exact_moment(n, k):
    # moments of degree <= 2n-1 are integrated exactly up to roundoff
    if k > 2 * n - 1:
        k = 2 * n - 1
    nodes, weights = gauss_hermite_rule(n)
    got = float(np.dot(weights, nodes ** k))
    assert got == pytest.approx(float(gaussian_moment(k)), abs=1e-10)


def test_validation_rejects_corrupt_rule():
    nodes, weights = gauss_hermite_rule(5)
    weights = weights.copy()
    weights[0] *= 1 + 1e-9
    weights[-1] *= 1 - 1e-9
    with pytest.raises(QuadratureValidationError):
        _validate_rule(nodes, weights / weights.sum())


@pytest.mark.parametrize("n", [2, 3, 50, 201, 765])
def test_scaled_moments_equal_the_fraction_reference(n):
    scale = float(np.max(np.abs(gauss_hermite_rule(n)[0])))
    want = [float(gaussian_moment(k) / Fraction(scale) ** k) for k in range(2 * n)]
    assert _scaled_moments(scale, 2 * n) == want


def test_validation_rejects_one_weight_off_by_1e_10():
    nodes, weights = gauss_hermite_rule(201)
    _validate_rule(nodes, weights)  # the unperturbed rule passes
    weights = weights.copy()
    weights[100] *= 1 + 1e-10  # the centre node's weight, the largest
    with pytest.raises(QuadratureValidationError):
        _validate_rule(nodes, weights / weights.sum())
