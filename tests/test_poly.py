"""Exact polynomial arithmetic."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from steinforge.poly import Polynomial, format_terms

X = Polynomial.x()
H3 = Polynomial([0, -3, 0, 1])
H4 = Polynomial([3, 0, -6, 0, 1])


def test_add_cancellation():
    assert H3 + Polynomial([0, 3]) == Polynomial([0, 0, 0, 1])


def test_mul_expands_product():
    # (x+6)(3-x) = -x^2 - 3x + 18
    assert Polynomial([6, 1]) * Polynomial([3, -1]) == Polynomial([18, -3, -1])


def test_scale():
    assert Polynomial([-4, 0, 1]) * 486 == Polynomial([-1944, 0, 486])


def test_derivative_basic():
    assert H3.derivative() == Polynomial([-3, 0, 3])
    assert Polynomial([0, 0, 0, 0, 1]).derivative(5) == Polynomial.zero()


def test_derivative_of_h4_is_4_h3():
    assert H4.derivative() == 4 * H3


def test_compose_square_of_h3():
    # oracle: direct multiplication, independent of the compose path
    assert Polynomial([0, 0, 1]).compose(H3) == H3 * H3
    assert H3 * H3 == Polynomial([0, 0, 9, 0, -6, 0, 1])


def test_compose_identity():
    assert X.compose(H4) == H4
    assert Polynomial([0, 0, 1]).compose(H4) == H4 * H4
    assert H4 * H4 == Polynomial([9, 0, -36, 0, 42, 0, -12, 0, 1])


def test_eval_exact():
    assert H3(2) == 2
    assert H3(-1) == 2
    assert H4(0) == 3
    assert Polynomial([5, 7])(0) == 5


def test_eval_float_matches_exact():
    got = H4.eval_float(1.5)
    assert got == pytest.approx(float(H4(Fraction(3, 2))), rel=1e-14)


def test_eval_float_converts_coefficients_once(monkeypatch):
    conversions = []
    real = Fraction.__float__

    def counting(q):
        conversions.append(q)
        return real(q)

    monkeypatch.setattr(Fraction, "__float__", counting)
    P = Polynomial([Fraction(1, 3), 0, Fraction(-7, 2), 5])
    values = [P.eval_float(x) for x in (0.75, 0.75, -2.0)]
    assert len(conversions) == 4
    assert values[0] == values[1]
    assert values[2] == pytest.approx(-161 / 3, rel=1e-14)


def test_zero_representation():
    assert Polynomial([0, 0]).is_zero
    assert Polynomial([0, 0]).coeffs == ()
    assert Polynomial.zero().degree == -1


def test_serialization_roundtrip():
    p = Polynomial([Fraction(1, 2), -3, 0, 1])
    assert p.to_strings() == ["1/2", "-3", "0", "1"]
    assert Polynomial.from_strings(p.to_strings()) == p


@pytest.mark.parametrize("coeffs,text", [
    ((), "0"),
    ((1,), "1"),
    ((-1,), "-1"),
    ((Fraction(-7, 2),), "-7/2"),
    ((0, 1), "x"),
    ((0, -1), "-x"),
    ((0, 0, 1), "x^2"),
    ((0, 0, Fraction(3, 2)), "3/2x^2"),
    ((1, -1, 3), "3x^2 - x + 1"),
    ((-1, 0, 0, -1), "-x^3 - 1"),
    ((0, 1, Fraction(1, 2)), "1/2x^2 + x"),
])
def test_str_pins(coeffs, text):
    assert str(Polynomial(coeffs)) == text


def test_format_terms_branches():
    assert format_terms([]) == "0"
    assert format_terms([(Fraction(0), "x")]) == "0"          # zero terms skipped
    assert format_terms([(Fraction(1), "")]) == "1"           # unit kept without a factor
    assert format_terms([(Fraction(-1), "x"), (Fraction(0), "y"),
                         (Fraction(-2), "z")]) == "-x-2z"
    assert format_terms([(Fraction(1), "x"), (Fraction(-1), "")], " ") == "x - 1"


def test_terms_are_nonzero_and_descending():
    p = Polynomial([5, 0, -1, 0, 2])
    assert p.terms(str) == [(2, "4"), (-1, "2"), (5, "0")]
    assert Polynomial.zero().terms(str) == []


def test_divmod_exact():
    q, r = divmod(H3 * H4 + Polynomial([1]), H4)
    assert q == H3 and r == Polynomial([1])
    assert H4.divides(H3 * H4)
    assert not H4.divides(H3)


small_rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6)
polys = st.lists(small_rationals, min_size=0, max_size=6).map(Polynomial)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(polys, polys)
def test_canonical_form_idempotent(a, b):
    s = a + b
    assert Polynomial(s.coeffs) == s
    assert s.is_zero or s.coeffs[-1] != 0


@given(polys.filter(lambda p: p.degree >= 1),
       polys.filter(lambda p: p.degree >= 1))
def test_compose_degree_multiplies(f, g):
    assert f.compose(g).degree == f.degree * g.degree


@given(polys, st.integers(0, 3), st.integers(0, 3))
def test_derivative_additive_in_order(p, a, b):
    assert p.derivative(a + b) == p.derivative(a).derivative(b)
