"""Exact rational scalars, dense univariate polynomials and exact Gaussian
moments.

Everything downstream (identity generation, elimination, certificates)
relies on these values being exact, so coefficients are `fractions.Fraction`
throughout and every operation returns a trimmed canonical form. Hermite
polynomials are probabilists': He(n+1) = x*He(n) - n*He(n-1), orthogonal
for the weight exp(-x^2/2)/sqrt(2*pi). `power_table` is the one place powers
and moments E[P(Z)^d] of a pushforward are built; it builds a fresh table
on every call, so no caller can change what another reads. The module keeps
no state between calls beyond each Polynomial's own float coefficients, and
uses no numpy.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

RationalLike = Union[int, float, str, Fraction]


def rational(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" strings, floats or Fractions to an exact rational.

    Floats convert via their exact binary value, so only pass them for
    quantities that are themselves float-typed (e.g. distribution params).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, float)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def format_terms(terms: Iterable[tuple[Fraction, str]], sep: str = "") -> str:
    """Signed sum of (coefficient, factor) terms in the order given.

    Zero terms are skipped, a unit magnitude is dropped before a nonempty
    factor, a leading "+" is dropped and `sep` surrounds every later sign;
    no terms read "0". With sep " ", (3, "x^2"), (-1, "x"), (1, "") reads
    "3x^2 - x + 1".
    """
    text = ""
    for c, factor in terms:
        if c == 0:
            continue
        mag = abs(c)
        body = factor if mag == 1 and factor else f"{mag}{factor}"
        if text:
            text += f"{sep}{'-' if c < 0 else '+'}{sep}{body}"
        else:
            text = ("-" if c < 0 else "") + body
    return text or "0"


class Polynomial:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored lowest degree first; the zero polynomial is the
    empty tuple and any other value has a nonzero top coefficient.
    Instances are immutable and hashable.
    """

    __slots__ = ("_coeffs", "_floats")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, c: RationalLike) -> "Polynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coeff: RationalLike = 1) -> "Polynomial":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    # -- basic structure -------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self._coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self._coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact euclidean division; other must be nonzero."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other._coeffs) + 1, 0)
        d = other.degree
        lead = other.leading_coefficient
        while len(rem) - 1 >= d and rem:
            shift = len(rem) - 1 - d
            factor = rem[-1] / lead
            q[shift] = factor
            for i, c in enumerate(other._coeffs):
                rem[shift + i] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial(q), Polynomial(rem)

    def divides(self, other: "Polynomial") -> bool:
        """True when self divides other exactly (zero divides only zero)."""
        if self.is_zero:
            return other.is_zero
        _, rem = divmod(other, self)
        return rem.is_zero

    def derivative(self, order: int = 1) -> "Polynomial":
        """Exact order-th derivative; zero when order exceeds the degree."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = self._coeffs
        for _ in range(order):
            if len(cs) <= 1:
                return Polynomial.zero()
            cs = tuple(cs[i] * i for i in range(1, len(cs)))
        return Polynomial(cs)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Exact composition self(inner(x)) via Horner over the outer coefficients."""
        result = Polynomial.zero()
        for c in reversed(self._coeffs):
            result = result * inner + Polynomial.constant(c)
        return result

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact Horner evaluation."""
        x = rational(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def eval_float(self, x):
        """Round-to-nearest Horner evaluation; accepts floats or numpy arrays.

        The coefficients are converted to float on the first call only.
        """
        try:
            floats = self._floats
        except AttributeError:
            floats = tuple(float(c) for c in reversed(self._coeffs))
            object.__setattr__(self, "_floats", floats)
        acc = 0.0 * x
        for c in floats:
            acc = acc * x + c
        return acc

    # -- serialization ---------------------------------------------------------

    def to_strings(self) -> list[str]:
        """JSON form: array of "p/q" strings, lowest degree first."""
        return [str(c) for c in self._coeffs]

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "Polynomial":
        return cls(Fraction(s) for s in items)

    def terms(self, power: Callable[[int], str]) -> list[tuple[Fraction, str]]:
        """(coefficient, power(d)) per nonzero coefficient, highest degree first."""
        return [(self._coeffs[d], power(d)) for d in range(self.degree, -1, -1)
                if self._coeffs[d]]

    def __str__(self) -> str:
        return format_terms(self.terms(
            lambda d: "" if d == 0 else ("x" if d == 1 else f"x^{d}")), " ")

    def __repr__(self) -> str:
        return f"Polynomial({self!s})"


def hermite(n: int) -> Polynomial:
    """n-th probabilists' Hermite polynomial, exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Polynomial.constant(1)
    prev, cur = Polynomial.constant(1), Polynomial.x()
    for k in range(1, n):
        prev, cur = cur, Polynomial.x() * cur - k * prev
    return cur


def gaussian_moment(n: int) -> Fraction:
    """E[Z^n] for standard Gaussian Z: 0 for odd n, (n-1)!! for even n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n % 2 == 1:
        return Fraction(0)
    return Fraction(math.prod(range(1, n, 2)))


def power_table(P: Polynomial, d: int
                ) -> tuple[int, list[list[int]], list[Fraction]]:
    """(r, powers, moments) of P for degrees 0..d: the one place powers of
    P are built, afresh on every call. r is the lcm of P's denominators,
    powers[e] holds the integer coefficients c_i of r^e P^e, each power one
    product from the last, and moments[e] = E[P(Z)^e] = sum_i c_i E[Z^i] / r^e.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    r = math.lcm(*[c.denominator for c in P.coeffs])
    base = [(s, c.numerator * (r // c.denominator))
            for s, c in enumerate(P.coeffs) if c]
    powers, moments = [[1]], [Fraction(1)]
    even = [1]  # even[j] = E[Z^(2j)] = (2j - 1)!!, a running product
    for e in range(1, d + 1):
        product = [0] * max(len(powers[-1]) + len(P.coeffs) - 1, 0)
        for t, c in enumerate(powers[-1]):
            if c:  # an odd or even P has every other coefficient zero
                for s, b in base:
                    product[t + s] += c * b
        while 2 * len(even) < len(product):
            even.append(even[-1] * (2 * len(even) - 1))
        moments.append(Fraction(
            sum(c * m for c, m in zip(product[::2], even)), r ** e))
        powers.append(product)
    return r, powers, moments


def pushforward_moment(P: Polynomial, d: int) -> Fraction:
    """Exact E[P(Z)^d], from the power table."""
    return power_table(P, d)[2][d]
