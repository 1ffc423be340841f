"""Differential operators with polynomial coefficients.

An operator A acts on test functions as
    (A f)(x) = sum_m p_m(x) f^(m)(x),
with each p_m an exact rational polynomial. Besides application and exact
expectations for W = P(Z), this module provides normalization and
proportionality comparison, the moment relation that feeding x^n into
E[(A f)(W)] gives, and the recursion that solves it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .poly import Polynomial, RationalLike, format_terms, power_table, rational


@dataclass(frozen=True)
class DiffOperator:
    """Coefficient polynomials indexed by derivative order, trimmed at the top.

    The empty tuple is the zero operator (order -1); any other value has a
    nonzero highest-order coefficient.
    """

    coefficients: tuple[Polynomial, ...]

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        while coeffs and coeffs[-1].is_zero:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "DiffOperator":
        return cls(tuple(Polynomial(row) for row in rows))

    @classmethod
    def single(cls, order: int, coefficient: Polynomial) -> "DiffOperator":
        return cls((Polynomial.zero(),) * order + (coefficient,))

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def apply(self, f: Polynomial) -> Polynomial:
        """(A f)(x) = sum_m p_m(x) f^(m)(x), exactly."""
        out = Polynomial.zero()
        for m, pm in enumerate(self.coefficients):
            if pm.is_zero:
                continue
            fm = f.derivative(m)
            if not fm.is_zero:
                out = out + pm * fm
        return out

    def scaled(self, c: RationalLike) -> "DiffOperator":
        c = rational(c)
        return DiffOperator(tuple(p * c for p in self.coefficients))

    def to_dict(self) -> dict:
        return {"order": self.order,
                "coefficients": [p.to_strings() for p in self.coefficients]}

    @classmethod
    def from_dict(cls, data: dict) -> "DiffOperator":
        return cls(tuple(Polynomial.from_strings(row)
                         for row in data["coefficients"]))

    def latex(self) -> str:
        """Highest derivative first, in the style 'p_M(x)f^{(M)}(x) + ...'.

        A one-term coefficient is inlined, so a unit constant leaves the bare
        f-part; a longer one is parenthesized.
        """
        rows = []
        for m in range(self.order, -1, -1):
            terms = self.coefficients[m].terms(
                lambda d: "" if d == 0 else ("x" if d == 1 else f"x^{{{d}}}"))
            if len(terms) > 1:
                terms = [(1, f"({format_terms(terms)})")]
            fpart = "f(x)" if m == 0 else ("f'(x)" if m == 1 else
                                           ("f''(x)" if m == 2 else f"f^{{({m})}}(x)"))
            rows += [(c, xs + fpart) for c, xs in terms]
        return format_terms(rows)

    def __str__(self) -> str:
        return self.latex()


def expectation_applied(op: DiffOperator, P: Polynomial, f: Polynomial) -> Fraction:
    """Exact E[(A f)(W)] for W = P(Z), via pushforward moments."""
    g = op.apply(f)
    mus = power_table(P, max(g.degree, 0))[2]
    return sum((c * mu for c, mu in zip(g.coeffs, mus)), Fraction(0))


def normalize_operator(op: DiffOperator) -> DiffOperator:
    """Primitive integer coefficients with a fixed sign convention:
    the order-0 coefficient gets a negative leading coefficient, or, when it
    is zero, the first nonzero coefficient gets a positive one."""
    if op.is_zero:
        raise ValueError("zero operator cannot be normalized")
    denom_lcm = 1
    num_gcd = 0
    for p in op.coefficients:
        for v in p.coeffs:
            denom_lcm = math.lcm(denom_lcm, v.denominator)
            num_gcd = math.gcd(num_gcd, v.numerator)
    # the scale is positive up to the sign, so the convention reads off op
    p0 = op.coefficients[0]
    if not p0.is_zero:
        flip = p0.leading_coefficient > 0
    else:
        flip = next(p for p in op.coefficients if not p.is_zero).leading_coefficient < 0
    return op.scaled(Fraction(-denom_lcm if flip else denom_lcm, num_gcd))


def proportional_eq(op1: DiffOperator, op2: DiffOperator
                    ) -> tuple[bool, Optional[Fraction]]:
    """Whether op1 = r * op2 for a nonzero rational r; returns (equal, r)."""
    if op1.is_zero or op2.is_zero:
        raise ValueError("proportionality is defined for nonzero operators")
    if op1.order != op2.order:
        return False, None
    top1 = op1.coefficients[-1]
    top2 = op2.coefficients[-1]
    if top1.degree != top2.degree:
        return False, None
    ratio = top1.leading_coefficient / top2.leading_coefficient
    if all(p1 == p2 * ratio for p1, p2 in zip(op1.coefficients, op2.coefficients)):
        return True, ratio
    return False, None


class RecursionNotClosed(ValueError):
    """The monomial relations have no unique highest-degree moment term."""


class InsufficientSeeds(ValueError):
    pass


def moment_relation(op: DiffOperator, n: int) -> list[tuple[int, Fraction]]:
    """The pairs (i, c) with E[(A x^n)(W)] = sum c E[W^i], for any W.

    They are the nonzero coefficients of A x^n, by increasing i: the term
    q_(m,d) x^d of p_m contributes n!/(n-m)! q_(m,d) at i = d + n - m, and
    orders m > n contribute nothing.
    """
    acc: dict[int, Fraction] = {}
    for m, pm in enumerate(op.coefficients[: n + 1]):
        fall = math.perm(n, m)
        for d, q in enumerate(pm.coeffs):
            if q:
                i = d + n - m
                acc[i] = acc[i] + fall * q if i in acc else fall * q
    return sorted((i, c) for i, c in acc.items() if c)


def moment_recursion(op: DiffOperator, seed_moments: Sequence[RationalLike],
                     n: int) -> list[Fraction]:
    """Moments mu_0..mu_n of any W with E[(A f)(W)] = 0 for all polynomials f.

    `moment_relation` at k is a linear relation among moments; the order-0
    coefficient must contribute a strictly dominant top-degree term, at
    index k + deg p_0, so each relation determines exactly one new moment.
    """
    if op.is_zero:
        raise RecursionNotClosed("zero operator yields no relations")
    p0 = op.coefficients[0]
    if p0.is_zero:
        raise RecursionNotClosed("order-0 coefficient is zero")
    d0 = p0.degree
    top = p0.coeffs[d0]
    for m, pm in enumerate(op.coefficients[1:], 1):
        for d, q in enumerate(pm.coeffs):
            if q and d - m >= d0:
                raise RecursionNotClosed(
                    f"coefficient at order {m}, degree {d} reaches the top term")
    seeds = [rational(s) for s in seed_moments]
    if len(seeds) < d0:
        raise InsufficientSeeds(f"need at least {d0} seed moments")
    mus: list[Fraction] = list(seeds)
    for k in range(n - d0 + 1):
        t = k + d0  # mus holds mu_0..mu_(t-1), and every other index is below t
        value = -sum((c * mus[i] for i, c in moment_relation(op, k) if i < t),
                     Fraction(0)) / top
        if t < len(mus):
            if mus[t] != value:
                raise ValueError(
                    f"seed moment {t} contradicts the operator relations")
        else:
            mus.append(value)
    return mus[: n + 1]
