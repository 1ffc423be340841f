"""Smooth test functions with closed-form derivatives up to order 12.

Verification never differentiates numerically: fifth and higher derivatives
at 1e-8 tolerances are far too noisy for finite differences, so every suite
member ships exact derivative formulas. Finite differencing appears only in
the self-test of this module.

Each derivative comes in factored form, f^(m)(x) = c_m(x) * g(x), with g one
of at most two transcendental factors of f: sin(wx) or cos(wx) for sine and
cosine, exp(-x^2/2) for the bump, 1 for monomials. An operator applied to f
then evaluates each g once, however many orders share it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_DERIVATIVE_ORDER = 12


@dataclass(frozen=True)
class TestFunction:
    kind: str  # monomial | sine | cosine | gaussian-bump
    param: float = 0.0

    @property
    def name(self) -> str:
        if self.kind == "monomial":
            return f"monomial({int(self.param)})"
        if self.kind in ("sine", "cosine"):
            return f"{self.kind}({self.param:g})"
        return self.kind

    def factored(self, x, order: int) -> list:
        """[(g_0, c_0(x)), ..., (g_order, c_order(x))] with
        f^(m)(x) = c_m(x) * self.factor(x, g_m).

        For sine and cosine, f^(m)(x) = w^m sin(wx + (m + s) pi/2) with s = 0
        for sine and 1 for cosine, so g is sin(wx) (0) or cos(wx) (1) by the
        parity of m + s and c_m = +-w^m by its quadrant. For the bump,
        c_m = (-1)^m He_m(x) by the three-term recurrence
        c_(m+1) = -x c_m - m c_(m-1). For monomial(n), c_m = n!/(n-m)! x^(n-m).
        """
        if not 0 <= order <= MAX_DERIVATIVE_ORDER:
            raise ValueError(f"derivative order {order} unavailable")
        if self.kind == "monomial":
            n = int(self.param)
            return [(0, math.prod(range(n - m + 1, n + 1)) * x ** (n - m)
                     if m <= n else 0.0 * x) for m in range(order + 1)]
        if self.kind in ("sine", "cosine"):
            shift = int(self.kind == "cosine")
            return [((m + shift) % 2,
                     (-1.0 if (m + shift) % 4 >= 2 else 1.0) * self.param ** m)
                    for m in range(order + 1)]
        if self.kind == "gaussian-bump":
            out = [(0, 1.0)]
            prev, cur = 0.0, 1.0
            for m in range(order):
                prev, cur = cur, -x * cur - m * prev
                out.append((0, cur))
            return out
        raise ValueError(f"unknown kind {self.kind!r}")

    def factor(self, x, index: int):
        """The transcendental factor g with that index, at x."""
        if self.kind in ("sine", "cosine"):
            return (np.cos if index else np.sin)(self.param * x)
        if self.kind == "gaussian-bump":
            return np.exp(-0.5 * x * x)
        return 1.0

    def derivative(self, x, order: int = 0):
        """Evaluate the order-th derivative; x may be a float or ndarray."""
        index, c = self.factored(x, order)[order]
        return c * self.factor(x, index)

    def __call__(self, x):
        return self.derivative(x, 0)


def monomial(n: int) -> TestFunction:
    return TestFunction("monomial", float(n))


def sine(omega: float = 1.0) -> TestFunction:
    return TestFunction("sine", float(omega))


def cosine(omega: float = 1.0) -> TestFunction:
    return TestFunction("cosine", float(omega))


def gaussian_bump() -> TestFunction:
    return TestFunction("gaussian-bump")


def default_suite() -> tuple[TestFunction, ...]:
    return (sine(1.0), cosine(0.5), gaussian_bump())
