"""Smooth test functions with closed-form derivatives up to order 12.

Verification never differentiates numerically: fifth and higher derivatives
at 1e-8 tolerances are far too noisy for finite differences, so every suite
member ships exact derivative formulas. Finite differencing appears only in
the self-test of this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import hermite

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

    def derivative(self, x, order: int = 0):
        """Evaluate the order-th derivative; x may be a float or ndarray."""
        if not 0 <= order <= MAX_DERIVATIVE_ORDER:
            raise ValueError(f"derivative order {order} unavailable")
        if self.kind == "monomial":
            n = int(self.param)
            if order > n:
                return 0.0 * x
            fall = math.prod(range(n - order + 1, n + 1))
            return fall * x ** (n - order)
        if self.kind == "sine":
            w = self.param
            return w ** order * np.sin(w * x + order * np.pi / 2.0)
        if self.kind == "cosine":
            w = self.param
            return w ** order * np.cos(w * x + order * np.pi / 2.0)
        if self.kind == "gaussian-bump":
            sign = -1.0 if order % 2 else 1.0
            return sign * hermite(order).eval_float(x) * np.exp(-0.5 * x * x)
        raise ValueError(f"unknown kind {self.kind!r}")

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
