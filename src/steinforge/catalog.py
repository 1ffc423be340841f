"""Catalog of known operators, leading-coefficient table and extrema checks.

Closed-form extrema of the Hermite polynomials are stored as exact radical
descriptors and evaluated to float on demand, so no rounded decimals are
baked in anywhere.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .operators import DiffOperator
from .poly import Polynomial, RationalLike, hermite, rational


@dataclass(frozen=True)
class RadicalValue:
    """Exact descriptor for values of the form outer*(t + sign*sqrt(u)) or,
    with under_sqrt set to s, outer*sqrt(s*(t + sign*sqrt(u)))."""

    outer: Fraction
    t: Fraction
    u: Fraction = Fraction(0)
    sign: int = 1
    under_sqrt: Optional[Fraction] = None

    @classmethod
    def exact(cls, value: RationalLike) -> "RadicalValue":
        return cls(outer=rational(value), t=Fraction(1))

    def to_float(self) -> float:
        inner = float(self.t) + self.sign * math.sqrt(float(self.u))
        if self.under_sqrt is not None:
            return float(self.outer) * math.sqrt(float(self.under_sqrt) * inner)
        return float(self.outer) * inner


@dataclass(frozen=True)
class ExtremaData:
    """Local maxima/minima values, with multiplicity by repetition."""

    maxima: tuple[RadicalValue, ...]
    minima: tuple[RadicalValue, ...]

    def maxima_floats(self) -> list[float]:
        return sorted(v.to_float() for v in self.maxima)

    def minima_floats(self) -> list[float]:
        return sorted(v.to_float() for v in self.minima)


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    label: str
    operator: Optional[DiffOperator]
    pushforward: Optional[Polynomial]
    leading_coefficient: Optional[Polynomial]
    extrema: Optional[ExtremaData]
    conjectured: bool = False
    display_latex: Optional[str] = None
    threshold_order: Optional[int] = None

    def latex(self) -> str:
        if self.display_latex:
            return self.display_latex
        if self.operator is not None:
            return self.operator.latex()
        raise ValueError(f"catalog entry {self.key!r} has no operator")

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "operator": self.operator.to_dict() if self.operator else None,
            "pushforward": self.pushforward.to_strings() if self.pushforward else None,
            "leading_coefficient":
                self.leading_coefficient.to_strings()
                if self.leading_coefficient else None,
            "extrema": {
                "maxima": self.extrema.maxima_floats(),
                "minima": self.extrema.minima_floats(),
            } if self.extrema else None,
            "conjectured": self.conjectured,
        }


def quadratic_operator(a: RationalLike, b: RationalLike,
                       c: RationalLike) -> DiffOperator:
    """Second-order operator annihilating a Z^2 + b Z + c."""
    a, b, c = rational(a), rational(b), rational(c)
    p2 = Polynomial([a * b * b - 4 * a * a * c, 4 * a * a])
    p1 = Polynomial([2 * a * a - b * b + 4 * a * c, -4 * a])
    p0 = Polynomial([-c - a, 1])
    return DiffOperator((p0, p1, p2))


def noncentral_chi2_operator(k: RationalLike, lam: RationalLike) -> DiffOperator:
    """Second-order operator for the noncentral chi-square law."""
    k, lam = rational(k), rational(lam)
    if k <= 0:
        raise ValueError("degrees of freedom must be positive")
    if lam < 0:
        raise ValueError("noncentrality must be nonnegative")
    p2 = Polynomial([0, 4])
    p1 = Polynomial([2 * k, -4])
    p0 = Polynomial([-k - lam, 1])
    return DiffOperator((p0, p1, p2))


# Table 1 rows 1-4: the operator of He_n(Z), coefficient rows lowest order first.
_OPERATORS = {
    1: DiffOperator.from_rows([[0, -1], [1]]),          # f' - x f
    2: DiffOperator.from_rows([[0, -1], [2, 2]]),       # 2(1+x) f' - x f
    3: DiffOperator.from_rows([
        [0, -1],            # -x f
        [6],                # 6 f'
        [0, 99],            # 99x f''
        [-216, 0, 27],      # -27(8 - x^2) f'''
        [0, -486],          # -486x f''''
        [1944, 0, -486],    # 486(4 - x^2) f'''''
    ]),
    4: DiffOperator.from_rows([
        [0, -1],                 # -x f
        [24, 44],                # 4(11x + 6) f'
        [-576, -144, 16],        # 16(x+3)(x-12) f''
        [3456, -576, -192],      # 192(x+6)(3-x) f'''
    ]),
}

# Named keys of Table 1 rows: (row, label, with extrema, display LaTeX).
_NAMED = {
    "normal": (1, "standard normal", False, "f'(x)-xf(x)"),
    "centered-chi2": (2, "centered chi-square", False, "2(1+x)f'(x)-xf(x)"),
    "h3": (3, "cubic Hermite pushforward", True,
           "486(4-x^2)f^{(5)}(x)-486xf^{(4)}(x)-27(8-x^2)f^{(3)}(x)"
           "+99xf''(x)+6f'(x)-xf(x)"),
    "h4": (4, "quartic Hermite pushforward", True,
           "192(x+6)(3-x)f^{(3)}(x)+16(x+3)(x-12)f''(x)+4(11x+6)f'(x)-xf(x)"),
}

_LEADING = {
    1: Polynomial([1]),
    2: Polynomial([0, 1]),
    3: Polynomial([-4, 0, 1]),
    4: Polynomial([-18, 3, 1]),                  # (x+6)(x-3)
    5: Polynomial([27648, 0, -576, 0, 1]),       # conjectured
    # conjectured; constant term recomputed from the exact extrema roots
    # (x+15)(x^2+80x-2400), which the row's radical values pin down
    6: Polynomial([-36000, -1200, 95, 1]),
}

# Suspected minimal operator order of the conjectured rows; `conjecture`
# reports the cells found below it.
_THRESHOLD_ORDER = {5: 9, 6: 6}

_EXTREMA = {
    1: ExtremaData(maxima=(), minima=()),
    2: ExtremaData(maxima=(), minima=(RadicalValue.exact(-1),)),
    3: ExtremaData(maxima=(RadicalValue.exact(2),),
                   minima=(RadicalValue.exact(-2),)),
    4: ExtremaData(maxima=(RadicalValue.exact(3),),
                   minima=(RadicalValue.exact(-6), RadicalValue.exact(-6))),
    5: ExtremaData(
        maxima=(RadicalValue(Fraction(4), Fraction(3), Fraction(6), +1, Fraction(6)),
                RadicalValue(Fraction(4), Fraction(3), Fraction(6), -1, Fraction(6))),
        minima=(RadicalValue(Fraction(-4), Fraction(3), Fraction(6), +1, Fraction(6)),
                RadicalValue(Fraction(-4), Fraction(3), Fraction(6), -1, Fraction(6)))),
    6: ExtremaData(
        maxima=(RadicalValue(Fraction(20), Fraction(-2), Fraction(10)),
                RadicalValue(Fraction(20), Fraction(-2), Fraction(10))),
        minima=(RadicalValue(Fraction(-20), Fraction(2), Fraction(10)),
                RadicalValue(Fraction(-20), Fraction(2), Fraction(10)),
                RadicalValue.exact(-15))),
}

def catalog_keys() -> list[str]:
    return [*_NAMED, "quadratic", "noncentral-chi2",
            *(f"table1({n})" for n in range(1, 7))]


def catalog(key: str, **params) -> CatalogEntry:
    """Look up an operator (or table row) by key.

    Parametric keys: quadratic(a, b, c) and noncentral-chi2(k, lam) take
    keyword arguments; row n of Table 1 is the key "table1(n)", matched whole.
    """
    if key in _NAMED:
        n, label, with_extrema, display = _NAMED[key]
        return CatalogEntry(
            key=key, label=label, operator=_OPERATORS[n], pushforward=hermite(n),
            leading_coefficient=_LEADING[n],
            extrema=_EXTREMA[n] if with_extrema else None, display_latex=display)
    if key == "quadratic":
        a = rational(params.get("a", 1))
        b = rational(params.get("b", 0))
        c = rational(params.get("c", 0))
        if a == 0 and b == 0:
            raise ValueError("quadratic entry requires a nonzero polynomial part")
        return CatalogEntry(
            key=f"quadratic({a},{b},{c})", label="quadratic Gaussian polynomial",
            operator=quadratic_operator(a, b, c),
            pushforward=Polynomial([c, b, a]), leading_coefficient=None,
            extrema=None)
    if key == "noncentral-chi2":
        k = rational(params.get("k", 1))
        lam = rational(params.get("lam", 0))
        return CatalogEntry(
            key=f"noncentral-chi2({k},{lam})", label="noncentral chi-square",
            operator=noncentral_chi2_operator(k, lam),
            pushforward=None, leading_coefficient=None, extrema=None)
    row = re.fullmatch(r"table1\(([0-9])\)", key)
    if row:
        n = int(row[1])
        if not 1 <= n <= 6:
            raise ValueError("table rows cover n = 1..6")
        op = _OPERATORS.get(n)
        return CatalogEntry(
            key=f"table1({n})", label=f"leading-coefficient table row {n}",
            operator=op, pushforward=hermite(n) if op is not None else None,
            leading_coefficient=_LEADING[n], extrema=_EXTREMA[n],
            conjectured=n >= 5, threshold_order=_THRESHOLD_ORDER.get(n))
    raise KeyError(f"unknown catalog key: {key!r}")


@dataclass(frozen=True)
class ExtremaCheck:
    kind: str  # "max" or "min"
    location: float
    value: float
    expected: float
    passed: bool


@dataclass(frozen=True)
class ExtremaReport:
    n: int
    checks: tuple[ExtremaCheck, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_table1_extrema(n: int, tolerance: float = 1e-10) -> ExtremaReport:
    """Locate the critical points of the n-th Hermite polynomial and match
    the attained local extrema against the stored exact values.

    He_n' = n He_(n-1), so the critical points are the zeros of He_(n-1):
    the nodes of the validated (n-1)-point Gauss-Hermite rule.
    """
    if not 2 <= n <= 6:
        raise ValueError("extrema rows exist for n = 2..6")
    # lazy: the catalog's other commands load no numpy
    from .gaussian import gauss_hermite_rule
    hn = hermite(n)
    second = hn.derivative(2)
    crit = gauss_hermite_rule(n - 1)[0].tolist()  # Python floats
    maxima = [(x, hn.eval_float(x)) for x in crit if second.eval_float(x) < 0]
    minima = [(x, hn.eval_float(x)) for x in crit if second.eval_float(x) > 0]
    data = _EXTREMA[n]
    checks = []
    for kind, located, expected in (("max", maxima, data.maxima_floats()),
                                    ("min", minima, data.minima_floats())):
        located = sorted(located, key=lambda t: t[1])  # by attained value
        if len(located) != len(expected):
            checks.append(ExtremaCheck(kind, math.nan, math.nan, math.nan, False))
            continue
        for (loc, got), want in zip(located, expected):
            checks.append(ExtremaCheck(kind, loc, got, want,
                                       abs(got - want) <= tolerance))
    return ExtremaReport(n=n, checks=tuple(checks), tolerance=tolerance)
