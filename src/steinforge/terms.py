"""Finitely supported rational vectors over canonical expectation terms.

A term (i, j) stands for E[Z^i f^(j)(W)] with Z standard Gaussian and
W = P(Z). All identities and operator expansions live in this space.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Term = tuple[int, int]  # (z_power, derivative_order)


def term_order(t: Term) -> tuple[int, int]:
    """Elimination order: derivative order first, then z power."""
    i, j = t
    return (j, i)


class ExpectationVector:
    """Map from terms to nonzero rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Term, Fraction] | Iterable[tuple[Term, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        store: dict[Term, Fraction] = {}
        for t, c in items:
            c = Fraction(c)
            if c != 0:
                store[t] = store.get(t, Fraction(0)) + c
                if store[t] == 0:
                    del store[t]
        self._terms = store

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> list[Term]:
        return sorted(self._terms, key=term_order)

    def items(self) -> list[tuple[Term, Fraction]]:
        return [(t, self._terms[t]) for t in self.support()]

    def as_dict(self) -> dict[Term, Fraction]:
        return dict(self._terms)

    def __add__(self, other: "ExpectationVector") -> "ExpectationVector":
        out = dict(self._terms)
        for t, c in other._terms.items():
            s = out.get(t, Fraction(0)) + c
            if s == 0:
                out.pop(t, None)
            else:
                out[t] = s
        return ExpectationVector(out)

    def scaled(self, c) -> "ExpectationVector":
        c = Fraction(c)
        if c == 0:
            return ExpectationVector()
        return ExpectationVector({t: c * v for t, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpectationVector):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        if self.is_zero:
            return "ExpectationVector(0)"
        body = " + ".join(f"{c}*T{t}" for t, c in self.items())
        return f"ExpectationVector({body})"
