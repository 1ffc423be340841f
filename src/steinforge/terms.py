"""Finitely supported rational vectors over canonical expectation terms.

A term (i, j) stands for E[Z^i f^(j)(W)] with Z standard Gaussian and
W = P(Z). All identities and operator expansions live in this space. A
vector is built once, summing repeated terms and dropping zeros, and is
then read through `as_dict` or compared with `==`; sums and multiples are
formed by building a new vector from (term, coefficient) pairs.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Term = tuple[int, int]  # (z_power, derivative_order)


class ExpectationVector:
    """Map from terms to nonzero rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Term, Fraction] | Iterable[tuple[Term, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        store: dict[Term, Fraction] = {}
        for t, c in items:
            if t in store:
                total = store[t] + c
                if total:
                    store[t] = total
                else:
                    del store[t]
            elif c:
                store[t] = Fraction(c)
        self._terms = store

    def as_dict(self) -> dict[Term, Fraction]:
        return dict(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpectationVector):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*T{t}" for t, c in sorted(
            self._terms.items(), key=lambda tc: (tc[0][1], tc[0][0])))
        return f"ExpectationVector({body or 0})"
