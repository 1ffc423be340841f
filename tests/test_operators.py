"""Operators: application, expectations, normalization, moments."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from steinforge.catalog import catalog, noncentral_chi2_operator, quadratic_operator
from steinforge.operators import (DiffOperator, InsufficientSeeds,
                                  RecursionNotClosed, expectation_applied,
                                  moment_recursion, moment_relation,
                                  normalize_operator, proportional_eq)
from steinforge.poly import Polynomial, hermite, pushforward_moment

H3 = hermite(3)
H4 = hermite(4)
H3_OP = catalog("h3").operator
H4_OP = catalog("h4").operator


class TestApply:
    def test_h3_operator_on_x(self):
        assert H3_OP.apply(Polynomial.x()) == Polynomial([6, 0, -1])

    def test_h4_operator_on_x(self):
        assert H4_OP.apply(Polynomial.x()) == Polynomial([24, 44, -1])

    def test_zero_function(self):
        assert H3_OP.apply(Polynomial.zero()).is_zero

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.integers(-5, 5), min_size=0, max_size=5).map(Polynomial),
           st.lists(st.integers(-5, 5), min_size=0, max_size=5).map(Polynomial))
    def test_linearity(self, f, g):
        assert H4_OP.apply(f + g) == H4_OP.apply(f) + H4_OP.apply(g)
        assert H4_OP.apply(3 * f) == 3 * H4_OP.apply(f)


class TestExpectationApplied:
    def test_h3_on_x(self):
        assert expectation_applied(H3_OP, H3, Polynomial.x()) == 0

    def test_h4_on_x_squared(self):
        assert expectation_applied(H4_OP, H4, Polynomial([0, 0, 1])) == 0

    def test_h3_on_x_cubed(self):
        # E[W^4] = 3348 for W = H3(Z), via the direct expansion oracle
        assert pushforward_moment(H3, 4) == 3348
        assert expectation_applied(H3_OP, H3, Polynomial([0, 0, 0, 1])) == 0

    def test_detects_wrong_operator(self):
        flipped = DiffOperator.from_rows([[0, 1], [1]])  # f' + x f
        residual = expectation_applied(flipped, Polynomial.x(), Polynomial.x())
        assert abs(residual) == 2


class TestTranslate:
    def test_translated_chi2_consistency(self):
        # moving the squared-Gaussian operator down by 1, p(x) to p(x + 1),
        # lands on the centered-chi-square one C up to C acting on f':
        # shifted + C = 2 C(f'), order by order
        shifted = DiffOperator(tuple(p.compose(Polynomial([1, 1])) for p in
                                     noncentral_chi2_operator(1, 0).coefficients))
        centered = catalog("centered-chi2").operator.coefficients
        zero = Polynomial.zero()
        assert [p + c for p, c in zip(shifted.coefficients, centered + (zero,))] \
            == [zero, *(2 * c for c in centered)]
        # both annihilate W = Z^2 - 1 symbolically
        P = Polynomial([-1, 0, 1])
        for n in range(12):
            assert expectation_applied(shifted, P, Polynomial.monomial(n)) == 0


class TestNormalize:
    def test_scaling_removed(self):
        op = catalog("normal").operator.scaled(2)
        assert normalize_operator(op) == catalog("normal").operator

    def test_fractions_cleared(self):
        op = catalog("h4").operator.scaled(Fraction(5, 3))
        assert normalize_operator(op) == catalog("h4").operator

    def test_proportional_examples(self):
        equal, ratio = proportional_eq(H3_OP, H3_OP.scaled(Fraction(-2, 9)))
        assert equal and ratio == Fraction(-9, 2)
        equal, _ = proportional_eq(catalog("normal").operator,
                                   catalog("centered-chi2").operator)
        assert not equal

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_operator(DiffOperator(()))
        with pytest.raises(ValueError):
            proportional_eq(DiffOperator(()), H3_OP)

    def test_idempotent_and_equivalence(self):
        for op in (H3_OP, H4_OP, quadratic_operator(1, 2, 1)):
            assert normalize_operator(normalize_operator(op)) == normalize_operator(op)
        a, b, c = H3_OP, H3_OP.scaled(3), H3_OP.scaled(Fraction(-1, 2))
        assert proportional_eq(a, b)[0] and proportional_eq(b, c)[0]
        assert proportional_eq(a, c)[0]


class TestMomentRecursion:
    def test_normal(self):
        mus = moment_recursion(catalog("normal").operator, [1, 0], 8)
        assert mus == [1, 0, 1, 0, 3, 0, 15, 0, 105]

    def test_h3_anchors(self):
        mus = moment_recursion(H3_OP, [1, 0], 4)
        assert mus[2] == 6 and mus[4] == 3348
        assert mus[2] == pushforward_moment(H3, 2)
        assert mus[4] == pushforward_moment(H3, 4)

    def test_h4_anchors(self):
        mus = moment_recursion(H4_OP, [1, 0], 3)
        assert mus[2] == 24 and mus[3] == 1728
        assert mus[3] == pushforward_moment(H4, 3)

    @pytest.mark.parametrize("op,P", [(H3_OP, H3), (H4_OP, H4)])
    def test_matches_pushforward_to_degree_12(self, op, P):
        mus = moment_recursion(op, [1, 0], 12)
        for d in range(13):
            assert mus[d] == pushforward_moment(P, d)

    def test_noncentral_moments(self):
        op = noncentral_chi2_operator(3, 2)
        mus = moment_recursion(op, [1], 2)
        assert mus[1] == 5            # k + lam
        assert mus[2] - mus[1] ** 2 == 14  # 2(k + 2 lam)

    def test_recursion_not_closed(self):
        with pytest.raises(RecursionNotClosed):
            moment_recursion(DiffOperator.from_rows([[], [1]]), [1], 4)
        # an order-1 coefficient reaching degree deg(p0)+1 breaks dominance
        bad = DiffOperator.from_rows([[0, -1], [0, 0, 1]])
        with pytest.raises(RecursionNotClosed):
            moment_recursion(bad, [1, 0], 4)

    def test_insufficient_seeds(self):
        with pytest.raises(InsufficientSeeds):
            moment_recursion(H3_OP, [], 4)

    def test_contradictory_seed_detected(self):
        with pytest.raises(ValueError):
            moment_recursion(H3_OP, [1, 0, 5], 4)  # mu_2 must be 6


class TestMomentRelation:
    def test_h3_relations(self):
        # A x^n for the h3 operator, read as coefficients of E[W^i]
        assert moment_relation(H3_OP, 0) == [(1, -1)]
        assert moment_relation(H3_OP, 1) == [(0, 6), (2, -1)]
        assert moment_relation(H3_OP, 2) == [(1, 210), (3, -1)]
        assert moment_relation(H3_OP, 3) == [(0, -1296), (2, 774), (4, -1)]
        # mu_2 = 6 and mu_4 = 3348 satisfy them
        mus = {0: 1, 1: 0, 2: 6, 3: 0, 4: 3348}
        for n in range(4):
            assert sum(c * mus[i] for i, c in moment_relation(H3_OP, n)) == 0

    def test_orders_above_n_are_absent(self):
        op = DiffOperator.from_rows([[0, 1], [], [5, 0, 0, 7]])
        assert moment_relation(op, 0) == [(1, 1)]
        assert moment_relation(op, 1) == [(2, 1)]
        # n = 2 reaches order 2: 2! (7x^3 + 5) joins x^3 at index 3
        assert moment_relation(op, 2) == [(0, 10), (3, 15)]

    def test_cancelled_indices_are_dropped(self):
        op = DiffOperator.from_rows([[0, 0, 1], [0, 0, 0, -1]])  # x^2 f - x^3 f'
        assert moment_relation(op, 1) == []
        assert moment_relation(op, 2) == [(4, -1)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), max_size=4), max_size=5),
           st.integers(0, 8))
    def test_coefficients_of_applied_monomial(self, rows, n):
        op = DiffOperator.from_rows(rows)
        applied = op.apply(Polynomial.monomial(n))
        assert moment_relation(op, n) == [(i, c) for i, c in enumerate(applied.coeffs)
                                          if c]


@pytest.mark.parametrize("rows,text", [
    ([], "0"),
    ([[1]], "f(x)"),                                  # unit constant: bare f-part
    ([[-1]], "-f(x)"),                                # -1 constant
    ([[0, 1], [-1]], "-f'(x)+xf(x)"),
    ([[0, 0, 1]], "x^{2}f(x)"),                       # unit monomial
    ([[0, 0, -1]], "-x^{2}f(x)"),
    ([[0, Fraction(3, 2)], [0, 0, 0, -4]], "-4x^{3}f'(x)+3/2xf(x)"),  # non-unit
    ([[0, -1], [-2, 1]], "(x-2)f'(x)-xf(x)"),         # multi-term: parenthesized
    ([[-1, 0, -1]], "(-x^{2}-1)f(x)"),
    ([[0, -1], [], [], [1]], "f^{(3)}(x)-xf(x)"),     # zero rows skipped
])
def test_latex_branches(rows, text):
    assert DiffOperator.from_rows(rows).latex() == text


def test_latex_generic_emitter():
    assert catalog("normal").operator.latex() == "f'(x)-xf(x)"
    assert H3_OP.latex() == ("(-486x^{2}+1944)f^{(5)}(x)-486xf^{(4)}(x)"
                             "+(27x^{2}-216)f^{(3)}(x)+99xf''(x)+6f'(x)-xf(x)")


def test_operator_json_roundtrip():
    d = H4_OP.to_dict()
    assert d["order"] == 3
    assert DiffOperator.from_dict(d) == H4_OP
