"""Catalog entries, leading-coefficient table and extrema checks."""
from __future__ import annotations

import importlib
import math
from fractions import Fraction

import pytest

from steinforge.catalog import (ExtremaData, RadicalValue, catalog, catalog_keys,
                                noncentral_chi2_operator, quadratic_operator,
                                verify_table1_extrema)
from steinforge.poly import hermite
from steinforge.operators import expectation_applied
from steinforge.poly import Polynomial


def test_keys_listed():
    keys = catalog_keys()
    assert {"normal", "centered-chi2", "h3", "h4", "quadratic",
            "noncentral-chi2", "table1(1)", "table1(6)"} <= set(keys)


def test_keys_in_listed_order():
    assert catalog_keys() == ["normal", "centered-chi2", "h3", "h4", "quadratic",
                              "noncentral-chi2"] + [f"table1({n})" for n in range(1, 7)]


@pytest.mark.parametrize("key,n", [("normal", 1), ("centered-chi2", 2),
                                   ("h3", 3), ("h4", 4)])
def test_named_key_is_its_table1_row(key, n):
    named, row = catalog(key), catalog(f"table1({n})")
    assert named.operator == row.operator
    assert named.pushforward == row.pushforward == hermite(n)
    assert named.leading_coefficient == row.leading_coefficient
    # only the named keys carry display LaTeX; h3 and h4 carry the extrema
    assert named.display_latex and row.display_latex is None
    assert (named.extrema is not None) == (n >= 3)


def test_unknown_key():
    with pytest.raises(KeyError):
        catalog("nope")


def test_quadratic_instances():
    # 4x f'' + (2-4x) f' + (x-1) f
    op = quadratic_operator(1, 0, 0)
    assert op.coefficients[2] == Polynomial([0, 4])
    assert op.coefficients[1] == Polynomial([2, -4])
    assert op.coefficients[0] == Polynomial([-1, 1])
    assert catalog("quadratic", a=1, b=0, c=0).operator == op
    assert catalog("quadratic", a=1, b=0, c=0).pushforward == Polynomial([0, 0, 1])


def test_noncentral_operator_form():
    op = noncentral_chi2_operator(Fraction(3), Fraction(1, 2))
    assert op.coefficients[2] == Polynomial([0, 4])
    assert op.coefficients[1] == Polynomial([6, -4])
    assert op.coefficients[0] == Polynomial([Fraction(-7, 2), 1])


def test_noncentral_invalid_params():
    with pytest.raises(ValueError):
        noncentral_chi2_operator(0, 1)
    with pytest.raises(ValueError):
        noncentral_chi2_operator(2, -1)


def test_table1_rows():
    row4 = catalog("table1(4)")
    assert row4.leading_coefficient == Polynomial([-18, 3, 1])
    assert row4.extrema.maxima_floats() == [3.0]
    assert row4.extrema.minima_floats() == [-6.0, -6.0]
    assert not row4.conjectured
    assert catalog("table1(2)").leading_coefficient == Polynomial([0, 1])
    assert catalog("table1(5)").conjectured
    assert catalog("table1(5)").leading_coefficient == \
        Polynomial([27648, 0, -576, 0, 1])
    # the monic cubic with roots at the sixth row's extremal values
    assert catalog("table1(6)").leading_coefficient == \
        Polynomial([-36000, -1200, 95, 1])
    # the suspected minimal orders that `conjecture` reports finds below
    assert [catalog(f"table1({n})").threshold_order for n in range(1, 7)] == \
        [None, None, None, None, 9, 6]
    with pytest.raises(ValueError):
        catalog("table1(9)")


def test_table1_leading_matches_operator_top():
    # rows 1, 3, 4 record the operator's top coefficient up to scale
    for n, ratio in [(1, 1), (3, -486), (4, -192)]:
        row = catalog(f"table1({n})")
        top = row.operator.coefficients[-1]
        assert top == row.leading_coefficient * ratio
    # row 2 records the top coefficient of the uncentered variant: shifting
    # the centered operator up by one, p(x) to p(x - 1), sends 2(1+x) to 2x
    row2 = catalog("table1(2)")
    top = row2.operator.coefficients[-1].compose(Polynomial([-1, 1]))
    assert top == row2.leading_coefficient * 2


@pytest.mark.parametrize("key", ["normal", "centered-chi2", "h3", "h4"])
def test_catalog_annihilation_to_degree_30(key):
    entry = catalog(key)
    for n in range(31):
        assert expectation_applied(entry.operator, entry.pushforward,
                                   Polynomial.monomial(n)) == 0


@pytest.mark.parametrize("abc", [(1, 0, 0), (1, 2, 1), (1, -3, 0)])
def test_quadratic_annihilation(abc):
    a, b, c = abc
    entry = catalog("quadratic", a=a, b=b, c=c)
    for n in range(31):
        assert expectation_applied(entry.operator, entry.pushforward,
                                   Polynomial.monomial(n)) == 0


def test_radical_values():
    assert RadicalValue.exact(-6).to_float() == -6.0
    v = RadicalValue(Fraction(4), Fraction(3), Fraction(6), +1, Fraction(6))
    assert v.to_float() == pytest.approx(4 * math.sqrt(6 * (3 + math.sqrt(6))),
                                         abs=1e-14)
    w = RadicalValue(Fraction(-20), Fraction(2), Fraction(10))
    assert w.to_float() == pytest.approx(-20 * (2 + math.sqrt(10)), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_extrema_verification(n):
    report = verify_table1_extrema(n)
    assert report.passed, report.checks


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_extrema_locations_are_critical_points(n):
    derivative = hermite(n).derivative()
    scale = sum(abs(float(c)) for c in derivative.coeffs)
    report = verify_table1_extrema(n)
    assert len(report.checks) == n - 1
    for check in report.checks:
        assert type(check.location) is float and type(check.value) is float
        assert abs(derivative.eval_float(check.location)) <= 1e-12 * scale


# the package binds the name `catalog` to the function, not the module
_CATALOG = importlib.import_module("steinforge.catalog")


def test_extrema_value_off_by_1e9_fails(monkeypatch):
    # negative control: H4 has its one local maximum 3 at x = 0
    row = _CATALOG._EXTREMA[4]
    shifted = ExtremaData(maxima=(RadicalValue.exact(3 + Fraction(1, 10 ** 9)),),
                          minima=row.minima)
    monkeypatch.setitem(_CATALOG._EXTREMA, 4, shifted)
    report = verify_table1_extrema(4)
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert [c.kind for c in failed] == ["max"]
    assert failed[0].value == pytest.approx(3.0, abs=1e-12)


def test_extrema_missing_minimum_fails_the_count(monkeypatch):
    # negative control: H4 has two minima -6; the table keeps only one
    row = _CATALOG._EXTREMA[4]
    monkeypatch.setitem(_CATALOG._EXTREMA, 4,
                        ExtremaData(maxima=row.maxima, minima=row.minima[:1]))
    report = verify_table1_extrema(4)
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert [c.kind for c in failed] == ["min"]
    assert math.isnan(failed[0].value)


def test_extrema_h5_h6_closed_forms():
    r5 = verify_table1_extrema(5)
    maxima = sorted(c.value for c in r5.checks if c.kind == "max")
    assert maxima == pytest.approx(
        [4 * math.sqrt(6 * (3 - math.sqrt(6))),
         4 * math.sqrt(6 * (3 + math.sqrt(6)))], abs=1e-10)
    r6 = verify_table1_extrema(6)
    minima = sorted(c.value for c in r6.checks if c.kind == "min")
    assert minima == pytest.approx(
        [-20 * (2 + math.sqrt(10)), -20 * (2 + math.sqrt(10)), -15.0], abs=1e-10)
    maxima6 = sorted(c.value for c in r6.checks if c.kind == "max")
    assert maxima6 == pytest.approx([20 * (math.sqrt(10) - 2)] * 2, abs=1e-10)


def test_extrema_range_checked():
    with pytest.raises(ValueError):
        verify_table1_extrema(1)
    with pytest.raises(ValueError):
        verify_table1_extrema(7)


def test_h3_latex_text():
    assert catalog("h3").latex() == (
        "486(4-x^2)f^{(5)}(x)-486xf^{(4)}(x)-27(8-x^2)f^{(3)}(x)"
        "+99xf''(x)+6f'(x)-xf(x)")


def test_conjectured_rows_have_no_operator():
    assert catalog("table1(5)").operator is None
    assert catalog("table1(6)").operator is None


def test_entry_json():
    d = catalog("h4").to_dict()
    assert d["key"] == "h4" and d["operator"]["order"] == 3
    assert d["pushforward"] == ["3", "0", "-6", "0", "1"]
