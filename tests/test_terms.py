"""The expectation-vector constructor against its one-add-per-term reference."""
from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from steinforge.terms import ExpectationVector


def _reference_store(items) -> dict:
    """The constructor's store built with one Fraction add per input term,
    new or repeated: each coefficient wrapped in Fraction and added to the
    stored value or Fraction(0), a sum of zero dropped."""
    store: dict = {}
    for t, c in items:
        c = Fraction(c)
        if c != 0:
            store[t] = store.get(t, Fraction(0)) + c
            if store[t] == 0:
                del store[t]
    return store


# few distinct terms, so most lists repeat some; small coefficients, so
# repeats often cancel to zero; ints beside Fractions, zero among both
_items = st.lists(st.tuples(
    st.tuples(st.integers(0, 2), st.integers(0, 1)),
    st.one_of(st.integers(-2, 2),
              st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))),
    max_size=12)


@settings(max_examples=300)
@given(_items)
@example([((0, 0), 1), ((0, 0), -1), ((0, 0), Fraction(1, 2))])
@example([((1, 0), Fraction(1, 3)), ((1, 0), Fraction(-1, 3)), ((1, 0), 0)])
@example([((0, 1), 0), ((0, 1), 0)])
def test_matches_the_one_add_per_term_reference(items):
    # same terms, values, value types and insertion order, from a list of
    # pairs and from a mapping
    for source in (items, dict(items)):
        got = ExpectationVector(source).as_dict()
        want = _reference_store(
            source.items() if isinstance(source, dict) else source)
        assert got == want and list(got) == list(want)
        assert all(type(c) is Fraction for c in got.values())
