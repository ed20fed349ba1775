"""Property tests for polynomial text: format() output parses back."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqpencil.bivar import BivariatePoly
from fqpencil.field import make_field
from fqpencil.parsing import parse_poly, parse_univariate
from fqpencil.unipoly import UnivariatePoly


@pytest.mark.parametrize("p", [5, 7, 13])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bivariate_format_round_trip(p, data):
    F = make_field(p, 1)
    terms = data.draw(st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.integers(0, p - 1), max_size=8))
    f = BivariatePoly(F, terms)
    assert parse_poly(f.format(), F) == f


@pytest.mark.parametrize("p", [5, 7, 13])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_univariate_format_round_trip(p, data):
    F = make_field(p, 1)
    g = UnivariatePoly(F, data.draw(
        st.lists(st.integers(0, p - 1), min_size=1, max_size=12)))
    assert parse_univariate(g.format(), F)[0] == g
