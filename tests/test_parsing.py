"""Property tests for polynomial text: format() output parses back."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqpencil.bivar import BivariatePoly
from fqpencil.errors import DegreeOutOfRange, ParseError
from fqpencil.field import make_field
from fqpencil.parsing import MAX_TERM_DEGREE, parse_poly, parse_univariate
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


@pytest.mark.parametrize("text,offset", [
    ("x^2*-t", 4), ("3*x*-2", 4), ("2*", 2), ("2 * ", 4), ("t*x*", 4),
    ("2*3", 2), ("x*+1", 2)])
def test_star_needs_a_factor_after_it(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_poly(text, make_field(7, 1))
    assert exc.value.position == offset


def test_star_between_factors():
    F = make_field(7, 1)
    assert parse_poly("3 * t * x^2", F) == parse_poly("3t x^2", F)


@pytest.mark.parametrize("text", [
    f"x^{MAX_TERM_DEGREE + 1}", f"t^{MAX_TERM_DEGREE // 2 + 1}*x^"
    f"{MAX_TERM_DEGREE // 2}", "x^999999999+t", "x^" + "9" * 5000])
def test_term_degree_past_the_bound(text):
    # refused before any dense coefficient list exists
    with pytest.raises(DegreeOutOfRange):
        parse_poly(text, make_field(7, 1))


def test_term_degree_at_the_bound():
    F = make_field(7, 1)
    f = parse_poly(f"t*x^{MAX_TERM_DEGREE - 1}+x^000003", F)
    assert f == BivariatePoly(F, {(1, MAX_TERM_DEGREE - 1): 1, (0, 3): 1})


@pytest.mark.parametrize("p,k", [(7, 1), (1999, 1), (2 ** 61 - 1, 1),
                                 (3, 4)])
def test_long_coefficient_reduces(p, k):
    # past the 4,300 digits int() converts: the same polynomial as with
    # the coefficient written mod p, here reduced digit by digit
    F = make_field(p, k)
    digits = "0" + "".join(str(i * i % 10) for i in range(5000))
    c = 0
    for ch in digits:
        c = (10 * c + int(ch)) % p
    for text in (f"{digits}*x+1", f"t-{digits}x^2", f"{digits}"):
        assert parse_poly(text, F) == parse_poly(
            text.replace(digits, str(c)), F)
