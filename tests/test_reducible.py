"""Tests for the always-reducible x^{4q} + t^b construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqpencil.field import make_field
from fqpencil.parsing import parse_poly
from fqpencil.reducible import _reducible, conrad_polynomial, verify_conrad
from fqpencil.errors import ConstraintViolation
from fqpencil.lifting import bivariate_irreducible
from fqpencil.unipoly import UnivariatePoly, factor, is_irreducible


def test_instance_q3():
    inst = conrad_polynomial(3, 5)
    assert (inst.q, inst.p, inst.b) == (3, 3, 5)
    assert inst.f.format() == "x^12+t^5"


def test_default_exponent():
    # b defaults to 2q - 1
    assert conrad_polynomial(3).b == 5
    assert conrad_polynomial(5).b == 9
    assert conrad_polynomial(4).b == 7


def test_constraint_violations():
    with pytest.raises(ConstraintViolation):
        conrad_polynomial(3, 1)          # b > 1 required
    with pytest.raises(ConstraintViolation):
        conrad_polynomial(3, 12)         # b < 4q but gcd(12, 3*2) != 1
    with pytest.raises(ConstraintViolation):
        conrad_polynomial(3, 13)         # b < 4q violated for q=3
    with pytest.raises(ConstraintViolation):
        conrad_polynomial(5, 8)          # gcd(8, 5*4) != 1


def test_verify_q3_exhaustive():
    report = verify_conrad(conrad_polynomial(3, 5), D=2)
    assert report["substitutions"] == 27
    assert report["all_reducible"]
    assert report["reducible"] == 27
    assert report["degenerate"] == 0
    assert report["counterexample"] is None


def test_verify_q4_char_two_path():
    report = verify_conrad(conrad_polynomial(4), D=1)
    assert report["substitutions"] == 16
    assert report["all_reducible"]


def test_verify_q5_small():
    report = verify_conrad(conrad_polynomial(5, 9), D=1)
    assert report["substitutions"] == 25
    assert report["all_reducible"]


def test_verify_matches_direct_factorization():
    # Independent oracle: substitute by hand and test irreducibility.
    inst = conrad_polynomial(3, 5)
    E, f = inst.f.field, inst.f
    for idx in range(27):
        coeffs = [E.element_at(idx % 3), E.element_at((idx // 3) % 3),
                  E.element_at(idx // 9)]
        g = UnivariatePoly(E, coeffs)
        h = f.substitute_x(g)
        if h.degree() >= 2:
            assert not is_irreducible(h)


def test_negative_control_finds_counterexample():
    F3 = make_field(3, 1)
    report = verify_conrad(parse_poly("x^2+1", F3), D=1)
    assert not report["all_reducible"]
    assert report["counterexample"] == "t"
    assert report["degenerate"] == 3  # the three constant substitutions


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
@settings(max_examples=40)
@given(data=st.data())
def test_reducible_matches_factor_oracle(p, k, data):
    E = make_field(p, k)
    polys = st.lists(st.integers(0, E.q - 1).map(E.element_at), min_size=2,
                     max_size=8).map(lambda c: UnivariatePoly(E, c))
    g = data.draw(polys.filter(lambda g: g.degree() >= 1))
    shape = data.draw(st.sampled_from(["plain", "square", "pth", "product"]))
    if shape == "square":
        h = g * g
    elif shape == "pth":
        h = UnivariatePoly.one(E)
        for _ in range(p):
            h = h * g
    elif shape == "product":
        h = g * data.draw(polys.filter(lambda g: g.degree() >= 1))
    else:
        h = g
    if h.degree() < 2:
        return
    _unit, facs = factor(h)
    assert _reducible(h) == (len(facs) != 1 or facs[0][1] != 1)


def test_bivariate_certificate_is_inconclusive():
    # Polynomials inseparable in x sit outside the lifting certifier's
    # reach; record the status rather than a verdict.
    F3 = make_field(3, 1)
    cert = bivariate_irreducible(parse_poly("x^6+t^5", F3))
    assert cert.status in ("inconclusive", "reducible")
