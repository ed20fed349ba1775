"""Tests for the always-reducible x^{4q} + t^b construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqpencil.bivar import BivariatePoly
from fqpencil.field import make_field
from fqpencil.parsing import parse_poly
from fqpencil.reducible import conrad_polynomial, verify_conrad
from fqpencil.errors import ConstraintViolation, DegreeOutOfRange
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


def test_verify_benchmark_case_q3_d5():
    # the 729 substitutions of degree <= 5, up to values of degree 60
    report = verify_conrad(conrad_polynomial(3, 5), D=5)
    assert report == {"substitutions": 729, "degree_cap": 5,
                      "reducible": 729, "degenerate": 0,
                      "all_reducible": True, "counterexample": None}


def _oracle_report(f, D):
    """verify_conrad's report, one substitution at a time through factor."""
    E = f.field
    total = E.q ** (D + 1)
    degenerate, irreducible = 0, []
    for idx in range(total):
        g = UnivariatePoly(E, [idx // E.q ** i % E.q for i in range(D + 1)])
        h = f.substitute_x(g)
        if h.degree() < 1:
            degenerate += 1
            continue
        _unit, facs = factor(h)
        if len(facs) == 1 and facs[0][1] == 1:
            irreducible.append(g)
    return {"substitutions": total, "degree_cap": D,
            "reducible": total - degenerate - len(irreducible),
            "degenerate": degenerate, "all_reducible": not irreducible,
            "counterexample": (irreducible[0].format("t")
                               if irreducible else None)}


# F_3, F_4, F_5, F_7 and F_9, each with at most 343 substitutions
@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_reducible_matches_factor_oracle(p, k, data):
    # Whole reports against the oracle, on random curves and on curves
    # whose values are squares, p-th powers and products.
    E = make_field(p, k)
    curves = st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(1, E.q - 1), min_size=1, max_size=5).map(
            lambda terms: BivariatePoly(E, terms))
    u = data.draw(curves)
    shape = data.draw(st.sampled_from(["plain", "square", "pth", "product"]))
    if shape == "square":
        f = u * u
    elif shape == "pth":
        f = BivariatePoly(E, {(0, 0): 1})
        for _ in range(p):
            f = f * u
    elif shape == "product":
        f = u * data.draw(curves)
    else:
        f = u
    D = data.draw(st.integers(0, 2 if E.q <= 7 else 1))
    assert verify_conrad(f, D) == _oracle_report(f, D)


@pytest.mark.parametrize("poly", [
    "x^3+t^2+x*t+1",          # rooted values of degree 6 split 1+2+3
    "x^6+2*t^2*x^3+t^2+x^2",  # rootless values of degree 12 split 2+4+6
])
def test_reducible_matches_factor_oracle_past_rabin(poly):
    # values that pass Rabin's equality tests and yet are reducible
    F3 = make_field(3, 1)
    f = parse_poly(poly, F3)
    assert verify_conrad(f, 2) == _oracle_report(f, 2)


def test_verify_refuses_fields_past_the_log_tables():
    E = make_field(3, 12)
    with pytest.raises(ConstraintViolation):
        verify_conrad(parse_poly("x^2+x-t", E), D=0)


def test_verify_refuses_values_past_the_frobenius_limit():
    # x^4100 + t + 1: the substitution x -> t gives t^4100 + t + 1, a
    # rootless value of degree 4100 over F_2, which reaches the Rabin test
    F2 = make_field(2, 1)
    f = BivariatePoly(F2, {(0, 4100): 1, (1, 0): 1, (0, 0): 1})
    with pytest.raises(DegreeOutOfRange):
        verify_conrad(f, D=1)


def test_bivariate_certificate_is_inconclusive():
    # Polynomials inseparable in x sit outside the lifting certifier's
    # reach; record the status rather than a verdict.
    F3 = make_field(3, 1)
    cert = bivariate_irreducible(parse_poly("x^6+t^5", F3))
    assert cert.status in ("inconclusive", "reducible")
