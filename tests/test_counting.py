"""Tests for Galois parameters, bounds, counting, and specialization search."""

import random
from fractions import Fraction
from math import sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqpencil import counting
from fqpencil.bivar import BivariatePoly
from fqpencil.field import make_field
from fqpencil.parsing import parse_poly
from fqpencil.reducible import verify_conrad
from fqpencil.counting import (
    BoundReport,
    CountReport,
    application_bound,
    check_hypotheses,
    count_irreducible_pairs,
    find_specialization,
    galois_parameters,
    genus_closed_form,
    geyer_jarden_rhs,
    geyer_jarden_rhs_bounds,
    verify_application,
)
from fqpencil.errors import (ConstraintViolation, DegreeTooSmall,
                             HypothesisViolation)
from fqpencil.intervals import (
    fourth_root_bounds,
    mul_bounds,
    q_pow_half_bounds,
    q_pow_quarter_bounds,
    sqrt_bounds,
)
from fqpencil.unipoly import factor, is_irreducible


F5 = make_field(5, 1)
F7 = make_field(7, 1)


# ---------------------------------------------------------------------------
# Interval arithmetic


def test_sqrt_bounds_enclose():
    for x in [2, 3, 7, 331, Fraction(10, 3), 10**12 + 7]:
        lo, hi = sqrt_bounds(x)
        assert lo * lo <= Fraction(x) <= hi * hi
        assert hi - lo < Fraction(1, 10**20)


def test_sqrt_bounds_exact_square():
    lo, hi = sqrt_bounds(49)
    assert lo <= 7 <= hi


def test_sqrt_bounds_negative_raises():
    with pytest.raises(ValueError):
        sqrt_bounds(-1)


def test_fourth_root_bounds_enclose():
    for x in [5, 81, 14641]:
        lo, hi = fourth_root_bounds(x)
        assert lo**4 <= x <= hi**4


def test_q_pow_bounds():
    lo, hi = q_pow_half_bounds(7, 2)
    assert lo == hi == 7
    lo, hi = q_pow_half_bounds(7, 3)
    assert lo * lo <= 7**3 <= hi * hi
    lo, hi = q_pow_quarter_bounds(7, 4)
    assert lo == hi == 7
    lo, hi = q_pow_quarter_bounds(7, 1)
    assert lo**4 <= 7 <= hi**4


def test_mul_bounds_signs():
    lo, hi = mul_bounds((Fraction(-2), Fraction(3)), (Fraction(-5), Fraction(4)))
    assert lo == -15 and hi == 12


# ---------------------------------------------------------------------------
# Galois parameters


def test_galois_parameters_conic():
    gd = galois_parameters([2])
    assert gd.N == 2
    assert gd.genus_closure == 1
    assert gd.genus_sanity == 0
    assert gd.discrepancy
    assert gd.branch_degrees == (2,)


def test_galois_parameters_cubic():
    gd = galois_parameters([3])
    assert gd.N == 6
    assert gd.genus_closure == 13
    assert gd.genus_sanity is None
    assert not gd.discrepancy
    assert gd.branch_degrees == (6,)


def test_galois_parameters_pair():
    gd = galois_parameters([2, 3])
    assert gd.N == 12
    assert gd.genus_closure == 37
    assert gd.branch_degrees == (2, 6)


def test_galois_parameters_rejects_small_degree():
    with pytest.raises(HypothesisViolation):
        galois_parameters([1])
    with pytest.raises(HypothesisViolation):
        galois_parameters([])


def test_genus_closed_form_matches_closure_track():
    for d in (2, 3, 4, 5):
        gd = galois_parameters([d])
        assert genus_closed_form(d, gd.N) == gd.genus_closure


# ---------------------------------------------------------------------------
# Bounds


@pytest.mark.parametrize("N,g", [(0, 1), (-2, 1), (2, -1)])
def test_geyer_jarden_rhs_rejects_bad_parameters(N, g):
    with pytest.raises(ConstraintViolation):
        geyer_jarden_rhs_bounds(7, 1, N, g)


def test_geyer_jarden_rhs_values():
    assert geyer_jarden_rhs(7, 1, 2, 1) == pytest.approx(-6.418079, abs=1e-5)
    assert geyer_jarden_rhs(331, 1, 2, 1) == pytest.approx(121.847816, abs=1e-5)


def test_geyer_jarden_bounds_enclose_float():
    for (q, s, N, g) in [(7, 1, 2, 1), (7, 3, 2, 1), (331, 1, 2, 1),
                         (7, 2, 6, 13), (7, 5, 12, 37)]:
        lo, hi = geyer_jarden_rhs_bounds(q, s, N, g)
        ref = (q**s - (N + 2 * g) * q ** (s / 2) - N * q ** (s / 4)
               - 2 * (g + N)) / N
        assert float(lo) <= ref + 1e-9 and ref - 1e-9 <= float(hi)
        assert float(hi - lo) < 1e-9 * max(1.0, abs(ref))


def test_application_bound_values():
    b = application_bound(331, 2)
    assert b.app_threshold_ok
    assert b.positive
    assert b.app_bound == pytest.approx(245.270506, abs=1e-5)
    # independent float evaluation of the displayed formula
    ref = (331 - 2**4 / 2) * (331 - 3 * 6 * sqrt(331) - 2) / 2
    assert b.app_bound == pytest.approx(ref, abs=1e-6)


def test_application_bound_threshold_not_met():
    b = application_bound(7, 2)
    assert not b.app_threshold_ok


def test_application_bound_degree_guard():
    with pytest.raises(DegreeTooSmall):
        application_bound(331, 1)


# ---------------------------------------------------------------------------
# Exhaustive counting


def _per_pair_row(f, E, a):
    """Independent oracle: (full, inclusive) counts over every b for one a,
    by scalar restriction plus general irreducibility."""
    d = f.total_degree()
    full = incl = 0
    for b in E.elements():
        g = f.restrict_to_line(a, b)
        if g.degree() >= 1 and is_irreducible(g):
            incl += 1
            full += g.degree() == d
    return full, incl


def _brute_count(f, E):
    rows = [_per_pair_row(f, E, a) for a in E.elements()]
    return tuple(sum(col) for col in zip(*rows))


def test_count_conic_f7():
    rep = count_irreducible_pairs(parse_poly("x^2+x-t", F7), F7)
    assert (rep.count_full_degree, rep.count_inclusive) == (18, 25)
    assert rep.total_pairs == 49


def test_count_cubic_f7():
    rep = count_irreducible_pairs(parse_poly("t^3+x^3+1", F7), F7)
    assert (rep.count_full_degree, rep.count_inclusive) == (6, 15)


def test_count_conic_f9():
    F9 = make_field(3, 2)
    rep = count_irreducible_pairs(parse_poly("x^2+x-t", F9), F9)
    assert (rep.count_full_degree, rep.count_inclusive) == (32, 41)


def test_counts_match_brute_force():
    F25_alt = make_field(5, 2, (1, 1, 1))    # a non-canonical modulus
    for text, E in [("x^2+x-t", F7), ("t^3+x^3+1", F7), ("x^2+x-t", F5),
                    ("x^2+t^3+t+1", F5), ("x^2+x-t", make_field(3, 2)),
                    # t^3 coefficient a^3 - 1 of the restriction vanishes
                    # at a = 1
                    ("x^3-t^3+t*x+1", make_field(7, 2)),
                    ("x^3-t^3+2*x+t", F25_alt),
                    # singular (a cusp), reducible (two lines, three lines)
                    ("x^2-t^3", F7), ("x^2+x-t^2-t", make_field(13, 1)),
                    ("x^3-t^3", make_field(7, 2))]:
        f = parse_poly(text, E)
        rep = count_irreducible_pairs(f, E)
        assert (rep.count_full_degree, rep.count_inclusive) == _brute_count(f, E)


def _factor_count(f, E):
    """Per-pair oracle through factor: irreducible means one factor of
    multiplicity one."""
    d = f.total_degree()
    full = incl = 0
    for ai in range(E.q):
        for bi in range(E.q):
            g = f.restrict_to_line(E.element_at(ai), E.element_at(bi))
            if g.degree() < 1:
                continue
            facs = factor(g)[1]
            if len(facs) == 1 and facs[0][1] == 1:
                incl += 1
                full += g.degree() == d
    return full, incl


def test_high_degree_counts_match_factor_oracle():
    F13 = make_field(13, 1)
    for text, E in [
            # singular (a cusp at the origin), reducible (four lines, and
            # two conics)
            ("x^4-t^3", F7), ("x^4-t^4", F13), ("x^4-t^2", F7),
            ("x^4-t^2*x^2+t^3+1", make_field(11, 1)),
            # the t^d coefficient 1 - a^6 vanishes at every a != 0
            ("x^6-t^6+t^5*x+1", F7),
            # degree 6: the equality tests alone admit factor degrees
            # {3, 2, 1}
            ("x^6+t^6+t*x^2+3", F13),
            # degree 12: the pairs that pass are confirmed one by one
            ("x^12+t^11*x+t^3+x^2+2", F13),
            ("x^4+t^4+t*x+1", make_field(5, 2, (1, 1, 1)))]:
        f = parse_poly(text, E)
        rep = count_irreducible_pairs(f, E)
        assert (rep.count_full_degree, rep.count_inclusive) == \
            _factor_count(f, E), text


@st.composite
def _curves(draw, E, degrees=(2, 3)):
    """Random curves of a total degree in degrees that p allows over E,
    sparse ones included."""
    d = draw(st.sampled_from([d for d in degrees if d * (d - 1) % E.p]))
    elem = st.one_of(st.just(0), st.integers(1, E.q - 1)).map(E.element_at)
    terms = {(i, j): draw(elem)
             for i in range(d + 1) for j in range(d + 1 - i)}
    top = draw(st.integers(0, d))
    terms[(top, d - top)] = E.element_at(draw(st.integers(1, E.q - 1)))
    return BivariatePoly(E, terms)


# F_9 and F_27 take conics only: 3 divides 3 * 2
@pytest.mark.parametrize("p, k, modulus", [
    (5, 1, None), (7, 1, None), (13, 1, None), (3, 2, None), (3, 3, None),
    (5, 2, None), (7, 2, None), (5, 2, (1, 1, 1))])
@settings(max_examples=10)
@given(data=st.data())
def test_count_kernel_matches_per_pair(p, k, modulus, data):
    E = make_field(p, k, modulus)
    f = data.draw(_curves(E))
    rep = count_irreducible_pairs(f, E)
    assert (rep.count_full_degree, rep.count_inclusive) == _brute_count(f, E)


# F_25 takes quartics only: 5 divides 5 * 4 and 6 * 5
@pytest.mark.parametrize("p, k, modulus, degrees", [
    (7, 1, None, (4, 5, 6)), (11, 1, None, (4, 5, 6)),
    (13, 1, None, (4, 5, 6)), (5, 2, None, (4,)), (5, 2, (1, 1, 1), (4,)),
    (7, 2, None, (4, 6))])
@settings(max_examples=4)
@given(data=st.data())
def test_rabin_count_matches_factor_oracle(p, k, modulus, degrees, data):
    E = make_field(p, k, modulus)
    f = data.draw(_curves(E, degrees))
    rep = count_irreducible_pairs(f, E)
    assert (rep.count_full_degree, rep.count_inclusive) == \
        _factor_count(f, E)


# The D = 1 substitutions g = b + a t are the lines x = a t + b, so
# verify_conrad's irreducible values are count_inclusive's pairs.
@pytest.mark.parametrize("p, k", [
    (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_conrad_at_degree_one_matches_count(p, k, data):
    E = make_field(p, k)
    f = data.draw(_curves(E, (2, 3, 4)))
    report = verify_conrad(f, 1)
    irreducible = (report["substitutions"] - report["reducible"]
                   - report["degenerate"])
    assert irreducible == count_irreducible_pairs(f, E).count_inclusive


def test_conrad_at_degree_one_matches_count_f1009():
    E = make_field(1009, 1)
    f = parse_poly("t^3+x^3+1", E)
    report = verify_conrad(f, 1)
    assert report["substitutions"] - report["reducible"] \
        - report["degenerate"] == count_irreducible_pairs(f, E).count_inclusive


# blocks of several rows, with three and four digits per element; the t^3
# coefficient a^3 - 1 of the restriction vanishes at a = 1
@pytest.mark.parametrize("p, k", [(5, 4), (7, 3)])
def test_count_rows_match_per_pair_above_f49(p, k):
    E = make_field(p, k)
    f = parse_poly("x^3-t^3+t*x+1", E)
    rows = counting._count_rows(f, E)
    assert counting._BLOCK_DIGITS // (4 * E.q * E.k) > 1  # N + 1 = 4
    for a in [1] + random.Random(p ** k).sample(range(2, E.q), 3):
        assert tuple(rows[a]) == _per_pair_row(f, E, a), a


def test_count_rejects_bad_characteristic():
    F3 = make_field(3, 1)
    with pytest.raises(HypothesisViolation):
        count_irreducible_pairs(parse_poly("t^3+x^3+1", F3), F3)


def test_count_rejects_constants():
    with pytest.raises(HypothesisViolation):
        count_irreducible_pairs(parse_poly("x+t", F7), F7)


# ---------------------------------------------------------------------------
# Hypothesis checks


def test_check_hypotheses_accepts_pair():
    fs = [parse_poly("x^2+x-t", F7), parse_poly("t^3+x^3+1", F7)]
    check_hypotheses(fs, F7)


def test_check_hypotheses_accepts_smooth_curve_without_certificate():
    # x^5 + t^5 + 1 is smooth, so irreducible, though the specialization
    # scan and Hensel lifting of the irreducibility certificate give no
    # verdict for it over F_3
    F3 = make_field(3, 1)
    f = parse_poly("x^5+t^5+1", F3)
    check_hypotheses([f], F3)
    report = verify_application(f, F3)
    assert report["smooth"] is True
    assert report["irreducible"] == "irreducible"
    assert report["verdict"] != "HYPOTHESIS_FAIL"


def test_check_hypotheses_rejects_char_two():
    F4 = make_field(2, 2)
    with pytest.raises(HypothesisViolation):
        check_hypotheses([parse_poly("x^2+x+t", F4)], F4)


def test_check_hypotheses_rejects_singular():
    with pytest.raises(HypothesisViolation):
        check_hypotheses([parse_poly("x^2-t^3", F7)], F7)


def test_check_hypotheses_rejects_proportional():
    fs = [parse_poly("x^2+x-t", F7), parse_poly("2*x^2+2*x-2*t", F7)]
    with pytest.raises(HypothesisViolation):
        check_hypotheses(fs, F7)


# ---------------------------------------------------------------------------
# Specialization search


def test_find_specialization_pair():
    fs = [parse_poly("x^2+x-t", F7), parse_poly("t^3+x^3+1", F7)]
    res = find_specialization(fs, F7, s_max=3)
    assert res.s == 2
    E = make_field(7, 2)
    assert E.to_vector(res.a) == [1, 0]
    assert E.to_vector(res.b) == [3, 1]
    assert len(res.witnesses) == 2
    # re-verify the witness independently
    for f, w in zip(fs, res.witnesses):
        g = f.map_to(E).restrict_to_line(res.a, res.b)
        assert g.degree() == f.total_degree()
        assert is_irreducible(g)
        assert w["degree"] == g.degree()


def test_find_specialization_single_curve():
    res = find_specialization(parse_poly("x^2+x-t", F7), F7, s_max=1)
    assert res.s == 1
    E = F7
    g = parse_poly("x^2+x-t", F7).restrict_to_line(res.a, res.b)
    assert g.degree() == 2 and is_irreducible(g)


# ---------------------------------------------------------------------------
# End-to-end verdicts


def test_verify_application_pass():
    F331 = make_field(331, 1)
    report = verify_application(parse_poly("x^2+x-t", F331), F331)
    assert report["verdict"] == "PASS"
    assert report["count_inclusive"] == 54781
    assert report["count_full_degree"] == 54450


def test_verify_application_vacuous_above_threshold():
    # q = 13001 meets the d = 3 threshold q > 9 K^2 = 12996, but the
    # bound's upper end is still negative (it turns positive at 13009)
    E = make_field(13001, 1)
    bound = application_bound(E.q, 3)
    assert bound.app_threshold_ok and bound.app_bound_hi <= 0
    counts = CountReport(q=E.q, total_pairs=E.q ** 2, count_full_degree=0,
                         count_inclusive=0, mode="inclusive")
    report = verify_application(parse_poly("t^3+x^3+1", E), E, counts)
    assert report["verdict"] == "VACUOUS"


def test_verify_application_threshold_not_met():
    report = verify_application(parse_poly("x^2+x-t", F7), F7)
    assert report["verdict"] == "THRESHOLD_NOT_MET"


def test_verify_application_inconclusive_inside_enclosure(monkeypatch):
    # x^2+x-t over F_7 has count_inclusive 25; put it inside the enclosure
    def enclosing_bound(q, d):
        return BoundReport(q=q, d=d, N=2, app_threshold_ok=True,
                           app_bound=25.0, app_bound_lo=Fraction(49, 2),
                           app_bound_hi=Fraction(51, 2), positive=True)

    monkeypatch.setattr(counting, "application_bound", enclosing_bound)
    report = verify_application(parse_poly("x^2+x-t", F7), F7)
    assert report["count_inclusive"] == 25
    assert report["verdict"] == "INCONCLUSIVE"
    assert report["note"] == "count inside the enclosure of the bound"


def test_verify_application_uses_given_counts():
    f = parse_poly("x^2+x-t", F7)
    counts = count_irreducible_pairs(f, F7)
    assert verify_application(f, F7, counts=counts) == \
        verify_application(f, F7)


def test_verify_application_hypothesis_fail():
    report = verify_application(parse_poly("x^2-t^3", F7), F7)
    assert report["verdict"] == "HYPOTHESIS_FAIL"
