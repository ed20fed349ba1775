"""Tests for Galois parameters, bounds, counting, and specialization search."""

import random
from fractions import Fraction
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fqpencil import counting, polycore
from fqpencil.bivar import BivariatePoly, is_smooth
from fqpencil.field import GridArith, make_field, prime_power
from fqpencil.parsing import parse_poly
from fqpencil.reducible import conrad_polynomial, verify_conrad
from fqpencil.counting import (
    BoundReport,
    CountReport,
    application_bound,
    check_hypotheses,
    count_irreducible_pairs,
    find_specialization,
    galois_parameters,
    geyer_jarden_rhs,
    geyer_jarden_rhs_bounds,
    verify_application,
)
from fqpencil.errors import (ConstraintViolation, DegreeOutOfRange,
                             DegreeTooSmall, HypothesisViolation)
from fqpencil.intervals import (
    fourth_root_bounds,
    mul_bounds,
    q_pow_half_bounds,
    q_pow_quarter_bounds,
    sqrt_bounds,
)
from fqpencil.unipoly import (UnivariatePoly, count_monic_irreducibles,
                              factor, is_irreducible)


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


def genus_closed_form(d: int, N: int) -> int:
    """Closed form g = 1 + (N/2)(d-2)(d+1) for a single degree-d curve."""
    num = N * (d - 2) * (d + 1)
    assert num % 2 == 0
    return 1 + num // 2


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


F11_CUBIC = parse_poly("t^3+x^3+t*x+1", make_field(11, 1))
F31_CUBIC = parse_poly("t^3+x^3+t*x+1", make_field(31, 1))


# At these _BLOCK_DIGITS the rows form several row chunks, each of
# several cell blocks, and the last block is short: F_31 at D = 1 in
# chunks of 21 rows, blocks of 3; F_11 at D = 2 in chunks of 6, blocks of
# 3; the monic quartics over F_7 at D = 3 in chunks of 9, blocks of 3.
@pytest.mark.parametrize("run, terms, E, D, digits", [
    (lambda: counting._count_rows(F31_CUBIC, F31_CUBIC.field).tolist(),
     F31_CUBIC.terms, F31_CUBIC.field, 1, 372),
    (lambda: verify_conrad(F11_CUBIC, 2), F11_CUBIC.terms, F11_CUBIC.field,
     2, 231),
    (lambda: count_monic_irreducibles(make_field(7, 1), 4),
     {(4, 0): 1, (0, 1): 1}, make_field(7, 1), 3, 105),
], ids=["count", "conrad", "monic"])
def test_row_chunks_and_cell_blocks_give_the_default_rows(
        monkeypatch, run, terms, E, D, digits):
    expected = run()
    chunks = []
    substitute = counting.substitute
    monkeypatch.setattr(counting, "substitute",
                        lambda cs, g, E: chunks.append(g.shape[1])
                        or substitute(cs, g, E))
    monkeypatch.setattr(counting, "_BLOCK_DIGITS", digits)
    blocks = [rows.size for rows, _, _ in
              counting.substitution_rows(terms, E, D)]
    assert sum(chunks) == sum(blocks) == E.q ** D
    assert len(chunks) > 1 and chunks[0] % blocks[0] == 0
    assert chunks[0] // blocks[0] > 1 and blocks[-1] < blocks[0]
    assert run() == expected


def test_count_rejects_bad_characteristic():
    F3 = make_field(3, 1)
    with pytest.raises(HypothesisViolation):
        count_irreducible_pairs(parse_poly("t^3+x^3+1", F3), F3)


def test_count_rejects_constants():
    with pytest.raises(HypothesisViolation):
        count_irreducible_pairs(parse_poly("x+t", F7), F7)


def test_count_over_a_subfield_of_the_counting_field():
    F5, F25 = make_field(5, 1), make_field(5, 2)
    f = parse_poly("t^3+x^3+t*x+2", F5)
    assert count_irreducible_pairs(f, F25) == \
        count_irreducible_pairs(f.map_to(F25), F25)


@st.composite
def _fiber_curves(draw, E):
    """Curves whose fibers f(t0, x) lose their lead, vanish identically,
    reduce to zero under z^q = z, have double roots, split completely or
    are constants, and the x^(4q) + t^b curves of conrad."""
    elem = st.integers(0, E.q - 1).map(E.element_at)

    def poly(terms):
        out = BivariatePoly(E, {})
        for ij, c in terms.items():
            out = out + BivariatePoly(E, {ij: c})
        return out

    def line():  # x - a t - b
        a, b = draw(elem), draw(elem)
        return poly({(0, 1): 1, (1, 0): E.neg(a), (0, 0): E.neg(b)})

    def vertical():  # t - c
        return poly({(1, 0): 1, (0, 0): E.neg(draw(elem))})

    def rest(degree):
        return poly({(i, j): draw(elem) for i in range(degree + 1)
                     for j in range(degree + 1 - i)})

    kind = draw(st.sampled_from(
        ["lead", "vertical", "reduced", "tangent", "split", "no x",
         "conrad"]))
    if kind == "lead":  # (t - c) x^n + lower terms
        n = draw(st.integers(2, 3))
        return vertical() * poly({(0, n): 1}) + rest(n - 1)
    if kind == "vertical":
        return vertical() * (rest(2) + poly({(0, 2): 1}))
    if kind == "no x":  # every fiber a constant
        return vertical() * vertical()
    if kind == "reduced":  # x^q - x and t^q - t vanish on every point
        q = E.q
        return poly({(0, q): 1, (0, 1): E.neg(1)}) * rest(1) \
            + poly({(q, 0): 1, (1, 0): E.neg(1)}) * rest(1) + rest(1)
    if kind == "tangent":
        first = line()
        return first * first * line()
    if kind == "split":
        out = line()
        for _ in range(draw(st.integers(1, 3))):
            out = out * line()
        return out
    return conrad_polynomial(E.q).f


def _points_oracle(f, E):
    """(points, vertical) of _curve_points by evaluating f on all of E^2:
    the zeros off the vertical fibers, and the t0 whose fiber vanishes at
    every x.  The zero polynomial gets neither: its values have no
    degree."""
    if f.is_zero():
        return [], []
    zeros = {t: [x for x in E.elements() if f.evaluate(t, x) == E.zero]
             for t in E.elements()}
    vertical = sorted(t for t, xs in zeros.items() if len(xs) == E.q)
    points = sorted((t, x) for t, xs in zeros.items() if len(xs) < E.q
                    for x in xs)
    return points, vertical


# The root finder, the evaluator chosen by the work and the evaluator
# chosen by polycore._FROB_TABLE_LIMIT, where ModCtx refuses every fiber,
# give the curve's points, each once, and its vertical fibers instead of
# their q points each.
@pytest.mark.parametrize("p, k", [
    (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (5, 1), (7, 1), (11, 1),
    (3, 2), (5, 2), (3, 3)])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_curve_points_of_both_regimes_agree(p, k, data):
    E = make_field(p, k)
    f = data.draw(_fiber_curves(E))
    expected = _points_oracle(f, E)
    for work, frob in ((0, 1 << 12), (0, 0), (1 << 62, 1 << 12)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "_FIBER_ROOTS_MIN", work)
            mp.setattr(counting, "_FROB_TABLE_LIMIT", frob)
            mp.setattr(polycore, "_FROB_TABLE_LIMIT", frob)
            t, x, vertical = counting._curve_points(f.terms, E, GridArith(E))
        assert (sorted(zip(t.tolist(), x.tolist())),
                sorted(vertical.tolist())) == expected, (work, frob)


# x^7 - x vanishes on all of F_7^2: every value f(t, g(t)) = g^7 - g of a
# g of degree 1 is t^7 - t times a unit, and of a constant g zero.
@pytest.mark.parametrize("work", [0, 1 << 62])
def test_conrad_of_x_to_the_q_minus_x(monkeypatch, work):
    monkeypatch.setattr(counting, "_FIBER_ROOTS_MIN", work)
    report = verify_conrad(parse_poly("x^7-x", F7), 1)
    assert (report["degenerate"], report["reducible"]) == (7, 42)


def _marks_oracle(points, p, D, rows):
    """The root marks of the rows by scalar arithmetic: each point (t0, x0)
    roots the cell g_0 = x0 - sum_i g_i t0^i of every row."""
    out = np.zeros((len(rows), p), dtype=bool)
    for i, row in enumerate(rows):
        g = [row // p ** e % p for e in range(D)]  # g_1 .. g_D
        for t0, x0 in points:
            out[i, (x0 - sum(gi * t0 ** (e + 1)
                             for e, gi in enumerate(g))) % p] = True
    return out


def _row_digits(rows, p, D):
    """substitution_rows' digit block of the rows: g_1 .. g_D, then ones."""
    g = np.asarray(rows) // p ** np.arange(D + 1)[:, None] % p
    g[D] = 1
    return g


# Over F_p the marks come from integer row offsets, not from a product:
# blocks of one row, blocks that cross a multiple of p (where g_1 wraps to
# 0 and the higher digits change), a short last block, points at t0 = 0
# and fibers with several roots.
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("D", [0, 1, 2, 3])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_prime_marks_match_scalar_marks(p, D, data):
    pair = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
    points = data.draw(st.lists(pair, max_size=3 * p)) + [(0, 1)] \
        + [(1, x) for x in range(data.draw(st.integers(0, p)))]
    t0, x0 = (np.array(c, dtype=np.int64) for c in zip(*points))
    total = p ** D
    for block in (1, 2, p + 1, total):
        mark = counting._prime_marker(t0, x0, D, p, block)
        for start in range(0, total, block):
            rows = range(start, min(start + block, total))
            assert (mark(_row_digits(rows, p, D))
                    == _marks_oracle(points, p, D, rows)).all(), block


def _value_oracle(f, E, g):
    """(deg, irr) of the value f(t, g(t)) for the coefficient list g, low
    degree first: deg 0 for constants and zero, as the kernel's."""
    h = f.substitute_x(UnivariatePoly(E, g))
    n = h.degree()
    return max(n, 0), n >= 1 and is_irreducible(h)


# The kernel's blocks at D = 0, 1 and 2 over F_2, F_3 and F_5 against the
# values classified one by one, at _BLOCK_DIGITS of one-row blocks and of
# blocks of p + 1 rows, which cross every multiple of p at D = 2 and end
# on a short block; its root marks against the scalar marks of the curve
# points, in both _curve_points regimes.
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("D", [0, 1, 2])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_prime_kernel_blocks_match_per_cell_oracle(p, D, data):
    E = make_field(p, 1)
    f = data.draw(_fiber_curves(E))
    N = max((i + j * D for i, j in f.terms), default=0)
    for block in (1, p + 1):
        for work in (0, 1 << 62):
            marks = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(counting, "_BLOCK_DIGITS", block * (N + 1) * p)
                mp.setattr(counting, "_FIBER_ROOTS_MIN", work)
                points = counting._curve_points(f.terms, E, GridArith(E))
                marker = counting._root_marker

                def spy(*args):
                    mark = marker(*args)
                    return lambda g: marks.append((g.copy(), mark(g))) \
                        or marks[-1][1]
                mp.setattr(counting, "_root_marker", spy)
                blocks = list(counting.substitution_rows(f.terms, E, D))
            assert [rows.size for rows, _, _ in blocks[:-1]] == \
                [min(block, p ** D)] * (len(blocks) - 1)
            t, x, vertical = points
            for (rows, deg, irr), (g, has_root) in zip(blocks, marks):
                assert (g == _row_digits(rows, p, D)).all()
                expected = np.ones_like(has_root) if vertical.size else \
                    _marks_oracle(list(zip(t.tolist(), x.tolist())), p, D,
                                  rows.tolist())
                assert (has_root == expected).all()
                deg = np.broadcast_to(deg, irr.shape)
                for i, row in enumerate(rows.tolist()):
                    g_rest = [row // p ** e % p for e in range(D)]
                    for g0 in range(p):
                        assert (deg[i, g0], irr[i, g0]) == \
                            _value_oracle(f, E, [g0] + g_rest), (row, g0)


# Every dot of the kernel at D = 1 on x^2 + t^3 + 1, whose values all have
# degree 3 and top coefficient 1, so that no row is expanded: none over a
# prime field once the curve points are known, one a block over F_49.
@pytest.mark.parametrize("p, k", [(7, 1), (3457, 1), (7, 2)])
def test_prime_fields_mark_roots_without_a_dot(monkeypatch, p, k):
    E = make_field(p, k)
    terms = parse_poly("x^2+t^3+1", E).terms
    points = counting._curve_points(terms, E, GridArith(E))
    monkeypatch.setattr(counting, "_curve_points", lambda *args: points)
    calls = []
    dot = GridArith.dot
    monkeypatch.setattr(GridArith, "dot", lambda self, *args, **kw:
                        calls.append(args) or dot(self, *args, **kw))
    blocks = list(counting.substitution_rows(terms, E, 1))
    assert len(calls) == (0 if k == 1 else len(blocks))


# A component t = t0 roots every value: _curve_points reports the
# vertical fiber, and the kernel marks every cell, in both regimes.
@pytest.mark.parametrize("text, q", [
    ("x^2+x+t", 5), ("x^2+t*x+1", 7), ("x+t+1", 3), ("x^2+x+t", 25),
    ("x+t+1", 9)])
@pytest.mark.parametrize("work", [0, 1 << 62])
def test_vertical_fibers_root_every_value(monkeypatch, text, q, work):
    monkeypatch.setattr(counting, "_FIBER_ROOTS_MIN", work)
    E = make_field(*prime_power(q))
    c = E.element_at(q // 2)
    f = (parse_poly("t", E) + BivariatePoly(E, {(0, 0): E.neg(c)})) \
        * parse_poly(text, E)
    _, _, vertical = counting._curve_points(f.terms, E, GridArith(E))
    assert vertical.tolist() == [c]
    rep = count_irreducible_pairs(f, E)
    assert (rep.count_full_degree, rep.count_inclusive) == _brute_count(f, E)


# ---------------------------------------------------------------------------
# Closed-form counts of smooth conics and cubics, against the kernel


@st.composite
def _smooth_low_curves(draw, E):
    """Smooth conics and cubics over E: random ones, and families with V =
    (0:1:0) on the curve, a Weierstrass flex at infinity whose tangent is
    the line at infinity, and a point (1:0:0) whose tangent X = 0 is a
    line x = a t + b, at a flex (x Q + c) or not (x Q + Z^2 (alpha t +
    beta), and the conic x L + c)."""
    nonzero = st.integers(1, E.q - 1).map(E.element_at)
    elem = st.one_of(st.just(0), nonzero)
    kind = draw(st.sampled_from(
        ["random", "V on C", "Weierstrass", "row flex", "row tangent"]))
    d = draw(st.sampled_from([d for d in (2, 3) if d * (d - 1) % E.p]))
    if kind == "random":
        f = draw(_curves(E, (d,)))
    elif kind == "V on C":
        terms = {(i, j): draw(elem)
                 for i in range(d + 1) for j in range(d + 1 - i)}
        terms[(0, d)] = 0
        terms[(d, 0)] = draw(nonzero)
        f = BivariatePoly(E, {ij: c for ij, c in terms.items() if c})
    elif kind == "Weierstrass" and d == 3:  # t^2 = x^3 + alpha x + beta
        f = BivariatePoly(E, {(2, 0): 1, (0, 3): E.neg(1),
                              (0, 1): draw(elem), (0, 0): draw(elem)})
    else:  # x L + c for a conic, x Q + c or x Q + alpha t + beta for a cubic
        terms = {(i, j + 1): draw(elem)
                 for i in range(d) for j in range(d - i)}
        terms[(d - 1, 1)] = draw(nonzero)
        terms[(0, 0)] = draw(elem)
        if kind == "row tangent" and d == 3:
            terms[(1, 0)] = draw(nonzero)
        else:
            terms[(0, 0)] = draw(nonzero)
        f = BivariatePoly(E, {ij: c for ij, c in terms.items() if c})
    assume(f.total_degree() == d and is_smooth(f)[0])
    return f


@pytest.mark.parametrize("p, k", [
    (5, 1), (7, 1), (11, 1), (13, 1), (37, 1), (3, 2), (5, 2), (3, 3),
    (7, 2)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_closed_form_matches_the_kernel(p, k, data):
    E = make_field(p, k)
    f = data.draw(_smooth_low_curves(E))
    assert list(counting._line_counts(f, E)) == \
        counting._count_rows(f, E).sum(axis=0).tolist()


def test_closed_form_at_a_benchmark_size(monkeypatch):
    E = make_field(3001, 1)
    f = parse_poly("t^3+x^3+t+1", E)
    calls = []
    line_counts = counting._line_counts
    monkeypatch.setattr(counting, "_line_counts",
                        lambda *args: calls.append(args) or line_counts(*args))
    rep = count_irreducible_pairs(f, E)
    assert len(calls) == 1
    assert [rep.count_full_degree, rep.count_inclusive] == \
        counting._count_rows(f, E).sum(axis=0).tolist()


# Singular curves, quartics and fields below _CLOSED_FORM_MIN stay on the
# kernel; a smooth conic or cubic from it on takes the closed form.
@pytest.mark.parametrize("poly, q, closed", [
    ("x^2-t^3-t^2", 13, False), ("x^4+t^4+3", 13, False),
    ("t^3+x^3+1", 7, False), ("t^3+x^3+1", 13, True),
    ("x^2+x-t", 11, True)])
def test_closed_form_takes_smooth_low_degree_curves(monkeypatch, poly, q,
                                                    closed):
    monkeypatch.setattr(counting, "_CLOSED_FORM_MIN", 11)
    calls = []
    monkeypatch.setattr(counting, "_line_counts",
                        lambda *args: calls.append(args) or (0, 0))
    count_irreducible_pairs(*_curve(poly, q))
    assert len(calls) == closed


# verify_application reuses the smoothness that the count asked for, so a
# count command runs is_smooth once, on either path.
@pytest.mark.parametrize("argv", [
    ["count", "--q", "257", "--poly", "t^3+x^3+1"],
    ["count", "--q", "257", "--poly", "x^2-t^3-t^2"],
    ["count", "--q", "31", "--poly", "x^2+x-t"],
    ["count", "--q", "13", "--poly", "x^4+t^4+3"]])
def test_count_command_runs_is_smooth_once(monkeypatch, argv):
    from fqpencil.cli import run_command
    calls = []
    monkeypatch.setattr(counting, "is_smooth",
                        lambda f: calls.append(f) or is_smooth(f))
    code, _ = run_command(argv)
    assert code == 0 and len(calls) == 1


# N counts each rational point once: _curve_points lists each (t, x) once
# in both regimes, on fibers with double and triple roots (x^2 - t and
# x^3 - t at t = 0, the vertical tangents of a Weierstrass cubic).
@pytest.mark.parametrize("poly", [
    "x^2-t", "x^3-t", "x^3+x^2-t", "t^2-x^3-x-1", "x^2-t^3-t-1",
    "t^3+x^3+1", "x^2+x-t"])
@pytest.mark.parametrize("q", [7, 13, 25, 49])
@pytest.mark.parametrize("work", [0, 1 << 62])
def test_curve_points_lists_each_point_once(monkeypatch, poly, q, work):
    monkeypatch.setattr(counting, "_FIBER_ROOTS_MIN", work)
    E = make_field(*prime_power(q))
    f = parse_poly(poly, E)
    t, x, vertical = counting._curve_points(f.terms, E, GridArith(E))
    points = list(zip(t.tolist(), x.tolist()))
    assert len(set(points)) == len(points)
    assert (sorted(points), vertical.tolist()) == _points_oracle(f, E)


def _curve(poly, q):
    F = make_field(q, 1)
    return parse_poly(poly, F), F


# Every refusal of the kernel, substitution_rows, through each caller.
# 262147 is past q = 2^18, where GridArith has no tables; 262139 is the
# largest prime below it, and the values of x^70 + t over F_262139 need
# value-grid rows of 71 q > 2^24 digits, as F_{2^18} does at n = 6.
@pytest.mark.parametrize("run, error", [
    (lambda: count_irreducible_pairs(*_curve("x^2+x-t", 262147)),
     ConstraintViolation),
    # refused before anything of size q is allocated
    (lambda: count_irreducible_pairs(*_curve("x^2+x-t", 2 ** 61 - 1)),
     ConstraintViolation),
    (lambda: verify_conrad(_curve("x^2+x-t", 262147)[0], 0),
     ConstraintViolation),
    (lambda: count_monic_irreducibles(make_field(262147, 1), 2),
     ConstraintViolation),
    (lambda: count_irreducible_pairs(*_curve("x^70+t", 262139)),
     DegreeOutOfRange),
    (lambda: verify_conrad(_curve("t^70+x", 262139)[0], 0),
     DegreeOutOfRange),
    (lambda: count_monic_irreducibles(make_field(2, 18), 6),
     DegreeOutOfRange),
])
def test_kernel_refusals(run, error):
    with pytest.raises(error):
        run()


def test_kernel_limits_have_one_owner():
    # the kernel's refusals and block size are decided in field.py and
    # counting.py only
    for path in Path(counting.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "_block_rows" not in text, path.name
        if path.name not in ("field.py", "counting.py"):
            for name in ("_LOG_TABLE_LIMIT", "_POWER_TABLE_LIMIT"):
                assert name not in text, (path.name, name)


# ---------------------------------------------------------------------------
# Hypothesis checks


def test_check_hypotheses_accepts_pair():
    fs = [parse_poly("x^2+x-t", F7), parse_poly("t^3+x^3+1", F7)]
    check_hypotheses(fs)


def test_check_hypotheses_accepts_smooth_curve_without_certificate():
    # x^5 + t^5 + 1 is smooth, so irreducible, though the specialization
    # scan and Hensel lifting of the irreducibility certificate give no
    # verdict for it over F_3
    F3 = make_field(3, 1)
    f = parse_poly("x^5+t^5+1", F3)
    check_hypotheses([f])
    report = verify_application(f, F3)
    assert report["smooth"] is True
    assert report["irreducible"] == "irreducible"
    assert report["verdict"] != "HYPOTHESIS_FAIL"


def test_check_hypotheses_rejects_char_two():
    F4 = make_field(2, 2)
    with pytest.raises(HypothesisViolation):
        check_hypotheses([parse_poly("x^2+x+t", F4)])


def test_check_hypotheses_rejects_singular():
    with pytest.raises(HypothesisViolation):
        check_hypotheses([parse_poly("x^2-t^3", F7)])


def test_check_hypotheses_names_a_singular_curve_without_witness(monkeypatch):
    # is_smooth gives no witness when disc_X vanishes and the singular
    # points lie past F_{q^6}; is_smooth stands in for such a curve
    monkeypatch.setattr(counting, "is_smooth", lambda f: (False, None))
    with pytest.raises(HypothesisViolation,
                       match=r"reducible or not reduced.*F_7\^6"):
        check_hypotheses([parse_poly("x^2-t^3", F7)])


def test_check_hypotheses_rejects_proportional():
    fs = [parse_poly("x^2+x-t", F7), parse_poly("2*x^2+2*x-2*t", F7)]
    with pytest.raises(HypothesisViolation):
        check_hypotheses(fs)


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
    assert report["verdict"] == "HYPOTHESIS_FAIL" and "reason" not in report
    F3 = make_field(3, 1)
    report = verify_application(parse_poly("t^3+x^3+1", F3), F3)
    assert report == {"q": 3, "d": 3, "verdict": "HYPOTHESIS_FAIL",
                      "reason": "characteristic 3 divides d(d-1) = 6"}
