"""End-to-end acceptance suite.

Each test prints a single `[criterion N] PASS/FAIL` line with its runtime.
Criterion 11 is a long-running benchmark; set FQPENCIL_RUN_BENCHMARK=1 to
enable it.
"""

import json
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from fqpencil import counting
from fqpencil.bivar import BivariatePoly, is_smooth
from fqpencil.cli import run_command
from fqpencil.counting import (
    application_bound,
    count_irreducible_pairs,
    find_specialization,
    galois_parameters,
    geyer_jarden_rhs_bounds,
)
from fqpencil.field import make_field
from fqpencil.parsing import parse_poly
from fqpencil.pencil import (
    find_generic_point,
    is_generic_point,
    pattern_histogram,
    pencil_discriminant,
)
from fqpencil.reducible import conrad_polynomial, verify_conrad
from fqpencil.unipoly import (
    UnivariatePoly,
    count_monic_irreducibles,
    factor,
    is_irreducible,
)
from oracles import brute_force_singular_search


class Criterion:
    """Times a block and prints one PASS/FAIL line, enforcing a budget."""

    def __init__(self, number, budget_seconds):
        self.number = number
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget \
            else "FAIL"
        print(f"[criterion {self.number}] {verdict} "
              f"({elapsed:.2f}s, budget {self.budget:g}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded {self.budget}s "
                f"({elapsed:.2f}s)")
        return False


def test_criterion_1_application_count_f331():
    with Criterion(1, 2.0):
        q = 331
        E = make_field(q, 1)
        f = parse_poly("x^2+x-t", E)
        report = count_irreducible_pairs(f, E)
        assert report.count_inclusive == 54781
        assert report.count_full_degree == 54450
        # independent closed-form oracle: for x = a t + b the restriction
        # has discriminant (a-1)^2 - 4 a b, and a = 0 gives a linear
        # (hence irreducible) value.
        a = np.arange(q, dtype=np.int64)[:, None]
        b = np.arange(q, dtype=np.int64)[None, :]
        disc = ((a - 1) ** 2 - 4 * a * b) % q
        squares = np.zeros(q, dtype=bool)
        squares[(np.arange(q, dtype=np.int64) ** 2) % q] = True
        full = int(np.count_nonzero((a != 0) & ~squares[disc]))
        assert full == report.count_full_degree
        assert full + q == report.count_inclusive
        bound = application_bound(q, 2)
        assert bound.app_threshold_ok           # 331 > 324
        assert bound.app_bound == pytest.approx(245.4, abs=0.2)
        assert Fraction(report.count_inclusive) > bound.app_bound_hi


def test_criterion_2_worked_pencil_histogram():
    with Criterion(2, 1.0):
        F7 = make_field(7, 1)
        pd = pencil_discriminant(parse_poly("x^2+x-t", F7), (0, 1), F7)
        hist = pattern_histogram(pd)
        assert hist.counts["1+1"] == 3          # split
        assert hist.counts["2"] == 3            # inert
        assert hist.ramified == 2
        assert hist.total == 8 == 7 + 1


def test_criterion_3_branch_degree_realization():
    with Criterion(3, 5.0):
        F7 = make_field(7, 1)
        cubic = parse_poly("t^3+x^3+1", F7)
        gd = galois_parameters([3])
        assert gd.branch_degrees == (6,)        # 2 g_1 - 2 + 2 d
        # Only 15 of the 49 base points in F_7^2 are generic, so the
        # 20-point sample is drawn from the quadratic extension; the
        # F_7-rational generic points are checked exhaustively as well.
        E = make_field(7, 2)
        points = find_generic_point(cubic, E, count=20)
        assert len(points) == 20
        fE = cubic.map_to(E)
        for M in points:
            pd = pencil_discriminant(fE, M, E)
            assert pd.branch_count == 6
        rational = [(i, j) for i in range(7) for j in range(7)
                    if cubic.evaluate(i, j) != F7.zero
                    and is_generic_point(cubic, (i, j), F7)]
        assert len(rational) == 15
        for M in rational:
            assert pencil_discriminant(cubic, M, F7).branch_count == 6


def test_criterion_4_geyer_jarden_sweep():
    with Criterion(4, 10.0):
        for s in range(1, 6):
            E = make_field(7, s)
            f = parse_poly("x^2+x-t", E)
            M = find_generic_point(f, E)
            hist = pattern_histogram(pencil_discriminant(f, M, E))
            for key in ("1+1", "2"):            # both cycle types of S_2
                count = Fraction(hist.counts.get(key, 0))
                for g in (1, 0):
                    lo, hi = geyer_jarden_rhs_bounds(7, s, 2, g)
                    if lo > 0:
                        assert count >= hi, (s, key, g)


def test_criterion_5_simultaneous_specialization():
    with Criterion(5, 10.0):
        F7 = make_field(7, 1)
        fs = [parse_poly("x^2+x-t", F7), parse_poly("t^3+x^3+1", F7)]
        res = find_specialization(fs, F7, s_max=3, mode="full")
        assert res.s <= 3
        E = make_field(7, res.s)
        for f, witness in zip(fs, res.witnesses):
            g = f.map_to(E).restrict_to_line(res.a, res.b)
            assert g.degree() == f.total_degree()
            unit, facs = factor(g)
            assert len(facs) == 1 and facs[0][1] == 1
            assert witness["degree"] == g.degree()


def test_criterion_6_conrad_counterexample():
    with Criterion(6, 30.0):
        report = verify_conrad(conrad_polynomial(3, 5), D=4)
        assert report["substitutions"] == 243
        assert report["all_reducible"]
        assert report["counterexample"] is None
        F3 = make_field(3, 1)
        control = verify_conrad(parse_poly("x^2+x-t", F3), D=1)
        assert not control["all_reducible"]


def test_criterion_7_factorization_oracles():
    with Criterion(7, 10.0):
        # necklace formula oracle for the irreducible counts
        import sympy
        for q in (2, 3, 5, 7, 9):
            E = (make_field(q, 1) if sympy.isprime(q)
                 else make_field(3, 2))
            for n in range(1, 7):
                expected = sum(sympy.mobius(d) * q ** (n // d)
                               for d in sympy.divisors(n)) // n
                assert count_monic_irreducibles(E, n) == expected, (q, n)
        # multiply-back identity on seeded random polynomials
        for (p, k) in ((2, 1), (3, 1), (5, 1), (3, 2), (7, 2)):
            E = make_field(p, k)
            rng = random.Random(9000 + E.q)
            for _ in range(1000):
                deg = rng.randrange(1, 31)
                coeffs = [E.element_at(rng.randrange(E.q))
                          for _ in range(deg)]
                coeffs.append(E.element_at(rng.randrange(1, E.q)))
                poly = UnivariatePoly(E, coeffs)
                unit, facs = factor(poly)
                prod = UnivariatePoly(E, [unit])
                for g, m in facs:
                    for _ in range(m):
                        prod = prod * g
                assert prod == poly


def test_criterion_8_smoothness_battery():
    with Criterion(8, 30.0):
        F5 = make_field(5, 1)
        F7 = make_field(7, 1)
        battery = [
            ("x^2+x-t", F7, True, None),
            ("t^3+x^3+1", F7, True, None),
            ("x^2-t^3-t^2", F7, False, (0, 0, 1)),   # nodal
            ("x^2-t^3", F7, False, (0, 0, 1)),       # cuspidal
        ]
        for text, E, smooth_expected, sing_point in battery:
            smooth, witness = is_smooth(parse_poly(text, E))
            assert smooth == smooth_expected, text
            if not smooth_expected:
                assert witness.point == sing_point, text
        # brute-force agreement over F_{5^m}, m <= 6
        rng = random.Random(2024)
        done = 0
        while done < 20:
            terms = {}
            for _ in range(6):
                i = rng.randrange(0, 4)
                j = rng.randrange(0, 4 - i)
                terms[(i, j)] = F5.element_at(rng.randrange(1, 5))
            f = BivariatePoly(F5, terms)
            if f.is_zero() or f.total_degree() < 2 \
                    or f.total_degree() % 5 == 0:
                continue
            smooth, _ = is_smooth(f)
            oracle = brute_force_singular_search(f, 6)
            assert smooth == (oracle is None), f.format()
            done += 1


def _strip_timing(text):
    report = json.loads(text)
    report.pop("timing_seconds", None)
    return json.dumps(report, sort_keys=True, indent=2)


def test_criterion_9_determinism():
    with Criterion(9, 5.0):
        commands = [
            ["pencil", "--q", "7", "--poly", "x^2+x-t", "--seed", "0"],
            ["factor", "--q", "9", "--poly", "x^6+x+1", "--seed", "0"],
            ["count", "--q", "31", "--poly", "x^2+x-t"],
        ]
        for argv in commands:
            code1, text1 = run_command(argv)
            code2, text2 = run_command(argv)
            assert code1 == code2 == 0
            assert _strip_timing(text1) == _strip_timing(text2), argv
        baseline = None
        for threads in ("1", "4", "8"):
            code, text = run_command(["count", "--q", "31", "--poly",
                                      "x^2+x-t", "--threads", threads])
            assert code == 0
            stripped = _strip_timing(text)
            if baseline is None:
                baseline = stripped
            assert stripped == baseline


def _assert_kernel_sums(f, E, report):
    """The kernel's per-a (full, inclusive) rows, after checking that
    their column sums are the report's two counts."""
    rows = counting._count_rows(f, E)
    assert rows.shape == (E.q, 2)
    assert rows.sum(axis=0).tolist() == \
        [report.count_full_degree, report.count_inclusive]
    return rows


def test_criterion_10_benchmark_f13999():
    with Criterion(10, 600.0):
        q = 13999
        E = make_field(q, 1)
        f = parse_poly("t^3+x^3+1", E)
        bound = application_bound(q, 3)
        assert bound.app_threshold_ok           # 13999 > 12996
        assert bound.app_bound == pytest.approx(1.17e6, rel=0.01)
        report = count_irreducible_pairs(f, E)
        assert report.total_pairs == q * q
        assert Fraction(report.count_inclusive) >= bound.app_bound_hi
        _assert_kernel_sums(f, E, report)


@pytest.mark.skipif(os.environ.get("FQPENCIL_RUN_BENCHMARK") != "1",
                    reason="long-running benchmark; set "
                           "FQPENCIL_RUN_BENCHMARK=1 to enable")
def test_criterion_11_benchmark_f11_4():
    with Criterion(11, 600.0):
        E = make_field(11, 4)
        f = parse_poly("t^3+x^3+1", E)
        bound = application_bound(E.q, 3)
        assert bound.app_threshold_ok           # 14641 > 12996
        report = count_irreducible_pairs(f, E)
        assert report.total_pairs == E.q ** 2
        assert Fraction(report.count_inclusive) >= bound.app_bound_hi
        rows = _assert_kernel_sums(f, E, report).tolist()
        for ai in random.Random(11).sample(range(E.q), 3):
            assert tuple(rows[ai]) == _per_pair_row(f, E, ai), ai


def _per_pair_row(f, E, a):
    """Oracle: (full, inclusive) counts over every b for one a, pair by
    pair through restrict_to_line and is_irreducible."""
    d = f.total_degree()
    full = incl = 0
    for b in E.elements():
        g = f.restrict_to_line(a, b)
        if g.degree() >= 1 and is_irreducible(g):
            incl += 1
            full += g.degree() == d
    return full, incl
