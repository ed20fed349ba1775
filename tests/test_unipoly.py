"""Univariate polynomial arithmetic, factorization, and counting."""

import random

import numpy as np
import pytest
import sympy

from fqpencil import errors
from fqpencil.field import make_field
from fqpencil.unipoly import (UnivariatePoly, _count_dtype, _rabin_batch,
                              count_monic_irreducibles, discriminant, factor,
                              is_irreducible, resultant, roots_in_field,
                              squarefree_decomposition, squarefree_part)


def rand_poly(F, rng, deg, monic=False):
    coeffs = [F.element_at(rng.randrange(F.q)) for _ in range(deg)]
    coeffs.append(F.one if monic
                  else F.element_at(rng.randrange(1, F.q)))
    return UnivariatePoly(F, coeffs)


def from_ints(F, ints):
    return UnivariatePoly(F, [F.from_int(c) for c in ints])


# ---------------------------------------------------------------------------
# Euclidean arithmetic


@pytest.mark.parametrize("p,k", [(2, 1), (7, 1), (3, 2)])
def test_divmod_property(p, k):
    F = make_field(p, k)
    rng = random.Random(p * 10 + k)
    for _ in range(200):
        a = rand_poly(F, rng, rng.randrange(0, 12))
        b = rand_poly(F, rng, rng.randrange(0, 8))
        quo, rem = a.divmod(b)
        assert quo * b + rem == a
        assert rem.degree() < b.degree() or rem.is_zero()


def test_gcd_properties():
    F = make_field(5, 1)
    rng = random.Random(11)
    for _ in range(200):
        a = rand_poly(F, rng, rng.randrange(0, 8))
        b = rand_poly(F, rng, rng.randrange(0, 8))
        c = rand_poly(F, rng, rng.randrange(1, 5))
        g = (a * c).gcd(b * c)
        assert ((a * c) % g).is_zero() and ((b * c) % g).is_zero()
        assert (g % c.monic()).is_zero()       # common factor survives
        assert g.leading() == F.one


def test_zero_division():
    F = make_field(5, 1)
    f = from_ints(F, [1, 1])
    with pytest.raises(ZeroDivisionError):
        f.divmod(UnivariatePoly.zero(F))


# ---------------------------------------------------------------------------
# Irreducibility


def test_is_irreducible_examples():
    F3, F5 = make_field(3, 1), make_field(5, 1)
    assert is_irreducible(from_ints(F3, [1, 0, 1]))          # x^2+1 / F_3
    assert not is_irreducible(from_ints(F5, [1, 0, 1]))      # x^2+1 / F_5
    for c in range(5):
        assert is_irreducible(from_ints(F5, [c, 1]))
    with pytest.raises(errors.ZeroOrConstant):
        is_irreducible(from_ints(F5, [3]))


def _trial_division_irreducible(f):
    """Independent oracle: divide by every monic of degree <= deg/2."""
    F = f.field
    n = f.degree()
    for d in range(1, n // 2 + 1):
        for idx in range(F.q ** d):
            coeffs = []
            v = idx
            for _ in range(d):
                coeffs.append(F.element_at(v % F.q))
                v //= F.q
            g = UnivariatePoly(F, coeffs + [F.one])
            if (f % g).is_zero():
                return False
    return n >= 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_is_irreducible_matches_trial_division(q):
    from fqpencil.field import field_of_order

    F = field_of_order(q)
    for n in range(1, 5):
        if q ** n > 2500:      # keep the exhaustive scan tractable
            sample = random.Random(q * n).sample(range(q ** n), 2500)
        else:
            sample = range(q ** n)
        for idx in sample:
            coeffs = []
            v = idx
            for _ in range(n):
                coeffs.append(F.element_at(v % q))
                v //= q
            f = UnivariatePoly(F, coeffs + [F.one])
            assert is_irreducible(f) == _trial_division_irreducible(f), \
                (q, n, f.coeffs)


# ---------------------------------------------------------------------------
# Factorization


def test_factor_examples():
    F3 = make_field(3, 1)
    unit, facs = factor(from_ints(F3, [0, 1, 0, 1]))          # x^3+x
    assert unit == F3.one
    assert [(g.format("x"), m) for g, m in facs] == [("x", 1), ("x^2+1", 1)]

    F9 = make_field(3, 2)
    xq_minus_x = UnivariatePoly(
        F9, [F9.zero, F9.neg(F9.one)] + [F9.zero] * 7 + [F9.one])
    unit, facs = factor(xq_minus_x)
    assert len(facs) == 9 and all(g.degree() == 1 and m == 1 for g, m in facs)

    sq = from_ints(F3, [1, 0, 1])
    unit, facs = factor(sq * sq)
    assert facs == [(sq, 2)]

    with pytest.raises(errors.ZeroOrConstant):
        factor(from_ints(F3, [2]))


@pytest.mark.parametrize("p,k", [(2, 1), (5, 1), (3, 2), (7, 2)])
def test_factor_multiply_back_and_irreducible_factors(p, k):
    F = make_field(p, k)
    rng = random.Random(31 * p + k)
    for i in range(150):
        f = rand_poly(F, rng, rng.randrange(1, 31))
        unit, facs = factor(f, seed=i)
        acc = UnivariatePoly(F, [unit])
        for g, m in facs:
            assert is_irreducible(g)
            assert g.leading() == F.one
            for _ in range(m):
                acc = acc * g
        assert acc == f


def test_factor_near_int64_limit():
    # sums of two products of residues mod 2^31 - 1 already pass int64
    F = make_field(2 ** 31 - 1, 1)
    rng = random.Random(5)
    for _ in range(3):
        f = rand_poly(F, rng, rng.randrange(8, 13), monic=True)
        unit, facs = factor(f)
        acc = UnivariatePoly(F, [unit])
        for g, m in facs:
            assert is_irreducible(g)
            for _ in range(m):
                acc = acc * g
        assert acc == f


def test_factor_seed_independent():
    F = make_field(7, 1)
    rng = random.Random(3)
    for _ in range(40):
        f = rand_poly(F, rng, rng.randrange(2, 15))
        assert factor(f, seed=1) == factor(f, seed=99)


# ---------------------------------------------------------------------------
# Resultant / discriminant / squarefree part


def test_resultant_discriminant_examples():
    F7 = make_field(7, 1)
    assert resultant(from_ints(F7, [-2, 1]), from_ints(F7, [-3, 1])) == \
        F7.from_int(6)
    assert discriminant(from_ints(F7, [1, 0, 1])) == F7.from_int(3)
    assert discriminant(from_ints(F7, [1, -2, 1])) == F7.zero
    with pytest.raises(errors.InseparableInput):
        discriminant(from_ints(F7, [1, 0, 0, 0, 0, 0, 0, 1]))  # f' = 0


def test_resultant_multiplicative():
    F = make_field(5, 1)
    rng = random.Random(17)
    for _ in range(60):
        f = rand_poly(F, rng, rng.randrange(1, 6))
        g = rand_poly(F, rng, rng.randrange(1, 5))
        h = rand_poly(F, rng, rng.randrange(1, 5))
        assert resultant(f, g * h) == F.mul(resultant(f, g), resultant(f, h))


def test_squarefree_part_examples():
    F5 = make_field(5, 1)
    xm1, xp1 = from_ints(F5, [-1, 1]), from_ints(F5, [1, 1])
    assert squarefree_part(xm1 * xm1 * xp1) == xm1 * xp1
    f = from_ints(F5, [3, 1, 0, 2, 1])
    if squarefree_part(f) == f.monic():          # squarefree -> identity
        assert discriminant(f) != F5.zero
    F3 = make_field(3, 1)
    cube = from_ints(F3, [0, 0, 0, 1])                       # x^3
    assert squarefree_part(cube) == from_ints(F3, [0, 1])    # p-th power path


def test_squarefree_decomposition_reassembles():
    for p, k in [(3, 1), (3, 2), (2, 1)]:
        F = make_field(p, k)
        rng = random.Random(p + k)
        for _ in range(100):
            f = rand_poly(F, rng, rng.randrange(1, 12))
            acc = UnivariatePoly.one(F)
            parts = squarefree_decomposition(f)
            for g, m in parts:
                assert squarefree_part(g) == g       # each part squarefree
                for _ in range(m):
                    acc = acc * g
            assert acc == f.monic()


def test_roots_in_field():
    F = make_field(7, 1)
    f = from_ints(F, [-1, 0, 1])     # x^2 - 1
    assert set(roots_in_field(f)) == {F.from_int(1), F.from_int(6)}


# ---------------------------------------------------------------------------
# Exhaustive irreducible counts (necklace oracle, small slice)


def necklace(q, n):
    return sum(sympy.mobius(d) * q ** (n // d)
               for d in sympy.divisors(n)) // n


@pytest.mark.parametrize("q,pk", [(2, (2, 1)), (5, (5, 1)), (9, (3, 2))])
def test_count_monic_irreducibles_small(q, pk):
    F = make_field(*pk)
    for n in range(1, 5):
        assert count_monic_irreducibles(F, n) == necklace(q, n)


def test_count_monic_irreducibles_large_primes():
    # residue product sums pass the int16 range from p = 131 on
    for p in (131, 251):
        assert count_monic_irreducibles(make_field(p, 1), 2) == necklace(p, 2)


def test_count_degree_guard():
    F = make_field(2, 1)
    with pytest.raises(errors.DegreeOutOfRange):
        count_monic_irreducibles(F, 7)
    with pytest.raises(errors.DegreeOutOfRange):
        count_monic_irreducibles(F, 0)


def _rabin_expected(f):
    """Rabin's equality tests read off factor(f): x^{q^m} == x mod f
    exactly when f is square-free with every factor degree dividing m."""
    facs = factor(f)[1]
    n = f.degree()

    def fixed(m):
        return all(mult == 1 and m % g.degree() == 0 for g, mult in facs)

    return fixed(n) and not any(fixed(n // ell)
                                for ell in sympy.primefactors(n))


def _random_irreducible(F, rng, d):
    while True:
        g = rand_poly(F, rng, d, monic=True)
        if factor(g)[1] == [(g, 1)]:
            return g


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (5, 2)])
def test_rabin_batch_matches_factor(p, k):
    F = make_field(p, k)
    rng = random.Random(p * 10 + k)
    x = from_ints(F, [0, 1])
    for n in range(2, 10):
        polys = [rand_poly(F, rng, n, monic=True) for _ in range(40)]
        if n == 6:
            # factor degrees {3, 2, 1} pass the equality tests
            polys.append(_random_irreducible(F, rng, 3)
                         * _random_irreducible(F, rng, 2) * x)
        low = F.to_vector(np.array([f.coeffs[:n] for f in polys]))
        low = low.transpose(1, 2, 0)
        got = _rabin_batch(low.astype(_count_dtype(F, n)), F)
        for f, passed in zip(polys, got.tolist()):
            assert passed == _rabin_expected(f), f.format()
            if len(sympy.primefactors(n)) == 1:
                assert passed == is_irreducible(f), f.format()
        if n == 6:
            assert got[-1]
