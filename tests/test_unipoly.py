"""Univariate polynomial arithmetic, factorization, and counting."""

import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fqpencil import errors, unipoly
from fqpencil.field import make_field
from fqpencil.polycore import (FrobCtx, ModCtx, _count_dtype, elements,
                               from_array, linear_factors, poly_gcd, poly_mul,
                               to_array)
from fqpencil.unipoly import (UnivariatePoly, _irreducible_batch, _rabin_batch,
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


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (7, 2), (3, 5)])
@settings(max_examples=20)
@given(data=st.data())
def test_factor_multiply_back_property(p, k, data):
    F = make_field(p, k)
    n = data.draw(st.integers(1, 30))
    elem = st.one_of(st.just(0), st.integers(0, F.q - 1))
    coeffs = data.draw(st.lists(elem, min_size=n, max_size=n))
    f = UnivariatePoly(F, coeffs + [data.draw(st.integers(1, F.q - 1))])
    unit, facs = factor(f)
    acc = UnivariatePoly(F, [unit])
    for g, m in facs:
        assert g.leading() == F.one
        assert is_irreducible(g)
        for _ in range(m):
            acc = acc * g
    assert acc == f


def test_factor_near_int64_limit():
    # sums of two products of residues mod 2^31 - 1 already pass int64, and
    # residues mod 2^64 + 13 do themselves: the kernels run on Python ints
    for p in (2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 + 13):
        F = make_field(p, 1)
        rng = random.Random(5)
        for _ in range(3):
            f = rand_poly(F, rng, rng.randrange(8, 13), monic=True)
            unit, facs = factor(f)
            assert is_irreducible(f) == (facs == [(f, 1)])
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


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_squarefree_decomposition_of_built_exponents(data):
    # f = prod g^e over distinct monic irreducibles g of degree <= 2 with
    # exponents e <= p^2: the part of multiplicity m is the product of the
    # g with e = m
    p, k = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2),
                                      (5, 1)]))
    F = make_field(p, k)
    q = F.q
    picks = data.draw(st.lists(st.integers(0, q + q * q - 1), max_size=4,
                               unique=True))
    f, expected = UnivariatePoly.one(F), {}
    for i in picks:
        coeffs = [i] if i < q else [(i - q) % q, (i - q) // q]
        g = UnivariatePoly(F, [F.element_at(c) for c in coeffs] + [F.one])
        if not is_irreducible(g):
            continue
        e = data.draw(st.integers(1, p * p))
        expected[e] = expected.get(e, UnivariatePoly.one(F)) * g
        for _ in range(e):
            f = f * g
    parts = squarefree_decomposition(f)
    mults = [m for _, m in parts]
    assert len(set(mults)) == len(mults)
    assert {m: g for g, m in parts} == expected
    acc = UnivariatePoly.one(F)
    for g, m in parts:
        assert g.gcd(g.derivative()).is_constant()  # squarefree
        assert all(g.gcd(h).is_constant() for h, e in parts if e != m)
        for _ in range(m):
            acc = acc * g
    assert acc == f


def test_roots_in_field():
    F = make_field(7, 1)
    f = from_ints(F, [-1, 0, 1])     # x^2 - 1
    assert set(roots_in_field(f)) == {F.from_int(1), F.from_int(6)}


def _roots_of_parts(slot, parts, F, B):
    """The roots in F of the parts of linear_factors, per column, after
    checking each part's degree: 1 or 2, and 1 for q = 2^k."""
    roots = [[] for _ in range(B)]
    for j, col in zip(slot.tolist(), elements(parts, F).T.tolist()):
        part = UnivariatePoly(F, col)
        assert 1 <= part.degree() <= (2 if F.p > 2 else 1), col
        roots[j] += roots_in_field(part)
    return roots


# Batches of monic polynomials of one degree n with 0 to n roots in F_q,
# some repeated, at odd and even q.
@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (2, 4), (3, 1), (7, 1),
                                 (5, 2), (13, 1), (65521, 1)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_linear_factors_match_roots_in_field(p, k, data):
    F = make_field(p, k)
    elem = st.integers(0, F.q - 1)
    n = data.draw(st.integers(2, 5), label="n")
    polys = []
    for _ in range(data.draw(st.integers(1, 8), label="B")):
        r = data.draw(st.integers(0, n), label="linear factors")
        f = UnivariatePoly(F, data.draw(
            st.lists(elem, min_size=n - r, max_size=n - r)) + [1])
        for c in data.draw(st.lists(elem, min_size=r, max_size=r)):
            f = f * UnivariatePoly(F, [c, 1])
        polys.append(f)
    g = to_array(np.array([f.coeffs for f in polys], dtype=object).T, F)
    # parts of degree 1 or 2 that hold the roots, each once
    roots = _roots_of_parts(*linear_factors(g, F), F, len(polys))
    for j, f in enumerate(polys):
        assert sorted(roots[j]) == roots_in_field(f), j
        # a column's roots do not depend on the rest of its batch
        alone = linear_factors(g[:, :, j:j + 1], F)
        assert sorted(_roots_of_parts(*alone, F, 1)[0]) == sorted(roots[j])


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


@pytest.mark.parametrize("k", [2, 3])
def test_equal_degree_trace_with_frobenius_tables(k):
    # three distinct cubics over F_{2^k}: their product of degree 9 takes
    # the FrobCtx path, where the trace splits it
    F = make_field(2, k)
    rng = random.Random(k)
    cubics = set()
    while len(cubics) < 3:
        cubics.add(_random_irreducible(F, rng, 3))
    cubics = sorted(cubics, key=lambda g: g.sort_key())
    f = cubics[0] * cubics[1] * cubics[2]
    assert f.degree() >= unipoly._DDF_NUMPY_MIN
    unit, facs = factor(f)
    assert facs == [(g, 1) for g in cubics]
    prod = UnivariatePoly.one(F)
    for g, _ in facs:
        prod = prod * g
    assert prod.scale(unit) == f


def test_count_degree_guard():
    F = make_field(2, 1)
    with pytest.raises(errors.DegreeOutOfRange):
        count_monic_irreducibles(F, 7)
    with pytest.raises(errors.DegreeOutOfRange):
        count_monic_irreducibles(F, 0)


def _rabin_equalities(f):
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
    """_rabin_batch and is_irreducible against irreducibility read off
    factor.  The batch test is exact without a root, and at every n but 6;
    there a root lets factor degrees {3, 2, 1} through.  The rootless
    products at n = 10 and 12 have every factor degree dividing n, and
    those at n = 12 pass the equality tests, so only the gcds reject
    them."""
    F = make_field(p, k)
    rng = random.Random(p * 10 + k)
    x = from_ints(F, [0, 1])

    def irr(*degrees):
        out = UnivariatePoly.one(F)
        for d in degrees:
            out = out * _random_irreducible(F, rng, d)
        return out

    traps = {6: [irr(3, 2) * x], 10: [irr(5, 5), irr(2, 2, 2, 2, 2)],
             12: [irr(6, 4, 2), irr(4, 3, 3, 2)]}
    for n in range(2, 13):
        polys = [rand_poly(F, rng, n, monic=True)
                 for _ in range(40 if n < 10 else 15)] + traps.get(n, [])
        moduli = to_array(np.array([f.coeffs for f in polys]).T, F)
        got = _rabin_batch(FrobCtx(moduli, F))
        for f, passed in zip(polys, got.tolist()):
            irreducible = factor(f)[1] == [(f, 1)]
            assert is_irreducible(f) == irreducible, f.format()
            if n == 6 and roots_in_field(f):
                assert passed == _rabin_equalities(f), f.format()
            else:
                assert passed == irreducible, f.format()
        if n == 6:
            assert got[-1]


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (7, 1), (2, 2), (3, 2),
                                 (2, 3)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_irreducible_batch_matches_is_irreducible(p, k, data):
    # column by column, at every degree the scans reach and at the
    # composite degrees 10 and 12, where _rabin_batch also takes gcds
    F = make_field(p, k)
    n = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 10, 12]),
                  label="n")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    polys = [rand_poly(F, rng, n, monic=True) for _ in range(24)]
    polys.append(_random_irreducible(F, rng, n))
    got = _irreducible_batch(
        to_array(np.array([f.coeffs for f in polys]).T, F), F)
    assert got.tolist() == [is_irreducible(f) for f in polys]
    assert got[-1]


@pytest.mark.parametrize("p,k,modulus", [(2, 1, None), (3, 1, None),
                                         (2, 2, None), (5, 1, None),
                                         (7, 1, None), (3, 2, None),
                                         (2, 3, (1, 0, 1, 1))])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_irreducible_batch_matches_factor(p, k, modulus, data):
    """_irreducible_batch against irreducibility read off factor, at every
    degree 1 to 13, F_8 on y^3 + y^2 + 1 rather than its canonical
    modulus.  The rooted sextics with factor degrees 1, 2 and 3 pass
    Rabin's equality tests, so only the batch's root check at n = 6
    rejects them."""
    F = make_field(p, k, modulus)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    for n in range(1, 14):
        polys = [rand_poly(F, rng, n, monic=True) for _ in range(8)]
        polys.append(_random_irreducible(F, rng, n))
        if n == 6:
            sextics = [rand_poly(F, rng, 1, monic=True)
                       * _random_irreducible(F, rng, 2)
                       * _random_irreducible(F, rng, 3) for _ in range(3)]
            arr = to_array(np.array([f.coeffs for f in sextics]).T, F)
            assert _rabin_batch(FrobCtx(arr, F)).all()
            polys += sextics
        got = _irreducible_batch(
            to_array(np.array([f.coeffs for f in polys]).T, F), F)
        assert got.tolist() == [factor(f)[1] == [(f, 1)] for f in polys], n


# ---------------------------------------------------------------------------
# The batched polynomial kernel: one batch of moduli against one at a time


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (7, 1), (2, 3), (3, 2),
                                 (3, 5)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_batched_kernel_matches_single_and_unipoly(p, k, data):
    """mulmod, powmod, xpow(q) and frobenius on B random monic moduli agree
    column by column with the same calls at B = 1, where the product and
    the reduction take their other form, and with UnivariatePoly.  Degrees
    up to q + 3, and up to 20 over small fields, build the Frobenius table
    by shifts (q < n), in more than one block of powers over F_2, as well
    as by products with x^q."""
    F = make_field(p, k)
    B = data.draw(st.sampled_from([1, 2, 37]), label="B")
    n = data.draw(st.integers(2, max(min(F.q, 12) + 3, 20)), label="n")
    e = data.draw(st.integers(0, 60), label="e")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    moduli = [rand_poly(F, rng, n, monic=True) for _ in range(B)]
    a = [rand_poly(F, rng, rng.randrange(n)) for _ in range(B)]
    b = [rand_poly(F, rng, rng.randrange(n)) for _ in range(B)]

    def batch(polys, length):
        return to_array(np.array([f.coeffs + [0] * (length - len(f.coeffs))
                                  for f in polys]).T, F)

    def calls(ctx, a_arr, b_arr):
        return {"mulmod": ctx.mulmod(a_arr, b_arr),
                "powmod": ctx.powmod(a_arr, e),
                "xpow": ctx.xpow(F.q),
                "frobenius": ctx.frobenius(a_arr)}

    A, Bv = batch(a, n), batch(b, n)
    together = calls(FrobCtx(batch(moduli, n + 1), F), A, Bv)
    x = UnivariatePoly.x(F)
    for col, f in enumerate(moduli):
        alone = calls(FrobCtx(batch([f], n + 1), F),
                      A[:, :, col:col + 1], Bv[:, :, col:col + 1])
        expected = {"mulmod": (a[col] * b[col]) % f,
                    "powmod": a[col].pow_mod(e, f),
                    "xpow": x.pow_mod(F.q, f),
                    "frobenius": a[col].pow_mod(F.q, f)}
        for name, want in expected.items():
            got = from_array(together[name][:, :, col:col + 1], F)
            assert got == from_array(alone[name], F) == want.coeffs, name


# ---------------------------------------------------------------------------
# The batched gcd


@pytest.mark.parametrize("p,k", [(2, 1), (7, 1), (3, 2), (5, 3), (2, 4),
                                 (4294967311, 1)])
@given(data=st.data())
def test_poly_gcd_matches_unipoly(p, k, data):
    # slot by slot against UnivariatePoly.gcd: mixed degrees with a common
    # factor, zero and equal operands, and top rows that are zero in some
    # slots (a vanishing leading coefficient); p > 2^32 runs on Python ints
    F = make_field(p, k)
    elem = st.integers(0, F.q - 1)
    pairs = []
    for _ in range(data.draw(st.integers(1, 8), label="B")):
        g, a, b = (UnivariatePoly(F, data.draw(st.lists(elem, max_size=m)))
                   for m in (3, 4, 4))
        a, b = g * a, g * b
        kind = data.draw(st.sampled_from(["common", "zero", "equal"]))
        if kind == "zero":
            a = UnivariatePoly.zero(F)
        elif kind == "equal":
            b = a
        pairs.append((a, b))
    rows = (6, data.draw(st.integers(6, 8), label="rows of b"))
    arrays = []
    for side, n in enumerate(rows):
        cols = np.zeros((n, len(pairs)), dtype=object)
        for j, pair in enumerate(pairs):
            coeffs = pair[side].coeffs
            cols[: len(coeffs), j] = coeffs
        arrays.append(to_array(cols, F))
    g, deg = poly_gcd(*arrays, F)
    assert g.shape == (max(rows), k, len(pairs))
    got = elements(g, F)
    for j, (a, b) in enumerate(pairs):
        ref = a.gcd(b)
        assert deg[j] == ref.degree()
        assert UnivariatePoly(F, got[:, j].tolist()).monic() == ref


# ---------------------------------------------------------------------------
# The packed B = 1 product in float64


@pytest.mark.parametrize("p,k,n,dtype,in_float", [
    (13, 1, 64, np.int16, True),        # the last int16 prime at n = 64
    (17, 1, 64, np.int32, True),
    (4093, 1, 64, np.int32, True),      # the last int32 prime
    (4099, 1, 64, np.int64, True),      # int64, sums below 2^53
    (67108859, 1, 64, np.int64, False),  # int64, sums past 2^53
    (3, 11, 30, np.int16, True),        # 630 digits an operand
])
def test_packed_product_matches_python_ints(p, k, n, dtype, in_float,
                                            monkeypatch):
    """poly_mul and ModCtx.mulmod at B = 1 against the same product of
    Python ints, on operands whose every digit is p - 1, so every digit
    sum is as large as it can be.  The convolution runs in float64 exactly
    when every sum stays below 2^53."""
    F = make_field(p, k)
    assert _count_dtype(F, n) is dtype
    top = F.q - 1  # every digit p - 1
    a = to_array([top] * n, F).astype(dtype)
    modulus = to_array([top] * n + [1], F)
    ctx = ModCtx(modulus, F)
    seen = []
    convolve = np.convolve
    monkeypatch.setattr(np, "convolve",
                        lambda u, v: seen.append(u.dtype) or convolve(u, v))
    got, got_mod = poly_mul(a, a, F), ctx.mulmod(a, a)
    assert seen == [np.float64 if in_float else dtype] * 2
    want = poly_mul(a.astype(object), a.astype(object), F)
    assert seen[-1] == object
    assert (got == want).all()
    assert (got_mod == ctx.reduce(want.astype(ctx.dtype))).all()
    f, g = (UnivariatePoly(F, from_array(arr, F)) for arr in (modulus, a))
    assert from_array(got_mod, F) == ((g * g) % f).coeffs
