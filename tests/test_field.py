"""Field construction, arithmetic axioms, Frobenius, and embeddings."""

import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fqpencil import errors
from fqpencil.field import (GridArith, embed, field_of_order, is_prime,
                            make_field, prime_factors, prime_power)

AXIOM_FIELDS = [(2, 1), (7, 1), (3, 2), (7, 2), (2, 3), (3, 13)]


def test_canonical_moduli():
    assert make_field(3, 2).modulus == (1, 0, 1)      # y^2 + 1
    assert make_field(2, 2).modulus == (1, 1, 1)      # y^2 + y + 1
    assert make_field(5, 1).modulus == (0, 1)


@pytest.mark.parametrize("p,k", AXIOM_FIELDS)
def test_field_axioms_random_triples(p, k):
    F = make_field(p, k)
    rng = random.Random(1000 * p + k)
    for _ in range(1000):
        a, b, c = (F.element_at(rng.randrange(F.q)) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == F.zero
        assert F.sub(a, b) == F.add(a, F.neg(b))
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
            assert F.pow(a, F.q - 1) == F.one


def test_frobenius_fixes_exactly_prime_field():
    qs = []
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79]:
        k = 1
        while p ** k <= 81:
            qs.append((p, k))
            k += 1
    for p, k in qs:
        F = make_field(p, k)
        for i in range(F.q):
            e = F.element_at(i)
            fixed = F.pow(e, p) == e
            in_prime = all(c == 0 for c in F.to_vector(e)[1:])
            assert fixed == in_prime, (p, k, e)


def test_pow_edge_cases():
    F = make_field(3, 2)
    assert F.pow(F.zero, 0) == F.one
    assert F.pow(F.zero, 5) == F.zero      # regression: 0^e must be 0
    a = F.element_at(5)
    assert F.pow(a, 0) == F.one
    assert F.mul(F.pow(a, -1), a) == F.one
    assert F.pow(a, F.q) == a


def test_element_index_round_trip():
    for p, k in [(5, 1), (3, 2), (2, 3)]:
        F = make_field(p, k)
        for i in range(F.q):
            assert F.from_vector(F.to_vector(F.element_at(i))) == i
        assert len(list(F.elements())) == F.q


def test_vector_round_trip_past_int64():
    # q = 31^13 passes 2^62, so elements are Python ints in object arrays
    F = make_field(31, 13)
    assert F.q > 1 << 62
    rng = random.Random(13)
    e = np.array([rng.randrange(F.q) for _ in range(12)] + [0, F.q - 1],
                 dtype=object).reshape(2, 7)
    v = F.to_vector(e)
    assert v.shape == (2, 7, 13)
    assert v[0, 0].tolist() == F.to_vector(int(e[0, 0]))
    assert (F.from_vector(v) == e).all()


def test_is_square():
    F = make_field(3, 2)
    squares = {F.mul(e, e) for e in F.elements()}
    for e in F.elements():
        assert F.is_square(e) == (e in squares)


def test_inverse_of_zero_raises():
    for p, k in [(5, 1), (3, 2)]:
        F = make_field(p, k)
        with pytest.raises(ZeroDivisionError):
            F.inv(F.zero)


def test_construction_errors():
    with pytest.raises(errors.NotPrime):
        make_field(4, 1)
    with pytest.raises(errors.NotPrime):
        field_of_order(6)
    with pytest.raises(errors.DegreeOutOfRange):
        make_field(3, 0)
    with pytest.raises(errors.DegreeOutOfRange):
        make_field(3, 2, modulus=(1, 0, 2))
    with pytest.raises(errors.DegreeOutOfRange):
        make_field(3, 2, modulus=(2, 0, 1))   # y^2 + 2 = (y-1)(y+1)
    # reducible with no root: (y^2 + y + 1)^2 and (y^2 + 1)(y^3 + 2y + 2)
    with pytest.raises(errors.DegreeOutOfRange):
        make_field(2, 4, modulus=(1, 0, 1, 0, 1))
    with pytest.raises(errors.DegreeOutOfRange):
        make_field(3, 5, modulus=(2, 2, 2, 0, 0, 1))


def _sympy_poly(p, coeffs):
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("y"), modulus=p)


@pytest.mark.parametrize("p,k", [(p, k) for p in sympy.primerange(2, 47)
                                 for k in range(2, 12) if p ** k <= 2187])
def test_canonical_modulus_matches_sympy_oracle(p, k):
    F = make_field(p, k)
    assert _sympy_poly(p, F.modulus).is_irreducible
    # every smaller monic candidate, compared from the top coefficient down
    for idx in range(F.from_vector(F.modulus[:k])):
        coeffs = F.to_vector(F.element_at(idx)) + [1]
        assert not _sympy_poly(p, coeffs).is_irreducible, coeffs


def test_modulus_override():
    F = make_field(3, 2, modulus=(2, 2, 1))
    assert F.modulus == (2, 2, 1)
    # y^2 = -2y - 2 = y + 1
    y = F.from_vector([0, 1])
    assert F.to_vector(F.mul(y, y)) == [1, 1]


def test_field_of_order():
    assert field_of_order(49).q == 49
    assert field_of_order(13).p == 13


def test_embed_homomorphism_exhaustive_3_9():
    F3, F9 = make_field(3, 1), make_field(3, 2)
    img = {e: embed(F3, F9, e) for e in F3.elements()}
    for a in F3.elements():
        for b in F3.elements():
            assert img[F3.add(a, b)] == F9.add(img[a], img[b])
            assert img[F3.mul(a, b)] == F9.mul(img[a], img[b])


def test_embed_homomorphism_sampled_9_81():
    F9, F81 = make_field(3, 2), make_field(3, 4)
    rng = random.Random(9)
    img = {e: embed(F9, F81, e) for e in F9.elements()}
    for _ in range(500):
        a = F9.element_at(rng.randrange(81))
        b = F9.element_at(rng.randrange(81))
        assert img[F9.add(a, b)] == F81.add(img[a], img[b])
        assert img[F9.mul(a, b)] == F81.mul(img[a], img[b])


def test_embed_incompatible_tower():
    with pytest.raises(errors.IncompatibleTower):
        embed(make_field(3, 2), make_field(3, 3), 1)


def test_int_order_compares_from_top_down():
    F = make_field(3, 2)
    assert F.from_vector([2, 0]) < F.from_vector([0, 1])
    assert F.from_vector([0, 1]) < F.from_vector([1, 1])


# ---------------------------------------------------------------------------
# Arithmetic against sympy polynomials modulo the field's modulus

# a prime field, small table fields, F_{7^6} near the table limit and
# F_{3^13} past it (digit-vector arithmetic)
ORACLE_FIELDS = [(7, 1), (3, 2), (7, 2), (5, 3), (7, 6), (3, 13)]


def _oracle_powmod(a, e, m):
    out = sympy.Poly(1, a.gen, modulus=a.get_modulus())
    while e:
        if e & 1:
            out = out.mul(a).rem(m)
        a, e = a.mul(a).rem(m), e >> 1
    return out


@pytest.mark.parametrize("p,k", ORACLE_FIELDS)
@given(data=st.data())
def test_arithmetic_matches_sympy_oracle(p, k, data):
    F = make_field(p, k)
    m = _sympy_poly(p, F.modulus)

    def poly(e):
        return _sympy_poly(p, F.to_vector(e))

    def elem(poly):
        coeffs = [int(c) % p for c in reversed(poly.rem(m).all_coeffs())]
        return F.from_vector(coeffs + [0] * (k - len(coeffs)))

    a, b = (data.draw(st.integers(0, F.q - 1)) for _ in range(2))
    e = data.draw(st.integers(0, 2 * F.q))
    assert F.add(a, b) == elem(poly(a) + poly(b))
    assert F.sub(a, b) == elem(poly(a) - poly(b))
    assert F.neg(a) == elem(-poly(a))
    assert F.mul(a, b) == elem(poly(a) * poly(b))
    assert F.pow(a, e) == elem(_oracle_powmod(poly(a), e, m))
    if a:
        assert F.inv(a) == elem(poly(a).invert(m))
        assert F.pow(a, -e) == elem(_oracle_powmod(poly(a).invert(m), e, m))
    euler = _oracle_powmod(poly(a), (F.q - 1) // 2, m)
    assert F.is_square(a) == (not a or p == 2 or elem(euler) == 1)


# ---------------------------------------------------------------------------
# GridArith.dot against scalar arithmetic, up to the float64 edge

# 262139 is the largest prime below 2^18; the other fields are near that
# size with 18, 11 and 2 digits
DOT_FIELDS = [(7, 1), (3, 2), (262139, 1), (2, 18), (3, 11), (509, 2)]


@pytest.mark.parametrize("p,k", DOT_FIELDS)
@settings(max_examples=15)
@given(data=st.data())
def test_grid_dot_matches_scalar_arithmetic(p, k, data):
    F = make_field(p, k)
    ar = GridArith(F)
    n, R, Q = (data.draw(st.integers(1, hi)) for hi in (7, 3, 3))
    # q - 1 has the largest digit, p - 1, in every place
    elem = st.one_of(st.sampled_from([0, 1, p - 1, F.q - 1]),
                     st.integers(0, F.q - 1))
    C = np.array(data.draw(st.lists(elem, min_size=n * R, max_size=n * R)),
                 dtype=np.int64).reshape(n, R)
    X = np.array(data.draw(st.lists(elem, min_size=n * Q, max_size=n * Q)),
                 dtype=np.int64).reshape(n, Q)
    expected = [[0] * Q for _ in range(R)]
    for r in range(R):
        for c in range(Q):
            for j in range(n):
                expected[r][c] = F.add(expected[r][c],
                                       F.mul(int(C[j, r]), int(X[j, c])))
    cols = ar.columns(X)
    assert ar.dot(C, cols).tolist() == expected
    assert ar.dot(C, cols, zero=True).tolist() == \
        [[e == 0 for e in row] for row in expected]


@pytest.mark.parametrize("p,k", [(262139, 1), (509, 2)])
def test_grid_dot_refuses_sums_past_float64(p, k):
    F = make_field(p, k)
    ar = GridArith(F)
    n = -(-(1 << 53) // (k * (p - 1) ** 2))  # least n with n k (p-1)^2 >= 2^53
    with pytest.raises(errors.ConstraintViolation):
        ar.dot(np.zeros((n, 0), dtype=np.int64), np.zeros((n, k, 0)))
    if k == 1:
        # one row fewer is exact even where every term is (p - 1)^2
        C = np.full((n - 1, 1), p - 1, dtype=np.int64)
        assert ar.dot(C, ar.columns(C)).tolist() == \
            [[(n - 1) * (p - 1) ** 2 % p]]


# ---------------------------------------------------------------------------
# Integer helpers against sympy as the oracle

# psi_12 (rejected by base 41 alone) and psi_13 (the first strong
# pseudoprime to all 13 bases, decided by the fallback) of Sorenson and
# Webster, two smaller strong pseudoprimes, and three Mersenne primes
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


@pytest.mark.parametrize("n,prime", [
    (3215031751, False), (3825123056546413051, False), (PSI_12, False),
    (PSI_13, False), (2 ** 61 - 1, True), (2 ** 89 - 1, True),
    (2 ** 127 - 1, True),
])
def test_is_prime_pinned(n, prime):
    assert is_prime(n) is prime
    assert sympy.isprime(n) is prime


@settings(max_examples=2000, deadline=None)
@given(n=st.integers(-10, 10 ** 7))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_prime_factors_match_sympy():
    for n in range(1, 2 * 10 ** 4 + 1):
        assert prime_factors(n) == sympy.primefactors(n), n


def _factorint_prime_power(q):
    fac = sympy.factorint(q)
    return next(iter(fac.items())) if q >= 2 and len(fac) == 1 else None


@settings(max_examples=2000, deadline=None)
@given(q=st.one_of(st.integers(-3, 10 ** 9),
                   st.builds(pow, st.sampled_from([2, 3, 5, 7, 31, 961]),
                             st.integers(1, 18))))
def test_prime_power_matches_factorint(q):
    expected = _factorint_prime_power(q)
    if expected is None:
        with pytest.raises(errors.NotPrime):
            prime_power(q)
    else:
        assert prime_power(q) == expected


@pytest.mark.parametrize("p", [2, 3, 1999, 65521, 2 ** 31 - 1])
def test_prime_power_of_prime_powers(p):
    for k in range(1, 12):
        assert prime_power(p ** k) == (p, k)
