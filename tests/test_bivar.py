"""Bivariate polynomials, smoothness certification, irreducibility certs."""

import itertools
import random

import pytest

from fqpencil import errors
from fqpencil.bivar import (BivariatePoly, HomogeneousForm,
                            brute_force_singular_search, curve_invariants,
                            homogenize_and_degree, is_smooth)
from fqpencil.field import make_field
from fqpencil.lifting import bivariate_irreducible
from fqpencil.parsing import parse_poly


def rand_bivar(F, rng, max_deg, n_terms=6):
    terms = {}
    for _ in range(n_terms):
        i = rng.randrange(0, max_deg + 1)
        j = rng.randrange(0, max_deg + 1 - i)
        c = F.element_at(rng.randrange(1, F.q))
        terms[(i, j)] = c
    return BivariatePoly(F, terms)


# ---------------------------------------------------------------------------
# Homogenization


def test_homogenize_round_trip_random():
    F = make_field(7, 1)
    rng = random.Random(100)
    done = 0
    while done < 100:
        f = rand_bivar(F, rng, 5)
        if f.is_zero() or f.total_degree() < 1:
            continue
        d, form = homogenize_and_degree(f)
        assert d == f.total_degree()
        assert form.dehomogenize() == f
        done += 1


def test_homogenize_rejects_constants():
    F = make_field(7, 1)
    with pytest.raises(errors.ZeroOrConstant):
        homogenize_and_degree(BivariatePoly(F, {(0, 0): F.one}))


def test_restrict_to_line_degree_bound():
    F = make_field(7, 1)
    rng = random.Random(4)
    for _ in range(50):
        f = rand_bivar(F, rng, 4)
        if f.is_zero() or f.total_degree() < 1:
            continue
        a = F.element_at(rng.randrange(F.q))
        b = F.element_at(rng.randrange(F.q))
        g = f.restrict_to_line(a, b)
        assert g.degree() <= f.total_degree()


# ---------------------------------------------------------------------------
# Smoothness battery


def test_smoothness_battery():
    F7, F5 = make_field(7, 1), make_field(5, 1)
    smooth, w = is_smooth(parse_poly("x^2+x-t", F7))
    assert smooth and w is None
    smooth, w = is_smooth(parse_poly("t^3+x^3+1", F7))
    assert smooth and w is None
    smooth, w = is_smooth(parse_poly("x^2-t^3-t^2", F5))
    assert not smooth and w.point == (0, 0, 1)
    smooth, w = is_smooth(parse_poly("x^2-t^3", F5))
    assert not smooth and w.point == (0, 0, 1)


def test_singular_witness_vanishes_on_curve_and_partials():
    F5 = make_field(5, 1)
    f = parse_poly("x^2-t^3-t^2", F5)
    smooth, w = is_smooth(f)
    d, form = homogenize_and_degree(f)
    E = w.field
    T, X, Z = w.point
    assert form.evaluate(T, X, Z) == E.zero
    assert form.partial("T").evaluate(T, X, Z) == E.zero
    assert form.partial("X").evaluate(T, X, Z) == E.zero


def test_smoothness_guards():
    F3 = make_field(3, 1)
    with pytest.raises(errors.CharacteristicDividesDegree):
        is_smooth(parse_poly("t^3+x^3+1", F3))
    F7 = make_field(7, 1)
    with pytest.raises(errors.DegreeTooSmall):
        is_smooth(parse_poly("x+t", F7))


def _apply_projective_change(form, mat, F):
    """Substitute each variable by the linear form given by a matrix row."""
    d = form.d
    lin = [{(1, 0, 0): mat[r][0], (0, 1, 0): mat[r][1], (0, 0, 1): mat[r][2]}
           for r in range(3)]

    def mul(u, v):
        out = {}
        for ku, cu in u.items():
            for kv, cv in v.items():
                key = tuple(a + b for a, b in zip(ku, kv))
                out[key] = F.add(out.get(key, F.zero), F.mul(cu, cv))
        return {k: c for k, c in out.items() if c != F.zero}

    def power(u, e):
        acc = {(0, 0, 0): F.one}
        for _ in range(e):
            acc = mul(acc, u)
        return acc

    total = {}
    for (a, b), c in form.terms.items():
        term = {(0, 0, 0): c}
        for var, e in zip(lin, (a, b, d - a - b)):
            if e:
                term = mul(term, power(var, e))
        for k, cv in term.items():
            total[k] = F.add(total.get(k, F.zero), cv)
    return {k: c for k, c in total.items() if c != F.zero}


def _det3(m, F):
    s = F.zero
    for perm, sign in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]:
        prod = F.one
        for r, c in enumerate(perm):
            prod = F.mul(prod, m[r][c])
        s = F.add(s, prod if sign == 1 else F.neg(prod))
    return s


@pytest.mark.parametrize("curve,q", [("x^2+x-t", 7), ("t^3+x^3+1", 7),
                                     ("x^2-t^3-t^2", 5), ("x^2-t^3", 5)])
def test_smoothness_invariant_under_coordinate_changes(curve, q):
    F = make_field(q, 1)
    f = parse_poly(curve, F)
    expected, _ = is_smooth(f)
    d, form = homogenize_and_degree(f)
    rng = random.Random(hash(curve) & 0xFFFF)
    done = 0
    while done < 10:
        mat = [[F.element_at(rng.randrange(q)) for _ in range(3)]
               for _ in range(3)]
        if _det3(mat, F) == F.zero:
            continue
        new_terms = _apply_projective_change(form, mat, F)
        # dehomogenize at Z = 1; (a, b) determines cz, so no key collisions
        g = BivariatePoly(F, {(a, b): c
                              for (a, b, cz), c in new_terms.items()})
        # the transformed affine part must still have full total degree
        if g.is_zero() or g.total_degree() != d:
            continue
        got, _ = is_smooth(g)
        assert got == expected
        done += 1


def test_brute_force_agreement_random_curves():
    F5 = make_field(5, 1)
    rng = random.Random(55)
    done = 0
    while done < 8:
        f = rand_bivar(F5, rng, 3)
        if f.is_zero() or f.total_degree() < 2 or f.total_degree() % 5 == 0:
            continue
        smooth, w = is_smooth(f)
        oracle = brute_force_singular_search(f, 6)
        assert smooth == (oracle is None), f.format()
        done += 1


# ---------------------------------------------------------------------------
# Curve invariants


def test_curve_invariants_conic_and_cubic():
    F7 = make_field(7, 1)
    r = curve_invariants(parse_poly("x^2+x-t", F7))
    assert (r.d, r.smooth, r.genus, r.dual_degree) == (2, True, 0, 2)
    r = curve_invariants(parse_poly("t^3+x^3+1", F7))
    assert (r.d, r.smooth, r.genus, r.dual_degree) == (3, True, 1, 6)
    assert r.irreducible.status == "irreducible"
    with pytest.raises(errors.DegreeTooSmall):
        curve_invariants(parse_poly("x+t", F7))


# ---------------------------------------------------------------------------
# Bivariate irreducibility certificates


def test_certificates_battery():
    F7 = make_field(7, 1)
    cert = bivariate_irreducible(parse_poly("x^2+x-t", F7))
    assert cert.status == "irreducible"
    assert cert.witness["value"] == F7.to_vector(1)   # witness t = 1
    assert cert.witness["specialized"] == "x^2+x+6"

    cert = bivariate_irreducible(parse_poly("t^3+x^3+1", F7))
    assert cert.status == "irreducible"

    f = parse_poly("x^2-t^2", F7)
    cert = bivariate_irreducible(f)
    assert cert.status == "reducible"
    from fqpencil.lifting import bivar_exact_div

    cofactor = bivar_exact_div(f, cert.factor)
    assert cofactor is not None and cofactor * cert.factor == f


def test_reducible_product_never_certified_irreducible():
    fields = [make_field(2, 1), make_field(3, 1), make_field(5, 1)]
    rng = random.Random(77)
    done = 0
    while done < 120:
        F = fields[done % 3]
        g = rand_bivar(F, rng, 2, n_terms=3)
        h = rand_bivar(F, rng, 2, n_terms=3)
        if g.total_degree() < 1 or h.total_degree() < 1:
            continue
        cert = bivariate_irreducible(g * h)
        assert cert.status != "irreducible", (g.format(), h.format())
        done += 1
