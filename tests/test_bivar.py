"""Bivariate polynomials, smoothness certification, irreducibility certs."""

import itertools
import random
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fqpencil import bivar, errors, lifting
from fqpencil.bivar import (BivariatePoly, HomogeneousForm, SingularWitness,
                            _moved_form, _points_to_try, _unshear,
                            curve_invariants, homogenize_and_degree, is_smooth)
from fqpencil.field import embed, field_of_order, make_field
from fqpencil.lifting import bivar_exact_div, bivariate_irreducible
from fqpencil.parsing import parse_poly
from fqpencil.unipoly import UnivariatePoly, is_irreducible
from oracles import brute_force_singular_search


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


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_points_to_try_cover_the_plane(p, k):
    F = make_field(p, k)
    points = list(_points_to_try(F))
    plane = set(points[5:])
    assert len(plane) == len(points) - 5 == F.q ** 2 + F.q + 1
    assert set(points[:5]) <= plane


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1)])
def test_moved_form_is_form_after_the_coordinate_change(p, k):
    # G = _moved_form(form, P) satisfies G(w) = form(M w), with M w the
    # point _unshear returns, and M (0:1:0) = P; checked over F_{q^2}
    F = make_field(p, k)
    E = make_field(p, 2 * k)
    rng = random.Random(100 * p + k)
    for P in _points_to_try(F):
        _, form = homogenize_and_degree(rand_bivar(F, rng, 4) +
                                        BivariatePoly(F, {(5, 0): 1}))
        G = _moved_form(form, P)
        assert G.coeff(0, 5) == form.evaluate(*P)
        form_E, G_E = (HomogeneousForm(E, h.d, {ab: embed(F, E, c) for ab, c
                                                in h.terms.items()})
                       for h in (form, G))
        for _ in range(3):
            w = SingularWitness(E, tuple(rng.randrange(E.q) for _ in "TXZ"))
            assert G_E.evaluate(*w.point) == \
                form_E.evaluate(*_unshear(w, F, P).point)


def test_zero_discriminant_falls_back_to_point_search(monkeypatch):
    # (x^5 + t^4)(x + t + 1) over F_5: the x-discriminant vanishes
    # identically, so is_smooth searches the points directly
    F5 = make_field(5, 1)
    f = parse_poly("x^5+t^4", F5) * parse_poly("x+t+1", F5)
    searches = []
    search = bivar._brute_force_singular
    monkeypatch.setattr(bivar, "_brute_force_singular",
                        lambda form, m: searches.append(m) or search(form, m))
    smooth, w = is_smooth(f)
    assert searches == [6]
    assert not smooth and w.field == F5 and w.point == (0, 0, 1)
    assert brute_force_singular_search(f, 1).point == w.point


def test_brute_force_witness_on_the_line_at_infinity():
    # T X^2 = Z^3 is singular at (1:0:0) only, off the affine chart and
    # off (0:1:0)
    F7 = make_field(7, 1)
    f = parse_poly("t*x^2-1", F7)
    w = brute_force_singular_search(f, 1)
    assert w.field == F7 and w.point == (1, 0, 0)
    smooth, witness = is_smooth(f)
    assert not smooth and witness.point == w.point


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
# The certificate gcd(disc_X f, Res_X(f_X, f_T)) against brute force


_CERTIFICATE_FIELDS = [(5, 1), (7, 1), (3, 2), (5, 2)]


def _assert_singular_at(f, w):
    """w is a zero of f's closure and of its three partials."""
    _, form = homogenize_and_degree(f)
    E = w.field
    form = HomogeneousForm(E, form.d, {ab: embed(f.field, E, c)
                                       for ab, c in form.terms.items()})
    for h in (form, form.partial("T"), form.partial("X"), form.partial("Z")):
        assert h.evaluate(*w.point) == E.zero, (f.format(), w.as_dict())


def _is_smooth_trying_every_factor(f):
    """is_smooth with G = disc_X: every factor of disc_X is tried, in the
    same order, as when no resultant certified a factor away."""
    resultant = bivar.resultant_poly_coeffs

    def zero_r(A, m, B, n, F):  # Res_X(f_X, f_T) is the call with m == n
        return (UnivariatePoly.zero(F) if m == n
                else resultant(A, m, B, n, F))

    with mock.patch.object(bivar, "resultant_poly_coeffs", zero_r):
        return is_smooth(f)


def _check_certificate(f, m_max):
    """is_smooth against brute force: a smooth verdict over F_{q^m} for
    m <= m_max, a singular one over the witness's field when it has at
    most 5^5 elements (brute force walks every T in it).  A witness must
    be singular and equal to the one found by trying every factor."""
    smooth, w = is_smooth(f)
    assert (smooth, w) == _is_smooth_trying_every_factor(f)
    if smooth:
        assert brute_force_singular_search(f, m_max) is None, f.format()
    else:
        _assert_singular_at(f, w)
        m = w.field.k // f.field.k
        if f.field.q ** m <= 5 ** 5:
            assert brute_force_singular_search(f, m) is not None


@st.composite
def _fermat_type(draw):
    """a x^d + h(t), deg h <= d: disc_X is a constant times h^(d - 1),
    never squarefree, and every fiber over a root of h is a vertical flex.
    The curve is singular only at the multiple roots of h, over F_q or
    F_{q^2}, and at (1:0:0) when deg h < d - 1.  Half the h drawn are
    g^2 l, with a double root wherever g has a root."""
    p, k = draw(st.sampled_from(_CERTIFICATE_FIELDS))
    F = make_field(p, k)
    d = draw(st.sampled_from([d for d in (3, 4) if d % p]))
    elem = st.integers(0, F.q - 1)
    square = draw(st.integers(0, d // 2)) if draw(st.booleans()) else 0
    g = UnivariatePoly(F, draw(st.lists(elem, min_size=square + 1,
                                        max_size=square + 1)))
    l = UnivariatePoly(F, draw(st.lists(elem, min_size=d - 2 * square + 1,
                                        max_size=d - 2 * square + 1)))
    h = g * g * l
    assume(h.degree() >= 1)
    terms = {(i, 0): c for i, c in enumerate(h.coeffs)}
    terms[(0, d)] = draw(st.integers(1, F.q - 1))
    return BivariatePoly(F, terms)


@st.composite
def _node_or_cusp(draw):
    """A curve of degree d with no term of degree < 2 in t - tau and
    x - xi, so singular at (tau, xi); a cusp when its quadratic part is a
    square.  tau is a multiple root of disc_X."""
    p, k = draw(st.sampled_from(_CERTIFICATE_FIELDS))
    F = make_field(p, k)
    d = draw(st.sampled_from([d for d in (3, 4) if d % p]))
    elem = st.integers(0, F.q - 1)
    tau, xi = draw(elem), draw(elem)
    u = BivariatePoly(F, {(1, 0): F.one, (0, 0): F.neg(tau)})
    v = BivariatePoly(F, {(0, 1): F.one, (0, 0): F.neg(xi)})
    c = {(i, j): draw(elem) for i in range(d + 1) for j in range(d + 1 - i)
         if i + j >= 2}
    c[(0, d)] = draw(st.integers(1, F.q - 1))
    if draw(st.booleans()):  # a cusp: the quadratic part e (a u + b v)^2
        a, b, e = draw(elem), draw(elem), draw(elem)
        c[(2, 0)], c[(1, 1)], c[(0, 2)] = (
            F.mul(e, F.mul(a, a)), F.mul(e, F.mul(F.from_int(2), F.mul(a, b))),
            F.mul(e, F.mul(b, b)))
    f = BivariatePoly(F, {})
    for (i, j), cij in c.items():
        term = BivariatePoly(F, {(0, 0): cij})
        for _ in range(i):
            term = term * u
        for _ in range(j):
            term = term * v
        f = f + term
    return f


@st.composite
def _in_t_to_the_p(draw):
    """f in F_q[t^p, x] of degree d, p not dividing d: f_T = 0, so
    Res_X(f_X, f_T) = 0 and the certificate is disc_X itself.  Over F_7
    such a curve has degree 8 or more, so the fields are F_5, F_9, F_25."""
    p, k = draw(st.sampled_from([(5, 1), (3, 2), (5, 2)]))
    F = make_field(p, k)
    d = p + 1
    elem = st.integers(0, F.q - 1)
    terms = {(0, j): draw(elem) for j in range(d)}
    terms[(0, d)] = draw(st.integers(1, F.q - 1))
    terms[(p, 0)], terms[(p, 1)] = draw(st.tuples(elem, elem).filter(any))
    return BivariatePoly(F, terms)


@settings(max_examples=60, deadline=None)
@given(_fermat_type())
def test_certificate_on_fermat_type_curves(f):
    _check_certificate(f, 2)


@settings(max_examples=40, deadline=None)
@given(_node_or_cusp())
def test_certificate_on_nodes_and_cusps(f):
    assert not is_smooth(f)[0]
    _check_certificate(f, 1)


@settings(max_examples=25, deadline=None)
@given(_in_t_to_the_p())
def test_certificate_on_curves_in_t_to_the_p(f):
    _, form = homogenize_and_degree(f)
    assert form.partial("T").terms == {}
    _check_certificate(f, 2)


def test_witness_over_the_cubic_extension_only():
    # the norm from F_{5^3} of t + a x + a^2, a a root of y^3 + y + 1: three
    # conjugate lines, which meet pairwise in three conjugate points
    F5 = make_field(5, 1)
    f = parse_poly("4*x^3+t*x^2+t^3+3*t*x+3*t^2+4*x+t+1", F5)
    assert brute_force_singular_search(f, 2) is None
    smooth, w = is_smooth(f)
    assert not smooth and w.field.k == 3
    _assert_singular_at(f, w)


# ---------------------------------------------------------------------------
# Resultants over F_q[t] against the Sylvester determinant by Bareiss


def bareiss_determinant(matrix, field):
    """Fraction-free determinant of a square matrix of UnivariatePoly."""
    n = len(matrix)
    M = [row[:] for row in matrix]
    zero = UnivariatePoly.zero(field)
    sign = 1
    prev = UnivariatePoly.one(field)
    for k in range(n - 1):
        if M[k][k].is_zero():
            for r in range(k + 1, n):
                if not M[r][k].is_zero():
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[k][k] * M[i][j] - M[i][k] * M[k][j]
                M[i][j] = num.exact_div(prev)
            M[i][k] = zero
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return -det if sign < 0 else det


def sylvester_resultant(A, m, B, n, field):
    """Res_{m,n}(A, B) as the determinant of the Sylvester matrix."""
    zero = UnivariatePoly.zero(field)
    size = m + n
    if size == 0:
        return UnivariatePoly.one(field)
    Arow = [(A[m - c] if m - c < len(A) else zero) for c in range(m + 1)]
    Brow = [(B[n - c] if n - c < len(B) else zero) for c in range(n + 1)]
    M = [[zero] * r + Arow + [zero] * (size - m - 1 - r) for r in range(n)]
    M += [[zero] * r + Brow + [zero] * (size - n - 1 - r) for r in range(m)]
    return bareiss_determinant(M, field)


def sylvester_discriminant(A, d, field):
    """(-1)^{d(d-1)/2} Res_{d,d-1}(A, A') / A_d by the Sylvester matrix."""
    A = list(A) + [UnivariatePoly.zero(field)] * (d + 1 - len(A))
    dA = [UnivariatePoly(field, [field.scalar(i, c) for c in A[i].coeffs])
          for i in range(1, d + 1)]
    disc = sylvester_resultant(A, d, dA, d - 1, field).exact_div(A[d])
    return -disc if d * (d - 1) // 2 % 2 else disc


def _sympy_mod_p(expr_of, F):
    """The polynomial in t that sympy computes over Z from the integer
    lifts of the coefficients, reduced mod p."""
    t, x = sympy.symbols("t x")

    def lift(C):
        return sum(sympy.Poly(c.coeffs[::-1], t).as_expr() * x ** j
                   for j, c in enumerate(C))
    res = sympy.Poly(expr_of(lift, x), t)
    return UnivariatePoly(F, [int(c) % F.p for c in res.all_coeffs()[::-1]])


# F_2, F_3, F_7, F_8 and F_9 need an extension field for most bounds
RESULTANT_FIELDS = [(2, 1), (3, 1), (7, 1), (3, 2), (2, 3), (101, 1)]


@st.composite
def _t_polys(draw, F, caps, top="any"):
    """UnivariatePoly in t over F of degrees at most caps; the last one is
    drawn as given (any), identically zero, or with a root in F."""
    coeff = st.integers(0, F.q - 1)
    polys = [UnivariatePoly(F, draw(st.lists(coeff, max_size=c + 1)))
             for c in caps]
    if top == "zero":
        polys[-1] = UnivariatePoly.zero(F)
    elif top == "root":
        lin = UnivariatePoly(F, [F.neg(draw(coeff)), 1])
        polys[-1] = lin * (UnivariatePoly.one(F) if polys[-1].is_zero()
                           else polys[-1])
    return polys


@settings(max_examples=150)
@given(st.data())
def test_resultant_matches_sylvester_determinant(data):
    # m or n = 0, B's top coefficient zero or vanishing at a point, A's
    # vanishing at a point, and fields too small for the bound are drawn
    F = make_field(*data.draw(st.sampled_from(RESULTANT_FIELDS)))
    m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    A = data.draw(_t_polys(F, [3] * (m + 1),
                           data.draw(st.sampled_from(["any", "root"]))))
    assume(not A[m].is_zero())
    B = data.draw(_t_polys(F, [3] * (n + 1),
                           data.draw(st.sampled_from(["any", "zero",
                                                      "root"]))))
    res = bivar.resultant_poly_coeffs(A, m, B, n, F)
    assert res == sylvester_resultant(A, m, B, n, F)
    if F.k == 1 and not B[n].is_zero():
        def sympy_res(lift, x):
            # sympy 1.14 returns Res(g, f) for deg f < deg g, so the larger
            # degree goes first: Res(A, B) = (-1)^{mn} Res(B, A)
            if m >= n:
                return sympy.resultant(lift(A), lift(B), x)
            return (-1) ** (m * n) * sympy.resultant(lift(B), lift(A), x)
        assert res == _sympy_mod_p(sympy_res, F)


@settings(max_examples=100)
@given(st.data())
def test_discriminant_matches_sylvester_determinant(data):
    # degrees of any shape, and the isobaric shapes deg A_i <= i (pencil
    # discriminants) and deg A_i <= d - i (disc_X of a moved form), whose
    # bound d(d - 1) is below the one from the largest degree
    F = make_field(*data.draw(st.sampled_from(RESULTANT_FIELDS)))
    d = data.draw(st.sampled_from([d for d in range(1, 6) if d % F.p]))
    shape = data.draw(st.sampled_from(["any", "up", "down"]))
    caps = [{"any": 3, "up": i, "down": d - i}[shape] for i in range(d + 1)]
    A = data.draw(_t_polys(F, caps, data.draw(st.sampled_from(["any",
                                                               "root"]))))
    assume(not A[d].is_zero())
    disc = bivar.discriminant_poly_coeffs(A, d, F)
    assert disc == sylvester_discriminant(A, d, F)
    if F.k == 1:
        assert disc == _sympy_mod_p(
            lambda lift, x: sympy.discriminant(lift(A), x), F)


def test_resultant_over_an_extension_field():
    # the bound 2 * 2 + 2 * 2 = 8 needs 9 points where A_2 = t is nonzero:
    # F_2 has 1, F_4 3, F_8 7 and F_16 15
    F = make_field(2, 1)
    A = [UnivariatePoly(F, c) for c in ([1, 1], [0, 0, 1], [0, 1])]
    B = [UnivariatePoly(F, c) for c in ([1, 0, 1], [1], [1, 1])]
    with mock.patch.object(bivar, "make_field",
                           wraps=bivar.make_field) as built:
        res = bivar.resultant_poly_coeffs(A, 2, B, 2, F)
    assert [c.args for c in built.call_args_list] == [(2, 2), (2, 3), (2, 4)]
    assert res == sylvester_resultant(A, 2, B, 2, F)
    assert res.field is F


def test_refusals_of_the_interpolated_resultants():
    # p dividing d would drop the formal degree of A'; a zero top
    # coefficient leaves no point to evaluate at
    F = make_field(3, 1)
    one, zero = UnivariatePoly.one(F), UnivariatePoly.zero(F)
    with pytest.raises(errors.CharacteristicDividesDegree):
        bivar.discriminant_poly_coeffs([one] * 4, 3, F)
    with pytest.raises(ZeroDivisionError):
        bivar.discriminant_poly_coeffs([one, one, zero], 2, F)
    with pytest.raises(ZeroDivisionError):
        bivar.resultant_poly_coeffs([one, zero], 1, [one, one], 1, F)


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


def test_reducible_over_large_prime_field():
    # Hensel lifting runs before the extension scans, which would walk
    # F_{1999^2} and F_{1999^3} first
    F = make_field(1999, 1)
    cert = bivariate_irreducible(parse_poly("x^2-t^2", F))
    assert cert.as_dict() == {"status": "reducible", "factor": "t+x"}


@st.composite
def _divisor_pair(draw):
    p, k = draw(st.sampled_from([(3, 1), (5, 1), (3, 2)]))
    F = make_field(p, k)
    terms = st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(1, F.q - 1), max_size=5)
    g = BivariatePoly(F, draw(terms))
    h = BivariatePoly(F, draw(terms))
    return g, h


@settings(max_examples=150, deadline=None)
@given(_divisor_pair())
def test_exact_division_matches_product(pair):
    g, h = pair
    if g.is_zero():
        assert bivar_exact_div(g * h, g) is None
        return
    assert bivar_exact_div(g * h, g) == h
    if g.total_degree() > 0:
        one = BivariatePoly(g.field, {(0, 0): g.field.one})
        assert bivar_exact_div(g * h + one, g) is None


# ---------------------------------------------------------------------------
# The specialization scan: batched chunks against one value at a time


def _scan_per_value(f, m):
    """The certificate of lifting._scan, one is_irreducible a value: the
    first a of F_{q^m} in index order, t before x, with f(a, x) of full
    degree and irreducible."""
    F = f.field
    E = make_field(F.p, F.k * m)
    fE = f.map_to(E)
    for transposed in (False, True):
        g = fE.transpose() if transposed else fE
        for a in range(E.q):
            spec = g.specialize_t(a)
            if spec.degree() == g.deg_x() and is_irreducible(spec):
                return lifting.IrreducibilityCertificate(
                    "irreducible", witness={
                        "kind": "specialization",
                        "variable": "x" if transposed else "t",
                        "extension": m, "value": E.to_vector(a),
                        "specialized": spec.format()})
    return None


@st.composite
def _scan_case(draw):
    """(f, m): f over F_q of degree 1 to 6 in x and at least 1 in t, whose
    top x-coefficient may vanish at some t; or, with no full-degree
    irreducible specialization, a product of two such polynomials, with
    q^m <= 125 as the loop then walks every value twice."""
    q = draw(st.sampled_from([3, 4, 5, 7, 8, 9]))
    F = field_of_order(q)
    elem = st.integers(1, q - 1).map(F.element_at)

    def part(n):
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, n)), elem,
            max_size=4))
        terms[draw(st.integers(0, 2)), n] = draw(elem)
        terms[draw(st.integers(1, 3)), draw(st.integers(0, n))] = draw(elem)
        return BivariatePoly(F, terms)

    if draw(st.booleans(), label="product"):
        f = part(draw(st.integers(1, 3))) * part(draw(st.integers(1, 3)))
        top = 125
    else:
        f = part(draw(st.integers(1, 6)))
        top = 729
    m = draw(st.sampled_from([m for m in (1, 2, 3) if q ** m <= top]))
    return f, m


# (q, m, f, the first witness value over F_{q^m}, in t): at the first
# value, in the chunk 49..112 at n = 5, in the chunk 32..63 at n = 3, and
# none for the square (x^2 + t^2)^2 and for a smooth quintic, whose one
# chunk over F_27 takes the rest
_SCAN_PINNED = [(3001, 1, "x^5+t^4+t*x+2", 0),
                (7, 3, "x^5+2*t^4*x^3+5*t", 58),
                (7, 3, "x^3+6*t^4*x+3*t^3", 60),
                (9, 2, "x^4+t^4+2*t^2*x^2", None),
                (3, 3, "x^5+t^5+1", None)]


def _pinned_case(i):
    q, m, poly, _ = _SCAN_PINNED[i]
    return parse_poly(poly, field_of_order(q)), m


@settings(max_examples=40, deadline=None)
@given(case=_scan_case(), cap=st.sampled_from([None, 1, 20]))
@example(case=_pinned_case(0), cap=None)
@example(case=_pinned_case(1), cap=None)
@example(case=_pinned_case(1), cap=20)
@example(case=_pinned_case(2), cap=None)
@example(case=_pinned_case(2), cap=1)
@example(case=_pinned_case(3), cap=None)
@example(case=_pinned_case(4), cap=None)
def test_batched_scan_matches_per_value_loop(case, cap):
    # cap values a chunk, where given: one at a time below _FIRST_CHUNK,
    # else chunks of _FIRST_CHUNK, then of 20
    f, m = case
    budget = (lifting._RABIN_BATCH if cap is None
              else cap * (f.deg_x() * f.field.k * m) ** 2)
    with mock.patch.object(lifting, "_RABIN_BATCH", budget):
        got = lifting._scan(f, m)
    want = _scan_per_value(f, m)
    assert (got and got.as_dict()) == (want and want.as_dict()), f.format()


@pytest.mark.parametrize("i", range(len(_SCAN_PINNED)))
def test_pinned_scan_witnesses(i):
    f, m = _pinned_case(i)
    value = _SCAN_PINNED[i][3]
    cert = _scan_per_value(f, m)
    if value is None:
        assert cert is None
    else:
        E = make_field(f.field.p, f.field.k * m)
        assert cert.witness["variable"] == "t"
        assert cert.witness["value"] == E.to_vector(value)
