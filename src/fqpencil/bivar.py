"""Bivariate polynomials f(t, x), projective closures and curve invariants.

Sparse representation: terms maps (i, j) -> nonzero coefficient of t^i x^j.
The projective closure lives in (T : X : Z) with Z the homogenizing
variable.  Smoothness is certified after a linear change of coordinates
making the X^d coefficient a nonzero constant (moving a point off the
curve to (0:1:0), over the least extension of F_q that has one): the
singular T-coordinates are roots of gcd(disc_X f, Res_X(f_X, f_T)), so a
constant gcd certifies a smooth curve over F_q, and otherwise only the
factors of disc_X dividing it have their repeated-root loci inspected, in
their residue fields.  Resultants over F_q[t] are interpolated from
unipoly.resultant at points of F_q or of an extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

from .errors import (CharacteristicDividesDegree, DegreeTooSmall,
                     ZeroOrConstant)
from .field import embed, make_field
from .unipoly import (UnivariatePoly, discriminant, factor, resultant,
                      roots_in_field)


class BivariatePoly:
    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        self.terms = {ij: c for ij, c in terms.items() if c != field.zero}

    # -- structure -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        return max((i + j for i, j in self.terms), default=-1)

    def deg_t(self):
        return max((i for i, _ in self.terms), default=-1)

    def deg_x(self):
        return max((j for _, j in self.terms), default=-1)

    def __eq__(self, other):
        return (isinstance(other, BivariatePoly)
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __repr__(self):
        return f"BivariatePoly({self.field!r}, {self.format()})"

    def format(self):
        """Canonical text: terms by (total degree, t-degree) descending."""
        F = self.field
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda ij: (ij[0] + ij[1], ij[0]),
                      reverse=True)
        parts = []
        for i, j in keys:
            c = self.terms[(i, j)]
            cs = F.format(c)
            vars_ = []
            if i:
                vars_.append("t" + (f"^{i}" if i > 1 else ""))
            if j:
                vars_.append("x" + (f"^{j}" if j > 1 else ""))
            if not vars_:
                parts.append(cs)
            elif c == 1:
                parts.append("*".join(vars_))
            else:
                parts.append(cs + "*" + "*".join(vars_))
        return "+".join(parts)

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        F = self.field
        out = dict(self.terms)
        for ij, c in other.terms.items():
            out[ij] = F.add(out.get(ij, F.zero), c)
        return BivariatePoly(F, out)

    def __mul__(self, other):
        F = self.field
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = F.add(out.get(key, F.zero), F.mul(c1, c2))
        return BivariatePoly(F, out)

    def transpose(self):
        """Swap the roles of t and x."""
        return BivariatePoly(self.field, {(j, i): c
                                          for (i, j), c in self.terms.items()})

    def map_to(self, dst):
        """Push coefficients through the canonical embedding into dst."""
        src = self.field
        return BivariatePoly(dst, {ij: embed(src, dst, c)
                                   for ij, c in self.terms.items()})

    # -- evaluation and specialization --------------------------------------------

    def evaluate(self, tv, xv):
        F = self.field
        acc = F.zero
        tp = _power_table(F, tv, self.deg_t())
        xp = _power_table(F, xv, self.deg_x())
        for (i, j), c in self.terms.items():
            acc = F.add(acc, F.mul(c, F.mul(tp[i], xp[j])))
        return acc

    def x_coefficients(self):
        """List of UnivariatePoly in t: coefficient of x^j at index j."""
        F = self.field
        dx = max(self.deg_x(), 0)
        dt = max(self.deg_t(), 0)
        rows = [[F.zero] * (dt + 1) for _ in range(dx + 1)]
        for (i, j), c in self.terms.items():
            rows[j][i] = c
        return [UnivariatePoly(F, row) for row in rows]

    @classmethod
    def from_x_coefficients(cls, field, coeffs):
        terms = {}
        for j, poly in enumerate(coeffs):
            for i, c in enumerate(poly.coeffs):
                if c != field.zero:
                    terms[(i, j)] = c
        return cls(field, terms)

    def specialize_t(self, a):
        """f(a, x) as a univariate polynomial in x."""
        F = self.field
        tp = _power_table(F, a, self.deg_t())
        out = [F.zero] * (max(self.deg_x(), 0) + 1)
        for (i, j), c in self.terms.items():
            out[j] = F.add(out[j], F.mul(c, tp[i]))
        return UnivariatePoly(F, out)

    def restrict_to_line(self, a, b):
        """f(t, a*t + b) as a univariate polynomial in t."""
        return self.substitute_x(UnivariatePoly(self.field, [b, a]))

    def substitute_x(self, g: UnivariatePoly):
        """f(t, g(t)) by Horner in the x-coefficients."""
        F = self.field
        acc = UnivariatePoly.zero(F)
        for cj in reversed(self.x_coefficients()):
            acc = acc * g + cj
        return acc


def _power_table(F, v, n):
    out = [F.one]
    for _ in range(max(n, 0)):
        out.append(F.mul(out[-1], v))
    return out


# ---------------------------------------------------------------------------
# Projective closure


class HomogeneousForm:
    """Homogeneous form of degree d in (T, X, Z); key (a, b) is T^a X^b Z^{d-a-b}."""

    __slots__ = ("field", "d", "terms")

    def __init__(self, field, d, terms):
        self.field = field
        self.d = d
        self.terms = {ab: c for ab, c in terms.items() if c != field.zero}
        assert all(a + b <= d for a, b in self.terms)

    def coeff(self, a, b):
        return self.terms.get((a, b), self.field.zero)

    def dehomogenize(self):
        """F(t, x, 1) as a BivariatePoly."""
        return BivariatePoly(self.field, dict(self.terms))

    def evaluate(self, T, X, Z):
        F = self.field
        tp = _power_table(F, T, self.d)
        xp = _power_table(F, X, self.d)
        zp = _power_table(F, Z, self.d)
        acc = F.zero
        for (a, b), c in self.terms.items():
            acc = F.add(acc, F.mul(F.mul(c, tp[a]), F.mul(xp[b], zp[self.d - a - b])))
        return acc

    def partial(self, var):
        """Partial derivative; homogeneous of degree d - 1."""
        F = self.field
        out = {}
        for (a, b), c in self.terms.items():
            z = self.d - a - b
            if var == "T" and a:
                key, mult = (a - 1, b), a
            elif var == "X" and b:
                key, mult = (a, b - 1), b
            elif var == "Z" and z:
                key, mult = (a, b), z
            else:
                continue
            v = F.scalar(mult, c)
            if v != F.zero:
                out[key] = F.add(out.get(key, F.zero), v)
        return HomogeneousForm(F, self.d - 1, out)

    def shear(self, var, ce):
        """Substitute var -> var + ce*X for var in {T, Z} and a field
        element ce; invertible."""
        F = self.field
        out = {}
        from math import comb
        for (a, b), coef in self.terms.items():
            z = self.d - a - b
            n = a if var == "T" else z
            for m in range(n + 1):
                v = F.mul(coef, F.mul(F.from_int(comb(n, m)), F.pow(ce, m)))
                if var == "T":
                    key = (a - m, b + m)
                else:
                    key = (a, b + m)
                if v != F.zero:
                    out[key] = F.add(out.get(key, F.zero), v)
        return HomogeneousForm(F, self.d, out)

    def swap(self, u, v):
        """The form with the variables u and v of T, X, Z exchanged."""
        i, j = "TXZ".index(u), "TXZ".index(v)
        out = {}
        for (a, b), coef in self.terms.items():
            e = [a, b, self.d - a - b]
            e[i], e[j] = e[j], e[i]
            out[(e[0], e[1])] = coef
        return HomogeneousForm(self.field, self.d, out)

    def x_slices(self):
        """Coefficients of X^j in the Z = 1 chart, as UnivariatePoly in T."""
        return self.dehomogenize().x_coefficients()

    def restrict_infinity(self):
        """F(1, X, 0) as a UnivariatePoly in X."""
        F = self.field
        out = [F.zero] * (self.d + 1)
        for (a, b), c in self.terms.items():
            if a + b == self.d:
                out[b] = F.add(out[b], c)
        return UnivariatePoly(F, out)


def homogenize_and_degree(f: BivariatePoly):
    if f.is_zero() or f.total_degree() < 1:
        raise ZeroOrConstant("cannot homogenize a constant polynomial")
    d = f.total_degree()
    return d, HomogeneousForm(f.field, d, dict(f.terms))


# ---------------------------------------------------------------------------
# Resultants over F_q[t], from unipoly.resultant at points


def resultant_poly_coeffs(A, m, B, n, field):
    """Res_{m,n}(A, B) of coefficient lists of UnivariatePoly in t, low to
    high, at formal degrees m and n, A_m nonzero.  Each term of the
    Sylvester determinant takes an entry from each of its n rows of A and m
    rows of B, so its degree is at most n max deg A_i + m max deg B_j."""
    zero = UnivariatePoly.zero(field)
    A = [A[i] if i < len(A) else zero for i in range(m + 1)]
    B = [B[j] if j < len(B) else zero for j in range(n + 1)]

    def value(a, b):
        # expanding along the first column while b's formal top is zero
        # gives lc(a)^(n - deg b) Res(a, b); Res_{0,n}(a_0, 0) = a_0^n
        E = a.field
        r = resultant(a, b) if m or not b.is_zero() else E.one
        return E.mul(E.pow(a.leading(), n - max(b.degree(), 0)), r)
    bound = n * max(a.degree() for a in A) + m * max(b.degree() for b in B)
    return _interpolate(max(bound, 0), value, field, A, B)


def discriminant_poly_coeffs(A, d, field):
    """disc(A) of A (formal degree d, p not dividing d, coefficients
    UnivariatePoly in t), a form of degree 2d - 2 in the A_i, isobaric of
    weight d(d - 1): if deg A_i <= c + w i for every nonzero A_i, its degree
    is at most (2d - 2) c + w d(d - 1).  The least bound at w = -1, 0, 1 is
    d(d - 1) for the pencil discriminant (deg A_i <= i) and for disc_X of a
    form with a constant X^d coefficient (deg A_i <= d - i)."""
    if d % field.p == 0:
        raise CharacteristicDividesDegree(f"p = {field.p} divides d = {d}")
    A = (list(A) + [UnivariatePoly.zero(field)] * (d + 1))[:d + 1]
    bound = min((2 * d - 2) * max(a.degree() - w * i for i, a in enumerate(A)
                                  if not a.is_zero()) + w * d * (d - 1)
                for w in (-1, 0, 1))
    return _interpolate(max(bound, 0), discriminant, field, A)


def _interpolate(bound, value_at, F, *coeffs):
    """The polynomial over F of degree at most bound that is value_at(a,
    ...) at every t = tau where coeffs[0][-1](tau) != 0, for a, ... the
    polynomials with the coefficient lists coeffs at tau: Newton
    interpolation (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 5)
    at the first bound + 1 such tau of the least F_{q^s} that has them."""
    if coeffs[0][-1].is_zero():
        raise ZeroDivisionError("the top coefficient is zero")
    for s in count(1):
        E = F if s == 1 else make_field(F.p, F.k * s)
        C = [[c.map_coeffs(lambda v: embed(F, E, v), E) for c in cs]
             for cs in coeffs]
        xs = list(islice((x for x in E.elements() if C[0][-1].evaluate(x)),
                         bound + 1))
        if len(xs) > bound:
            break
    ys = [value_at(*(UnivariatePoly(E, [c.evaluate(x) for c in cs])
                     for cs in C)) for x in xs]
    for j in range(1, len(xs)):  # divided differences
        for i in range(len(xs) - 1, j - 1, -1):
            ys[i] = E.mul(E.sub(ys[i], ys[i - 1]),
                          E.inv(E.sub(xs[i], xs[i - j])))
    out = UnivariatePoly.zero(E)
    for y, x in zip(reversed(ys), reversed(xs)):  # the Newton form
        out = out * UnivariatePoly(E, [E.neg(x), 1]) + UnivariatePoly(E, [y])
    if E is F:
        return out
    back = {embed(F, E, c): c for c in F.elements()}  # coefficients in F
    return out.map_coeffs(back.__getitem__, F)


# ---------------------------------------------------------------------------
# Smoothness


@dataclass
class SingularWitness:
    """A projective singular point, possibly over an extension field."""
    field: object          # Field containing the coordinates
    point: tuple           # (T, X, Z) projective coordinates

    def as_dict(self):
        return {
            "extension_degree": self.field.k,
            "point": [self.field.to_vector(c) for c in self.point],
        }


def _points_to_try(F):
    """Every point of P^2(F_q), normalized, in the order is_smooth tries
    them as the point to move to (0:1:0).

    First (0:1:0), (1:1:0), (2:1:0), (0:1:1) and (0:1:2); then the points
    (t:1:z) by growing max(t, z), so that a curve of degree d < q misses
    one of the first (d+1)^2; then (1:0:z) and (0:0:1).  The first five
    come again later, which costs five evaluations.
    """
    two = F.from_int(2)
    yield from [(0, 1, 0), (1, 1, 0), (two, 1, 0), (0, 1, 1), (0, 1, two)]
    for m in range(F.q):
        for t in range(m + 1):
            yield (t, 1, m)
        for z in range(m):
            yield (m, 1, z)
    for z in range(F.q):
        yield (1, 0, z)
    yield (0, 0, 1)


def _moved_form(form: HomogeneousForm, P):
    """form(M (T, X, Z)) for an invertible M with M (0, 1, 0) = P, so that
    its X^d coefficient is form(P); _unshear applies M."""
    t, x, z = P
    if x:  # M (T, X, Z) = (T + tX, X, Z + zX)
        if t:
            form = form.shear("T", t)
    elif t:  # M (T, X, Z) = (X, T, Z + zX)
        form = form.swap("T", "X")
    else:  # M (T, X, Z) = (T, Z, X)
        return form.swap("X", "Z")
    return form.shear("Z", z) if z else form


def is_smooth(f: BivariatePoly):
    """(smooth, witness): certify smoothness of the projective closure.

    The witness is a singular point, or None when the curve is smooth or
    is singular with no singular point over F_{q^6} (see _smoothness).
    Requires p not dividing d so the Euler relation recovers the third
    partial from the other two.
    """
    F = f.field
    d = f.total_degree()
    if d < 1:
        raise ZeroOrConstant("smoothness needs a nonconstant polynomial")
    if d < 2:
        raise DegreeTooSmall("smoothness certification needs degree >= 2")
    if d % F.p == 0:
        raise CharacteristicDividesDegree(
            f"characteristic {F.p} divides degree {d}")
    form, P = _point_off_curve(f)
    smooth, witness = _smoothness(_moved_form(form, P))
    if witness is not None:
        witness = _unshear(witness, form.field, P)
    return smooth, witness


def _point_off_curve(f: BivariatePoly):
    """(form, P): f's closure over the least F_{q^m} with a point off it,
    and the first such point of _points_to_try.  Some q^m >= d has one: a
    line not in the curve meets it in at most d < q^m + 1 points."""
    F = E = f.field
    _, form = homogenize_and_degree(f)
    while True:
        for P in _points_to_try(E):
            if form.evaluate(*P) != E.zero:
                return form, P
        E = make_field(F.p, E.k + F.k)
        _, form = homogenize_and_degree(f.map_to(E))


def _unshear(w: SingularWitness, F, P):
    """The witness w of _moved_form(form, P) as a point of form: M w."""
    E = w.field
    T, X, Z = w.point
    t, x, z = (embed(F, E, c) for c in P)
    if x:
        return SingularWitness(E, (E.add(T, E.mul(t, X)), X,
                                   E.add(Z, E.mul(z, X))))
    if t:
        return SingularWitness(E, (X, T, E.add(Z, E.mul(z, X))))
    return SingularWitness(E, (T, Z, X))


def _smoothness(form: HomogeneousForm):
    """(smooth, witness) for a form whose X^d coefficient is nonzero.

    At infinity the singular X are the common roots of f, f_X and f_Z at
    T = 1.  In the chart Z = 1, f and f_X have constant leading
    coefficients in X, so at a singular point (tau, xi), where f, f_X and
    f_T vanish, tau is a root of D = disc_X f and of R = Res_X(f_X, f_T),
    and so of G = gcd(D, R), which is D when R = 0 (Fulton, Algebraic
    Curves, ch. 3).  A constant G certifies the chart smooth over F_q.
    D = 0 means that f and f_X, of degree d - 1, share a factor over
    F_q(T): f is reducible or not reduced, so singular where two
    components meet (Bezout; Fulton, ch. 5), and the witness is the first
    affine one over F_{q^m}, m <= 6, or None.
    Otherwise the irreducible factors of D are tried by (multiplicity,
    sort_key), those not dividing G skipped: each tried factor's root tau
    is taken in its residue field and the repeated roots of f(tau, x) in
    theirs, and the first common root with f_T is the witness.
    """
    F = form.field
    d = form.d

    # Chart Z = 0 (the point (0:1:0) is off the curve, so T = 1 there).
    finf = form.restrict_infinity()
    fx_inf = form.partial("X").restrict_infinity()
    fz_inf = form.partial("Z").restrict_infinity()
    g = finf.gcd(fx_inf)
    if not g.is_constant():
        g = g.gcd(fz_inf)
    if not g.is_constant():
        _, facs = factor(g)
        irr = facs[0][0]
        E = make_field(F.p, F.k * irr.degree())
        xi = roots_in_field(irr.map_coeffs(lambda c: embed(F, E, c), E))[0]
        return False, SingularWitness(E, (E.one, xi, E.zero))

    # Affine chart Z = 1: singular T-coordinates are roots of G.
    slices = form.x_slices()
    ft_slices = form.partial("T").x_slices()
    D = discriminant_poly_coeffs(slices, d, F)
    if D.is_zero():
        return False, _affine_singular_point(slices, ft_slices)
    R = resultant_poly_coeffs(form.partial("X").x_slices(), d - 1,
                              ft_slices, d - 1, F)
    G = D.gcd(R)
    if G.is_constant():
        return True, None
    for irr, _ in sorted(factor(D)[1],
                         key=lambda fm: (fm[1], fm[0].sort_key())):
        if not (G % irr).is_zero():
            continue
        E = make_field(F.p, F.k * irr.degree())
        lift = lambda c: embed(F, E, c)
        tau = roots_in_field(irr.map_coeffs(lift, E))[0]
        fx_at = UnivariatePoly(
            E, [p.map_coeffs(lift, E).evaluate(tau) for p in slices])
        g = fx_at.gcd(fx_at.derivative())
        if g.is_constant():
            continue
        ft_at = UnivariatePoly(
            E, [p.map_coeffs(lift, E).evaluate(tau) for p in ft_slices])
        for irr2, _ in factor(g)[1]:
            E2 = make_field(F.p, E.k * irr2.degree())
            lift2 = lambda c: embed(E, E2, c)
            for xi in roots_in_field(irr2.map_coeffs(lift2, E2)):
                if ft_at.map_coeffs(lift2, E2).evaluate(xi) == E2.zero:
                    return False, SingularWitness(
                        E2, (embed(E, E2, tau), xi, E2.one))
    return True, None


def _affine_singular_point(slices, ft_slices):
    """The first singular point (tau : xi : 1) of the chart Z = 1 with tau
    in F_{q^m}, m = 1..6 in turn, tau in index order and xi its least
    root, or None; slices and ft_slices are the X^j coefficients of f and
    f_T.  Every fiber f(tau, x) has degree d and a nonzero derivative, and
    f_Z vanishes where f, f_X and f_T do (Euler), so xi is a common root
    of f(tau, x), its derivative and f_T(tau, x)."""
    F = slices[0].field
    for m in range(1, 7):
        E = make_field(F.p, F.k * m)
        lift = lambda c: embed(F, E, c)
        fl = [p.map_coeffs(lift, E) for p in slices]
        tl = [p.map_coeffs(lift, E) for p in ft_slices]
        for tau in range(E.q):
            fv = UnivariatePoly(E, [p.evaluate(tau) for p in fl])
            g = fv.gcd(fv.derivative())
            if g.is_constant():
                continue
            roots = roots_in_field(
                g.gcd(UnivariatePoly(E, [p.evaluate(tau) for p in tl])))
            if roots:
                return SingularWitness(E, (tau, roots[0], E.one))
    return None


# ---------------------------------------------------------------------------
# Curve invariants


@dataclass
class CurveReport:
    d: int
    char_ok: bool
    smooth: bool
    irreducible: object          # IrreducibilityCertificate
    genus: int | None            # (d-1)(d-2)/2 when smooth
    dual_degree: int
    bad_line_bound: int
    singular_witness: SingularWitness | None

    def as_dict(self):
        return {
            "d": self.d,
            "char_ok": self.char_ok,
            "smooth": self.smooth,
            "irreducible": self.irreducible.as_dict(),
            "genus": self.genus,
            "dual_degree": self.dual_degree,
            "bad_line_bound": self.bad_line_bound,
            "singular_witness": (None if self.singular_witness is None
                                 else self.singular_witness.as_dict()),
        }


def curve_invariants(f: BivariatePoly) -> CurveReport:
    from .lifting import bivariate_irreducible
    F = f.field
    d = f.total_degree()
    if d < 2:
        raise DegreeTooSmall("curve invariants need total degree >= 2")
    char_ok = (d * (d - 1)) % F.p != 0
    smooth, witness = is_smooth(f)
    cert = bivariate_irreducible(f)
    dd1 = d * (d - 1)
    return CurveReport(
        d=d,
        char_ok=char_ok,
        smooth=smooth,
        irreducible=cert,
        genus=((d - 1) * (d - 2)) // 2 if smooth else None,
        dual_degree=dd1,
        bad_line_bound=((dd1 - 1) * (dd1 - 2)) // 2,
        singular_witness=witness,
    )
