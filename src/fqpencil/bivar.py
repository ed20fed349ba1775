"""Bivariate polynomials f(t, x), projective closures and curve invariants.

Sparse representation: terms maps (i, j) -> nonzero coefficient of t^i x^j.
The projective closure lives in (T : X : Z) with Z the homogenizing
variable.  Smoothness is certified by discriminant-factor elimination:
after a linear change of coordinates making the X^d coefficient a nonzero
constant (moving a point off the curve to (0:1:0), over the least
extension of F_q that has one), the repeated-root loci in every residue
field of disc_X are inspected directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (CharacteristicDividesDegree, DegreeTooSmall,
                     ZeroOrConstant)
from .field import embed, make_field
from .unipoly import (UnivariatePoly, factor, roots_in_field,
                      squarefree_decomposition)


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
# Determinants and resultants with polynomial entries


def bareiss_determinant(matrix, field):
    """Fraction-free determinant of a square matrix of UnivariatePoly."""
    n = len(matrix)
    M = [row[:] for row in matrix]
    one = UnivariatePoly.one(field)
    zero = UnivariatePoly.zero(field)
    sign = 1
    prev = one
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
    if sign < 0:
        det = -det
    return det


def resultant_poly_coeffs(A, m, B, n, field):
    """Res of A (formal degree m) and B (formal degree n), coefficient lists
    of UnivariatePoly low-to-high, via the Sylvester matrix."""
    zero = UnivariatePoly.zero(field)
    size = m + n
    if size == 0:
        return UnivariatePoly.one(field)
    Arow = [(A[m - c] if m - c < len(A) else zero) for c in range(m + 1)]
    Brow = [(B[n - c] if n - c < len(B) else zero) for c in range(n + 1)]
    M = []
    for r in range(n):
        M.append([zero] * r + Arow + [zero] * (size - m - 1 - r))
    for r in range(m):
        M.append([zero] * r + Brow + [zero] * (size - n - 1 - r))
    return bareiss_determinant(M, field)


def discriminant_poly_coeffs(A, d, field):
    """disc of A (formal degree d, coefficients UnivariatePoly): the binary
    form discriminant (-1)^{d(d-1)/2} Res(A, A') / a_d, exact division."""
    zero = UnivariatePoly.zero(field)
    A = list(A) + [zero] * (d + 1 - len(A))
    Ad = [UnivariatePoly(field, [field.scalar(i, c) for c in A[i].coeffs])
          for i in range(1, d + 1)]
    res = resultant_poly_coeffs(A, d, Ad, d - 1, field)
    disc = res.exact_div(A[d])
    if (d * (d - 1) // 2) % 2 == 1:
        disc = -disc
    return disc


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
    witness = _singular_point(_moved_form(form, P))
    if witness is not None:
        return False, _unshear(witness, form.field, P)
    return True, None


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


def _singular_point(form: HomogeneousForm):
    """Singular point of a form whose X^d coefficient is nonzero, or None."""
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
        return SingularWitness(E, (E.one, xi, E.zero))

    # Affine chart Z = 1: singular T-coordinates are roots of disc_X.
    slices = form.x_slices()
    D = discriminant_poly_coeffs(slices, d, F)
    if D.is_zero():
        # Identically vanishing discriminant: the curve has a repeated or
        # shared component; fall back to a direct point search.
        return _brute_force_singular(form, 6)
    ft_slices = form.partial("T").x_slices()
    for fac, _ in squarefree_decomposition(D):
        for irr, _ in factor(fac)[1]:
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
                        return SingularWitness(
                            E2, (embed(E, E2, tau), xi, E2.one))
    return None


def _brute_force_singular(form: HomogeneousForm, m_max: int):
    """Exhaustive singular-point search over F_{q^m}, m <= m_max.

    Per affine T-value the X-coordinates of singular points are repeated
    roots of the fiber, so each T costs one gcd of small univariate
    polynomials instead of a full X-scan.
    """
    F = form.field

    # The single point (0:1:0).
    zero, one = F.zero, F.one
    if (form.evaluate(zero, one, zero) == zero
            and form.partial("T").evaluate(zero, one, zero) == zero
            and form.partial("X").evaluate(zero, one, zero) == zero
            and form.partial("Z").evaluate(zero, one, zero) == zero):
        return SingularWitness(F, (zero, one, zero))

    # Rest of the line at infinity: T = 1, Z = 0.
    g = form.restrict_infinity().gcd(form.partial("X").restrict_infinity())
    if not g.is_constant():
        g = g.gcd(form.partial("Z").restrict_infinity())
        if not g.is_constant():
            g = g.gcd(form.partial("T").restrict_infinity())
    if not g.is_constant():
        for irr, _ in factor(g)[1]:
            if F.k * irr.degree() <= F.k * m_max:
                E = make_field(F.p, F.k * irr.degree())
                xi = roots_in_field(
                    irr.map_coeffs(lambda c: embed(F, E, c), E))[0]
                return SingularWitness(E, (E.one, xi, E.zero))

    # Affine chart Z = 1.
    slices = form.x_slices()
    ft_slices = form.partial("T").x_slices()
    fz_slices = form.partial("Z").x_slices()
    for m in range(1, m_max + 1):
        E = make_field(F.p, F.k * m)
        lift = lambda c: embed(F, E, c)
        sl = [p.map_coeffs(lift, E) for p in slices]
        tl = [p.map_coeffs(lift, E) for p in ft_slices]
        zl = [p.map_coeffs(lift, E) for p in fz_slices]
        for tau in range(E.q):
            fv = UnivariatePoly(E, [p.evaluate(tau) for p in sl])
            if fv.degree() < 1:
                if fv.is_zero():
                    # whole vertical fiber on the curve: check partials there
                    ftv = UnivariatePoly(E, [p.evaluate(tau) for p in tl])
                    fzv = UnivariatePoly(E, [p.evaluate(tau) for p in zl])
                    g2 = ftv.gcd(fzv)
                    cand = range(E.q) if g2.is_zero() else roots_in_field(g2)
                    for xi in cand:
                        return SingularWitness(E, (tau, xi, E.one))
                continue
            ftv = UnivariatePoly(E, [p.evaluate(tau) for p in tl])
            dfv = fv.derivative()
            g2 = fv.gcd(dfv if not dfv.is_zero() else fv)
            if g2.is_constant():
                continue
            g2 = g2.gcd(ftv)
            if g2.is_constant():
                continue
            fzv = UnivariatePoly(E, [p.evaluate(tau) for p in zl])
            g2 = g2.gcd(fzv)
            if g2.is_constant():
                continue
            roots = roots_in_field(g2) if g2.degree() >= 1 else []
            if roots:
                return SingularWitness(E, (tau, roots[0], E.one))
    return None


def brute_force_singular_search(f: BivariatePoly, m_max: int):
    """Independent smoothness oracle: exhaustive search over F_{q^m}, m <= m_max."""
    _, form = homogenize_and_degree(f)
    return _brute_force_singular(form, m_max)


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
