"""Bivariate irreducibility certificates.

Univariate inputs are factored, and content in either variable is an
explicit factor.  Then, in this order: a full-degree irreducible
specialization of either variable over F_q certifies irreducibility;
Hensel lifting from a squarefree full-degree specialization at a point of
F_q, with subset recombination checked by exact division, gives a factor;
the scan is repeated over F_{q^2} and F_{q^3}; else the answer is
inconclusive.  The order cannot change the certificate, as at most one
step can succeed: a reducible f without content is g h with g and h of
positive degree in both variables, so every full-degree specialization is
reducible, and lifting returns only divisors of f.  The F_q scan certifies
most curves, so it goes first; lifting goes before the extension scans,
which may test all q^2 and q^3 values.  Lifting uses base-field points
only: a factor over an extension witnesses nothing over F_q.

A scan tests the values a in index order, t before x.  The first ones go
one at a time through is_irreducible, the rest in chunks that double in
size: a chunk's specializations f(a, x) are one digit array, tested by
one unipoly._irreducible_batch, Rabin's test across the batch.
The first hit is the witness, the value a test per value would find.

Lifting runs to precision P = 2 deg_t f + 1.  A true factor h gives the
candidate (lc_f / lc_h) h, of t-degree at most 2 deg_t f < P.  A candidate
that divides f is a true factor lifting its subset's product, and that
monic lift is unique, so every precision of at least P accepts the same
first subset with the same polynomial.

A polynomial in x over F_q[t]/(t^P) is an (m, P, k) digit array, x^i in
row i.  A product places x^i at t^(i (2P-1)), where no two terms collide,
and takes one polycore product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

import numpy as np

from .bivar import BivariatePoly
from .errors import ZeroOrConstant
from .field import _mod, make_field
from .polycore import _count_dtype, poly_mul, to_array
from .unipoly import (_RABIN_BATCH, UnivariatePoly, _irreducible_batch, factor,
                      is_irreducible)

# Values of a scan's first batched chunk.  On 2 cores (x86_64, numpy 2.4)
# a chunk took about as long at 4, 8 and 16 values.  A chunk of 16 over
# F_1999 took 2 to 2.5 times is_irreducible at n = 4 and 5, 3 to 6 times
# at n = 2 and 3, and 4.5 times at n = 6.
_FIRST_CHUNK = 16


@dataclass
class IrreducibilityCertificate:
    status: str                       # irreducible | reducible | inconclusive
    witness: dict | None = None       # specialization data for irreducible
    factor: BivariatePoly | None = None

    def as_dict(self):
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = dict(self.witness)
        if self.factor is not None:
            out["factor"] = self.factor.format()
        return out


def bivariate_irreducible(f: BivariatePoly) -> IrreducibilityCertificate:
    F = f.field
    if f.total_degree() < 1:
        raise ZeroOrConstant("irreducibility needs total degree >= 1")

    # Effectively univariate inputs: answer via univariate factorization.
    if f.deg_x() <= 0 or f.deg_t() <= 0:
        var = "t" if f.deg_x() <= 0 else "x"
        g = f if var == "t" else f.transpose()
        _, facs = factor(UnivariatePoly(F, [g.terms.get((i, 0), F.zero)
                                            for i in range(g.deg_t() + 1)]))
        if len(facs) == 1 and facs[0][1] == 1:
            return IrreducibilityCertificate(
                "irreducible",
                witness={"kind": "univariate", "variable": var})
        fac = BivariatePoly(F, {(i, 0): c
                                for i, c in enumerate(facs[0][0].coeffs)})
        return IrreducibilityCertificate(
            "reducible", factor=fac if var == "t" else fac.transpose())

    # Content in either variable is an explicit factor.
    for transposed in (False, True):
        g = f.transpose() if transposed else f
        cont = _content(g.x_coefficients())
        if cont.degree() >= 1:
            fac = BivariatePoly(F, {(i, 0): c
                                    for i, c in enumerate(cont.coeffs)})
            return IrreducibilityCertificate(
                "reducible", factor=fac.transpose() if transposed else fac)

    cert = _scan(f, 1) or _lift(f) or _scan(f, 2) or _scan(f, 3)
    return cert or IrreducibilityCertificate("inconclusive")


def _scan(f: BivariatePoly, m):
    """A full-degree irreducible specialization of either variable over
    F_{q^m}, as a certificate, or None: the first value a in E's order,
    t before x."""
    F = f.field
    E = make_field(F.p, F.k * m)
    fE = f.map_to(E)
    for transposed in (False, True):
        g = fE.transpose() if transposed else fE
        a = _first_irreducible(g, E)
        if a is not None:
            spec = g.specialize_t(a)
            return IrreducibilityCertificate("irreducible", witness={
                "kind": "specialization",
                "variable": "x" if transposed else "t", "extension": m,
                "value": E.to_vector(a), "specialized": spec.format()})
    return None


def _first_irreducible(g: BivariatePoly, E):
    """The first a of E, in index order, with g(a, x) irreducible of full
    degree n in x, or None.

    Values go one at a time through is_irreducible where a batch would
    cost more: the first value from n = 4 on, where is_irreducible builds
    a FrobCtx and a batch costs about two to five of them; the first
    _FIRST_CHUNK values below n = 4, where it builds no table and a batch
    costs three to six; the last two values; and every value when the
    _RABIN_BATCH budget of (n k)^2 table entries a value holds fewer than
    _FIRST_CHUNK.  The rest go in chunks of _FIRST_CHUNK values, twice
    that, and so on up to the budget, each tested by
    _specializations_irreducible; a chunk also takes what is left when the
    next chunk could hold it.
    """
    n = g.deg_x()
    cap = _RABIN_BATCH // (n * E.k) ** 2
    alone = 1 if n >= 4 else _FIRST_CHUNK
    a, size = 0, _FIRST_CHUNK
    while a < E.q:
        left = E.q - a
        if a < alone or left < 3 or cap < _FIRST_CHUNK:
            spec = g.specialize_t(a)
            if spec.degree() == n and is_irreducible(spec):
                return a
            a += 1
            continue
        stop = E.q if left <= min(2 * size, cap) else a + size
        hit = np.flatnonzero(
            _specializations_irreducible(g, range(a, stop), E))
        if hit.size:
            return a + int(hit[0])
        a, size = stop, min(2 * size, cap)
    return None


def _specializations_irreducible(g: BivariatePoly, values, E) -> np.ndarray:
    """Whether g(a, x) is irreducible of full degree n in x for each a in
    values, by one unipoly._irreducible_batch.

    The specializations are Horner steps in t on one (n + 1, k, B) array.
    Each is made monic without an inverse: with c its top coefficient,
    c^(n-1) h(x / c) has coefficients h_i c^(n-1-i), and it is irreducible
    exactly when h is.
    """
    p, n = E.p, g.deg_x()
    dtype = _count_dtype(E, 1)  # holds the sums of one product of elements
    rows = [[E.zero] * (n + 1) for _ in range(g.deg_t() + 1)]
    for (i, j), c in g.terms.items():
        rows[i][j] = c
    av = to_array([values], E).astype(dtype)
    h = np.zeros((n + 1, E.k, av.shape[2]), dtype=dtype)
    for row in reversed(rows):  # the x-polynomials of t^i, from the top
        h = _mod(poly_mul(av, h, E) + to_array(row, E).astype(dtype), p)
    lead = h[n:]
    power = lead
    for i in range(n - 2, -1, -1):
        h[i] = poly_mul(h[i : i + 1], power, E)[0]
        power = poly_mul(power, lead, E)
    full = lead.any(axis=(0, 1))
    h[n] = 0
    h[n, 0] = 1
    return full & _irreducible_batch(h, E)


def _lift(f: BivariatePoly):
    """A reducible certificate from Hensel lifting in either variable, or
    None."""
    for transposed in (False, True):
        fac = _lift_factor(f.transpose() if transposed else f)
        if fac is not None:
            return IrreducibilityCertificate(
                "reducible", factor=fac.transpose() if transposed else fac)
    return None


# ---------------------------------------------------------------------------
# Series polynomials: (m, P, k) digit arrays, see the module docstring.


def _series(rows, P, field, m=None) -> np.ndarray:
    """The (m, P, k) array of the polynomial in x whose coefficients are
    the given element lists in t, truncated to t^P; m defaults to
    len(rows), and missing rows are zero."""
    out = np.zeros((len(rows) if m is None else m, P), dtype=object)
    for i, row in enumerate(rows):
        out[i, : min(len(row), P)] = row[:P]
    return field.to_vector(out).astype(np.int64)


def _mul(a: np.ndarray, b: np.ndarray, field) -> np.ndarray:
    """Product of the (m, P, k) and (l, P, k) series polynomials a and b,
    of shape (m + l - 1, P, k): one packed product, truncated to t^P."""
    (m, P, k), l = a.shape, b.shape[0]
    w = 2 * P - 1
    packed = []
    for x in (a, b):
        y = np.zeros((len(x), w, k), dtype=np.int64)
        y[:, :P] = x
        packed.append(y.reshape(-1, k, 1))
    out = np.zeros(((m + l) * w, k), dtype=np.int64)
    out[:-1] = poly_mul(*packed, field)[:, :, 0]
    return out.reshape(m + l, w, k)[:-1, :P]


def _divmod(a: np.ndarray, b: np.ndarray, field):
    """Quotient and remainder of a by b, whose top x-coefficient is 1: one
    packed product per quotient row."""
    lb = len(b) - 1
    rem = a.copy()
    quot = np.zeros((len(a) - lb,) + a.shape[1:], dtype=np.int64)
    for i in range(len(a) - 1, lb - 1, -1):
        if rem[i].any():
            quot[i - lb] = rem[i]
            rem[i - lb : i + 1] = _mod(
                rem[i - lb : i + 1] - _mul(rem[i : i + 1], b, field), field.p)
    return quot, rem[:lb]


def _inverse(a: np.ndarray, field) -> np.ndarray:
    """1 / a for a one-row series a with a unit constant term: Newton's
    method, v <- v + v (1 - a v), doubling the correct t-coefficients."""
    P = a.shape[1]
    v = _series([[field.inv(int(field.from_vector(a[0, 0])))]], P, field)
    one = _series([[field.one]], P, field)
    prec = 1
    while prec < P:
        prec *= 2
        e = _mod(one - _mul(a, v, field), field.p)
        v = _mod(v + _mul(v, e, field), field.p)
    return v


def _hensel_pair(fpx, g0, h0, s0, u0, field):
    """Lift f = g*h with s*g + u*h = 1 from precision 1 to that of fpx
    (quadratic).  g keeps deg g0 + 1 rows and u deg g0 rows: their higher
    x-coefficients vanish to the precision reached so far."""
    p, P = field.p, fpx.shape[1]
    dg, dh = g0.degree(), h0.degree()
    g, h, s, u = (_series([[c] for c in c0.coeffs], P, field, m) for c0, m
                  in ((g0, dg + 1), (h0, dh + 1), (s0, dh), (u0, dg)))
    one = _series([[field.one]], P, field, dg + dh)
    prec = 1
    while prec < P:
        prec *= 2
        e = _mod(fpx - _mul(g, h, field), p)
        q, r = _divmod(_mul(s, e, field), h, field)
        g = _mod(g + (_mul(u, e, field) + _mul(q, g, field))[: dg + 1], p)
        h[:-1] = _mod(h[:-1] + r, p)
        b = _mod(_mul(s, g, field) + _mul(u, h, field) - one, p)
        cq, dr = _divmod(_mul(s, b, field), h, field)
        s = _mod(s - dr, p)
        u = _mod(u - (_mul(u, b, field) + _mul(cq, g, field))[:dg], p)
    return g, h


def _hensel_multifactor(fpx, factors, field):
    """Lift the coprime monic factors of f(0, x) to the precision of the
    monic series polynomial fpx."""
    if len(factors) == 1:
        return [fpx]
    half = len(factors) // 2
    g0 = prod(factors[1:half], start=factors[0])
    h0 = prod(factors[half + 1:], start=factors[half])
    G, H = _hensel_pair(fpx, g0, h0, *_bezout(g0, h0), field)
    return (_hensel_multifactor(G, factors[:half], field)
            + _hensel_multifactor(H, factors[half:], field))


def _bezout(a: UnivariatePoly, b: UnivariatePoly):
    """(s, u) with s*a + u*b = 1, for coprime a and b."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = UnivariatePoly.one(F), UnivariatePoly.zero(F)
    u0, u1 = UnivariatePoly.zero(F), UnivariatePoly.one(F)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    assert r0.is_constant() and not r0.is_zero()
    c = F.inv(r0.coeffs[0])
    return s0.scale(c), u0.scale(c)


def _content(polys):
    """Monic gcd of the nonzero polys, from the left, up to the first
    constant one (zero when every poly is zero)."""
    cont = UnivariatePoly.zero(polys[0].field)
    for c in polys:
        if not c.is_zero():
            cont = cont.gcd(c)
            if cont.is_constant():
                break
    return cont


def _lift_factor(f: BivariatePoly):
    """Explicit bivariate factor of f (main variable x) via Hensel lifting
    from a base-field specialization, or None."""
    F = f.field
    lc = f.x_coefficients()[f.deg_x()]
    for a in range(F.q):
        spec = f.specialize_t(a)
        if lc.evaluate(a) and spec.gcd(spec.derivative()).is_constant():
            break
    else:
        return None
    # shift so the specialization point is t = 0, where f is spec
    shifted = [c.compose_linear(F.one, a) for c in f.x_coefficients()]
    base = [g for g, _ in factor(spec.monic())[1]]
    if len(base) < 2:
        return None
    P = 2 * f.deg_t() + 1
    fx = _series([c.coeffs for c in shifted], P, F)
    lc = fx[-1:]
    fpx = _mul(fx, _inverse(lc, F), F)  # f made monic over the series ring
    fpx[-1] = _series([[F.one]], P, F)
    lifted = _hensel_multifactor(fpx, base, F)
    r = len(base)
    for size in range(1, r // 2 + 1):
        for subset in combinations(range(r), size):
            if 2 * size == r and 0 not in subset:
                continue
            cand = lc
            for i in subset:
                cand = _mul(cand, lifted[i], F)
            polys = [UnivariatePoly(F, row)
                     for row in F.from_vector(cand).tolist()]
            cont = _content(polys)
            # divide out the content and shift back t -> t - a
            g = BivariatePoly.from_x_coefficients(F, [
                c.exact_div(cont).compose_linear(F.one, F.neg(a))
                for c in polys])
            if 0 < g.total_degree() < f.total_degree():
                if bivar_exact_div(f, g) is not None:
                    return g
    return None


def bivar_exact_div(f: BivariatePoly, g: BivariatePoly):
    """f / g in F[t][x] if the division is exact, else None.

    Kronecker substitution x -> z^D, D above the t-degrees of f and g, maps
    an exact quotient to the quotient of the images, and no coefficient of
    that quotient reaches t^D.  The images can divide when f and g do not, so
    the unpacked quotient is confirmed by multiplying back."""
    F = f.field
    if g.is_zero():
        return None
    D = max(f.deg_t(), g.deg_t(), 0) + 1

    def image(h):
        c = [F.zero] * (D * (h.deg_x() + 1))
        for (i, j), v in h.terms.items():
            c[i + D * j] = v
        return UnivariatePoly(F, c)

    quot, rem = image(f).divmod(image(g))
    if not rem.is_zero():
        return None
    h = BivariatePoly(F, {(e % D, e // D): c
                          for e, c in enumerate(quot.coeffs)})
    return h if g * h == f else None
