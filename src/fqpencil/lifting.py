"""Bivariate irreducibility certificates.

The decision procedure, in order:
  1. reject nontrivial content in either variable (explicit factor);
  2. scan specializations of either variable over F_{q^m}, m = 1..3 — a
     full-degree irreducible specialization certifies irreducibility;
  3. attempt an explicit factor by power-series Hensel lifting from a
     squarefree full-degree specialization at a base-field point, to
     precision 2d^2, with subset recombination and exact-division check;
  4. Inconclusive if neither side lands.

Lifting only uses base-field specialization points: a factorization found
over an extension would not witness reducibility over the base field.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bivar import BivariatePoly
from .errors import ZeroOrConstant
from .polycore import from_array, poly_mul, to_array
from .unipoly import UnivariatePoly, factor, is_irreducible


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
        uni = (UnivariatePoly(F, [f.terms.get((i, 0), F.zero)
                                  for i in range(f.deg_t() + 1)])
               if var == "t" else
               UnivariatePoly(F, [f.terms.get((0, j), F.zero)
                                  for j in range(f.deg_x() + 1)]))
        _, facs = factor(uni)
        if len(facs) == 1 and facs[0][1] == 1:
            return IrreducibilityCertificate(
                "irreducible",
                witness={"kind": "univariate", "variable": var})
        g = facs[0][0]
        terms = {((i, 0) if var == "t" else (0, i)): c
                 for i, c in enumerate(g.coeffs)}
        return IrreducibilityCertificate(
            "reducible", factor=BivariatePoly(F, terms))

    # Content in either variable is an explicit factor.
    for transposed in (False, True):
        g = f.transpose() if transposed else f
        coeffs = g.x_coefficients()
        cont = coeffs[0]
        for c in coeffs[1:]:
            cont = cont.gcd(c)
            if cont.is_constant():
                break
        if cont.degree() >= 1:
            terms = {(i, 0): c for i, c in enumerate(cont.coeffs)}
            fac = BivariatePoly(F, terms)
            return IrreducibilityCertificate(
                "reducible", factor=fac.transpose() if transposed else fac)

    # Specialization scan over F_{q^m}, m = 1..3.
    for m in (1, 2, 3):
        from .field import make_field
        E = make_field(F.p, F.k * m)
        fE = f.map_to(E)
        for transposed in (False, True):
            g = fE.transpose() if transposed else fE
            dmain = g.deg_x()
            for a in range(E.q):
                spec = g.specialize_t(a)
                if spec.degree() != dmain:
                    continue
                if is_irreducible(spec):
                    return IrreducibilityCertificate(
                        "irreducible",
                        witness={
                            "kind": "specialization",
                            "variable": "x" if transposed else "t",
                            "extension": m,
                            "value": E.to_vector(a),
                            "specialized": spec.format(),
                        })

    # Hensel-lifting factor search, both orientations.
    for transposed in (False, True):
        g = f.transpose() if transposed else f
        fac = _lift_factor(g)
        if fac is not None:
            fac = fac.transpose() if transposed else fac
            return IrreducibilityCertificate("reducible", factor=fac)

    return IrreducibilityCertificate("inconclusive")


# ---------------------------------------------------------------------------
# Series-polynomial layer: a truncated power series in t is a packed
# polycore array; a polynomial in x over the series ring is a list of them.


class _Series:
    """Truncated power-series arithmetic over a fixed field, precision P."""

    def __init__(self, field, P):
        self.F = field
        self.P = P
        self.zero = to_array([0], field)
        self.one = to_array([1], field)

    def of_poly(self, poly: UnivariatePoly):
        return to_array(poly.coeffs[: self.P], self.F)

    def to_poly(self, arr):
        return UnivariatePoly(self.F, from_array(arr, self.F))

    def mul(self, a, b):
        return poly_mul(a, b, self.F)[: self.P]

    def add(self, a, b):
        n = max(a.shape[0], b.shape[0])
        out = np.zeros((n, self.F.k), dtype=np.int64)
        out[: a.shape[0]] += a
        out[: b.shape[0]] += b
        return out % self.F.p

    def sub(self, a, b):
        n = max(a.shape[0], b.shape[0])
        out = np.zeros((n, self.F.k), dtype=np.int64)
        out[: a.shape[0]] += a
        out[: b.shape[0]] -= b
        return out % self.F.p

    def neg(self, a):
        return (-a) % self.F.p

    def is_zero(self, a):
        return not a.any()

    def inverse(self, a):
        """Inverse of a series with invertible constant term (Newton)."""
        v = to_array([self.F.inv(from_array(a[:1], self.F)[0])], self.F)
        prec = 1
        while prec < self.P:
            prec *= 2
            av = poly_mul(a[:prec], v, self.F)[:prec]
            two_minus = self.sub(to_array([self.F.from_int(2)], self.F), av)
            v = poly_mul(v, two_minus, self.F)[:prec]
        return v[: self.P]


# polynomials in x over the series ring: list of arrays, low x-degree first


def _px_trim(A, S):
    while len(A) > 1 and S.is_zero(A[-1]):
        A.pop()
    return A


def _px_add(A, B, S):
    out = []
    for i in range(max(len(A), len(B))):
        if i < len(A) and i < len(B):
            out.append(S.add(A[i], B[i]))
        else:
            out.append((A[i] if i < len(A) else B[i]).copy())
    return _px_trim(out, S)


def _px_sub(A, B, S):
    return _px_add(A, [S.neg(b) for b in B], S)


def _px_mul(A, B, S):
    out = [S.zero.copy() for _ in range(len(A) + len(B) - 1)]
    for i, a in enumerate(A):
        if S.is_zero(a):
            continue
        for j, b in enumerate(B):
            if not S.is_zero(b):
                out[i + j] = S.add(out[i + j], S.mul(a, b))
    return _px_trim(out, S)


def _px_divmod(A, B, S):
    """Division by B with unit leading series coefficient."""
    lb = len(B) - 1
    inv_lc = S.inverse(B[-1])
    rem = [a.copy() for a in A]
    if len(rem) - 1 < lb:
        return [S.zero.copy()], _px_trim(rem, S)
    quot = [S.zero.copy() for _ in range(len(rem) - lb)]
    for i in range(len(rem) - 1, lb - 1, -1):
        if S.is_zero(rem[i]):
            continue
        c = S.mul(rem[i], inv_lc)
        quot[i - lb] = c
        for j in range(lb + 1):
            rem[i - lb + j] = S.sub(rem[i - lb + j], S.mul(c, B[j]))
    return _px_trim(quot, S), _px_trim(rem[:lb] or [S.zero.copy()], S)


def _px_of_unipoly(p: UnivariatePoly, S):
    """Constant-in-t polynomial in x from a univariate poly in x."""
    return _px_trim([to_array([c], S.F) for c in p.coeffs], S)


def _hensel_pair(fpx, g0, h0, s0, u0, S):
    """Lift f = g*h with s*g + u*h = 1 from precision 1 to S.P (quadratic)."""
    g, h = _px_of_unipoly(g0, S), _px_of_unipoly(h0, S)
    s, u = _px_of_unipoly(s0, S), _px_of_unipoly(u0, S)
    prec = 1
    while prec < S.P:
        prec *= 2
        e = _px_sub(fpx, _px_mul(g, h, S), S)
        q, r = _px_divmod(_px_mul(s, e, S), h, S)
        g = _px_add(g, _px_add(_px_mul(u, e, S), _px_mul(q, g, S), S), S)
        h = _px_add(h, r, S)
        b = _px_sub(_px_add(_px_mul(s, g, S), _px_mul(u, h, S), S),
                    [S.one.copy()], S)
        cq, dr = _px_divmod(_px_mul(s, b, S), h, S)
        s = _px_sub(s, dr, S)
        u = _px_sub(u, _px_add(_px_mul(u, b, S), _px_mul(cq, g, S), S), S)
    return g, h


def _hensel_multifactor(fpx, factors, S):
    """Lift the coprime monic factors of f(0, x) to series precision S.P."""
    if len(factors) == 1:
        return [fpx]
    half = len(factors) // 2
    g0 = factors[0]
    for p in factors[1:half]:
        g0 = g0 * p
    h0 = factors[half]
    for p in factors[half + 1:]:
        h0 = h0 * p
    gcd, s0, u0 = xgcd(g0, h0)
    assert gcd.is_constant() and not gcd.is_zero()
    c = gcd.field.inv(gcd.coeffs[0])
    s0, u0 = s0.scale(c), u0.scale(c)
    G, H = _hensel_pair(fpx, g0, h0, s0, u0, S)
    return (_hensel_multifactor(G, factors[:half], S)
            + _hensel_multifactor(H, factors[half:], S))


def xgcd(a: UnivariatePoly, b: UnivariatePoly):
    """(g, s, u) with s*a + u*b = g."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = UnivariatePoly.one(F), UnivariatePoly.zero(F)
    u0, u1 = UnivariatePoly.zero(F), UnivariatePoly.one(F)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    return r0, s0, u0


def _lift_factor(f: BivariatePoly):
    """Explicit bivariate factor of f (main variable x) via Hensel lifting
    from a base-field specialization, or None."""
    F = f.field
    d = f.total_degree()
    dx = f.deg_x()
    P = 2 * d * d
    coeffs = f.x_coefficients()
    lc = coeffs[dx]
    for a in range(F.q):
        if lc.evaluate(a) == F.zero:
            continue
        spec = f.specialize_t(a)
        if not spec.gcd(spec.derivative()).is_constant():
            continue
        return _lift_at(f, a, P)
    return None


def _lift_at(f: BivariatePoly, a, P):
    F = f.field
    dx = f.deg_x()
    # shift so the specialization point is t = 0
    shifted = [c.compose_linear(F.one, a) for c in f.x_coefficients()]
    S = _Series(F, P)
    c_series = S.of_poly(shifted[dx])
    c_inv = S.inverse(c_series)
    # monic version of f over the series ring
    fpx = [S.mul(S.of_poly(c), c_inv) for c in shifted]
    fpx[-1] = S.one.copy()
    spec0 = UnivariatePoly(F, [c.coeffs[0] for c in shifted]).monic()
    _, facs = factor(spec0)
    base = [g for g, _ in facs]
    if len(base) < 2:
        return None
    lifted = _hensel_multifactor(fpx, base, S)
    neg_a = F.neg(a)
    dt = f.deg_t()
    r = len(base)
    for size in range(1, r // 2 + 1):
        for subset in combinations(range(r), size):
            if 2 * size == r and 0 not in subset:
                continue
            cand = [c_series]
            for i in subset:
                cand = _px_mul(cand, lifted[i], S)
            # a true factor times the leading coefficient has t-degree
            # at most 2*deg_t(f) < P; reject overflowing candidates quickly
            bound = 2 * dt
            if any(arr.shape[0] > bound + 1 and arr[bound + 1:].any()
                   for arr in cand):
                continue
            polys = [S.to_poly(arr) for arr in cand]
            cont = polys[0]
            for ppoly in polys[1:]:
                cont = cont.gcd(ppoly)
                if cont.is_constant():
                    break
            if not cont.is_constant():
                polys = [ppoly.exact_div(cont) for ppoly in polys]
            # shift back t -> t - a
            polys = [ppoly.compose_linear(F.one, neg_a) for ppoly in polys]
            g = BivariatePoly.from_x_coefficients(F, polys)
            if 0 < g.total_degree() < f.total_degree():
                if bivar_exact_div(f, g) is not None:
                    return g
    return None


def bivar_exact_div(f: BivariatePoly, g: BivariatePoly):
    """f / g in F[t][x] if the division is exact, else None."""
    F = f.field
    fc = f.x_coefficients()
    gc = g.x_coefficients()
    dg = g.deg_x()
    if dg < 0:
        return None
    if dg == 0:
        # divide every coefficient by the univariate g
        out = []
        for c in fc:
            q, r = c.divmod(gc[0])
            if not r.is_zero():
                return None
            out.append(q)
        return BivariatePoly.from_x_coefficients(F, out)
    rem = [UnivariatePoly(F, c.coeffs) for c in fc]
    dquot = len(rem) - 1 - dg
    if dquot < 0:
        return None
    quot = [UnivariatePoly.zero(F)] * (dquot + 1)
    glc = gc[dg]
    for i in range(len(rem) - 1, dg - 1, -1):
        if rem[i].is_zero():
            continue
        q, r = rem[i].divmod(glc)
        if not r.is_zero():
            return None
        if i - dg > dquot:
            return None
        quot[i - dg] = q
        for j in range(dg + 1):
            rem[i - dg + j] = rem[i - dg + j] - q * gc[j]
    if any(not rem[i].is_zero() for i in range(dg)):
        return None
    return BivariatePoly.from_x_coefficients(F, quot)
