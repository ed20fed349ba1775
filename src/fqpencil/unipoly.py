"""Univariate polynomials over a finite field.

Coefficients are field elements (ints, see field.py), stored low degree
first, always trimmed; the zero polynomial has coeffs == [0].  Provides
Euclidean arithmetic, modular powering, Rabin irreducibility, square-free /
distinct degree / equal degree factorization, resultants and discriminants.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import DegreeOutOfRange, InseparableInput, ZeroOrConstant
from .field import prime_factors
from .polycore import FrobCtx, ModCtx, from_array, to_array


class UnivariatePoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        zero = field.zero
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1] == zero:
            coeffs.pop()
        if not coeffs:
            coeffs = [zero]
        self.field = field
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, [field.zero])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    # -- basic queries --------------------------------------------------------

    def degree(self):
        """Degree; -1 for the zero polynomial."""
        if len(self.coeffs) == 1 and self.coeffs[0] == self.field.zero:
            return -1
        return len(self.coeffs) - 1

    def is_zero(self):
        return self.degree() == -1

    def is_constant(self):
        return self.degree() <= 0

    def leading(self):
        return self.coeffs[-1]

    def is_monic(self):
        return self.coeffs[-1] == self.field.one

    def __eq__(self, other):
        return (isinstance(other, UnivariatePoly)
                and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, tuple(self.coeffs)))

    def sort_key(self):
        """Canonical order: by degree, then coefficients high to low."""
        return self.degree(), tuple(reversed(self.coeffs))

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return UnivariatePoly(F, out)

    def __sub__(self, other):
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        zero = F.zero
        out = []
        for i in range(n):
            x = self.coeffs[i] if i < len(self.coeffs) else zero
            y = other.coeffs[i] if i < len(other.coeffs) else zero
            out.append(F.sub(x, y))
        return UnivariatePoly(F, out)

    def __neg__(self):
        F = self.field
        return UnivariatePoly(F, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        F = self.field
        if self.is_zero() or other.is_zero():
            return UnivariatePoly.zero(F)
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):  # one row operation per term of the shorter
            a, b = b, a
        nb, axpy = len(b), F.axpy
        out = [0] * (len(a) + nb - 1)
        for i, c in enumerate(a):
            if c:
                out[i:i + nb] = axpy(c, b, out[i:i + nb])
        return UnivariatePoly(F, out)

    def scale(self, c):
        F = self.field
        if c == F.zero:
            return UnivariatePoly.zero(F)
        return UnivariatePoly(F, [F.mul(c, a) for a in self.coeffs])

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.leading()))

    def divmod(self, other):
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree() < other.degree():
            return UnivariatePoly.zero(F), self
        quot = [0] * (len(self.coeffs) - other.degree())
        rem = _reduce(list(self.coeffs), other.coeffs, F, quot)
        return UnivariatePoly(F, quot), UnivariatePoly(F, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        assert r.is_zero(), "exact_div with nonzero remainder"
        return q

    def gcd(self, other):
        """Monic gcd (zero when both are zero)."""
        F = self.field
        a, b = list(self.coeffs), list(other.coeffs)
        while b[-1]:
            a, b = b, _reduce(a, b, F)
        return UnivariatePoly(F, a).monic()

    def pow_mod(self, e, modulus):
        F = self.field
        result = UnivariatePoly.one(F)
        base = self % modulus
        while e:
            if e & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            e >>= 1
        return result

    def derivative(self):
        F = self.field
        if self.degree() < 1:
            return UnivariatePoly.zero(F)
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(F.scalar(i, self.coeffs[i]))
        return UnivariatePoly(F, out)

    def evaluate(self, x):
        F = self.field
        acc = F.zero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def compose_linear(self, a, b):
        """self(a*x + b) by Horner in the outer variable."""
        F = self.field
        lin = UnivariatePoly(F, [b, a])
        acc = UnivariatePoly.zero(F)
        for c in reversed(self.coeffs):
            acc = acc * lin + UnivariatePoly(F, [c])
        return acc

    def map_coeffs(self, fn, new_field):
        return UnivariatePoly(new_field, [fn(c) for c in self.coeffs])

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        return f"UnivariatePoly({self.field!r}, {self.format()})"

    def format(self, var="x"):
        F = self.field
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            cs = F.format(c)
            if i == 0:
                parts.append(cs)
            else:
                pre = "" if c == F.one else cs + "*"
                parts.append(f"{pre}{var}" + (f"^{i}" if i > 1 else ""))
        return "+".join(parts)


def _reduce(a, b, F, quot=None):
    """Remainder of the coefficient list a by b (trimmed, b nonzero), with
    a consumed.  With quot, a list of len(a) - deg b zeros, the quotient
    is filled in."""
    minus_inv = F.neg(F.inv(b[-1]))
    mul, axpy = F.mul, F.axpy
    for top in range(len(a) - len(b), -1, -1):
        c = a.pop()
        if c:
            c = mul(c, minus_inv)  # minus the quotient coefficient
            if quot is not None:
                quot[top] = F.neg(c)
            # zip in axpy stops before b's leading term
            a[top:] = axpy(c, b, a[top:])
    while len(a) > 1 and not a[-1]:
        a.pop()
    return a or [0]


# ---------------------------------------------------------------------------
# Irreducibility (Rabin) and factorization


def is_irreducible(f: UnivariatePoly) -> bool:
    """A root check, which decides degrees 2 and 3, then from degree 4 on
    Rabin's test (_rabin_batch, exact without a root) on one FrobCtx."""
    F = f.field
    n = f.degree()
    if n <= 0:
        raise ZeroOrConstant("irreducibility is undefined for constants")
    if n == 1:
        return True
    f = f.monic()
    if n <= 3:
        # every proper factorization has a linear factor
        return _root_part(f).is_constant()
    ctx = FrobCtx(to_array(f.coeffs, F), F)
    x = to_array([0, 1], F, n)
    if not _gcd_array((ctx.xq - x) % F.p, f).is_constant():
        return False
    return bool(_rabin_batch(ctx)[0])


def _root_part(f: UnivariatePoly) -> UnivariatePoly:
    """gcd(x^q - x, f): the monic product of the distinct linear factors
    of f."""
    x = UnivariatePoly.x(f.field)
    return (x.pow_mod(f.field.q, f) - x).gcd(f)


def squarefree_part(f: UnivariatePoly) -> UnivariatePoly:
    """Monic product of the distinct irreducible factors of f."""
    out = UnivariatePoly.one(f.field)
    for g, _ in squarefree_decomposition(f.monic()):
        out = out * g
    return out


def squarefree_decomposition(f: UnivariatePoly):
    """Yu's recursive characteristic-p square-free decomposition.

    Returns a list of (g_i, m_i) with f = prod g_i^{m_i} (f monic), the g_i
    pairwise coprime and square-free.
    """
    F = f.field
    p = F.p
    f = f.monic()
    result = []

    def merge(g, m):
        for idx, (h, e) in enumerate(result):
            if e == m:
                result[idx] = (h * g, m)
                return
        result.append((g, m))

    def rec(f, mult):
        if f.is_constant():
            return
        df = f.derivative()
        if df.is_zero():
            # f is a p-th power: take p-th roots of coefficients
            root = _pth_root_poly(f)
            rec(root, mult * p)
            return
        c = f.gcd(df)
        if c.is_constant():
            merge(f, mult)
            return
        w = f.exact_div(c)
        i = 1
        while not w.is_constant():
            y = w.gcd(c)
            fac = w.exact_div(y)
            if not fac.is_constant():
                merge(fac.monic(), mult * i)
            w = y
            c = c.exact_div(y)
            i += 1
        if not c.is_constant():
            rec(c, mult)

    rec(f, 1)
    result.sort(key=lambda gm: (gm[1], gm[0].sort_key()))
    return result


def _pth_root_poly(f: UnivariatePoly) -> UnivariatePoly:
    """g with g^p = f, for f whose exponents are all multiples of p."""
    F = f.field
    p = F.p
    out = []
    for i in range(0, len(f.coeffs), p):
        c = f.coeffs[i]
        # c^{1/p} = c^{p^{k-1}} in F_{p^k}
        out.append(F.pow(c, p ** (F.k - 1)) if F.k > 1 else c)
    return UnivariatePoly(F, out)


# Below this degree factor and roots_in_field run on UnivariatePoly, where
# a FrobCtx or ModCtx costs more than it saves.
_DDF_NUMPY_MIN = 8


def _distinct_degree(f: UnivariatePoly, ctx=None):
    """DDF for square-free monic f: list of (product, degree).

    With ctx, a FrobCtx modulo f, the Frobenius images h_d = x^{q^d} are
    taken modulo the input f, one table product per degree, and never
    recomputed: every gcd runs against the remaining cofactor g, which
    divides f.  Degrees are handled in blocks d..2d-1 (von zur Gathen &
    Shoup): one gcd of g with prod (h_e - x) over the block finds whether
    any of its degrees occur, and only then is the block refined degree by
    degree.  Since the factors of degree < d are gone and the block is
    shorter than 2d, each factor left divides h_e - x for exactly one e in
    the block.  Without ctx (small f) h_d is stepped by powering modulo g.
    """
    F = f.field
    x = UnivariatePoly.x(F)
    out = []
    g = f
    d = 0
    if ctx is None:
        h = x
        while g.degree() >= 2 * (d + 1):
            d += 1
            h = h.pow_mod(F.q, g)
            gd = (h - x).gcd(g)
            if not gd.is_constant():
                out.append((gd, d))
                g = g.exact_div(gd)
                h = h % g
    else:
        h = to_array(x.coeffs, F, ctx.n)
        x_arr = h.copy()
        while g.degree() >= 2 * (d + 1):
            last = min(2 * d + 1, g.degree() // 2)
            diffs = []
            for _ in range(d + 1, last + 1):
                h = ctx.frobenius(h)
                diffs.append((h - x_arr) % F.p)
            prod = diffs[0]
            for diff in diffs[1:]:
                prod = ctx.mulmod(prod, diff)
            block = _gcd_array(prod, g)
            if not block.is_constant():
                g = g.exact_div(block)
            for e, diff in enumerate(diffs, d + 1):
                if block.is_constant():
                    break
                if block.degree() < 2 * e:
                    # a single factor is left: the others have degree >= e
                    out.append((block, block.degree()))
                    break
                gd = block if e == last else _gcd_array(diff, block)
                if not gd.is_constant():
                    out.append((gd, e))
                    block = block.exact_div(gd)
            d = last
    if g.degree() > 0:
        out.append((g, g.degree()))
    return out


def _gcd_array(arr, g: UnivariatePoly) -> UnivariatePoly:
    """Monic gcd of g and the polynomial held in an (n, k, 1) array."""
    return UnivariatePoly(g.field, from_array(arr, g.field)).gcd(g)


def _equal_degree(f: UnivariatePoly, d: int, rng, ctx=None):
    """Split a square-free product of degree-d irreducibles (Cantor/Zassenhaus).

    ctx, when given, is a FrobCtx modulo a multiple of f (the DDF input);
    at d = 1 a ModCtx does, as no Frobenius step is taken.
    For odd q the splitting power a^{(q^d-1)/2} is then formed as b^{1 + q +
    ... + q^{d-1}} with b = a^{(q-1)/2}, the q-powers read off the Frobenius
    table; for q = 2^k the trace a + a^2 + ... + a^{2^{kd-1}} is the sum of
    the q-power images of a + ... + a^{2^{k-1}}.  Residues modulo the
    multiple reduce correctly modulo f inside the gcd.
    """
    F = f.field
    n = f.degree()
    if n == d:
        return [f.monic()]
    q = F.q
    one = UnivariatePoly.one(F)
    while True:
        a = UnivariatePoly(
            F, [rng.randrange(q) for _ in range(n)])
        if a.degree() < 1:
            continue
        if ctx is not None:
            b = to_array(a.coeffs, F, ctx.n)
            if F.p == 2:
                t = b
                for _ in range(F.k - 1):
                    b = ctx.mulmod(b, b)
                    t = t + b
                t %= 2
                acc = t
                for _ in range(d - 1):
                    t = ctx.frobenius(t)
                    acc = acc + t
                g = _gcd_array(acc % 2, f)
            else:
                t = ctx.powmod(b, (q - 1) // 2)
                acc = t
                for _ in range(d - 1):
                    t = ctx.frobenius(t)
                    acc = ctx.mulmod(acc, t)
                acc[0, 0] = (acc[0, 0] - 1) % F.p
                g = _gcd_array(acc, f)
        elif F.p == 2:
            # trace map T(a) = a + a^2 + ... + a^{2^{kd-1}}
            t = UnivariatePoly.zero(F)
            b = a % f
            for _ in range(F.k * d):
                t = (t + b) % f
                b = (b * b) % f
            g = t.gcd(f)
        else:
            g = (a.pow_mod((q ** d - 1) // 2, f) - one).gcd(f)
        if g.is_constant() or g.degree() == n:
            continue
        break
    return (_equal_degree(g, d, rng, ctx)
            + _equal_degree(f.exact_div(g), d, rng, ctx))


def factor(f: UnivariatePoly, seed: int = 0):
    """Full factorization: (unit, [(irreducible monic, multiplicity), ...]).

    Factors are sorted canonically (degree, then coefficients compared from
    the top down), so the output is deterministic regardless of seed.
    """
    F = f.field
    if f.degree() < 1:
        raise ZeroOrConstant("cannot factor a constant polynomial")
    unit = f.leading()
    rng = random.Random(seed ^ 0x5EED)
    factors = []
    for g, mult in squarefree_decomposition(f):
        # FrobCtx raises DegreeOutOfRange past polycore._FROB_TABLE_LIMIT
        ctx = (FrobCtx(to_array(g.coeffs, F), F)
               if g.degree() >= _DDF_NUMPY_MIN else None)
        for prod, d in _distinct_degree(g, ctx):
            for irr in _equal_degree(prod, d, rng, ctx):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: fm[0].sort_key())
    return unit, factors


def roots_in_field(f: UnivariatePoly):
    """Sorted roots of f in its coefficient field (without multiplicity)."""
    F = f.field
    if f.degree() < 1:
        return []
    g = _root_part(f)
    if g.degree() < 1:
        return []
    # g is squarefree with only linear factors; at d = 1 the splitting
    # needs powers modulo g but no Frobenius table
    ctx = (ModCtx(to_array(g.coeffs, F), F)
           if g.degree() >= _DDF_NUMPY_MIN else None)
    lin = _equal_degree(g, 1, random.Random(0x5EED), ctx)
    return sorted(F.neg(irr.coeffs[0]) for irr in lin)


# ---------------------------------------------------------------------------
# Resultants and discriminants


def resultant(f: UnivariatePoly, g: UnivariatePoly):
    """Res(f, g) via the Euclidean polynomial remainder sequence."""
    F = f.field
    if f.is_zero() or g.is_zero():
        return F.zero
    res = F.one
    a, b = f, g
    while b.degree() > 0:
        r = a % b
        da, db = a.degree(), b.degree()
        lc = b.leading()
        dr = r.degree() if not r.is_zero() else -1
        # Res(a,b) = (-1)^{da*db} lc(b)^{da-dr} Res(b, r)
        sign = F.one if (da * db) % 2 == 0 else F.neg(F.one)
        res = F.mul(res, F.mul(sign, F.pow(lc, da - max(dr, 0))))
        if r.is_zero():
            return F.zero
        a, b = b, r
    # b is a nonzero constant
    res = F.mul(res, F.pow(b.coeffs[0], a.degree()))
    return res


def discriminant(f: UnivariatePoly):
    """disc(f) = (-1)^{d(d-1)/2} Res(f, f') / lc(f)."""
    F = f.field
    d = f.degree()
    if d < 1:
        raise ZeroOrConstant("discriminant needs degree >= 1")
    df = f.derivative()
    if df.is_zero():
        raise InseparableInput("derivative vanishes identically")
    r = resultant(f, df)
    r = F.mul(r, F.inv(f.leading()))
    if (d * (d - 1) // 2) % 2 == 1:
        r = F.neg(r)
    return r


# ---------------------------------------------------------------------------
# Batched irreducibility: exhaustive counts, the count kernel, Conrad values


def count_monic_irreducibles(field, n: int) -> int:
    """Number of monic irreducible polynomials of degree n, by enumeration.

    The monic polynomials of degree n are the values t^n + g(t) of the
    curve x + t^n at every g of degree < n, so this is the count kernel,
    counting.substitution_rows, at D = n - 1.  For n <= 6 its
    classification is exact: a rootless survivor f satisfies x^{q^n} = x
    mod f exactly when all its factor degrees divide n, and the only such
    factorizations besides the irreducible one use a single repeated
    degree n/l (any mixed combination of part sizes needs a linear part),
    so the remaining gcd conditions reduce to _rabin_batch's equality
    tests x^{q^{n/l}} != x mod f.  n < 1 and n > 6 raise
    DegreeOutOfRange; the kernel raises ConstraintViolation past
    q = 2^18 and DegreeOutOfRange past (n + 1) k q = 2^24 digits.
    """
    from .counting import substitution_rows
    q = field.q
    if n < 1:
        raise DegreeOutOfRange("degree must be positive")
    if n == 1:
        return q
    if n > 6:
        raise DegreeOutOfRange("exhaustive counting is limited to degree 6")
    terms = {(n, 0): 1, (0, 1): 1}  # the element 1 is 1
    return sum(int(np.count_nonzero(irr))
               for _, _, irr in substitution_rows(terms, field, n - 1))


def _rabin_batch(ctx: FrobCtx):
    """Rabin's test on the batch of monic moduli f of degree n >= 2 held by
    ctx, exact for moduli without a root in the field.

    The Frobenius images x^{q^m} mod f are steps of ctx.  A modulus passes
    the equality tests when x^{q^n} == x mod f and x^{q^{n/l}} != x mod f
    for every prime l | n.  They decide irreducibility when n is a prime
    power, and for rootless f when n <= 6 (count_monic_irreducibles).  At
    a larger n with two prime factors, rootless factor degrees such as
    {6, 4, 2} at n = 12 pass them too, so the survivors are also checked
    for gcd(x^{q^{n/l}} - x, f) = 1 on the same images.  The steps stop
    once no modulus is left.  Returns one bool per modulus.
    """
    F, n = ctx.field, ctx.n
    ells = prime_factors(n)
    stops = {n // ell for ell in ells}
    x = to_array([0, 1], F, n)
    good = np.ones(ctx.B, dtype=bool)
    r, images = ctx.xq, []
    for m in range(1, n + 1):
        if m > 1:
            r = ctx.frobenius(r)
        if m in stops:
            images.append(r)
            good &= ~(r == x).all(axis=(0, 1))
            if not good.any():
                return good
    good &= (r == x).all(axis=(0, 1))
    if n > 6 and len(ells) > 1:
        for j in np.flatnonzero(good):
            f = UnivariatePoly(F, from_array(ctx.modulus[:, :, j:j + 1], F))
            good[j] = all(
                _gcd_array((h[:, :, j:j + 1] - x) % F.p, f).is_constant()
                for h in images)
    return good
