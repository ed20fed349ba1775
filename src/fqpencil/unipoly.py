"""Univariate polynomials over a finite field.

Coefficients are field elements (ints, see field.py), stored low degree
first, always trimmed; the zero polynomial has coeffs == [0].  Provides
Euclidean arithmetic, modular powering, Rabin irreducibility, square-free /
distinct degree / equal degree factorization, resultants and discriminants.
"""

from __future__ import annotations

import random

import numpy as np
import sympy

from .errors import DegreeOutOfRange, InseparableInput, ZeroOrConstant
from .field import _LOG_TABLE_LIMIT, GridArith
from .polycore import FrobCtx, _count_dtype, from_array, to_array


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

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(c) for c in ints])

    @classmethod
    def monomial(cls, field, deg, coeff=None):
        c = field.one if coeff is None else coeff
        return cls(field, [field.zero] * deg + [c])

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

    def shift(self, n):
        """Multiply by x^n."""
        if self.is_zero():
            return self
        return UnivariatePoly(self.field, [self.field.zero] * n + self.coeffs)

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

    def __floordiv__(self, other):
        return self.divmod(other)[0]

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
    """Rabin's test: x^{q^n} == x mod f and gcd(x^{q^{n/l}} - x, f) = 1."""
    F = f.field
    n = f.degree()
    if n <= 0:
        raise ZeroOrConstant("irreducibility is undefined for constants")
    if n == 1:
        return True
    f = f.monic()
    x = UnivariatePoly.x(F)
    if n <= 3:
        # every proper factorization has a linear factor
        return (x.pow_mod(F.q, f) - x).gcd(f).is_constant()
    ctx = _frob_ctx(f, min_degree=4)
    if ctx is None:  # the table's sums could pass int64
        return (f.gcd(f.derivative()).is_constant()
                and _distinct_degree(f) == [(f, n)])
    # one table product per Frobenius step x^{q^i} mod f
    stops = {n // ell for ell in sympy.primefactors(n)}
    h = x_arr = to_array(x.coeffs, F, n)
    for i in range(1, n + 1):
        h = ctx.frobenius(h)
        if i in stops and not _gcd_array((h - x_arr) % F.p, f).is_constant():
            return False
    return bool((h == x_arr).all())


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


_DDF_NUMPY_MIN = 8


def _frob_ctx(f: UnivariatePoly, min_degree=_DDF_NUMPY_MIN):
    """Frobenius table modulo monic f, or None when f is too small for it.

    Also None when a sum of residue products could pass int64 (p from
    about 2^31 on, polycore._count_dtype), since the numpy kernels would
    wrap silently.  FrobCtx raises DegreeOutOfRange, before any table is
    allocated, past n k = polycore._FROB_TABLE_LIMIT.
    """
    F, n = f.field, f.degree()
    if n < min_degree or _count_dtype(F, n) is None:
        return None
    return FrobCtx(to_array(f.coeffs, F), F)


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

    ctx, when given, is a FrobCtx modulo a multiple of f (the DDF input).
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
        ctx = _frob_ctx(g)
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
    x = UnivariatePoly.x(F)
    g = x.pow_mod(F.q, f) - x
    g = g.gcd(f)
    if g.degree() < 1:
        return []
    roots = []
    _, facs = factor(g)
    for irr, _ in facs:
        if irr.degree() == 1:
            roots.append(F.neg(irr.coeffs[0]))
    roots.sort()
    return roots


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

# Entries (n k)^2 B of the Frobenius tables of one _rabin_batch call on B
# moduli of degree n: 2 to 8 MiB, as the integer type goes.
_RABIN_BATCH = 1 << 20


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
    tests x^{q^{n/l}} != x mod f.  Fields past q = 2^18 raise
    DegreeOutOfRange.
    """
    from .counting import substitution_rows
    q = field.q
    if n < 1:
        raise DegreeOutOfRange("degree must be positive")
    if n == 1:
        return q
    if n > 6:
        raise DegreeOutOfRange("exhaustive counting is limited to degree 6")
    if q > _LOG_TABLE_LIMIT:
        raise DegreeOutOfRange("field too large for exhaustive counting")
    terms = {(n, 0): 1, (0, 1): 1}  # the element 1 is 1
    return sum(int(np.count_nonzero(irr))
               for _, _, irr in substitution_rows(terms, field, n - 1))


def _irreducible_mask(c, has_root, E, ar: GridArith):
    """(deg, irr) of a batch of polynomials over E: c[m] is the element
    array of their x^m coefficients, has_root marks those with a root in E.

    deg is 0 for constants and for zero, and irr marks the irreducible
    ones.  A linear polynomial is irreducible; one of degree n >= 2 with a
    root is not, and a rootless one of degree 2 or 3 is.  The rootless
    ones of degree n >= 4 are made monic and tested with _rabin_batch, one
    call per n and chunk of _RABIN_BATCH table entries.  That test is
    exact when n is a prime power, and with no root for n <= 6
    (count_monic_irreducibles); the polynomials that pass it at larger n
    are confirmed one by one.  Past n k = polycore._FROB_TABLE_LIMIT the
    first chunk's FrobCtx raises DegreeOutOfRange before any table is
    allocated.
    """
    nonzero = c != 0
    deg = (c.shape[0] - 1 - np.argmax(nonzero[::-1], axis=0)) * nonzero.any(0)
    irr = deg == 1
    rootless = ~has_root
    for n in range(2, c.shape[0]):
        idx = np.flatnonzero((deg == n) & rootless)
        if n > 3 and idx.size:
            confirm = n > 6 and len(sympy.primefactors(n)) > 1
            step = max(1, _RABIN_BATCH // (n * E.k) ** 2)
            passed = []
            for start in range(0, idx.size, step):
                part = idx[start:start + step]
                cn = c[:n + 1, part]
                good = _rabin_batch(
                    to_array(ar.mul(cn[:n], ar.inv(cn[n])), E), E)
                if confirm:
                    for j in np.flatnonzero(good):
                        good[j] = is_irreducible(
                            UnivariatePoly(E, cn[:, j].tolist()))
                passed.append(part[good])
            idx = np.concatenate(passed)
        irr[idx] = True
    return deg, irr


def _rabin_batch(low, field):
    """Rabin's equality tests on a batch of monic moduli of degree n >= 2.

    low is an (n, k, B) polycore array: the coefficients of x^0 .. x^{n-1}
    of each of the B moduli f, the leading 1 left out.  The iterated
    Frobenius images x^{q^m} mod f are steps of one FrobCtx on the batch.
    Returns, per modulus, x^{q^n} == x mod f and x^{q^{n/l}} != x mod f
    for every prime l | n: irreducibility when n is a prime power, while
    factor degrees such as {3, 2, 1} at n = 6 pass too.
    """
    n, k, size = low.shape
    one = np.broadcast_to(to_array([1], field), (1, k, size))
    ctx = FrobCtx(np.concatenate([low, one]), field)
    x = to_array([0, 1], field, n)
    r, fixed = ctx.xq, {}
    for m in range(1, n + 1):
        if m > 1:
            r = ctx.frobenius(r)
        if n % m == 0:
            fixed[m] = (r == x).all(axis=(0, 1))
    good = fixed[n]
    for ell in sympy.primefactors(n):
        good &= ~fixed[n // ell]
    return good
