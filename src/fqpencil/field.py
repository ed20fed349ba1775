"""Finite fields F_{p^k} with a canonical modulus.

An element is the Python int c_0 + c_1 p + ... + c_{k-1} p^{k-1} in
0..q-1, where c_0 + c_1 y + ... + c_{k-1} y^{k-1} is its residue modulo
the field's modulus.  So 0 and 1 are zero and one, 0..p-1 is the prime
field, and integer order compares coefficients from the highest power of
y down.  This module is the only one that knows the encoding: to_vector
and from_vector convert to and from coefficient vectors at the edges
(reports, text, the (n, k, B) digit arrays of polycore).

Arithmetic runs on integers mod p for k = 1.  For k > 1 and q up to
_LOG_TABLE_LIMIT it reads log/exp and Zech logarithm tables (Huber, "Some
comments on Zech's logarithms", IEEE Trans. IT 36, 1990), built once with
numpy; GridArith, the array arithmetic of counting's substitution kernel
and of pencil's fiber classifier, reads the same tables, so it refuses
larger extension fields.
Larger fields multiply and invert digit vectors directly.

The modulus is, unless overridden, the lexicographically smallest monic
irreducible of degree k over F_p, coefficients compared from the highest
index down; candidates are tested with unipoly's Rabin test over F_p.
Fields are cached per (p, k) and immutable.

The integer side of a field is here too: is_prime (Miller-Rabin, exact
below 3.3e24), prime_factors (trial division, for q - 1 and polynomial
degrees) and prime_power (q = p^k by exact integer roots, no factoring).
"""

from __future__ import annotations

from array import array
from functools import cached_property, lru_cache

import numpy as np

from .errors import (ConstraintViolation, DegreeOutOfRange, IncompatibleTower,
                     NotPrime)

# Log/exp/Zech tables (28 bytes per element) are built for extension
# fields up to this size; GridArith reads them, so counting's
# substitution kernel refuses larger fields.
_LOG_TABLE_LIMIT = 1 << 18
# Up to this size the tables are lists, which index faster than arrays.
_LIST_TABLE_LIMIT = 1 << 12
# rows per numpy step while the exp table is filled
_TABLE_CHUNK = 1 << 15
# float64 digits (128 MiB) of GridArith.power_columns; counting's
# substitution kernel refuses value-grid rows past it.
_POWER_TABLE_LIMIT = 1 << 24


def _canonical_modulus(p: int, k: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree k over F_p."""
    if k == 1:
        return (0, 1)  # the polynomial "y"
    for idx in range(p ** k):
        digits = []
        m = idx
        for _ in range(k):
            digits.append(m % p)
            m //= p
        # digits[j] is coefficient of y^j with c_{k-1} the most significant
        coeffs = digits + [1]
        if _irreducible_mod_p(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError("no irreducible modulus found")  # pragma: no cover


def _irreducible_mod_p(coeffs, p: int) -> bool:
    """Whether the integer coefficients (low to high) give an irreducible
    polynomial over F_p."""
    from .unipoly import UnivariatePoly, is_irreducible
    return is_irreducible(UnivariatePoly(make_field(p, 1), list(coeffs)))


def _y_poly_str(coeffs) -> str:
    """Text of the polynomial in y with these coefficients, low to high."""
    parts = []
    for j in range(len(coeffs) - 1, -1, -1):
        c = coeffs[j]
        if c == 0:
            continue
        if j == 0:
            parts.append(str(c))
        else:
            pre = "" if c == 1 else str(c) + "*"
            parts.append(f"{pre}y" + (f"^{j}" if j > 1 else ""))
    return "+".join(parts) if parts else "0"


class Field:
    """Immutable descriptor of F_{p^k} together with its arithmetic."""

    __slots__ = (
        "p", "k", "q", "modulus", "zero", "one",
        "add", "sub", "neg", "mul", "inv", "axpy",
        "_red", "_red_np", "_yprod_np", "_places", "_log", "_exp", "_zech",
        "_embed_cache",
    )

    def __init__(self, p: int, k: int, modulus: tuple | None = None):
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if k < 1:
            raise DegreeOutOfRange(f"extension degree k = {k} must be >= 1")
        self.p = p
        self.k = k
        self.q = p ** k
        if modulus is None:
            modulus = _canonical_modulus(p, k)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise DegreeOutOfRange("modulus must be monic of degree k")
            if k > 1 and not _irreducible_mod_p(modulus, p):
                raise DegreeOutOfRange("modulus must be irreducible over F_p")
        self.modulus = modulus
        self.zero = 0
        self.one = 1
        self._embed_cache = {}
        # place values p^j; Python ints once q no longer fits in int64
        self._places = np.array([p ** j for j in range(k)],
                                dtype=np.int64 if self.q < 1 << 62 else object)
        self._log = self._exp = self._zech = None
        self._build_reduction()
        if k == 1:
            self._build_prime_ops()
        elif self.q <= _LOG_TABLE_LIMIT:
            self._build_tables()
            self._build_table_ops()
        else:
            self._build_vector_ops()

    # -- coefficient vectors -------------------------------------------------

    def to_vector(self, e):
        """Coefficients of y^0 .. y^{k-1}: a list for an element, an array
        with a new last axis of length k for an array of elements."""
        p = self.p
        if isinstance(e, np.ndarray):
            e = e.astype(self._places.dtype)
            out = np.empty(e.shape + (self.k,), dtype=e.dtype)
            for j in range(self.k):
                if e.dtype == object:  # numpy has no divmod loop for these
                    e, out[..., j] = e // p, e % p
                else:
                    e, out[..., j] = np.divmod(e, p)
            return out
        out = []
        for _ in range(self.k):
            e, c = divmod(e, p)
            out.append(c)
        return out

    def from_vector(self, v):
        """Element with coefficient vector v; an array of elements when v
        is an array whose last axis has length k."""
        if isinstance(v, np.ndarray):
            return v.astype(self._places.dtype) @ self._places
        e = 0
        for c in reversed(v):
            e = e * self.p + c
        return e

    def format(self, e) -> str:
        """Text of e: the residue itself for k = 1, '(...)' in y otherwise."""
        if self.k == 1:
            return str(e)
        return "(" + _y_poly_str(self.to_vector(e)) + ")"

    # -- construction helpers ------------------------------------------------

    def _build_reduction(self):
        """Representations of y^k .. y^{2k-2} as coefficient vectors.

        _yprod_np[u, v] is the vector of y^{u+v}, so a product of elements
        is sum_{u,v} a_u b_v _yprod_np[u, v].
        """
        p, k = self.p, self.k
        rows = []
        cur = [(-c) % p for c in self.modulus[:k]]  # y^k
        for _ in range(k - 1):
            rows.append(tuple(cur))
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for j in range(k):
                    nxt[j] = (nxt[j] + top * rows[0][j]) % p
            cur = nxt
        self._red = tuple(rows)
        self._red_np = (np.array(rows, dtype=np.int64)
                        if rows else np.zeros((0, k), dtype=np.int64))
        powers = np.concatenate([np.eye(k, dtype=np.int64), self._red_np])
        self._yprod_np = powers[np.add.outer(np.arange(k), np.arange(k))]

    def _mul_raw(self, a: int, b: int) -> int:
        """Product by schoolbook multiplication of the coefficient vectors."""
        p, k = self.p, self.k
        bv = []
        while b:
            b, bj = divmod(b, p)
            bv.append(bj)
        w = [0] * (2 * k - 1)
        i = 0
        while a:
            a, ai = divmod(a, p)
            if ai:
                for j, bj in enumerate(bv, i):
                    w[j] += ai * bj
            i += 1
        red = self._red
        for j in range(2 * k - 2, k - 1, -1):
            c = w[j] % p
            if c:
                row = red[j - k]
                for t in range(k):
                    w[t] += c * row[t]
        out = 0
        for c in reversed(w[:k]):
            out = out * p + c % p
        return out

    def _inv_raw(self, a: int) -> int:
        """Inverse by the extended Euclidean algorithm against the modulus."""
        p, k = self.p, self.k

        def trim(r):
            while r and r[-1] == 0:
                r.pop()
            return r

        r0, r1 = list(self.modulus), trim(self.to_vector(a))
        if not r1:
            raise ZeroDivisionError("inverse of zero field element")
        s0, s1 = [], [1]
        while r1:
            # divmod r0 by r1
            inv = pow(r1[-1], p - 2, p)
            quot = [0] * (len(r0) - len(r1) + 1)
            r = list(r0)
            while r and len(r) >= len(r1):
                c = (r[-1] * inv) % p
                d = len(r) - len(r1)
                quot[d] = c
                for j in range(len(r1)):
                    r[d + j] = (r[d + j] - c * r1[j]) % p
                trim(r)
            # s2 = s0 - quot*s1
            qs = [0] * (len(quot) + len(s1) - 1) if s1 else []
            for i, qi in enumerate(quot):
                if qi:
                    for j, sj in enumerate(s1):
                        qs[i + j] = (qs[i + j] + qi * sj) % p
            s2 = [((s0[i] if i < len(s0) else 0) -
                   (qs[i] if i < len(qs) else 0)) % p
                  for i in range(max(len(s0), len(qs)))]
            r0, r1 = r1, r
            s0, s1 = s1, trim(s2)
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible")
        c = pow(r0[0], p - 2, p)
        return self.from_vector([(x * c) % p for x in s0[:k]])

    def _pow_raw(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._mul_raw(result, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return result

    def _build_prime_ops(self):
        p = self.p

        def inv(a):
            if a == 0:
                raise ZeroDivisionError("inverse of zero field element")
            return pow(a, p - 2, p)

        self.add = lambda a, b: (a + b) % p
        self.sub = lambda a, b: (a - b) % p
        self.neg = lambda a: (-a) % p
        self.mul = lambda a, b: (a * b) % p
        self.inv = inv
        self.axpy = lambda c, xs, ys: [(c * x + y) % p
                                       for x, y in zip(xs, ys)]

    def _build_tables(self):
        """log/exp/Zech tables on a primitive element g, n = q - 1.

        exp[i] = g^(i mod n) for i < 2n and 0 from 2n to 4n; log[0] = 2n,
        so exp[log[a] + log[b]] is the product a b, zero included.
        zech[d] = log(1 + g^(d mod n)) for d < 2n, 2n where 1 + g^d = 0.
        They are filled through numpy views of arrays of C ints.
        """
        q, n, p = self.q, self.q - 1, self.p
        factors = prime_factors(n)
        g = next(c for c in range(1, q)
                 if all(self._pow_raw(c, n // ell) != 1 for ell in factors))
        self._exp = array("i", [0]) * (4 * n + 1)
        exp = np.frombuffer(self._exp, dtype=np.int32)
        exp[0] = 1
        # block [m, 2m) is block [0, m) times g^m, an F_p-linear map
        m = 1
        while m < n:
            gm = self.to_vector(self._mul_raw(int(exp[m - 1]), g))
            mat = np.tensordot(gm, self._yprod_np, axes=(0, 0)) % p
            step = min(m, n - m)
            for s in range(0, step, _TABLE_CHUNK):
                blk = exp[s:min(s + _TABLE_CHUNK, step)]
                exp[m + s:m + s + blk.size] = self.from_vector(
                    self.to_vector(blk) @ mat % p)
            m += step
        exp[n:2 * n] = exp[:n]
        self._log = array("i", [0]) * q
        log = np.frombuffer(self._log, dtype=np.int32)
        log[exp[:n]] = np.arange(n)
        log[0] = 2 * n
        self._zech = array("i", [0]) * (2 * n)
        low = exp[:2 * n] % p  # 1 + x raises the y^0 coefficient only
        np.frombuffer(self._zech, dtype=np.int32)[:] = \
            log[exp[:2 * n] - low + (low + 1) % p]
        if q <= _LIST_TABLE_LIMIT:
            self._log, self._exp, self._zech = (
                t.tolist() for t in (self._log, self._exp, self._zech))

    def _build_table_ops(self):
        log, exp, zech = self._log, self._exp, self._zech
        n = self.q - 1
        n2 = 2 * n
        half = n // 2 if self.p != 2 else 0  # -1 = g^half

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            return exp[la + zech[log[b] - la]]

        def sub(a, b):
            if not b:
                return a
            lb = log[b] + half  # the log of -b
            if not a:
                return exp[lb]
            la = log[a]
            return exp[la + zech[lb - la]]

        def inv(a):
            if not a:
                raise ZeroDivisionError("inverse of zero field element")
            return exp[n - log[a]]

        def axpy(c, xs, ys):
            # lm, the log of c x, is below 2n exactly when c x != 0
            lc = log[c]
            return [(exp[(ly := log[y]) + zech[lm - ly]] if y else exp[lm])
                    if (lm := lc + log[x]) < n2 else y
                    for x, y in zip(xs, ys)]

        self.add, self.sub, self.inv, self.axpy = add, sub, inv, axpy
        self.neg = lambda a: exp[log[a] + half]
        self.mul = lambda a, b: exp[log[a] + log[b]]

    def _build_vector_ops(self):
        p = self.p

        def combine(a, b, s):
            """Coefficient-wise a + s b (s = 1 or -1), digit by digit."""
            out, place = 0, 1
            while a or b:
                a, x = divmod(a, p)
                b, y = divmod(b, p)
                out += (x + s * y) % p * place
                place *= p
            return out

        def add(a, b):
            return combine(a, b, 1)

        self.add = add
        self.sub = lambda a, b: combine(a, b, -1)
        self.neg = lambda a: combine(0, a, -1)
        self.mul, self.inv = self._mul_raw, self._inv_raw
        self.axpy = lambda c, xs, ys: [add(self._mul_raw(c, x), y)
                                       for x, y in zip(xs, ys)]

    # -- element utilities ---------------------------------------------------

    def from_int(self, c: int) -> int:
        """Prime-subfield element c."""
        return c % self.p

    def scalar(self, c: int, a: int) -> int:
        """The integer c times a."""
        return self.mul(c % self.p, a)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if self.k == 1:
            return pow(a, e, self.p)
        if not a:
            return 1 if e == 0 else 0
        n = self.q - 1
        if self._log is not None:
            return self._exp[self._log[a] * e % n]
        return self._pow_raw(a, e % n)

    def is_square(self, a: int) -> bool:
        """Whether a is a square (zero counts as a square)."""
        if not a or self.p == 2:
            return True
        if self._log is not None:
            return self._log[a] % 2 == 0
        return self.pow(a, (self.q - 1) // 2) == 1

    def element_at(self, idx: int) -> int:
        """idx-th element in the canonical total order (idx taken mod q)."""
        return idx % self.q

    def elements(self):
        """All elements in the canonical total order."""
        return range(self.q)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field) and self.p == other.p
                and self.k == other.k and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"Field(p={self.p}, k={self.k}, q={self.q})"

    def modulus_str(self) -> str:
        return "y" if self.k == 1 else _y_poly_str(self.modulus)


def _mod(a, p: int):
    """a mod p, as a - (a // p) p: numpy divides by a scalar with SIMD
    but computes % element by element, many times slower on large arrays."""
    return a - a // p * p


class GridArith:
    """numpy arithmetic on arrays of elements: products and sums by the
    field's log/exp and Zech tables (integers mod p for k = 1), and sums
    of products by dot.

    dot(C, columns(X)) is sum_j C[j, r] X[j, c] over F_q.  It writes the
    products in base-p digits: digit l of the result is the sum over j and
    v of digit l of C[j, r] y^v times digit v of X[j, c], before reduction
    mod p.  So each output digit is one float64 matrix product of inner
    size n k, which numpy hands to BLAS, with no carries; k = 1 is the
    case of one digit.  Every sum is an integer of at most n k (p - 1)^2,
    exact in float64 while that is below 2^53; dot refuses larger n.
    """

    def __init__(self, E):
        """Raises ConstraintViolation for k > 1 past _LOG_TABLE_LIMIT, where
        E has no log tables."""
        self.p, self.k, self.q = E.p, E.k, E.q
        # element arrays whose products mul forms exactly: Python ints once
        # a product of residues mod p could pass int64
        self.dtype = object if (E.p - 1) ** 2 >= 1 << 63 else np.int64
        if E.k > 1:
            if E.q > _LOG_TABLE_LIMIT:
                raise ConstraintViolation(
                    f"arithmetic on arrays of F_{E.q} elements needs "
                    f"q <= {_LOG_TABLE_LIMIT} for k > 1 (log tables)")
            # int64 copies: gathers then index with numpy's native intp
            self.log = np.array(E._log, dtype=np.int64)
            self.exp = np.array(E._exp, dtype=np.int64)
            self.zech = np.array(E._zech, dtype=np.int64)
        self.places = E._places
        self._powers = ()  # the largest power_columns table built

    @cached_property
    def digits(self):
        """digits[l, e]: the coefficient of y^l of e, for k > 1; the
        elements y^v are the place values p^v.  Built at the first dot."""
        return np.stack([np.arange(self.q) // p_l % self.p
                         for p_l in self.places]).astype(np.float64)

    @cached_property
    def _roots(self):
        """_roots[a]: an element whose square is a, -1 where a is no
        square; one entry per element of the field.  Built at the first
        sqrt."""
        z = np.arange(self.q)
        roots = np.full(self.q, -1, dtype=np.int64)
        roots[self.mul(z, z)] = z
        return roots

    def sqrt(self, x):
        """A square root of each element of x, -1 where it has none."""
        return self._roots[x]

    def _digits(self, X):
        """digits[:, X]: a new first axis of length k.  For k = 1 an element
        is its own digit, so no table of size q is built."""
        if self.k == 1:
            return X[None].astype(np.float64)
        return self.digits[:, X]

    def mul(self, x, y):
        if self.k == 1:
            return _mod(x * y, self.p)
        return self.exp[self.log[x] + self.log[y]]

    def add(self, x, y):
        """x + y: for k > 1 g^lx (1 + g^(ly - lx)) by the Zech logarithm,
        where g is the field's primitive element."""
        if self.k == 1:
            return _mod(x + y, self.p)
        lx, ly = self.log[x], self.log[y]
        s = self.exp[lx + self.zech[_mod(ly - lx, self.q - 1)]]
        return np.where(x == 0, y, np.where(y == 0, x, s))

    def inv(self, x):
        """Inverse of nonzero x: x^(p-2) for k = 1, exp[-log x] for k > 1."""
        if self.k > 1:
            return self.exp[self.q - 1 - self.log[x]]
        return self._pow(x, self.p - 2)

    def is_square(self, x):
        """Whether each element of x is a square, zero included, as
        Field.is_square: an even logarithm for k > 1, Euler's criterion
        x^((p-1)/2) = 1 for k = 1."""
        if self.p == 2:
            return np.ones(np.shape(x), dtype=bool)
        if self.k > 1:
            return (x == 0) | (self.log[x] % 2 == 0)
        return (x == 0) | (self._pow(x, (self.p - 1) // 2) == 1)

    def _pow(self, x, e):
        """x^e for k = 1, by square and multiply."""
        out = np.ones_like(x)
        while e:
            if e & 1:
                out = _mod(out * x, self.p)
            x, e = _mod(x * x, self.p), e >> 1
        return out

    def power_columns(self, n):
        """columns() of the powers z^e, e <= n, of every element z; raises
        DegreeOutOfRange past _POWER_TABLE_LIMIT digits.  The largest table
        built is kept, and a call for fewer powers returns its first rows."""
        if n < len(self._powers):
            return self._powers[: n + 1]
        if (n + 1) * self.k * self.q > _POWER_TABLE_LIMIT:
            raise DegreeOutOfRange(
                f"powers up to {n} of every element of F_{self.q} pass "
                f"{_POWER_TABLE_LIMIT} digits")
        elems = np.arange(self.q)
        powers = [np.ones(self.q, dtype=np.int64)]  # index 1 is the element 1
        for _ in range(n):
            powers.append(self.mul(powers[-1], elems))
        self._powers = self.columns(np.array(powers))
        return self._powers

    def columns(self, X):
        """The right-hand side of dot for the (n, Q) element array X: an
        (n, k, Q) float64 array, digit v of X[j, c] at [j, v, c]."""
        return np.ascontiguousarray(np.moveaxis(self._digits(X), 0, 1))

    def dot(self, C, cols, zero=False):
        """sum_j C[j, r] X[j, c] over F_q, an (R, Q) element array, for the
        (n, R) element array C and cols = columns(X) of shape (n, k, Q);
        with zero=True, the boolean mask of its zero entries."""
        n, k, Q = cols.shape
        p = self.p
        if n * k * (p - 1) ** 2 >= 1 << 53:
            raise ConstraintViolation(
                f"a sum of {n * k} digit products over F_{p} can reach "
                f"2^53, past exact float64")
        R = C.shape[1]
        # lhs[(l, r), (j, v)]: digit l of C[j, r] y^v
        lhs = self._digits(self.mul(C[:, None], self.places[:, None]))
        lhs = lhs.transpose(0, 3, 1, 2).reshape(k * R, n * k)
        S = (lhs @ cols.reshape(n * k, Q)).reshape(k, R, Q)
        # the multiple of p below S: floor of a correctly rounded S / p is
        # exact for integers S < 2^53
        m = S / p
        np.floor(m, out=m)
        m *= p
        if zero:
            return (S == m).all(axis=0)
        S -= m
        del m  # so that the output below can take its memory
        out = S[-1]  # the digits in base p, from the highest down
        for l in range(k - 2, -1, -1):
            out *= p
            out += S[l]
        return out.astype(np.int64)


@lru_cache(maxsize=None)
def _field_cached(p: int, k: int) -> Field:
    return Field(p, k)


def make_field(p: int, k: int, modulus: tuple | None = None) -> Field:
    """Canonical F_{p^k}; cached per (p, k) unless a modulus is supplied."""
    if modulus is not None:
        return Field(p, k, modulus)
    return _field_cached(p, k)


# The first 13 primes, and psi_13, the least strong pseudoprime to all of
# them (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017): below it the Miller-Rabin test on these bases
# decides primality.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether the integer n is prime.

    Strong Miller-Rabin on _MR_BASES, deterministic for n < _MR_LIMIT;
    from there sympy.isprime, imported only then.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        import sympy
        return bool(sympy.isprime(n))
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s m, m odd
    m = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, m, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    ell = 2
    while ell * ell <= n:
        if n % ell == 0:
            out.append(ell)
            while n % ell == 0:
                n //= ell
        ell += 1 if ell == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> tuple:
    """(p, k) with q = p^k; raises NotPrime unless q is a prime power."""
    if q >= 2:
        for k in range(q.bit_length(), 0, -1):
            r = _iroot(q, k)
            if r ** k == q and is_prime(r):
                return r, k
    raise NotPrime(f"q = {q} is not a prime power")


def field_of_order(q: int) -> Field:
    """Factor q into p^k and return the canonical field."""
    return make_field(*prime_power(q))


def embed(src: Field, dst: Field, e: int) -> int:
    """Ring-homomorphic image of e under the canonical embedding.

    Sends the source generator to the smallest root of the source modulus
    in dst; fixes the prime field.
    """
    if src.p != dst.p:
        raise IncompatibleTower("different characteristics")
    if dst.k % src.k != 0:
        raise IncompatibleTower(f"{src.k} does not divide {dst.k}")
    if src.k == 1 or (src.k == dst.k and src.modulus == dst.modulus):
        return e
    pows = _embedding_powers(src, dst)
    acc = 0
    for c, pw in zip(src.to_vector(e), pows):
        if c:
            acc = dst.add(acc, dst.scalar(c, pw))
    return acc


def _embedding_powers(src: Field, dst: Field):
    key = (dst.p, dst.k, dst.modulus)
    cached = src._embed_cache.get(key)
    if cached is not None:
        return cached
    from .unipoly import UnivariatePoly, roots_in_field
    roots = roots_in_field(UnivariatePoly(dst, list(src.modulus)))
    if not roots:
        raise IncompatibleTower("source modulus has no root in target field")
    pows = [1]
    for _ in range(src.k - 1):
        pows.append(dst.mul(pows[-1], roots[0]))
    pows = tuple(pows)
    src._embed_cache[key] = pows
    return pows
