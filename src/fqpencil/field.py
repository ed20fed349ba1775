"""Finite fields F_{p^k} with a canonical modulus.

Elements are length-k tuples of residues mod p (low power of the generator
first).  The modulus is, unless overridden, the lexicographically smallest
monic irreducible of degree k over F_p, coefficients compared from the
highest index down; candidates are tested with unipoly's Rabin test
over F_p.  Fields are cached per (p, k) and immutable.
"""

from __future__ import annotations

from functools import lru_cache

import sympy

from .errors import DegreeOutOfRange, IncompatibleTower, NotPrime

# Multiplication log tables are built for extension fields up to this size;
# they make scalar element arithmetic roughly an order of magnitude faster.
_LOG_TABLE_LIMIT = 1 << 17
_PAIR_TABLE_LIMIT = 128

Element = tuple


def element_key(e: Element) -> tuple:
    """Total-order key: compare coefficient tuples from highest index down."""
    return tuple(reversed(e))


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
    Fp = make_field(p, 1)
    return is_irreducible(UnivariatePoly(Fp, [(c,) for c in coeffs]))


class Field:
    """Immutable descriptor of F_{p^k} together with its arithmetic."""

    __slots__ = (
        "p", "k", "q", "modulus", "zero", "one",
        "add", "sub", "neg", "mul", "inv", "scalar",
        "_red", "_red_np", "_yprod_np", "_pows", "_log", "_exp",
        "_embed_cache", "_idx_add", "_idx_mul", "_idx_sub", "_idx_inv",
        "_idx_of", "_idx_elem", "_np_log_exp",
    )

    def __init__(self, p: int, k: int, modulus: tuple | None = None):
        if p < 2 or not sympy.isprime(p):
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
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self._embed_cache = {}
        self._np_log_exp = None
        self._build_reduction()
        self._build_ops()

    # -- construction helpers ------------------------------------------------

    def _build_reduction(self):
        """Representations of y^k .. y^{2k-2} as elements (for conv folding).

        _yprod_np[u, v] is the element y^{u+v}, so a product of elements is
        sum_{u,v} a_u b_v _yprod_np[u, v].
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
        import numpy as np
        self._red_np = (np.array(rows, dtype=np.int64)
                        if rows else np.zeros((0, k), dtype=np.int64))
        powers = np.concatenate([np.eye(k, dtype=np.int64), self._red_np])
        self._yprod_np = powers[np.add.outer(np.arange(k), np.arange(k))]

    def _mul_raw(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return ((a[0] * b[0]) % p,)
        w = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    w[i + j] += ai * bj
        red = self._red
        for j in range(2 * k - 2, k - 1, -1):
            c = w[j] % p
            if c:
                row = red[j - k]
                for t in range(k):
                    w[t] += c * row[t]
        return tuple(v % p for v in w[:k])

    def _inv_raw(self, a):
        p, k = self.p, self.k
        if k == 1:
            if a[0] == 0:
                raise ZeroDivisionError("inverse of zero field element")
            return (pow(a[0], p - 2, p),)

        def trim(r):
            while r and r[-1] == 0:
                r.pop()
            return r

        # extended Euclid against the modulus, over F_p
        r0, r1 = list(self.modulus), trim(list(a))
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
        out = [(x * c) % p for x in s0]
        out += [0] * (k - len(out))
        return tuple(out[:k])

    def _build_ops(self):
        p, k, q = self.p, self.k, self.q
        self._idx_mul = None
        if k == 1:
            self.add = lambda a, b: ((a[0] + b[0]) % p,)
            self.sub = lambda a, b: ((a[0] - b[0]) % p,)
            self.neg = lambda a: ((-a[0]) % p,)
            def inv_prime(a):
                if a[0] % p == 0:
                    raise ZeroDivisionError("inverse of zero field element")
                return (pow(a[0], p - 2, p),)

            self.mul = lambda a, b: ((a[0] * b[0]) % p,)
            self.inv = inv_prime
            self.scalar = lambda c, a: (((c % p) * a[0]) % p,)
            self._log = self._exp = None
            if q <= _PAIR_TABLE_LIMIT:
                self._build_idx_tables()
            return

        def add(a, b):
            return tuple((x + y) % p for x, y in zip(a, b))

        def sub(a, b):
            return tuple((x - y) % p for x, y in zip(a, b))

        def neg(a):
            return tuple((-x) % p for x in a)

        def scalar(c, a):
            c %= p
            return tuple((c * x) % p for x in a)

        self.add, self.sub, self.neg, self.scalar = add, sub, neg, scalar

        if q <= _PAIR_TABLE_LIMIT:
            self._build_log_tables()
            elems = [self.element_at(i) for i in range(q)]
            add_t = {(a, b): add(a, b) for a in elems for b in elems}
            sub_t = {(a, b): sub(a, b) for a in elems for b in elems}
            mul_t = {(a, b): self._mul_raw(a, b) for a in elems for b in elems}
            inv_t = {a: self._inv_raw(a) for a in elems if a != self.zero}

            def inv_lookup(a):
                try:
                    return inv_t[a]
                except KeyError:
                    raise ZeroDivisionError("inverse of zero field element")

            self.add = lambda a, b: add_t[a, b]
            self.sub = lambda a, b: sub_t[a, b]
            self.mul = lambda a, b: mul_t[a, b]
            self.inv = inv_lookup
            self._build_idx_tables()
            return

        if q <= _LOG_TABLE_LIMIT:
            self._build_log_tables()
            log, exp, zero = self._log, self._exp, self.zero
            order = q - 1

            def mul(a, b):
                la = log.get(a)
                if la is None:
                    return zero
                lb = log.get(b)
                if lb is None:
                    return zero
                return exp[(la + lb) % order]

            def inv(a):
                la = log.get(a)
                if la is None:
                    raise ZeroDivisionError("inverse of zero field element")
                return exp[(-la) % order]

            self.mul, self.inv = mul, inv
        else:
            self._log = self._exp = None
            self.mul = self._mul_raw
            self.inv = self._inv_raw

    def _build_idx_tables(self):
        """Integer lookup tables for fast small-field kernels.

        _idx_add[i][j] / _idx_mul[i][j] / _idx_sub[i][j] give the index of
        the sum, product or difference of the elements with indices i and j;
        _idx_inv[i] the index of the inverse.
        """
        q = self.q
        elems = [self.element_at(i) for i in range(q)]
        idx_of = {e: i for i, e in enumerate(elems)}
        self._idx_add, self._idx_mul, self._idx_sub = (
            [[idx_of[op(a, b)] for b in elems] for a in elems]
            for op in (self.add, self.mul, self.sub))
        inv = [0] * q
        for i, a in enumerate(elems):
            if i:
                inv[i] = idx_of[self.inv(a)]
        self._idx_elem = elems
        self._idx_of = idx_of
        self._idx_inv = inv

    def _build_log_tables(self):
        q = self.q
        gen = None
        factors = sympy.primefactors(q - 1)
        for idx in range(1, q):
            cand = self.element_at(idx)
            if all(self._pow_raw(cand, (q - 1) // ell) != self.one
                   for ell in factors):
                gen = cand
                break
        exp = [self.one]
        cur = self.one
        for _ in range(q - 2):
            cur = self._mul_raw(cur, gen)
            exp.append(cur)
        self._exp = exp
        self._log = {e: i for i, e in enumerate(exp)}

    def log_exp_arrays(self):
        """numpy (log, exp) arrays over canonical indices; needs log tables.

        Built on first use.  log[0] is 2(q-1) and exp has 4(q-1) + 1
        entries, zero from 2(q-1) on, so exp[log[i] + log[j]] is the index
        of the product of the elements with indices i and j, zero included.
        """
        if self._np_log_exp is None:
            import numpy as np
            n = self.q - 1
            exp = np.zeros(4 * n + 1, dtype=np.int64)
            exp[:n] = np.array(self._exp) @ (self.p ** np.arange(self.k))
            exp[n:2 * n] = exp[:n]
            log = np.empty(self.q, dtype=np.int64)
            log[exp[:n]] = np.arange(n)
            log[0] = 2 * n
            self._np_log_exp = (log, exp)
        return self._np_log_exp

    def _pow_raw(self, a, e):
        result = self.one
        b = a
        while e:
            if e & 1:
                result = self._mul_raw(result, b)
            b = self._mul_raw(b, b)
            e >>= 1
        return result

    # -- element utilities ---------------------------------------------------

    def from_int(self, c: int) -> Element:
        """Prime-subfield element c."""
        return (c % self.p,) + (0,) * (self.k - 1)

    def pow(self, a: Element, e: int) -> Element:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == self.zero:
            return self.one if e == 0 else self.zero
        e %= self.q - 1
        if self._log is not None:
            la = self._log[a]
            return self._exp[(la * e) % (self.q - 1)]
        result = self.one
        b = a
        while e:
            if e & 1:
                result = self.mul(result, b)
            b = self.mul(b, b)
            e >>= 1
        return result

    def is_square(self, a: Element) -> bool:
        """Whether a is a square (zero counts as a square). Odd q only."""
        if a == self.zero:
            return True
        if self.p == 2:
            return True
        if self._log is not None:
            return self._log[a] % 2 == 0
        return self.pow(a, (self.q - 1) // 2) == self.one

    def element_at(self, idx: int) -> Element:
        """idx-th element in the canonical total order."""
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(idx % p)
            idx //= p
        return tuple(out)

    def index_of(self, e: Element) -> int:
        idx = 0
        for c in reversed(e):
            idx = idx * self.p + c
        return idx

    def elements(self):
        """All elements in the canonical total order."""
        for i in range(self.q):
            yield self.element_at(i)

    def random_element(self, rng) -> Element:
        return self.element_at(rng.randrange(self.q))

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field) and self.p == other.p
                and self.k == other.k and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"Field(p={self.p}, k={self.k}, q={self.q})"

    def modulus_str(self) -> str:
        if self.k == 1:
            return "y"
        parts = []
        for j in range(self.k, -1, -1):
            c = 1 if j == self.k else self.modulus[j]
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                pre = "" if c == 1 else str(c) + "*"
                parts.append(f"{pre}y" + (f"^{j}" if j > 1 else ""))
        return "+".join(parts) if parts else "0"


@lru_cache(maxsize=None)
def _field_cached(p: int, k: int) -> Field:
    return Field(p, k)


def make_field(p: int, k: int, modulus: tuple | None = None) -> Field:
    """Canonical F_{p^k}; cached per (p, k) unless a modulus is supplied."""
    if modulus is not None:
        return Field(p, k, modulus)
    return _field_cached(p, k)


def prime_power(q: int) -> tuple:
    """(p, k) with q = p^k; raises NotPrime unless q is a prime power."""
    fac = sympy.factorint(q)
    if q < 2 or len(fac) != 1:
        raise NotPrime(f"q = {q} is not a prime power")
    (p, k), = fac.items()
    return p, k


def field_of_order(q: int) -> Field:
    """Factor q into p^k and return the canonical field."""
    return make_field(*prime_power(q))


def embed(src: Field, dst: Field, e: Element) -> Element:
    """Ring-homomorphic image of e under the canonical embedding.

    Sends the source generator to the lexicographically smallest root of the
    source modulus in dst; fixes the prime field.
    """
    if src.p != dst.p:
        raise IncompatibleTower("different characteristics")
    if dst.k % src.k != 0:
        raise IncompatibleTower(f"{src.k} does not divide {dst.k}")
    if src.k == dst.k and src.modulus == dst.modulus:
        return e
    if src.k == 1:
        return dst.from_int(e[0])
    pows = _embedding_powers(src, dst)
    acc = dst.zero
    for c, pw in zip(e, pows):
        if c:
            acc = dst.add(acc, dst.scalar(c, pw))
    return acc


def _embedding_powers(src: Field, dst: Field):
    key = (dst.p, dst.k, dst.modulus)
    cached = src._embed_cache.get(key)
    if cached is not None:
        return cached
    from .unipoly import UnivariatePoly, roots_in_field
    coeffs = [dst.from_int(c) for c in src.modulus]
    poly = UnivariatePoly(dst, coeffs)
    roots = roots_in_field(poly)
    if not roots:
        raise IncompatibleTower("source modulus has no root in target field")
    root = min(roots, key=element_key)
    pows = [dst.one]
    for _ in range(src.k - 1):
        pows.append(dst.mul(pows[-1], root))
    pows = tuple(pows)
    src._embed_cache[key] = pows
    return pows
