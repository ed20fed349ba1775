"""Vectorized polynomial arithmetic over F_{p^k}.

A polynomial of degree < n is stored as an int64 array of shape (n, k):
row i holds the coefficient vector of x^i over F_p (Field.to_vector, low
power of the field generator y first).  All routines keep entries reduced
mod p.

Every operation is a few whole-array numpy calls, whatever k is.  A product
is one convolution of the Kronecker-packed operands (component u of
coefficient i at digit (2k-1) i + u, so no two component products collide)
followed by one matrix product that folds y^k .. y^{2k-2} back.  Reduction
modulo a fixed monic M and the q-power Frobenius are F_p-linear maps; ModCtx
and FrobCtx store them as integer matrices acting on the flattened (n*k)
coefficient vector, which keeps long square-and-multiply chains (e.g.
Frobenius powers of degree-144 polynomials) fast.
"""

from __future__ import annotations

import numpy as np


def to_array(coeffs, field, length=None) -> np.ndarray:
    """Pack a list of field elements (low degree first) into an (n, k) array."""
    n = len(coeffs) if length is None else length
    out = np.zeros((max(n, 1), field.k), dtype=np.int64)
    if coeffs:
        out[: len(coeffs)] = field.to_vector(np.array(coeffs))
    return out


def from_array(arr, field):
    """Unpack an (n, k) array into a trimmed list of field elements."""
    coeffs = field.from_vector(arr).tolist()
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _times_y_powers(a: np.ndarray, field) -> np.ndarray:
    """Stack y^u * a for u < k: shape (k,) + a.shape, entries mod p.

    c @ M with M[u] = y^u * m is then the product c * m for an element c.
    """
    k = field.k
    out = a.reshape(1, -1, k) @ field._yprod_np
    return (out % field.p).reshape((k,) + a.shape)


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for matrices of residues.

    The product runs in float64 (BLAS) whenever no sum can reach 2^53, so it
    stays exact; numpy's int64 product has no BLAS behind it.
    """
    if (p - 1) ** 2 * a.shape[-1] < 1 << 53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(
            np.int64) % p
    return a @ b % p


def _fold(wide: np.ndarray, field) -> np.ndarray:
    """Reduce generator powers y^k..y^{2k-2} using the field's modulus rows.

    wide has shape (..., 2k-1); returns shape (..., k), entries mod p.
    """
    k, p = field.k, field.p
    wide = wide % p
    if k == 1:
        return wide
    return (wide[..., :k] + wide[..., k:] @ field._red_np) % p


def poly_mul(a: np.ndarray, b: np.ndarray, field) -> np.ndarray:
    """Product of two packed polynomials."""
    w = 2 * field.k - 1
    n = a.shape[0] + b.shape[0] - 1
    wide = np.convolve(_spread(a, w), _spread(b, w))[: n * w]
    return _fold(wide.reshape(n, w), field)


def _spread(a: np.ndarray, w: int) -> np.ndarray:
    """Flatten an (m, k) array with component u of row i at digit w*i + u."""
    m, k = a.shape
    if k == w:
        return a.reshape(-1)
    out = np.zeros((m, w), dtype=np.int64)
    out[:, :k] = a
    return out.reshape(-1)


class ModCtx:
    """Fixed monic modulus with a precomputed power-reduction matrix."""

    def __init__(self, modulus: np.ndarray, field, headroom: int | None = None):
        """modulus: packed array of length n+1 with monic top coefficient."""
        self.field = field
        p, k = field.p, field.k
        n = modulus.shape[0] - 1
        assert modulus[n, 0] == 1 and not modulus[n, 1:].any()
        self.n = n
        self.modulus = modulus
        # red[j, u] = y^u x^{n+j} mod M, for j = 0 .. headroom-1.  Rows
        # m .. 2m-1 are rows 0 .. m-1 times x^m: a shift, with the part that
        # passes x^n reduced by rows already known.
        hr = (n - 1) if headroom is None else headroom
        red = np.zeros((max(hr, 1), k, n, k), dtype=np.int64)
        red[0] = _times_y_powers((p - modulus[:n]) % p, field)
        m = 1
        while m < hr:
            step = min(m, hr - m)
            lo = max(n - m, 0)
            blk = red[:step]
            new = red[m : m + step]
            spill = blk[:, :, lo:].reshape(step * k, -1)
            new[:] = _matmul_mod(spill, red[lo + m - n : m].reshape(-1, n * k),
                                 p).reshape(step, k, n, k)
            new[:, :, m:] += blk[:, :, :lo]
            new %= p
            m += step
        self.red = red.reshape(-1, n * k)
        self.headroom = hr

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """a mod M, for deg a <= n - 1 + headroom."""
        n, field = self.n, self.field
        if a.shape[0] <= n:
            out = np.zeros((n, field.k), dtype=np.int64)
            out[: a.shape[0]] = a
            return out
        extra = a.shape[0] - n
        assert extra <= self.headroom
        k = field.k
        low = a[:n].reshape(-1) + a[n:].reshape(-1) @ self.red[: extra * k]
        return (low % field.p).reshape(n, k)

    def mulmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reduce(poly_mul(a, b, self.field))

    def powmod(self, a: np.ndarray, e: int) -> np.ndarray:
        field = self.field
        result = np.zeros((self.n, field.k), dtype=np.int64)
        result[0, 0] = 1
        base = self.reduce(a)
        while e:
            if e & 1:
                result = self.mulmod(result, base)
            e >>= 1
            if e:
                base = self.mulmod(base, base)
        return result

    def xpow(self, e: int) -> np.ndarray:
        """x^e mod M (e >= 1).

        The leading bits of e, as long as they stay within reach of the
        reduction matrix, give a monomial that is reduced directly; the
        remaining bits cost a squaring each, and a multiplication by x is a
        shift.
        """
        k = self.field.k
        top = self.n - 1 + self.headroom
        s = max(e.bit_length() - top.bit_length(), 0)
        if e >> s > top:
            s += 1
        mono = np.zeros(((e >> s) + 1, k), dtype=np.int64)
        mono[-1, 0] = 1
        result = self.reduce(mono)
        for i in range(s - 1, -1, -1):
            result = self.mulmod(result, result)
            if e >> i & 1:
                result = self.reduce(np.concatenate(
                    [np.zeros((1, k), dtype=np.int64), result]))
        return result

    def mul_matrix(self, c: np.ndarray) -> np.ndarray:
        """F_p matrix of h -> c h mod M on flattened coefficients.

        Row (i, u) is y^u x^i c mod M: the shifted copies of y^u c, reduced
        with one matrix product.
        """
        n, k, p = self.n, self.field.k, self.field.p
        yc = _times_y_powers(c, self.field)
        wide = np.zeros((n, k, 2 * n - 1, k), dtype=np.int64)
        for i in range(n):
            wide[i, :, i : i + n] = yc
        wide = wide.reshape(n * k, -1)
        return (wide[:, : n * k] + _matmul_mod(
            wide[:, n * k :], self.red[: (n - 1) * k], p)) % p


class FrobCtx(ModCtx):
    """ModCtx with the matrix of the q-power Frobenius.

    For h with coefficients in the ground field F_q, h(x)^q = h(x^q), so
    h^q mod M = sum_j h_j (x^q)^j mod M is F_p-linear in h's flattened
    coefficients; row (j, u) of the matrix is y^u (x^q)^j mod M.  The powers
    x^{qj} of degree up to n - 1 + headroom are rows of the reduction
    matrix; the rest follow by multiplying with x^q, whose matrix is itself
    a window of the reduction matrix when q < n.
    """

    def __init__(self, modulus: np.ndarray, field):
        super().__init__(modulus, field)
        n, k, p, q = self.n, field.k, field.p, field.q
        # y^u x^m mod M for m <= n - 1 + headroom, straight from red
        xm = np.concatenate([np.eye(n * k, dtype=np.int64), self.red]) \
            .reshape(-1, k, n * k)
        table = np.zeros((n, n * k), dtype=np.int64)
        direct = min(n, (len(xm) - 1) // q + 1)
        table[:direct] = xm[: q * direct : q, 0]
        if direct < n:
            if q + n <= len(xm):
                times_xq = xm[q : q + n].reshape(n * k, n * k)
            else:
                times_xq = self.mul_matrix(self.xpow(q))
            for j in range(direct, n):
                table[j] = table[j - 1] @ times_xq % p
        self.frob = _times_y_powers(table.reshape(n, n, k), field) \
            .transpose(1, 0, 2, 3).reshape(n * k, n * k)

    def frobenius(self, a: np.ndarray) -> np.ndarray:
        """a(x)^q mod M; a packed with length <= n."""
        n, field = self.n, self.field
        if a.shape[0] < n:
            padded = np.zeros((n, field.k), dtype=np.int64)
            padded[: a.shape[0]] = a
            a = padded
        return (a.reshape(-1) @ self.frob % field.p).reshape(n, field.k)
