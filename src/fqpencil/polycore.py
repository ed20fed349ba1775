"""Polynomials over F_{p^k} held as digit arrays, in batches.

This is the only module that knows the layout.  A batch of B polynomials
of degree < n is an integer array of shape (n, k, B): entry [i, u, b] is
component u (Field.to_vector, low power of the field generator y first)
of the coefficient of x^i of polynomial b.  The batch axis is last, so
numpy runs over whole rows, and a single polynomial is the batch B = 1.
to_array and elements convert from and to field elements.  All results
are reduced mod p.

Each operation is written once.  The product and the reduction have two
inner forms, chosen by B alone: for B = 1 one convolution of the
Kronecker-packed operands (component u of coefficient i at digit
(2k-1) i + u, so no two component products collide) and one product with
a reduction matrix; for B > 1 one row operation per term, across the
batch.  The fold of y^k .. y^{2k-2} and the Frobenius step are one einsum
each for every B.  ModCtx and FrobCtx hold a batch of monic moduli of one
degree n, in the narrowest integer type that holds every sum the kernels
form (_count_dtype): int16, int32, int64, or Python ints (object arrays)
once a sum could pass int64, so every p is exact.  They refuse n k past
_FROB_TABLE_LIMIT.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .errors import DegreeOutOfRange
from .field import _mod

# At this n k the Frobenius table holds (n k)^2 entries per modulus, 32 to
# 128 MiB as the integer type goes, and a single modulus (B = 1) also holds
# its reduction matrix, (n - 1) k x n k float64 entries or 128 MiB, with
# about as much again in temporaries while it is built.
_FROB_TABLE_LIMIT = 4096
# Most powers x^{qj} per reduction call while FrobCtx builds its table.
_TABLE_BLOCK = 8


def _count_dtype(field, n):
    """Narrowest integer type holding every sum formed modulo a degree-n
    modulus: object (Python ints, exact but slower) when int64 does not.

    With residues in [0, p-1], a product digit sums at most n*k terms below
    (p-1)^2 (the bound allows n+1), folding y^k.. multiplies that by at
    most 1 + (k-1)(p-1), and the reduction adds up to n-1 strides of k more
    such terms.  A Frobenius step sums n*k terms.
    """
    p, k = field.p, field.k
    sq = (p - 1) ** 2
    bound = (n + 1) * k * sq * (1 + (k - 1) * (p - 1)) + (n - 1) * k * sq
    for dtype, bits in ((np.int16, 15), (np.int32, 31), (np.int64, 63)):
        if bound < 1 << bits:
            return dtype
    return object


def to_array(coeffs, field, length=None) -> np.ndarray:
    """(n, k, B) digits of polynomials given by their coefficients, low
    degree first: a list for one polynomial (B = 1), or an (m, B) element
    array with one polynomial per column.  Zero rows pad it to length.
    The digits are int64, or Python ints from q = 2^62 on, as in
    Field.to_vector."""
    dtype = field._places.dtype
    c = np.asarray(coeffs, dtype=dtype)
    c = c.reshape(len(c), -1) if c.size else c.reshape(0, 1)
    out = np.zeros((max(len(c) if length is None else length, 1), field.k,
                    c.shape[1]), dtype=dtype)
    out[: len(c)] = field.to_vector(c).transpose(0, 2, 1)
    return out


def elements(arr, field) -> np.ndarray:
    """The (n, B) element array of the coefficients in an (n, k, B) array."""
    return field.from_vector(arr.transpose(0, 2, 1))


def from_array(arr, field):
    """Trimmed coefficient list of the polynomial in an (n, k, 1) array."""
    coeffs = elements(arr, field)[:, 0].tolist()
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _times_y_powers(a: np.ndarray, field) -> np.ndarray:
    """y^u a for u < k, for residues a of shape (..., m, k, B): an array of
    shape (..., k, m, k, B), the new axis u before the rows of a.  Each
    power is the one before times y, a shift of the components, with the
    one that passes y^{k-1} folded back by the field's row of y^k."""
    p, k = field.p, field.k
    flat = a.reshape(-1, k, a.shape[-1])
    out = np.empty((k,) + flat.shape, dtype=a.dtype)
    out[0] = flat
    fold = field._red_np[:1].T.astype(a.dtype)  # (k, 1): the digits of y^k
    for u in range(1, k):
        prev, cur = out[u - 1], out[u]
        cur[:, 0] = 0
        cur[:, 1:] = prev[:, :-1]
        cur += prev[:, -1:] * fold
        cur -= cur // p * p
    nd = a.ndim  # u goes from the front to just before the rows
    return out.reshape((k,) + a.shape).transpose(*range(1, nd - 2), 0,
                                                  nd - 2, nd - 1, nd)


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for matrices of residues.

    The product runs in float64 (BLAS) whenever no sum can reach 2^53, so it
    stays exact; numpy's integer product has no BLAS behind it.
    """
    if (p - 1) ** 2 * a.shape[-1] < 1 << 53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(
            np.int64) % p
    return a @ b % p


def _fold(wide: np.ndarray, field) -> np.ndarray:
    """The (..., k, B) digits of elements from their (..., k + e, B)
    components of y^0 .. y^{k+e-1}, e < k, folded with the field's modulus
    rows (y^{k+i} is sum_v _red_np[i, v] y^v); not reduced mod p."""
    k = field.k
    if wide.shape[-2] == k:
        return wide
    red = field._red_np[: wide.shape[-2] - k].astype(wide.dtype)
    return wide[..., :k, :] + np.einsum("iv,...ib->...vb", red,
                                        wide[..., k:, :])


def _spread(a: np.ndarray, w: int) -> np.ndarray:
    """Flatten an (m, k, 1) array, component u of row i at digit w*i + u."""
    m, k = a.shape[:2]
    if k == w:
        return a.reshape(-1)
    out = np.zeros((m, w), dtype=a.dtype)
    out[:, :k] = a[:, :, 0]
    return out.reshape(-1)


def _product(a: np.ndarray, b: np.ndarray, field) -> np.ndarray:
    """Product of the (m, k, B) and (l, k, B) residue arrays a and b, of
    shape (m + l - 1, k, B), not reduced mod p.

    For B = 1 it is one convolution of the packed operands, for B > 1 one
    row operation per component of each term of a.
    """
    k, w = field.k, 2 * field.k - 1
    m, l, B = a.shape[0], b.shape[0], b.shape[2]
    if B == 1:
        wide = np.convolve(_spread(a, w), _spread(b, w))[: (m + l - 1) * w]
        wide = wide.reshape(m + l - 1, w, 1)
    else:
        wide = np.zeros((m + l - 1, w, B), dtype=np.result_type(a, b))
        for i in range(m):
            for u in range(k):
                wide[i : i + l, u : u + k] += a[i, u] * b
    return _fold(wide, field)


def poly_mul(a: np.ndarray, b: np.ndarray, field) -> np.ndarray:
    """Product of two batches of polynomials, reduced mod p."""
    return _mod(_product(a, b, field), field.p)


def substitute(cs, g, field) -> np.ndarray:
    """Coefficients of sum_j c_j(t) (g(t) + z)^j for each column of the
    (D, B) element array g, the coefficients of t^1 .. t^D of B
    polynomials g with no constant term, where cs[j] is the (n_j, k, 1)
    array of c_j(t): Horner steps in x.  z stands for the field's
    elements, so z^q = z.  Returns an (n, Z, B) element array,
    Z = min(len(cs), q), entry [m, e, b] the coefficient of t^m z^e for
    column b."""
    p, k, B = field.p, field.k, g.shape[1]
    Z = min(len(cs), field.q)
    g = np.tile(to_array(g, field), (1, 1, Z))  # g / t, once per z^e
    h = np.zeros((len(cs[-1]), k, Z, B), dtype=np.int64)
    h[:, :, 0] = cs[-1]
    for c in reversed(cs[:-1]):
        n = len(h)
        new = np.zeros((max(n + len(g), len(c)), k, Z, B), dtype=np.int64)
        new[1 : n + len(g)] = _product(  # h g, one row up
            g, h.reshape(n, k, Z * B), field).reshape(-1, k, Z, B)
        new[:n, :, 1:] += h[:, :, :-1]  # h z
        if Z == field.q:
            new[:n, :, 1] += h[:, :, -1]  # z^q = z
        new[: len(c), :, 0] += c
        h = _mod(new, p)
    return elements(h.reshape(len(h), k, Z * B), field).reshape(len(h), Z, B)


class ModCtx:
    """A batch of B monic moduli f of one degree n.

    For B = 1 it holds the reduction matrix, row (j, u) y^u x^{n+j} mod f
    for j < n - 1, so a reduction is one matrix product; for B > 1 it
    reduces one row operation per term with neg[u] = y^u x^n mod f.  Every
    array is of type _count_dtype(field, n), Python ints past int64; the
    moduli themselves are kept as modulus.
    """

    def __init__(self, modulus: np.ndarray, field):
        """modulus: (n + 1, k, B) digits, every top coefficient 1.

        Raises DegreeOutOfRange, before any table is allocated, past
        n k = _FROB_TABLE_LIMIT.
        """
        n, B = modulus.shape[0] - 1, modulus.shape[2]
        p, k = field.p, field.k
        if n * k > _FROB_TABLE_LIMIT:
            raise DegreeOutOfRange(
                f"degree n = {n} over F_{field.q} (k = {k}) is past the "
                f"table limit n k <= {_FROB_TABLE_LIMIT}")
        dtype = _count_dtype(field, n)
        self.field, self.n, self.B = field, n, B
        self.modulus = modulus
        self.dtype = np.dtype(dtype)
        # neg[u] = y^u x^n mod f = -y^u (f - x^n)
        self.neg = _times_y_powers(_mod(p - modulus[:n].astype(dtype), p),
                                   field)
        if B == 1:
            # red[j] = y^u x^{n+j} mod f.  Rows m .. 2m-1 are rows 0 .. m-1
            # times x^m: a shift, with the part that passes x^n reduced by
            # rows already known.
            hr = max(n - 1, 1)
            red = np.zeros((hr, k, n, k), dtype=dtype)
            red[0] = self.neg[..., 0]
            m = 1
            while m < hr:
                step = min(m, hr - m)
                blk = red[:step]
                new = red[m : m + step]
                spill = blk[:, :, n - m :].reshape(step * k, -1)
                new[:] = _matmul_mod(spill, red[:m].reshape(-1, n * k),
                                     p).reshape(step, k, n, k)
                new[:, :, m:] += blk[:, :, : n - m]
                new %= p
                m += step
            red = red.reshape(-1, n * k)
            exact = (p - 1) ** 2 * n * k < 1 << 53  # in float64, so BLAS
            self.red = red.astype(np.float64) if exact else red

    def _zeros(self, rows, lead=()):
        return np.zeros(lead + (rows, self.field.k, self.B), dtype=self.dtype)

    def reduce(self, a: np.ndarray, shift: int = 0) -> np.ndarray:
        """x^shift a mod f for an (..., m, k, B) array, shift + m <= 2n - 1,
        whose entries need not be reduced mod p; leading axes hold more
        polynomials per modulus.  a may be consumed."""
        n, p, k = self.n, self.field.p, self.field.k
        lead, m = a.shape[:-3], a.shape[-3] + shift
        if self.B == 1:  # one product with the reduction matrix
            # rows of a below cut stay under x^n, the others meet red rows
            # from cut + shift - n on
            cut, r = min(max(n - shift, 0), a.shape[-3]), prod(lead)
            low = a[..., :cut, :, :].reshape(r, -1)
            top = a[..., cut:, :, :].reshape(r, -1) % p
            first = max(cut + shift - n, 0) * k
            out = (top.astype(self.red.dtype)
                   @ self.red[first : first + top.shape[1]]).astype(self.dtype)
            out[:, shift * k : (shift + cut) * k] += low
            return (out % p).reshape(lead + (n, k, 1))
        if shift or m < n:
            wide = self._zeros(max(m, n), lead)
            wide[..., shift:m, :, :] = a
            a = wide
        for j in range(m - 1, n - 1, -1):  # one row operation per term
            c = _mod(a[..., j, :, :], p)
            a[..., j - n : j, :, :] += np.einsum("...ub,uivb->...ivb", c,
                                                 self.neg)
        return _mod(a[..., :n, :, :], p)

    def mulmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reduce(_product(a, b, self.field))

    def powmod(self, a: np.ndarray, e: int) -> np.ndarray:
        result = self._zeros(self.n)
        result[0, 0] = 1
        base = self.reduce(a.astype(self.dtype))
        while e:
            if e & 1:
                result = self.mulmod(result, base)
            e >>= 1
            if e:
                base = self.mulmod(base, base)
        return result

    def xpow(self, e: int) -> np.ndarray:
        """x^e mod f (e >= 1).

        The leading bits of e, up to degree 2n - 2, give a monomial that is
        reduced directly; the remaining bits cost a squaring each, and a
        multiplication by x is a shift.
        """
        top = 2 * self.n - 2
        s = max(e.bit_length() - top.bit_length(), 0)
        if e >> s > top:
            s += 1
        mono = self._zeros((e >> s) + 1)
        mono[-1, 0] = 1
        result = self.reduce(mono)
        for i in range(s - 1, -1, -1):
            result = self.mulmod(result, result)
            if e >> i & 1:
                result = self.reduce(result, 1)
        return result


class FrobCtx(ModCtx):
    """ModCtx with the table of the q-power Frobenius.

    For h with coefficients in the ground field F_q, h(x)^q = h(x^q), so
    h^q mod f = sum_j h_j (x^q)^j mod f is F_p-linear in h's digits; row
    (j, u) of a modulus's (n k, n k) table is y^u x^{qj} mod f, and a step
    is one stacked product with it.  The powers x^{qj} are built first,
    then their y^u multiples at once.  When q < n, those with qj < n are
    monomials and each later one is an earlier one times x^{qd}: a shift
    and a reduction, d powers per call.  The work of a call grows with d,
    q d row operations on d powers or a product of d rows with q d k rows
    of the reduction matrix, while the number of calls falls, so d stays
    at most _TABLE_BLOCK.  Otherwise each power is the one before times
    x^q = xpow(q): a step with the table of h -> x^q h mod f, rows
    y^u x^i x^q mod f, whose second half is always the first half shifted.
    """

    def __init__(self, modulus: np.ndarray, field):
        super().__init__(modulus, field)
        n, k, q, B = self.n, field.k, field.q, self.B
        if q < n:  # rows[j] = x^{qj} mod f
            d = min((n - 1) // q, _TABLE_BLOCK)
            rows = self._zeros(n, (n,))
            rows[np.arange(d + 1), q * np.arange(d + 1), 0] = 1
            for s in range(d + 1, n, d):
                rows[s : s + d] = self.reduce(rows[s - d : min(s, n - d)],
                                              q * d)
            self.xq = rows[1].copy()  # not a view that keeps rows alive
        else:
            self.xq = self.xpow(q)
            times_xq = _times_y_powers(self.xq, field)[None]
            while len(times_xq) < n:
                m = len(times_xq)
                times_xq = np.concatenate(
                    [times_xq, self.reduce(times_xq[: n - m], m)])
            times_xq = times_xq.reshape(n * k, n * k, B)
            rows = [self._zeros(n), self.xq]
            rows[0][0, 0] = 1
            for _ in range(2, n):
                rows.append(self._step(rows[-1], times_xq))
            rows = np.stack(rows[:n])
        self.frob = _times_y_powers(rows, field).reshape(n * k, n * k, B)

    def _step(self, a: np.ndarray, table: np.ndarray) -> np.ndarray:
        """The image of residues a of shape (..., m, k, B), m <= n, under
        the F_p-linear map of an (n k, n k, B) table: one stacked product."""
        if a.shape[-3] < self.n or a.dtype != self.dtype:
            h = self._zeros(self.n, a.shape[:-3])  # in the table's type
            h[..., : a.shape[-3], :, :] = a
            a = h
        out = np.einsum("...jb,jib->...ib",
                        a.reshape(a.shape[:-3] + table.shape[1:]), table)
        out -= out // self.field.p * self.field.p  # _mod, in place
        return out.reshape(a.shape)

    def frobenius(self, a: np.ndarray) -> np.ndarray:
        """a(x)^q mod f for residues a of at most n rows."""
        return self._step(a, self.frob)
