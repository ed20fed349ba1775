"""Effective formulas and the main counting/search experiments.

Covers the Galois parameters (N, genus) with both bookkeeping tracks, the
Geyer-Jarden Chebotarev lower bound, the explicit application bound with
its threshold, exhaustive irreducible-specialization counting over all
lines x = a*t + b, and the constructive simultaneous-specialization search.

Bound comparisons are carried out on outward-rounded rational enclosures,
never on floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .bivar import BivariatePoly, is_smooth
from .errors import (ConstraintViolation, DegreeOutOfRange, DegreeTooSmall,
                     HypothesisViolation, NotFoundWithinBudget)
from .field import (_LOG_TABLE_LIMIT, _POWER_TABLE_LIMIT, GridArith,
                    make_field, prime_power)
from .intervals import mul_bounds, q_pow_half_bounds, q_pow_quarter_bounds, sqrt_bounds
from .polycore import (_FROB_TABLE_LIMIT, FrobCtx, degrees, elements,
                       linear_factors, substitute, to_array)
from .unipoly import (_RABIN_BATCH, UnivariatePoly, _rabin_batch, factor,
                      is_irreducible)

# Digits of a cell block of substitution_rows, (N + 1) q k a row, of
# polycore.substitute's widest array for a row chunk, and of a block of
# the fibers that _curve_points evaluates, 4 q k a row.  For a cubic over
# F_p a cell block is about 2^16 cells, and its root marks take a
# (R, 2 p) grid of 128 KiB and an index table of R int64 a curve point.
_BLOCK_DIGITS = 1 << 18
# Below this work q^2 (d_x + 1), the digit products of evaluating f on all
# of E^2, _curve_points evaluates; from it on it finds each fiber's roots.
# On 2 cores (x86_64, numpy 2.4) the two took as long over prime fields
# near 1.2e5 for conics, whose fibers the quadratic formula solves, and
# near 1.8e6 for cubics with split fibers and 5e6 for quartics, whose
# fibers take rounds of splitting first; 2^22 lies between the last two.
_FIBER_ROOTS_MIN = 1 << 22


# ---------------------------------------------------------------------------
# Galois parameters


@dataclass
class GaloisData:
    degrees: tuple
    N: int
    genus_closure: int
    genus_sanity: int | None      # independent oracle, n = 1, d = 2 only
    branch_degrees: tuple         # 2 g_i - 2 + 2 d_i
    discrepancy: bool

    def as_dict(self):
        return {
            "degrees": list(self.degrees),
            "N": self.N,
            "genus_closure": self.genus_closure,
            "genus_sanity": self.genus_sanity,
            "branch_degrees": list(self.branch_degrees),
            "discrepancy": self.discrepancy,
        }


def galois_parameters(curves) -> GaloisData:
    """N and genus data for a list of curves (degrees, or CurveReports)."""
    degrees = tuple(c if isinstance(c, int) else c.d for c in curves)
    if not degrees or any(d < 2 for d in degrees):
        raise HypothesisViolation("all curve degrees must be >= 2")
    N = 1
    for d in degrees:
        N *= factorial(d)
    genus_each = [((d - 1) * (d - 2)) // 2 for d in degrees]
    total = sum(g - 1 + d for g, d in zip(genus_each, degrees))
    genus_closure = 1 - N + N * total
    genus_sanity = None
    if len(degrees) == 1 and degrees[0] == 2:
        # a degree-2 cover is its own Galois closure: genus of the conic
        genus_sanity = 0
    branch_degrees = tuple(2 * g - 2 + 2 * d
                           for g, d in zip(genus_each, degrees))
    return GaloisData(
        degrees, N, genus_closure, genus_sanity, branch_degrees,
        discrepancy=(genus_sanity is not None and genus_sanity != genus_closure))


# ---------------------------------------------------------------------------
# Bounds


def geyer_jarden_rhs_bounds(q, s, N, g):
    """Outward enclosure of (1/N)(q^s - (N+2g)q^{s/2} - N q^{s/4} - 2(g+N)),
    for N >= 1 and genus g >= 0."""
    if N < 1 or g < 0:
        raise ConstraintViolation(
            f"need N >= 1 and g >= 0, got N = {N}, g = {g}")
    half = q_pow_half_bounds(q, s)
    quarter = q_pow_quarter_bounds(q, s)
    qs = Fraction(q) ** s
    lo = (qs - (N + 2 * g) * half[1] - N * quarter[1] - 2 * (g + N)) / N
    hi = (qs - (N + 2 * g) * half[0] - N * quarter[0] - 2 * (g + N)) / N
    return lo, hi


def geyer_jarden_rhs(q, s, N, g) -> float:
    lo, hi = geyer_jarden_rhs_bounds(q, s, N, g)
    return float((lo + hi) / 2)


@dataclass
class BoundReport:
    q: int
    d: int
    N: int
    app_threshold_ok: bool
    app_bound: float
    app_bound_lo: Fraction
    app_bound_hi: Fraction
    positive: bool

    def as_dict(self):
        return {
            "q": self.q,
            "d": self.d,
            "N": self.N,
            "app_threshold_ok": self.app_threshold_ok,
            "app_bound": self.app_bound,
            "positive": self.positive,
        }


def application_bound(q: int, d: int) -> BoundReport:
    """(1/d!)(q - d^4/2)(q - 3(d(d-1)d! + 2) sqrt(q) - d!), with threshold
    q > 9 (d(d-1)d! + 2)^2."""
    if d < 2:
        raise DegreeTooSmall("the application bound needs d >= 2")
    if q < 2:
        raise ConstraintViolation(f"field size q = {q} must be at least 2")
    prime_power(q)  # NotPrime unless q is a prime power
    dfact = factorial(d)
    K = d * (d - 1) * dfact + 2
    threshold_ok = q > 9 * K * K
    f1 = Fraction(q) - Fraction(d ** 4, 2)
    sq = sqrt_bounds(q)
    f2 = (Fraction(q) - 3 * K * sq[1] - dfact,
          Fraction(q) - 3 * K * sq[0] - dfact)
    lo, hi = mul_bounds((f1, f1), f2)
    lo, hi = lo / dfact, hi / dfact
    return BoundReport(
        q=q, d=d, N=dfact,
        app_threshold_ok=threshold_ok,
        app_bound=float((lo + hi) / 2),
        app_bound_lo=lo, app_bound_hi=hi,
        positive=lo > 0,
    )


# ---------------------------------------------------------------------------
# Exhaustive counting over lines x = a t + b


@dataclass
class CountReport:
    q: int
    total_pairs: int
    count_full_degree: int
    count_inclusive: int
    mode: str

    def as_dict(self):
        return {
            "q": self.q,
            "total_pairs": self.total_pairs,
            "count_full_degree": self.count_full_degree,
            "count_inclusive": self.count_inclusive,
            "density": self.count_inclusive / self.total_pairs,
            "mode": self.mode,
        }


def _check_char(f: BivariatePoly):
    d = f.total_degree()
    if d < 2:
        raise HypothesisViolation("a curve needs total degree >= 2")
    if (d * (d - 1)) % f.field.p == 0:
        raise HypothesisViolation(
            f"characteristic {f.field.p} divides d(d-1) = {d * (d - 1)}")


def count_irreducible_pairs(f: BivariatePoly, E,
                            mode: str = "inclusive") -> CountReport:
    """Exact counts of (a, b) in E^2 with f(t, a t + b) irreducible.

    count_full_degree additionally requires deg_t = d; count_inclusive
    admits any irreducible specialization of degree >= 1.  Past q = 2^18
    substitution_rows refuses: the q^2 >= 6.9e10 pairs are out of reach of
    an exhaustive count.
    """
    _check_char(f)
    if f.field != E:
        f = f.map_to(E)
    full, incl = _count_rows(f, E).sum(axis=0).tolist()
    return CountReport(q=E.q, total_pairs=E.q ** 2,
                       count_full_degree=full, count_inclusive=incl,
                       mode=mode)


def _count_rows(f: BivariatePoly, E):
    """Per-a (full, inclusive) counts over every b, a (q, 2) int32 array
    with a in canonical order: substitution_rows at D = 1, a row per a.
    A boolean sum into int32 counts a row faster than count_nonzero."""
    d = f.total_degree()
    full, incl = [], []
    for _, deg, irr in substitution_rows(f.terms, E, 1):
        incl.append(irr.sum(axis=1, dtype=np.int32))
        full.append(incl[-1] * (deg[:, 0] == d) if deg.shape[1] == 1
                    else (irr & (deg == d)).sum(axis=1, dtype=np.int32))
    return np.stack([np.concatenate(full), np.concatenate(incl)], axis=1)


def substitution_rows(terms, E, D):
    """Classify f(t, g(t)) for every g in F_q[t] of degree <= D, where
    terms maps (i, j) to the coefficient of t^i x^j of f.

    A row is g_1 t + .. + g_D t^D, at the index sum_i g_i q^(i-1), and its
    q cells are the values of g_0.  Yields (rows, deg, irr) per block of R
    rows, in index order: the row indices, the values' degrees, per cell
    or, when every row's values have one degree 2 or 3, per row (shape
    (R, 1)), and the (R, q) mask of the irreducible values.  Before the
    first block it raises ConstraintViolation past q = _LOG_TABLE_LIMIT (no
    tables for GridArith), and DegreeOutOfRange past _POWER_TABLE_LIMIT
    digits a row, (N + 1) k q for the bound N on the values' degrees.

    One Horner pass (polycore.substitute) gives each row's coefficients
    of t^m g_0^e.  A curve point (t0, x0), from _curve_points, is a root
    of the value in cell g_0 = x0 - sum_i g_i t0^i, and a vertical fiber
    of every value; _root_marker marks the rooted cells of a block, by
    integer row offsets over a prime field and by one GridArith.dot of the
    rows against the columns of [-t0, .., -t0^D, x0] over an extension
    field.  Where the top coefficient, of t^2 or t^3, does not
    depend on g_0 the rootless values are the irreducible ones; the other
    rows are expanded over g_0 by a GridArith.dot against the power
    columns, which ar builds at the first such row unless _curve_points
    built them, and go to _irreducible_mask.

    The one constant _BLOCK_DIGITS sets two granularities.  The row work,
    substitute and each row's degree, top coefficient and need of the
    expansion, runs once per chunk of rows, sized so that substitute's
    widest array, (N + 1)(2k - 1) Z digits a row for Z = min(deg_x f + 1,
    q), stays within it.  The cell work, the root marks, the expansion and
    _irreducible_mask, runs on blocks of (N + 1) q k digits a row within
    it; a chunk is a whole number of blocks, and a block is one yield.
    """
    q, k = E.q, E.k
    N = max((i + j * D for i, j in terms), default=0)  # >= every degree
    if q > _LOG_TABLE_LIMIT:
        raise ConstraintViolation(
            f"counting needs q <= {_LOG_TABLE_LIMIT}, got q = {q}")
    if (N + 1) * k * q > _POWER_TABLE_LIMIT:
        raise DegreeOutOfRange(
            f"values of degree up to {N} over F_{q} pass "
            f"{_POWER_TABLE_LIMIT} digits a row")
    ar = GridArith(E)
    deg_t = [0] * (1 + max((j for _, j in terms), default=0))
    for i, j in terms:
        deg_t[j] = max(deg_t[j], i)
    cs = [np.zeros((n + 1, k, 1), dtype=np.int64) for n in deg_t]
    for (i, j), c in terms.items():  # cs[j][i]: the digits of f_{i, j}
        cs[j][i, :, 0] = E.to_vector(c)
    block = max(1, _BLOCK_DIGITS // ((N + 1) * q * k))
    mark = _root_marker(terms, E, ar, D, block)
    Z = min(len(cs), q)
    chunk = block * max(1, _BLOCK_DIGITS // ((N + 1) * (2 * k - 1) * Z
                                             * block))
    for start in range(0, q ** D, chunk):
        rows = np.arange(start, min(start + chunk, q ** D))
        g = rows // q ** np.arange(D + 1)[:, None] % q  # g_1 .. g_D, 0
        coef = substitute(cs, g[:D], E)  # coef[m, e]: of t^m g_0^e
        g[D] = 1  # the element 1 is 1
        nonzero = coef.any(axis=1)
        n = (len(coef) - 1 - np.argmax(nonzero[::-1], axis=0)) \
            * nonzero.any(axis=0)
        top = coef[n, :, np.arange(rows.size)]
        rest = ((n != 2) & (n != 3)) | top[:, 1:].any(axis=1)
        for s in range(0, rows.size, block):
            b = slice(s, s + block)
            has_root = mark(g[:, b])
            deg, irr, r = n[b, None], ~has_root, rest[b]
            if r.any():
                # compress keeps C order, unlike coef[..., r]: faster sums.
                # part lives until the block ends: freed earlier, it left
                # malloc returning and refetching pages every block, with
                # twice the minor page faults on a quartic over F_1999.
                part = coef[: n[b][r].max() + 1, :, b].compress(r, axis=2)
                z = 1 + np.flatnonzero(part.any(axis=(0, 2))).max(initial=0)
                c = ar.dot(part[:, :z].transpose(1, 0, 2).reshape(z, -1),
                           ar.power_columns(z - 1)).reshape(len(part), -1)
                deg_r, irr_r = _irreducible_mask(
                    c, has_root[r].reshape(-1), E, ar)
                deg = np.repeat(deg, q, axis=1)
                deg[r], irr[r] = deg_r.reshape(-1, q), irr_r.reshape(-1, q)
            yield rows[b], deg, irr


def _root_marker(terms, E, ar: GridArith, D, block):
    """mark(g) for the cell blocks of substitution_rows: the (R, q) mask of
    the cells whose value has a root in E, for the (D + 1, R) digit array
    g of R <= block consecutive rows, g_1 .. g_D over a last row of ones.

    A curve point (t0, x0) is a root of the value in the cell g_0 = x0 -
    sum_i g_i t0^i.  A vertical fiber, f(t0, x) = 0 for every x, roots
    every value, which t - t0 divides, so then every cell is marked.  Over
    a prime field the cells come from integer row offsets (_prime_marker),
    over an extension field from one GridArith.dot (_dot_marker).
    """
    t0, x0, vertical = _curve_points(terms, E, ar)
    if vertical.size:
        return lambda g: np.ones((g.shape[1], E.q), dtype=bool)
    if E.k == 1:
        return _prime_marker(t0, x0, D, E.p, block)
    return _dot_marker(t0, x0, D, ar)


def _dot_marker(t0, x0, D, ar: GridArith):
    """mark(g) of _root_marker by one GridArith.dot of the rows against the
    columns of [-t0, .., -t0^D, x0], which gives every rooted cell, and a
    scatter into a new (R, q) grid.  Element indices of F_{p^k}, k > 1, do
    not add as integers, so extension fields take this product."""
    q = ar.q
    marks = [x0]
    power = ar.mul(ar.p - 1, t0)  # p - 1 is the index of -1
    for _ in range(D):
        marks.insert(-1, power)
        power = ar.mul(power, t0)
    marks = ar.columns(np.stack(marks))

    def mark(g):
        cells = ar.dot(g, marks)
        R = len(cells)
        cells += np.arange(0, R * q, q)[:, None]
        has_root = np.zeros((R, q), dtype=bool)
        has_root.reshape(-1)[cells] = True  # a flat scatter: faster
        return has_root
    return mark


def _prime_marker(t0, x0, D, p, block):
    """mark(g) of _root_marker over F_p, with no product: g_1 t0 = r t0 +
    (g_1 - r) t0 for the row at offset r of the block, so the cell of the
    point (t0, x0) in that row is base - r t0 mod p, where base = x0 -
    (g_1 - r) t0 - sum_{i >= 2} g_i t0^i is fixed until g_1 wraps to 0,
    which at D <= 1 it never does.

    A table off[r] = 2 p r + p - (r t0 mod p), built once, makes each
    block one integer add of the base into a reused index buffer: off[r] +
    base lies in row r of a (R, 2 p) grid, in the right half at the cell
    when base >= r t0 mod p and in the left half at the cell otherwise, so
    the halves OR-ed are the marks, with no mod p.  Every product stays
    below 2^36, since the kernel refuses p > 2^18.
    """
    r = np.arange(min(block, p ** D))[:, None]
    off = 2 * p * r + p - r * t0 % p
    powers = np.zeros((D, t0.size), dtype=np.int64)  # t0^i, i = 1 .. D
    power = t0
    for i in range(D):
        powers[i] = power
        power = power * t0 % p
    idx = np.empty_like(off)
    grid = np.empty((len(off), 2 * p), dtype=bool)

    def mark(g):
        R = g.shape[1]
        # the rows where g_1 wraps to 0, and the block's first row, start
        # a part of one base (g[0] is the row of ones at D = 0, one row)
        first = np.flatnonzero(g[0] == 0)
        first = np.concatenate([[0], first[first > 0]])
        a = g[:D, first]
        a[:1] -= first  # g_1 - r
        base = x0 - sum(a[i, :, None] * powers[i] for i in range(D))
        base %= p
        if len(first) > 1:  # one base row per row of the block
            base = np.repeat(base, np.diff(first, append=R), axis=0)
        np.add(off[:R], base, out=idx[:R])
        grid[:R] = False
        grid[:R].reshape(-1)[idx[:R]] = True
        return grid[:R, :p] | grid[:R, p:]
    return mark


def _curve_points(terms, E, ar: GridArith):
    """The affine points of f = 0 over E as index arrays (t, x, vertical),
    in no particular order, after z^e = z^(1 + (e - 1) mod (q - 1)) takes
    the exponents below q.  vertical holds each t0 whose fiber f(t0, x)
    vanishes at every x (a component t = t0, or a reduction such as that
    of x^q - x); (t, x) lists the points of the other fibers only, not the
    q points of each vertical one.  The zero polynomial, whose values have
    no degree for a root to settle, gets no points and no vertical fiber.

    The fiber at t0 is f(t0, x) = sum_j c_j(t0) x^j, of degree n <= d_x
    after the reduction; one GridArith.dot gives every c_j(t0).  While the
    work of evaluating f on all of E^2, q^2 (d_x + 1), is below
    _FIBER_ROOTS_MIN, f is evaluated on blocks of t values (see
    _BLOCK_DIGITS), and also once d_x k passes polycore's
    _FROB_TABLE_LIMIT, where a ModCtx on the fibers of degree d_x would be
    refused.  Otherwise each fiber is solved: one that is identically zero
    is vertical, and _small_roots solves a linear one and, for odd q, a
    quadratic one.  Those of higher degree go to polycore.linear_factors, a
    degree group of _monic_chunks at a time, which splits them into parts
    of degree at most 2 (1 for q = 2^k) for _small_roots.  A d_x with
    (d_x + 1) k q past _POWER_TABLE_LIMIT raises DegreeOutOfRange, in
    either regime, as power_columns(d_x) does.
    """
    q = E.q
    if not terms:
        return (np.zeros(0, dtype=np.int64),) * 3
    fc = {}
    for (i, j), c in terms.items():
        key = tuple(e and 1 + (e - 1) % (q - 1) for e in (i, j))
        fc[key] = E.add(fc.get(key, 0), c)
    ct = np.zeros((1 + max(i for i, _ in fc), 1 + max(j for _, j in fc)),
                  dtype=np.int64)
    for ij, c in fc.items():
        ct[ij] = c
    I, J = ct.shape
    if J * E.k * q > _POWER_TABLE_LIMIT:
        raise DegreeOutOfRange(
            f"powers up to {J - 1} of every element of F_{q} pass "
            f"{_POWER_TABLE_LIMIT} digits")
    evaluate = (q * q * J < _FIBER_ROOTS_MIN
                or (J - 1) * E.k > _FROB_TABLE_LIMIT)
    pcols = ar.power_columns((max(I, J) if evaluate else I) - 1)
    c = ar.dot(ct, pcols[:I])  # c[j, t] = c_j(t)
    if evaluate:
        return _evaluated_points(c, pcols, ar)
    deg = degrees((c != 0)[:, None])
    top = 2 if E.p > 2 else 1  # the degrees that _small_roots solves
    small = np.flatnonzero((deg >= 1) & (deg <= top))
    parts = np.zeros((3, small.size), dtype=np.int64)  # c_0, c_1, c_2
    parts[: len(c)] = c[:3, small]
    part_t, part_c = [small], [parts]
    for _, part, g in _monic_chunks(c, deg, deg > top, E, ar):
        slot, factors = linear_factors(g, E)
        parts = np.zeros((3, slot.size), dtype=np.int64)
        parts[: len(factors)] = elements(factors, E)
        part_t.append(part[slot])
        part_c.append(parts)
    i, xs = _small_roots(np.concatenate(part_c, axis=1), ar)
    return np.concatenate(part_t)[i], xs, np.flatnonzero(deg < 0)


def _small_roots(c, ar: GridArith):
    """(i, x) for each root x in E of the polynomial c_0 + c_1 x + c_2 x^2
    in column i of the (3, M) element array c, each of degree 1 or 2, the
    quadratic ones only for odd q: -c_0 / c_1, and (-c_1 +- s) / (2 c_2)
    for s^2 = c_1^2 - 4 c_0 c_2 (one root where s = 0, none where the
    discriminant is no square)."""
    p = ar.p
    c0, c1, c2 = c
    i = np.flatnonzero(c2 == 0)
    x = ar.mul(p - 1, ar.mul(c0[i], ar.inv(c1[i])))  # p - 1 is -1
    quad = np.flatnonzero(c2)
    s = ar.sqrt(ar.add(ar.mul(c1[quad], c1[quad]),
                       ar.mul(-4 % p, ar.mul(c0[quad], c2[quad]))))
    quad, s = quad[s >= 0], s[s >= 0]
    half = ar.inv(ar.mul(2, c2[quad]))  # 1 / (2 c_2)
    b = ar.mul(p - 1, c1[quad])
    two = s != 0
    return np.concatenate([i, quad, quad[two]]), np.concatenate([
        x, ar.mul(ar.add(b, s), half),
        ar.mul(ar.add(b[two], ar.mul(p - 1, s[two])), half[two])])


def _evaluated_points(c, pcols, ar: GridArith):
    """(t, x, vertical) of _curve_points: the fibers with the (n, q)
    element array c of coefficients evaluated by ar.dot against pcols, the
    power_columns of at least n - 1, on blocks of rows (see _BLOCK_DIGITS).
    A fiber zero at every x is vertical, and its points are not listed."""
    q = ar.q
    rows = max(1, _BLOCK_DIGITS // (4 * q * ar.k))
    t_out, x_out, vertical = [], [], []
    for start in range(0, q, rows):
        zero = ar.dot(c[:, start:start + rows], pcols[: len(c)], zero=True)
        whole = zero.all(axis=1)
        zero[whole] = False
        vertical.append(start + np.flatnonzero(whole))
        ti, xi = np.divmod(np.flatnonzero(zero), q)  # faster than nonzero
        t_out.append(ti + start)
        x_out.append(xi)
    return tuple(map(np.concatenate, (t_out, x_out, vertical)))


def _monic_chunks(c, deg, mask, E, ar: GridArith):
    """(n, part, g): g is the monic (n + 1, k, B) array of the columns part
    of c with degree deg == n >= 2 and mask set, in chunks of _RABIN_BATCH
    FrobCtx table entries, (n k)^2 a polynomial, from n = 4 on."""
    for n in range(2, c.shape[0]):
        idx = np.flatnonzero((deg == n) & mask)
        step = max(1, _RABIN_BATCH // (n * E.k) ** 2 if n > 3 else idx.size)
        for start in range(0, idx.size, step):
            part = idx[start:start + step]
            cn = c[:n + 1, part]
            yield n, part, to_array(ar.mul(cn, ar.inv(cn[n])), E)


def _irreducible_mask(c, has_root, E, ar: GridArith):
    """(deg, irr) of a batch of polynomials over E: c[m] is the element
    array of their x^m coefficients, has_root marks those with a root in E.

    deg is 0 for constants and for zero, and irr marks the irreducible
    ones.  A linear polynomial is irreducible; one of degree n >= 2 with a
    root is not, and a rootless one of degree 2 or 3 is.  The rootless
    ones of degree n >= 4 are tested with _rabin_batch, one FrobCtx a
    chunk of _monic_chunks.  Past n k = polycore._FROB_TABLE_LIMIT the
    first chunk's FrobCtx raises DegreeOutOfRange before any table is
    allocated.
    """
    nonzero = c != 0
    deg = (c.shape[0] - 1 - np.argmax(nonzero[::-1], axis=0)) * nonzero.any(0)
    rootless = ~has_root
    irr = (deg == 1) | rootless & ((deg == 2) | (deg == 3))
    for _, part, g in _monic_chunks(c, deg, rootless & (deg > 3), E, ar):
        irr[part] = _rabin_batch(FrobCtx(g, E))
    return deg, irr


# ---------------------------------------------------------------------------
# Hypothesis checks and the simultaneous-specialization search


def check_hypotheses(fs):
    """Raise HypothesisViolation unless every curve satisfies the
    hypotheses (d >= 2, p does not divide d(d-1), so p is odd; smooth) and
    the curves are pairwise non-proportional.  A smooth projective plane
    curve is absolutely irreducible: two components would meet in a
    singular point (Bezout; Fulton, Algebraic Curves, ch. 5)."""
    for f in fs:
        _check_char(f)
        smooth, witness = is_smooth(f)
        if not smooth:
            point = tuple(tuple(witness.field.to_vector(c))
                          for c in witness.point)
            raise HypothesisViolation(
                f"curve {f.format()} is singular at {point}")
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if _proportional(fs[i], fs[j]):
                raise HypothesisViolation(
                    "curves must be pairwise non-proportional")


def _proportional(f: BivariatePoly, g: BivariatePoly) -> bool:
    if set(f.terms) != set(g.terms):
        return False
    E = f.field
    key = next(iter(f.terms))
    ratio = E.mul(g.terms[key], E.inv(f.terms[key]))
    return all(E.mul(c, ratio) == g.terms[ij] for ij, c in f.terms.items())


@dataclass
class SpecializationResult:
    s: int
    a: int                        # elements of field = F_{q^s}
    b: int
    witnesses: list               # per-curve factorization summaries
    field: object

    def as_dict(self):
        vec = self.field.to_vector
        return {
            "witness": {"s": self.s, "a": vec(self.a), "b": vec(self.b)},
            "verification": self.witnesses,
        }


def find_specialization(fs, base_field, s_max: int,
                        mode: str = "full") -> SpecializationResult:
    """Smallest s <= s_max and lexicographically first (a, b) in F_{q^s}^2
    making every f(t, a t + b) irreducible (at full degree unless
    mode='inclusive'); witnesses are re-verified through factor()."""
    if s_max < 1:
        raise ConstraintViolation(f"s_max must be at least 1, got {s_max}")
    if isinstance(fs, BivariatePoly):
        fs = [fs]
    check_hypotheses(fs)
    degrees = [f.total_degree() for f in fs]
    for s in range(1, s_max + 1):
        E = make_field(base_field.p, base_field.k * s)
        fsE = [f.map_to(E) for f in fs]
        hit = next(((a, b) for a in E.elements() for b in E.elements()
                    if all(_specializes(fE.restrict_to_line(a, b), d, mode)
                           for fE, d in zip(fsE, degrees))), None)
        if hit is not None:
            a, b = hit
            witnesses = []
            for fE in fsE:
                g = fE.restrict_to_line(a, b)
                unit, facs = factor(g)
                assert len(facs) == 1 and facs[0][1] == 1
                witnesses.append({
                    "restriction": g.format("t"),
                    "irreducible_factor": facs[0][0].format("t"),
                    "degree": g.degree(),
                })
            return SpecializationResult(s, a, b, witnesses, E)
    raise NotFoundWithinBudget(
        f"no witness up to s = {s_max}; raise s_max")


def _specializes(g: UnivariatePoly, d: int, mode: str) -> bool:
    """Whether the restriction g of a degree-d curve is irreducible of
    degree >= 1, and of degree d when mode is 'full'."""
    dg = g.degree()
    return dg >= 1 and (mode != "full" or dg == d) and is_irreducible(g)


# ---------------------------------------------------------------------------
# End-to-end application verdict


def verify_application(f: BivariatePoly, E,
                       counts: CountReport | None = None) -> dict:
    """Bundle of hypothesis checks, threshold, bound and exhaustive count.

    counts is a CountReport of f over E that the caller already holds; the
    pairs are counted here, in inclusive mode, when it is None.  The
    verdict compares the count that counts.mode names with the bound:
    PASS, FAIL or INCONCLUSIVE, THRESHOLD_NOT_MET below the threshold, and
    VACUOUS when the bound's upper end is <= 0, so that no count could
    fail it and a PASS would verify nothing.
    Only a singular curve needs an irreducibility certificate: a smooth
    one is irreducible (see check_hypotheses).
    """
    from .lifting import bivariate_irreducible
    report = {"q": E.q}
    d = f.total_degree()
    report["d"] = d
    try:
        _check_char(f)
        smooth, _ = is_smooth(f)
        report["smooth"] = smooth
        report["irreducible"] = ("irreducible" if smooth
                                 else bivariate_irreducible(f).status)
        if not smooth:
            report["verdict"] = "HYPOTHESIS_FAIL"
            return report
    except HypothesisViolation as exc:
        report["verdict"] = "HYPOTHESIS_FAIL"
        report["reason"] = str(exc)
        return report
    bound = application_bound(E.q, d)
    if counts is None:
        counts = count_irreducible_pairs(f, E)
    report["app_threshold_ok"] = bound.app_threshold_ok
    report["app_bound"] = bound.app_bound
    report["count_full_degree"] = counts.count_full_degree
    report["count_inclusive"] = counts.count_inclusive
    count = (counts.count_full_degree if counts.mode == "full"
             else counts.count_inclusive)
    if not bound.app_threshold_ok:
        report["verdict"] = "THRESHOLD_NOT_MET"
    elif bound.app_bound_hi <= 0:
        report["verdict"] = "VACUOUS"
        report["note"] = "bound nonpositive: any count meets it"
    elif count >= bound.app_bound_hi:
        report["verdict"] = "PASS"
    elif count < bound.app_bound_lo:
        report["verdict"] = "FAIL"
    else:
        report["verdict"] = "INCONCLUSIVE"
        report["note"] = "count inside the enclosure of the bound"
    return report
