"""Projection of a plane curve from a base point M onto P^1.

Lines through M = (t0, x0) are parameterized by the direction u: the line
with parameter u is s -> (t0 + s, x0 + s*u), and u = infinity is the
vertical line t = t0 (the line through M and the point at infinity M0 of
the x-axis direction).  The pencil discriminant Delta_M is the
discriminant of the restricted binary d-form, a binary form of degree
d(d-1) in u; its squarefreeness (as a form, so counting a possible simple
root at u = infinity) is the genericity certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import combinations, islice

import numpy as np

from .bivar import (BivariatePoly, discriminant_poly_coeffs,
                    homogenize_and_degree)
from .counting import _BLOCK_DIGITS, _monic_chunks
from .errors import (BasePointOnCurve, CharacteristicObstruction,
                     ConstraintViolation, DegreeTooSmall, GenericPointNotFound)
from .field import GridArith
from .polycore import FrobCtx, ModCtx, degrees, poly_gcd, to_array
from .unipoly import UnivariatePoly, factor

INFINITY = None  # pencil parameter of the vertical line


@dataclass(frozen=True)
class FiberPattern:
    """Multiset of (residue degree, multiplicity) pairs; degrees*mults sum to d."""
    parts: tuple

    @property
    def ramified(self):
        return any(m > 1 for _, m in self.parts)

    def key(self):
        return "+".join(f"{deg}" if m == 1 else f"{deg}^{m}"
                        for deg, m in self.parts)

    def total(self):
        return sum(deg * m for deg, m in self.parts)


def _make_pattern(pairs):
    return FiberPattern(tuple(sorted(pairs)))


@dataclass
class PencilDescriptor:
    curve: BivariatePoly
    M: tuple                      # (t0, x0), field elements
    field: object
    d: int
    coeff_polys: list             # A_m(u) for m = 0..d (UnivariatePoly in u)
    delta: UnivariatePoly         # affine chart of Delta_M
    deficit: int                  # d(d-1) - deg(delta) = multiplicity at u = inf
    generic: bool
    branch_factors: list          # (irreducible factor of delta, multiplicity)
    branch_count: int             # distinct branch parameters over the closure

    def as_dict(self):
        return {
            "M": [self.field.to_vector(c) for c in self.M],
            "d": self.d,
            "delta": self.delta.format("u"),
            "deficit": self.deficit,
            "generic": self.generic,
            "branch_count": self.branch_count,
            "branch_factors": [[f.format("u"), f.degree()]
                               for f, _ in self.branch_factors],
            "branch_at_infinity": self.deficit >= 1,
        }


def pencil_discriminant(f: BivariatePoly, M, E) -> PencilDescriptor:
    """Pencil data for the projection of f = 0 from the affine point M."""
    if f.field != E:
        f = f.map_to(E)
    d = f.total_degree()
    if d < 2:
        raise DegreeTooSmall("a pencil needs a curve of total degree >= 2")
    if (d * (d - 1)) % E.p == 0:
        raise CharacteristicObstruction(
            f"characteristic {E.p} divides d(d-1) = {d * (d - 1)}")
    t0, x0 = M
    if f.evaluate(t0, x0) == E.zero:
        raise BasePointOnCurve("the base point lies on the curve")
    A = _line_restriction(f, t0, x0)
    delta = discriminant_poly_coeffs(A, d, E)
    dd1 = d * (d - 1)
    if delta.is_zero():
        return PencilDescriptor(f, M, E, d, A, delta, dd1, False, [], 0)
    deficit = dd1 - delta.degree()
    branch_factors = factor(delta)[1] if delta.degree() >= 1 else []
    generic = deficit <= 1 and all(m == 1 for _, m in branch_factors)
    branch_count = sum(g.degree() for g, _ in branch_factors) + (deficit >= 1)
    return PencilDescriptor(f, M, E, d, A, delta, deficit, generic,
                            branch_factors, branch_count)


def _line_restriction(f: BivariatePoly, t0, x0):
    """Coefficients A_m(u) of s^m in f(t0 + s, x0 + s*u), m = 0..d: the
    parts of degree m of f(t0 + T, x0 + X), at (T, X) = (1, u)."""
    d, form = homogenize_and_degree(f)
    g = form.swap("X", "Z").shear("T", t0).shear("Z", x0).swap("X", "Z")
    return [UnivariatePoly(f.field, [g.coeff(m - b, b) for b in range(m + 1)])
            for m in range(d + 1)]


def is_generic_point(f: BivariatePoly, M, E) -> bool:
    return pencil_discriminant(f, M, E).generic


def branch_loci_disjoint(pd1: PencilDescriptor, pd2: PencilDescriptor) -> bool:
    """No common branch parameter over the closure (u = infinity included)."""
    if pd1.delta.is_zero() or pd2.delta.is_zero():
        return False
    if pd1.deficit >= 1 and pd2.deficit >= 1:
        return False
    # monic irreducibles over one field share a root exactly when equal
    return {g for g, _ in pd1.branch_factors}.isdisjoint(
        g for g, _ in pd2.branch_factors)


_EXHAUSTIVE_THRESHOLD = 4096


def find_generic_point(fs, E, trial_budget=None, seed=0, count=1):
    """First `count` base points that are generic for every listed curve,
    with pairwise disjoint branch loci.

    Points are tried in the deterministic element order up to an exhaustive
    threshold, then by seeded random sampling, up to trial_budget candidates.
    """
    points = _generic_points(fs, E, trial_budget, seed)
    found = [M for M, _ in islice(points, max(count, 1))]
    return found[0] if count == 1 else found


def _generic_points(fs, E, trial_budget, seed):
    """(M, the descriptor of every curve at M) for each base point that
    find_generic_point accepts, in its order and within its budget."""
    if trial_budget is not None and trial_budget < 1:
        raise ConstraintViolation(
            f"the trial budget must be at least 1, got {trial_budget}")
    if isinstance(fs, BivariatePoly):
        fs = [fs]
    fs = [f.map_to(E) if f.field != E else f for f in fs]
    if any(f.total_degree() < 2 for f in fs):
        raise DegreeTooSmall("a pencil needs curves of total degree >= 2")
    q2 = E.q * E.q
    if trial_budget is None:
        trial_budget = q2
    tried = 0
    rng = random.Random(seed)

    def candidates():
        for idx in range(min(q2, max(_EXHAUSTIVE_THRESHOLD, 0))):
            yield divmod(idx, E.q)
        while True:
            yield rng.randrange(E.q), rng.randrange(E.q)

    for M in candidates():
        if tried >= trial_budget:
            break
        tried += 1
        if any(f.evaluate(*M) == E.zero for f in fs):
            continue
        pds = []
        for f in fs:
            pd = pencil_discriminant(f, M, E)
            if not pd.generic:
                break
            pds.append(pd)
        else:
            if all(branch_loci_disjoint(*ab) for ab in combinations(pds, 2)):
                yield M, pds
    raise GenericPointNotFound(
        f"no generic base point within {trial_budget} trials")


# ---------------------------------------------------------------------------
# Fiber patterns
#
# The fibers are classified in batches, a column per fiber.  A fiber of
# degree dA < d meets the line's infinity in the part (1, d - dA).  Each
# fiber comes with the value Delta of the binary form Delta_M at its
# parameter: the coefficient of u^(d(d-1)) at u = infinity, zero exactly
# when deficit >= 1.  The fiber is ramified exactly when its binary d-form
# has a repeated root, that is when Delta = 0; only those fibers go to
# factor, and a generic pencil has at most deg Delta_M + 1 of them.  The
# finite part g of any other fiber is squarefree of degree d or d - 1, and
# disc g has the square class of Delta.  Its pattern comes from that parity
# and a few distinct-degree counts, by the rule in _distinct_degree_counts.
# An unramified pattern is a row of N_1..N_d.


def fiber_pattern(pd: PencilDescriptor, u) -> FiberPattern:
    """Factorization pattern of the fiber at pencil parameter u (None = inf):
    the batch of one."""
    ar = GridArith(pd.field)
    us = np.array([] if u is INFINITY else [u], dtype=ar.dtype)
    return _pattern(*_classify(*_fibers(pd, ar, us, u is INFINITY), pd.d,
                               pd.field, ar), 0)


def _fibers(pd: PencilDescriptor, ar: GridArith, us, vertical: bool):
    """The fibers at the parameters us, after the one at u = infinity when
    vertical: their (d + 1, B) element array of coefficients, and the value
    of the binary form Delta_M at each.  Horner steps in u evaluate every
    A_m and Delta_M at once."""
    polys = pd.coeff_polys + [pd.delta]
    C = np.zeros((max(len(a.coeffs) for a in polys), len(polys)),
                 dtype=ar.dtype)  # C[j, m]: of u^j in A_m, m = d + 1: Delta_M
    for m, a in enumerate(polys):
        C[: len(a.coeffs), m] = a.coeffs
    acc = np.broadcast_to(C[-1][:, None], (len(polys), len(us)))
    for row in C[-2::-1]:
        acc = ar.add(ar.mul(acc, us), row[:, None])
    c, delta = acc[:-1], acc[-1]
    if vertical:
        col = np.zeros((pd.d + 1, 1), dtype=ar.dtype)
        coeffs = pd.curve.specialize_t(pd.M[0]).coeffs
        col[: len(coeffs), 0] = coeffs
        c = np.concatenate([col, c], axis=1)
        top = pd.delta.coeffs[pd.d * (pd.d - 1)] if pd.deficit == 0 else 0
        delta = np.concatenate([np.array([top], dtype=ar.dtype), delta])
    return c, delta


def _classify(c, delta, d: int, E, ar: GridArith):
    """Patterns of the fibers with the (d + 1, B) element array c of
    coefficients, formal degree d, and the values delta of Delta_M: an
    (B, d) array of the number of simple parts of each degree 1..d, read
    for the unramified fibers, and a dict from column to the FiberPattern
    of each ramified fiber, those with delta = 0.  The others take the
    parity of their number of factors from the square class of delta, by
    the rule in _distinct_degree_counts."""
    deg = degrees((c != 0)[:, None])
    ram, odd = delta == 0, ~ar.is_square(delta)
    counts = np.zeros((c.shape[1], d), dtype=np.int64)
    # a linear fiber, and a simple point at the line's infinity
    counts[:, 0] = (deg == 1).astype(np.int64) + (deg == d - 1)
    # parity alone: (2) or (1, 1), and (1, 2) for a cubic with odd set
    quad, cubic = ~ram & (deg == 2), ~ram & (deg == 3) & odd
    counts[:, 0] += 2 * (quad & ~odd) + cubic
    counts[:, 1] += quad & odd | cubic
    for n, part, g in _monic_chunks(c, deg, ~ram & ~quad & ~cubic, E, ar):
        counts[part, :n] += _distinct_degree_counts(g, odd[part], E)[1:].T
    ramified = {}
    for j in np.flatnonzero(ram).tolist():
        dA = int(deg[j])
        parts = [(1, d - dA)] if dA < d else []
        if dA >= 1:
            A = UnivariatePoly(E, c[:, j].tolist())
            parts += [(f.degree(), m) for f, m in factor(A)[1]]
        ramified[j] = _make_pattern(parts)
    return counts, ramified


def _distinct_degree_counts(g, odd, E):
    """The number N[e, b] of irreducible factors of degree e of each
    squarefree monic polynomial g_b of degree n >= 3 in the (n + 1, k, B)
    array g over F_q, q odd, where odd[b] marks a discriminant of g_b that
    is not a square.

    By Stickelberger's theorem, disc g is a square exactly when n - r is
    even, for the number r of irreducible factors of g (R. G. Swan,
    Pacific J. Math. 12, 1962).  c_i = deg gcd(x^(q^i) - x, g) is the sum
    over e | i of e N_e, so Moebius inversion of c_1..c_j gives N_1..N_j
    (distinct-degree factorization, von zur Gathen & Gerhard, Modern
    Computer Algebra, ch. 14).  The rule: after c_1..c_j, what is left of
    g, of degree R, has no factor of degree <= j.
    - For n >= 4, j = floor(n/2) - 1.  Since 3 floor(n/2) > n, the rest has
      at most two factors; the parity says whether it has one or two, and
      two must have the degrees (j + 1, R - j - 1).
    - A quadratic needs j = 0: the parity alone gives (2) or (1, 1).
    - A cubic with odd set is (1, 2), also with j = 0.  A cubic with a
      square discriminant keeps c_1 (j = 1), which separates (3) from
      (1, 1, 1).
    The pencil classifier reads the parity from Delta_M and applies the
    cases j = 0 itself, so they never come here.  The images x^(q^i) mod g
    are one ModCtx.xpow(q), or from j = 2 on a FrobCtx and its Frobenius
    steps, and the gcds one polycore.poly_gcd over the batch.
    """
    n, B = len(g) - 1, g.shape[2]
    j = max(n // 2 - 1, 1)
    if j > 1:
        ctx = FrobCtx(g, E)
        images = [ctx.xq]
        for _ in range(2, j + 1):
            images.append(ctx.frobenius(images[-1]))
    else:
        images = [ModCtx(g, E).xpow(E.q)]
    x = to_array([0, 1], E, n)
    _, c = poly_gcd(np.tile(g, (1, 1, j)),
                    np.concatenate([r - x for r in images], axis=2), E)
    c = c.reshape(j, B)  # c[i - 1]: deg gcd(x^(q^i) - x, g)
    N = np.zeros((n + 1, B), dtype=np.int64)
    for e in range(1, j + 1):
        N[e] = (c[e - 1] - sum(i * N[i] for i in range(1, e) if e % i == 0)) \
            // e
    rest = n - np.arange(n + 1) @ N
    # the rest has r - N_1 - .. - N_j factors, and r = n - odd mod 2
    two = (rest > 0) & ((n - N.sum(axis=0) + odd) % 2 == 0)
    cols = np.arange(B)
    N[rest - two * (j + 1), cols] += rest > 0
    N[j + 1, cols] += two
    return N


def _pattern(counts, ramified, j) -> FiberPattern:
    """The pattern of column j from the output of _classify."""
    return ramified.get(j) or _unramified(counts[j])


def _unramified(row) -> FiberPattern:
    """The pattern with row[e - 1] simple parts of degree e."""
    return FiberPattern(tuple((e, 1) for e, m in enumerate(row.tolist(), 1)
                              for _ in range(m)))


def _key(row, widths) -> str:
    """Joint key of a row of concatenated per-curve simple-part counts."""
    out, at = [], 0
    for w in widths:
        out.append(_unramified(row[at:at + w]).key())
        at += w
    return "|".join(out)


@dataclass
class PatternHistogram:
    counts: dict                  # pattern key -> count (unramified fibers)
    ramified: int
    total: int
    vertical_key: str             # pattern key of the u = infinity fiber
    ramified_patterns: list = dc_field(default_factory=list)

    def as_dict(self):
        return {
            "counts": dict(sorted(self.counts.items())),
            "ramified": self.ramified,
            "total": self.total,
            "vertical_pattern": self.vertical_key,
        }


def pattern_histogram(pds) -> PatternHistogram:
    """Fiber-pattern counts over all of P^1(F_{q^s}).

    A list of descriptors (sharing M and field) produces the joint
    histogram keyed by '|'-joined per-curve patterns; a fiber is ramified
    if any of the curves ramifies there.  The fibers are classified in
    blocks of parameters, u = infinity first; GridArith raises
    ConstraintViolation for k > 1 past its log tables.
    """
    if isinstance(pds, PencilDescriptor):
        pds = [pds]
    E = pds[0].field
    assert all(pd.field == E and pd.M == pds[0].M for pd in pds)
    ar = GridArith(E)
    widths = [pd.d for pd in pds]
    # a row's code: its counts, each at most d, as digits in base max d + 1
    base, W = max(widths) + 1, sum(widths)
    weights = np.array([base ** i for i in range(W)],
                       dtype=object if base ** W >= 1 << 63 else np.int64)
    tally = {}  # code -> [joint row of simple-part counts, fibers]
    ramified_patterns = []
    # fibers a block: 2^16 coefficient digits, as the fiber blocks that
    # counting._curve_points evaluates take, keep the classifier's arrays
    # to a few MiB
    step = max(1, _BLOCK_DIGITS // (4 * (max(widths) + 1) * E.k))
    for s0 in range(0, E.q + 1, step):  # slot s is u = s - 1, slot 0 is inf
        s1 = min(s0 + step, E.q + 1)
        start = max(s0, 1)  # Python ints past int64
        us = np.arange(s1 - start).astype(ar.dtype) + (start - 1)
        found = [_classify(*_fibers(pd, ar, us, s0 == 0), pd.d, E, ar)
                 for pd in pds]
        if s0 == 0:
            vertical_key = "|".join(_pattern(*cls, 0).key() for cls in found)
        rows = np.concatenate([cnt for cnt, _ in found], axis=1)
        keep = np.ones(s1 - s0, dtype=bool)
        for j in sorted(set().union(*(ram for _, ram in found))):
            keep[j] = False
            u = INFINITY if s0 + j == 0 else s0 + j - 1
            ramified_patterns.append((u, [_pattern(*cls, j) for cls in found]))
        rows = rows[keep]
        codes, first, num = np.unique(rows @ weights, return_index=True,
                                      return_counts=True)
        for code, j, m in zip(codes.tolist(), first, num.tolist()):
            tally.setdefault(code, [rows[j], 0])[1] += m
    counts = {_key(row, widths): m for row, m in tally.values()}
    return PatternHistogram(counts, len(ramified_patterns), E.q + 1,
                            vertical_key, ramified_patterns)
