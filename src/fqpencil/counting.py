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
from math import comb, factorial

import numpy as np
import sympy

from .bivar import BivariatePoly, is_smooth
from .errors import (ConstraintViolation, DegreeOutOfRange, DegreeTooSmall,
                     HypothesisViolation, NotFoundWithinBudget)
from .field import _LOG_TABLE_LIMIT, GridArith, make_field, prime_power
from .intervals import mul_bounds, q_pow_half_bounds, q_pow_quarter_bounds, sqrt_bounds
from .unipoly import (UnivariatePoly, _count_dtype, _rabin_batch, factor,
                      is_irreducible)


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


def genus_closed_form(d: int, N: int) -> int:
    """Closed form g = 1 + (N/2)(d-2)(d+1) for a single degree-d curve."""
    num = N * (d - 2) * (d + 1)
    assert num % 2 == 0
    return 1 + num // 2


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
        raise HypothesisViolation("counting needs total degree >= 2")
    if (d * (d - 1)) % f.field.p == 0:
        raise HypothesisViolation(
            f"characteristic {f.field.p} divides d(d-1) = {d * (d - 1)}")


def count_irreducible_pairs(f: BivariatePoly, E,
                            mode: str = "inclusive") -> CountReport:
    """Exact counts of (a, b) in E^2 with f(t, a t + b) irreducible.

    count_full_degree additionally requires deg_t = d; count_inclusive
    admits any irreducible specialization of degree >= 1.
    """
    _check_char(f)
    if f.field != E:
        f = f.map_to(E)
    d = f.total_degree()
    if E.k > 1 and E.q > _LOG_TABLE_LIMIT:
        full, incl = _count_generic(f, E)
    elif d <= 3:
        full, incl = map(sum, zip(*_d_le3_rows(f, E)))
    else:
        try:
            _count_dtype(E, d)
        except DegreeOutOfRange:  # p near 10^9: the batch sums would wrap
            full, incl = _count_generic(f, E)
        else:
            full, incl = _count_rabin(f, E)
    return CountReport(q=E.q, total_pairs=E.q ** 2,
                       count_full_degree=full, count_inclusive=incl,
                       mode=mode)


def _count_generic(f: BivariatePoly, E):
    return map(sum, zip(*(_generic_row(f, E, ai) for ai in range(E.q))))


def _generic_row(f: BivariatePoly, E, ai: int):
    """(full, inclusive) counts over every b for the ai-th a, pair by pair."""
    d = f.total_degree()
    full = incl = 0
    for b in range(E.q):
        g = f.restrict_to_line(ai, b)
        dg = g.degree()
        if dg < 1:
            continue
        if _is_irreducible_small(g):
            incl += 1
            if dg == d:
                full += 1
    return full, incl


def _is_irreducible_small(g: UnivariatePoly) -> bool:
    E = g.field
    if g.degree() == 2:
        a0, a1, a2 = g.coeffs
        disc = E.sub(E.mul(a1, a1), E.scalar(4, E.mul(a0, a2)))
        return disc != E.zero and not E.is_square(disc)
    return is_irreducible(g)


def _d_le3_rows(f: BivariatePoly, E):
    """Per-a (full, inclusive) counts for d <= 3 on canonical element
    indices, a in canonical order.

    A restriction of degree 3 is irreducible exactly when it has no root,
    that is when its line misses every affine point of the curve; one of
    degree 2 exactly when its discriminant is a non-square.
    """
    ar = GridArith(E)
    q, d = E.q, f.total_degree()
    elems = np.arange(q)
    coef = _line_coefficients(f, E, ar)
    nonsquare = np.ones(q, dtype=bool)
    nonsquare[ar.mul(elems, elems)] = False
    if d == 3:
        t_pts, x_pts = _curve_points(f, E, ar)
        neg_t = ar.mul(E.p - 1, t_pts)  # E.p - 1 is the index of -1

    def row(a):
        c = coef[:, :, a].tolist()
        if d == 3 and c[3][0]:  # the t^3 coefficient is b-independent
            has_root = np.zeros(q, dtype=bool)
            has_root[ar.muladd(a, neg_t, x_pts)] = True  # b = x - a t
            n_irr = q - int(np.count_nonzero(has_root))
            return n_irr, n_irr
        # degrees <= 2 (either d == 2, or the cubic coefficient vanished)
        # the t^m coefficient has degree <= d - m in b
        c2, c1, c0 = (ar.horner(c[m][:d + 1 - m], elems) for m in (2, 1, 0))
        quad = c2 != 0
        disc = ar.muladd(c1, c1, ar.mul(-4 % E.p, ar.mul(c0, c2)))
        n2 = int(np.count_nonzero(quad & nonsquare[disc]))
        incl = n2 + int(np.count_nonzero(~quad & (c1 != 0)))
        return (n2 if d == 2 else 0), incl

    return [row(a) for a in range(q)]


def _line_coefficients(f: BivariatePoly, E, ar: GridArith):
    """coef[m, e, a]: the coefficient of t^m b^e in f(t, a t + b)."""
    q, d = E.q, f.total_degree()
    elems = np.arange(q)
    apow = [np.ones(q, dtype=np.int64)]  # index 1 is the element 1
    for _ in range(d):
        apow.append(ar.mul(apow[-1], elems))
    coef = np.zeros((d + 1, d + 1, q), dtype=np.int64)
    for (i, j), c in f.terms.items():
        for l in range(j + 1):
            cl = E.scalar(comb(j, l), c)
            coef[i + l, j - l] = ar.muladd(cl, apow[l], coef[i + l, j - l])
    return coef


def _count_rabin(f: BivariatePoly, E):
    """Whole-grid count on canonical indices with a batched Rabin test.

    Restrictions with a root in E, a curve point (t, x) with b = x - a t,
    are dropped; the rest are made monic and tested in one _rabin_batch
    call per degree n and block of a rows.  That test is exact when n is a
    prime power, and with no root for n <= 6 (count_monic_irreducibles);
    the pairs that pass it at larger n are confirmed one by one.
    """
    ar = GridArith(E)
    q, d = E.q, f.total_degree()
    elems = np.arange(q)
    coef = _line_coefficients(f, E, ar)
    t_pts, x_pts = _curve_points(f, E, ar)
    neg_t = ar.mul(E.p - 1, t_pts)  # E.p - 1 is the index of -1
    # blocks of about 2^22 residue entries inside the Rabin test
    rows = max(1, (1 << 22) // (q * E.k * d * d))
    full = incl = 0
    for start in range(0, q, rows):
        a = elems[start:start + rows]
        # c[m]: the coefficient of t^m of each block pair's restriction
        block = coef[:, :, a, None]
        c = np.stack([ar.horner(block[m, :d + 1 - m], elems)
                      for m in range(d + 1)]).reshape(d + 1, -1)
        has_root = np.zeros((a.size, q), dtype=bool)
        has_root[np.arange(a.size)[:, None],
                 ar.muladd(a[:, None], neg_t, x_pts)] = True
        deg = np.argmax(np.cumsum(c != 0, axis=0), axis=0)  # 0 if c == 0
        incl += int(np.count_nonzero(deg == 1))
        for n in range(2, d + 1):
            cn = c[:n + 1, (deg == n) & ~has_root.reshape(-1)]
            if not cn.size:
                continue
            low = E.to_vector(ar.mul(cn[:n], ar.inv(cn[n]))).transpose(0, 2, 1)
            good = _rabin_batch(low.astype(_count_dtype(E, n)), E)
            if n > 6 and len(sympy.primefactors(n)) > 1:
                for j in np.flatnonzero(good):
                    good[j] = is_irreducible(
                        UnivariatePoly(E, cn[:, j].tolist()))
            n_irr = int(np.count_nonzero(good))
            incl += n_irr
            full += n_irr if n == d else 0
    return full, incl


def _curve_points(f: BivariatePoly, E, ar: GridArith):
    """All affine points of f = 0 over E as index arrays (t, x), evaluated
    on blocks of t values of about 2^22 / k grid cells each."""
    q = E.q
    elems = np.arange(q)
    slices = [cj.coeffs for cj in f.x_coefficients()]
    rows = max(1, (1 << 22) // (q * E.k))
    t_out, x_out = [], []
    for start in range(0, q, rows):
        ts = elems[start:start + rows]
        cols = [ar.horner(s, ts)[:, None] for s in slices]
        ti, xi = np.nonzero(ar.horner(cols, elems) == 0)
        t_out.append(ts[ti])
        x_out.append(xi)
    return np.concatenate(t_out), np.concatenate(x_out)


# ---------------------------------------------------------------------------
# Hypothesis checks and the simultaneous-specialization search


def check_hypotheses(fs, E):
    """Raise HypothesisViolation unless every curve satisfies the
    hypotheses (p odd, p does not divide d(d-1), smooth) and the curves are
    pairwise non-proportional.  A smooth projective plane curve is
    absolutely irreducible: two components would meet in a singular point
    (Bezout; Fulton, Algebraic Curves, ch. 5)."""
    if E.p == 2:
        raise HypothesisViolation("the characteristic must be odd")
    for f in fs:
        d = f.total_degree()
        if d < 2:
            raise HypothesisViolation("curve degrees must be >= 2")
        if (d * (d - 1)) % E.p == 0:
            raise HypothesisViolation(
                f"characteristic {E.p} divides d(d-1) = {d * (d - 1)}")
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
    if isinstance(fs, BivariatePoly):
        fs = [fs]
    check_hypotheses(fs, base_field)
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
    return (dg >= 1 and (mode != "full" or dg == d)
            and _is_irreducible_small(g))


# ---------------------------------------------------------------------------
# End-to-end application verdict


def verify_application(f: BivariatePoly, E,
                       counts: CountReport | None = None) -> dict:
    """Bundle of hypothesis checks, threshold, bound and exhaustive count.

    counts is a CountReport of f over E that the caller already holds; the
    pairs are counted here when it is None.  Only a singular curve needs an
    irreducibility certificate: a smooth one is irreducible (see
    check_hypotheses).
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
    if not bound.app_threshold_ok:
        report["verdict"] = "THRESHOLD_NOT_MET"
    elif bound.app_bound_hi <= 0:
        report["verdict"] = "PASS"
        report["note"] = "bound nonpositive: vacuously satisfied"
    elif Fraction(counts.count_inclusive) >= bound.app_bound_hi:
        report["verdict"] = "PASS"
    elif Fraction(counts.count_inclusive) < bound.app_bound_lo:
        report["verdict"] = "FAIL"
    else:
        report["verdict"] = "INCONCLUSIVE"
        report["note"] = "count inside the enclosure of the bound"
    return report
