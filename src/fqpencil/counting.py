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

from .bivar import BivariatePoly, is_smooth
from .errors import (ConstraintViolation, DegreeTooSmall,
                     HypothesisViolation, NotFoundWithinBudget)
from .field import (_LOG_TABLE_LIMIT, GridArith, _block_rows, make_field,
                    prime_power)
from .intervals import mul_bounds, q_pow_half_bounds, q_pow_quarter_bounds, sqrt_bounds
from .unipoly import UnivariatePoly, _irreducible_mask, factor, is_irreducible


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
    admits any irreducible specialization of degree >= 1.  Fields past
    q = 2^18 (field._LOG_TABLE_LIMIT) raise ConstraintViolation: their
    q^2 >= 6.9e10 pairs are out of reach of an exhaustive count.
    """
    if E.q > _LOG_TABLE_LIMIT:
        raise ConstraintViolation(
            f"counting needs q <= {_LOG_TABLE_LIMIT}, got q = {E.q}")
    _check_char(f)
    if f.field != E:
        f = f.map_to(E)
    full, incl = _count_rows(f, E).sum(axis=0).tolist()
    return CountReport(q=E.q, total_pairs=E.q ** 2,
                       count_full_degree=full, count_inclusive=incl,
                       mode=mode)


def _count_rows(f: BivariatePoly, E):
    """Per-a (full, inclusive) counts over every b, a (q, 2) array with a
    in canonical order, on canonical element indices.

    A restriction with a root in E, a curve point (t, x) with b = x - a t,
    is irreducible only when it is linear.  The t^d coefficient of
    f(t, a t + b) is f_d(1, a), whatever b is: on a row where it is
    nonzero every restriction has degree d, and for d <= 3 it is then
    irreducible exactly when it has no root.  The other rows, at most d
    of them when d <= 3 and every row when d >= 4, go to _grid_rows.
    Every grid is a GridArith.dot against the columns of z^e, e <= d.
    """
    ar = GridArith(E)
    q, d = E.q, f.total_degree()
    elems = np.arange(q)
    pcols = ar.power_columns(d)
    coef = _line_coefficients(f, E, ar, pcols)
    t_pts, x_pts = _curve_points(f, E, ar, pcols)
    # b = a (-t) + 1 x; E.p - 1 is the index of -1
    bcols = ar.columns(np.stack([ar.mul(E.p - 1, t_pts), x_pts]))
    out = np.zeros((q, 2), dtype=np.int64)
    rows = _block_rows(E)
    for start in range(0, q, rows):
        a = elems[start:start + rows]
        b = ar.dot(np.stack([a, np.ones_like(a)]), bcols)
        b += np.arange(0, a.size * q, q)[:, None]  # flat (a, b) cells
        has_root = np.zeros(a.size * q, dtype=bool)
        has_root[b] = True
        has_root = has_root.reshape(a.size, q)
        by_roots = (coef[d, 0, a] != 0) & (d <= 3)
        out[a[by_roots]] = q - np.count_nonzero(has_root[by_roots],
                                                axis=1)[:, None]
        if not by_roots.all():
            out[a[~by_roots]] = _grid_rows(f, E, ar, coef, pcols,
                                           a[~by_roots], has_root[~by_roots])
    return out


def _grid_rows(f: BivariatePoly, E, ar: GridArith, coef, pcols, a,
               has_root):
    """(full, inclusive) counts of the rows a, with has_root[i, b] marking
    the restrictions of row a[i] that have a root in E.

    Each pair's restriction is expanded from coef and classified by
    unipoly._irreducible_mask, the step that reducible.verify_conrad
    shares.
    """
    q, d = E.q, f.total_degree()
    # c[m]: the coefficient of t^m of each pair's restriction
    c = np.stack([ar.dot(coef[m, :d + 1 - m][:, a], pcols[:d + 1 - m])
                  for m in range(d + 1)]).reshape(d + 1, -1)
    deg, irr = _irreducible_mask(c, has_root.reshape(-1), E, ar)
    irr = irr.reshape(a.size, q)
    return np.stack([np.count_nonzero(irr & (deg.reshape(a.size, q) == d),
                                      axis=1),
                     np.count_nonzero(irr, axis=1)], axis=1)


def _line_coefficients(f: BivariatePoly, E, ar: GridArith, pcols):
    """coef[m, e, a]: the coefficient of t^m b^e in f(t, a t + b), the
    sum over l of binomial(e + l, l) f_{m-l, e+l} a^l."""
    q, d = E.q, f.total_degree()
    w = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)  # w[l, m, e]
    for (i, j), c in f.terms.items():
        for l in range(j + 1):
            w[l, i + l, j - l] = E.scalar(comb(j, l), c)
    return ar.dot(w.reshape(d + 1, -1), pcols).reshape(d + 1, d + 1, q)


def _curve_points(f: BivariatePoly, E, ar: GridArith, pcols):
    """All affine points of f = 0 over E as index arrays (t, x): the zeros
    of sum_j c_j(t) x^j, on blocks of t values (_block_rows)."""
    q, d = E.q, f.total_degree()
    nx = 1 + max(j for _, j in f.terms)
    fc = np.zeros((d + 1, nx), dtype=np.int64)  # fc[i, j] = f_{i, j}
    for (i, j), c in f.terms.items():
        fc[i, j] = c
    ct = ar.dot(fc, pcols)  # ct[j, t] = c_j(t)
    rows = _block_rows(E)
    t_out, x_out = [], []
    for start in range(0, q, rows):
        zero = ar.dot(ct[:, start:start + rows], pcols[:nx], zero=True)
        ti, xi = np.divmod(np.flatnonzero(zero), q)  # faster than nonzero
        t_out.append(ti + start)
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
    if s_max < 1:
        raise ConstraintViolation(f"s_max must be at least 1, got {s_max}")
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
    return dg >= 1 and (mode != "full" or dg == d) and is_irreducible(g)


# ---------------------------------------------------------------------------
# End-to-end application verdict


def verify_application(f: BivariatePoly, E,
                       counts: CountReport | None = None) -> dict:
    """Bundle of hypothesis checks, threshold, bound and exhaustive count.

    counts is a CountReport of f over E that the caller already holds; the
    pairs are counted here, in inclusive mode, when it is None.  The
    verdict compares the count that counts.mode names with the bound.
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
        report["verdict"] = "PASS"
        report["note"] = "bound nonpositive: vacuously satisfied"
    elif count >= bound.app_bound_hi:
        report["verdict"] = "PASS"
    elif count < bound.app_bound_lo:
        report["verdict"] = "FAIL"
    else:
        report["verdict"] = "INCONCLUSIVE"
        report["note"] = "count inside the enclosure of the bound"
    return report
