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
from math import comb

from .bivar import BivariatePoly, discriminant_poly_coeffs
from .errors import (BasePointOnCurve, CharacteristicObstruction,
                     ConstraintViolation, GenericPointNotFound)
from .unipoly import UnivariatePoly, _root_part, factor, squarefree_part

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
    branch_factors: list          # (irreducible factor of sqfree(delta), degree)
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
    sqf = squarefree_part(delta)
    squarefree = sqf.degree() == delta.degree()
    generic = squarefree and deficit <= 1
    branch_factors = factor(sqf)[1] if sqf.degree() >= 1 else []
    branch_count = sqf.degree() + (1 if deficit >= 1 else 0)
    return PencilDescriptor(f, M, E, d, A, delta, deficit, generic,
                            branch_factors, branch_count)


def _line_restriction(f: BivariatePoly, t0, x0):
    """Coefficients A_m(u) of s^m in f(t0 + s, x0 + s*u), m = 0..d."""
    E = f.field
    d = f.total_degree()
    tp = [E.one]
    for _ in range(max(f.deg_t(), 0)):
        tp.append(E.mul(tp[-1], t0))
    xp = [E.one]
    for _ in range(max(f.deg_x(), 0)):
        xp.append(E.mul(xp[-1], x0))
    grid = [[E.zero] * (m + 1) for m in range(d + 1)]  # [m][l] of s^m u^l
    for (i, j), c in f.terms.items():
        for mm in range(i + 1):
            ci = E.mul(c, E.scalar(comb(i, mm), tp[i - mm]))
            if ci == E.zero:
                continue
            for l in range(j + 1):
                v = E.mul(ci, E.scalar(comb(j, l), xp[j - l]))
                if v != E.zero:
                    m = mm + l
                    grid[m][l] = E.add(grid[m][l], v)
    return [UnivariatePoly(E, row) for row in grid]


def is_generic_point(f: BivariatePoly, M, E) -> bool:
    return pencil_discriminant(f, M, E).generic


def branch_loci_disjoint(pd1: PencilDescriptor, pd2: PencilDescriptor) -> bool:
    """No common branch parameter over the closure (u = infinity included)."""
    if pd1.delta.is_zero() or pd2.delta.is_zero():
        return False
    if pd1.deficit >= 1 and pd2.deficit >= 1:
        return False
    return squarefree_part(pd1.delta).gcd(
        squarefree_part(pd2.delta)).is_constant()


_EXHAUSTIVE_THRESHOLD = 4096


def find_generic_point(fs, E, trial_budget=None, seed=0, count=1):
    """First `count` base points that are generic for every listed curve,
    with pairwise disjoint branch loci.

    Points are tried in the deterministic element order up to an exhaustive
    threshold, then by seeded random sampling, up to trial_budget candidates.
    """
    if trial_budget is not None and trial_budget < 1:
        raise ConstraintViolation(
            f"the trial budget must be at least 1, got {trial_budget}")
    if isinstance(fs, BivariatePoly):
        fs = [fs]
    fs = [f.map_to(E) if f.field != E else f for f in fs]
    q2 = E.q * E.q
    if trial_budget is None:
        trial_budget = q2
    found = []
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
        ok = True
        for f in fs:
            pd = pencil_discriminant(f, M, E)
            if not pd.generic:
                ok = False
                break
            pds.append(pd)
        if not ok:
            continue
        if any(not branch_loci_disjoint(pds[i], pds[j])
               for i in range(len(pds)) for j in range(i + 1, len(pds))):
            continue
        found.append(M)
        if len(found) >= count:
            return found[0] if count == 1 else found
    raise GenericPointNotFound(
        f"no generic base point within {trial_budget} trials")


# ---------------------------------------------------------------------------
# Fiber patterns


def fiber_pattern(pd: PencilDescriptor, u) -> FiberPattern:
    """Factorization pattern of the fiber at pencil parameter u (None = inf)."""
    E = pd.field
    if u is INFINITY:
        A = pd.curve.specialize_t(pd.M[0])
    else:
        A = UnivariatePoly(E, [p.evaluate(u) for p in pd.coeff_polys])
    return _pattern_of(A, pd.d)


def _pattern_of(A: UnivariatePoly, d: int) -> FiberPattern:
    """Pattern of the homogeneous line restriction with formal degree d."""
    E = A.field
    dA = A.degree()
    parts = []
    if dA < d:
        parts.append((1, d - dA))  # intersection at the line's infinity
    if dA >= 1:
        parts.extend(_finite_parts(A, dA))
    return _make_pattern(parts)


def _finite_parts(A: UnivariatePoly, dA: int):
    E = A.field
    if dA == 1:
        return [(1, 1)]
    if dA == 2:
        a0, a1, a2 = (A.coeffs + [E.zero] * 3)[:3]
        disc = E.sub(E.mul(a1, a1),
                     E.scalar(4, E.mul(a0, a2)))
        if disc == E.zero:
            return [(1, 2)]
        return [(1, 1), (1, 1)] if E.is_square(disc) else [(2, 1)]
    if dA == 3:
        g = A.gcd(A.derivative())
        if g.is_constant():
            r = _root_part(A).degree()
            if r == 3:
                return [(1, 1), (1, 1), (1, 1)]
            if r == 1:
                return [(1, 1), (2, 1)]
            return [(3, 1)]
    return [(g.degree(), m) for g, m in factor(A)[1]]


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
    if any of the curves ramifies there.
    """
    if isinstance(pds, PencilDescriptor):
        pds = [pds]
    E = pds[0].field
    assert all(pd.field == E and pd.M == pds[0].M for pd in pds)
    counts = {}
    ramified = 0
    ramified_patterns = []
    vertical_key = ""
    total = 0
    params = [INFINITY, *range(E.q)]
    for u in params:
        pats = [fiber_pattern(pd, u) for pd in pds]
        key = "|".join(p.key() for p in pats)
        if u is INFINITY:
            vertical_key = key
        total += 1
        if any(p.ramified for p in pats):
            ramified += 1
            ramified_patterns.append((u, pats))
        else:
            counts[key] = counts.get(key, 0) + 1
    return PatternHistogram(counts, ramified, total, vertical_key,
                            ramified_patterns)
