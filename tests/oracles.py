"""Independent oracles shared by several test modules.

They use only the public API of fqpencil; test_bivar checks that they
import no private name from it.
"""

from fqpencil.bivar import (BivariatePoly, SingularWitness,
                            homogenize_and_degree)
from fqpencil.field import embed, make_field
from fqpencil.unipoly import UnivariatePoly, factor, roots_in_field


def brute_force_singular_search(f: BivariatePoly, m_max: int):
    """Independent smoothness oracle: exhaustive search over F_{q^m},
    m <= m_max, of f's projective closure, point (0:1:0) first, then the
    line at infinity, then the chart Z = 1 by T-value.  Per T-value the
    X-coordinates of singular points are repeated roots of the fiber, so
    each T costs one gcd of small univariate polynomials instead of a
    full X-scan."""
    _, form = homogenize_and_degree(f)
    F = form.field
    fT, fX, fZ = (form.partial(v) for v in "TXZ")

    # The single point (0:1:0).
    zero, one = F.zero, F.one
    if all(h.evaluate(zero, one, zero) == zero for h in (form, fT, fX, fZ)):
        return SingularWitness(F, (zero, one, zero))

    # Rest of the line at infinity: T = 1, Z = 0.
    g = form.restrict_infinity().gcd(fX.restrict_infinity())
    if not g.is_constant():
        g = g.gcd(fZ.restrict_infinity())
        if not g.is_constant():
            g = g.gcd(fT.restrict_infinity())
    if not g.is_constant():
        for irr, _ in factor(g)[1]:
            if irr.degree() <= m_max:
                E = make_field(F.p, F.k * irr.degree())
                xi = roots_in_field(
                    irr.map_coeffs(lambda c: embed(F, E, c), E))[0]
                return SingularWitness(E, (E.one, xi, E.zero))

    # Affine chart Z = 1.
    slices = form.x_slices()
    ft_slices = fT.x_slices()
    fz_slices = fZ.x_slices()
    for m in range(1, m_max + 1):
        E = make_field(F.p, F.k * m)
        lift = lambda c: embed(F, E, c)
        sl = [p.map_coeffs(lift, E) for p in slices]
        tl = [p.map_coeffs(lift, E) for p in ft_slices]
        zl = [p.map_coeffs(lift, E) for p in fz_slices]
        for tau in range(E.q):
            fv = UnivariatePoly(E, [p.evaluate(tau) for p in sl])
            if fv.degree() < 1:
                if fv.is_zero():
                    # whole vertical fiber on the curve: check partials there
                    ftv = UnivariatePoly(E, [p.evaluate(tau) for p in tl])
                    fzv = UnivariatePoly(E, [p.evaluate(tau) for p in zl])
                    g2 = ftv.gcd(fzv)
                    cand = range(E.q) if g2.is_zero() else roots_in_field(g2)
                    for xi in cand:
                        return SingularWitness(E, (tau, xi, E.one))
                continue
            ftv = UnivariatePoly(E, [p.evaluate(tau) for p in tl])
            dfv = fv.derivative()
            g2 = fv.gcd(dfv if not dfv.is_zero() else fv)
            if g2.is_constant():
                continue
            g2 = g2.gcd(ftv)
            if g2.is_constant():
                continue
            fzv = UnivariatePoly(E, [p.evaluate(tau) for p in zl])
            g2 = g2.gcd(fzv)
            if g2.is_constant():
                continue
            roots = roots_in_field(g2) if g2.degree() >= 1 else []
            if roots:
                return SingularWitness(E, (tau, roots[0], E.one))
    return None
