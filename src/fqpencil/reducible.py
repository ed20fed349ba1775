"""Construction and exhaustive verification of the x^{4q} + t^b counterexample.

For a prime power q and an exponent b with 1 < b < 4q and gcd(b, p(q-1)) = 1
(default b = 2q - 1), every substitution x -> g(t) with g in F_q[t] turns
x^{4q} + t^b into a reducible polynomial.  The verifier substitutes every g
of degree <= D and checks reducibility exhaustively; it also runs as a
negative control on arbitrary curves, reporting the first irreducible value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bivar import BivariatePoly
from .errors import ConstraintViolation
from .field import field_of_order
from .unipoly import UnivariatePoly, is_irreducible


@dataclass
class ConradInstance:
    q: int
    p: int
    b: int
    f: BivariatePoly

    def as_dict(self):
        return {"q": self.q, "p": self.p, "b": self.b, "f": self.f.format()}


def conrad_polynomial(q: int, b: int | None = None) -> ConradInstance:
    E = field_of_order(q)
    if b is None:
        b = 2 * q - 1
    if not (1 < b < 4 * q):
        raise ConstraintViolation(f"need 1 < b < 4q, got b = {b}")
    if gcd(b, E.p * (q - 1)) != 1:
        raise ConstraintViolation(
            f"need gcd(b, p(q-1)) = 1, got gcd({b}, {E.p * (q - 1)}) != 1")
    f = BivariatePoly(E, {(0, 4 * q): E.one, (b, 0): E.one})
    return ConradInstance(q=q, p=E.p, b=b, f=f)


def verify_conrad(instance, D: int) -> dict:
    """Substitute every g in F_q[t] with deg g <= D into f and factor.

    Accepts a ConradInstance or a bare BivariatePoly (negative control).
    Returns a report; all_reducible is true iff no substitution produced an
    irreducible value.  Degenerate values (zero or constant) are classified
    separately, not counted as irreducible.
    """
    if D < 0:
        raise ConstraintViolation(f"degree cap D = {D} must be at least 0")
    f = instance.f if isinstance(instance, ConradInstance) else instance
    E = f.field
    total = E.q ** (D + 1)

    def work(idx):
        coeffs = []
        m = idx
        for _ in range(D + 1):
            coeffs.append(E.element_at(m % E.q))
            m //= E.q
        g = UnivariatePoly(E, coeffs)
        h = f.substitute_x(g)
        if h.degree() < 1:
            return ("degenerate", g)
        if h.degree() == 1 or not _reducible(h):
            return ("irreducible", g)
        return ("reducible", g)

    results = [work(idx) for idx in range(total)]
    degenerate = sum(1 for kind, _ in results if kind == "degenerate")
    counterexamples = [g for kind, g in results if kind == "irreducible"]
    return {
        "substitutions": total,
        "degree_cap": D,
        "reducible": total - degenerate - len(counterexamples),
        "degenerate": degenerate,
        "all_reducible": not counterexamples,
        "counterexample": (counterexamples[0].format("t")
                           if counterexamples else None),
    }


def _reducible(h: UnivariatePoly) -> bool:
    """Whether h (degree >= 2) is reducible over its coefficient field."""
    dh = h.derivative()
    if dh.is_zero():
        return True  # a p-th power
    if not h.gcd(dh).is_constant():
        return True
    return not is_irreducible(h)
