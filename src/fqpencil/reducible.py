"""Construction and exhaustive verification of the x^{4q} + t^b counterexample.

For a prime power q and an exponent b with 1 < b < 4q and gcd(b, p(q-1)) = 1
(default b = 2q - 1), every substitution x -> g(t) with g in F_q[t] turns
x^{4q} + t^b into a reducible polynomial.  The verifier substitutes every g
of degree <= D and checks reducibility exhaustively; it also runs as a
negative control on arbitrary curves, reporting the first irreducible value.

It runs on the count kernel, counting.substitution_rows: a row is the
part g_1 t + .. + g_D t^D of g and its cells are the values of g_0.  The
values' roots are marked through the curve points (t0, x0), in the cell
where g(t0) = x0, and the rows whose values are not all of one degree 2
or 3 are expanded over g_0 and classified by unipoly._irreducible_mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .bivar import BivariatePoly
from .counting import substitution_rows
from .errors import ConstraintViolation, DegreeOutOfRange
from .field import _LOG_TABLE_LIMIT, _POWER_TABLE_LIMIT, field_of_order
from .unipoly import UnivariatePoly

# Substitutions q^(D + 1) of one verification.
_SUBSTITUTION_LIMIT = 1 << 24


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
    """Substitute every g in F_q[t] with deg g <= D into f and classify.

    Accepts a ConradInstance or a bare BivariatePoly (negative control).
    Returns a report; all_reducible is true iff no substitution produced an
    irreducible value, and counterexample is the first such g in index
    order, g = sum_i g_i t^i at index sum_i g_i q^i.  Degenerate values
    (zero or constant) are classified separately, not counted as
    irreducible.  Raises ConstraintViolation past q = _LOG_TABLE_LIMIT,
    where GridArith has no tables, and DegreeOutOfRange when the values'
    degree bound N makes one row of the kernel's value grid, (N + 1) k q
    digits, pass _POWER_TABLE_LIMIT, when the q^(D + 1) substitutions
    pass _SUBSTITUTION_LIMIT, or when a value that reaches the Rabin test
    is past n k = polycore._FROB_TABLE_LIMIT.
    """
    if D < 0:
        raise ConstraintViolation(f"degree cap D = {D} must be at least 0")
    f = instance.f if isinstance(instance, ConradInstance) else instance
    E = f.field
    q, k = E.q, E.k
    if q > _LOG_TABLE_LIMIT:
        raise ConstraintViolation(
            f"verifying substitutions needs q <= {_LOG_TABLE_LIMIT}, "
            f"got q = {q}")
    N = max((i + j * D for i, j in f.terms), default=0)  # >= deg f(t, g)
    if (N + 1) * k * q > _POWER_TABLE_LIMIT:
        raise DegreeOutOfRange(
            f"values of degree up to {N} over F_{q} need value-grid rows "
            f"past {_POWER_TABLE_LIMIT} digits")
    total = q ** (D + 1)
    if total > _SUBSTITUTION_LIMIT:
        raise DegreeOutOfRange(
            f"D = {D} over F_{q} means {q}^{D + 1} substitutions, past "
            f"{_SUBSTITUTION_LIMIT}")
    degenerate = irreducible = 0
    first = total  # index of the first irreducible value
    for rows, deg, irr in substitution_rows(f.terms, E, D):
        degenerate += int(np.count_nonzero(deg < 1))  # a per-row deg is >= 2
        irreducible += int(np.count_nonzero(irr))
        if first == total and irr.any():
            r, g0 = divmod(int(np.argmax(irr)), q)
            first = int(rows[r]) * q + g0
    g = UnivariatePoly(E, [first // q ** i % q for i in range(D + 1)])
    counterexample = g.format("t") if first < total else None
    return {
        "substitutions": total,
        "degree_cap": D,
        "reducible": total - degenerate - irreducible,
        "degenerate": degenerate,
        "all_reducible": counterexample is None,
        "counterexample": counterexample,
    }
