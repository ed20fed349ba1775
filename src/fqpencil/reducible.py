"""Construction and exhaustive verification of the x^{4q} + t^b counterexample.

For a prime power q and an exponent b with 1 < b < 4q and gcd(b, p(q-1)) = 1
(default b = 2q - 1), every substitution x -> g(t) with g in F_q[t] turns
x^{4q} + t^b into a reducible polynomial.  The verifier substitutes every g
of degree <= D and checks reducibility exhaustively; it also runs as a
negative control on arbitrary curves, reporting the first irreducible value.

It is one batched pass over blocks of substitutions.  A block's values
f(t, g(t)) are built together by Horner steps in x (polycore.substitute),
their roots in F_q are marked by GridArith.dot zero masks against the
powers of every element, and unipoly._irreducible_mask, the step of the
count kernel, classifies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .bivar import BivariatePoly
from .errors import ConstraintViolation, DegreeOutOfRange
from .field import _LOG_TABLE_LIMIT, GridArith, _block_rows, field_of_order
from .polycore import substitute
from .unipoly import UnivariatePoly, _irreducible_mask

# float64 digits (N + 1) k q of the root test's power table: 128 MiB.
_POWER_TABLE_LIMIT = 1 << 24
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
    degree bound N makes the power table of the root test pass
    _POWER_TABLE_LIMIT digits, when the q^(D + 1) substitutions pass
    _SUBSTITUTION_LIMIT, or when a value that reaches the Rabin test is
    past n k = polycore._FROB_TABLE_LIMIT.
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
            f"values of degree up to {N} over F_{q} need a power table "
            f"past {_POWER_TABLE_LIMIT} digits")
    total = q ** (D + 1)
    if total > _SUBSTITUTION_LIMIT:
        raise DegreeOutOfRange(
            f"D = {D} over F_{q} means {q}^{D + 1} substitutions, past "
            f"{_SUBSTITUTION_LIMIT}")
    # cs[j]: the coefficients of t^i in the coefficient c_j(t) of x^j
    cs = [[0] for _ in range(1 + max((j for _, j in f.terms), default=0))]
    for (i, j), c in f.terms.items():
        cs[j] += [0] * (i + 1 - len(cs[j]))
        cs[j][i] = c
    ar = GridArith(E)
    pcols = ar.power_columns(N)
    rows, root_rows = _block_rows(E, max(N, D) + 1), _block_rows(E)
    degenerate = irreducible = 0
    counterexample = None
    for start in range(0, total, rows):
        # g[i]: the coefficient of t^i of each substitution of the block
        m = np.arange(start, min(start + rows, total))
        g = np.empty((D + 1, m.size), dtype=np.int64)
        for i in range(D + 1):
            m, g[i] = np.divmod(m, q)
        c = substitute(cs, g, E)
        has_root = np.zeros(g.shape[1], dtype=bool)
        need = np.flatnonzero(c[2:].any(axis=0))  # degree >= 2
        for s in range(0, need.size, root_rows):
            part = need[s:s + root_rows]
            has_root[part] = ar.dot(c[:, part], pcols, zero=True).any(axis=1)
        deg, irr = _irreducible_mask(c, has_root, E, ar)
        degenerate += int(np.count_nonzero(deg < 1))
        irreducible += int(np.count_nonzero(irr))
        if counterexample is None and irr.any():
            first = UnivariatePoly(E, g[:, np.argmax(irr)].tolist())
            counterexample = first.format("t")
    return {
        "substitutions": total,
        "degree_cap": D,
        "reducible": total - degenerate - irreducible,
        "degenerate": degenerate,
        "all_reducible": counterexample is None,
        "counterexample": counterexample,
    }
