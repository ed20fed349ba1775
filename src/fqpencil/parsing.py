"""Polynomial text parsing.

Grammar: terms joined by '+'/'-'; a term is [integer]['*']? followed by
factors; a factor is 't' or 'x' with an optional '^' positive-integer
exponent; whitespace is ignored; integer coefficients are reduced mod p.
'*' between factors is tolerated so canonical printer output re-parses;
a '*' must be followed by a factor.
"""

from __future__ import annotations

from .bivar import BivariatePoly
from .errors import DegreeOutOfRange, ParseError, UnknownVariable
from .unipoly import UnivariatePoly

# A term of larger total degree raises DegreeOutOfRange before any dense
# coefficient list is built.
MAX_TERM_DEGREE = 1 << 24
# Digits of a coefficient converted by one int() call: int() refuses
# strings of more than 4,300 digits (sys.get_int_max_str_digits).
_COEFF_CHUNK = 4000


class _Parser:
    def __init__(self, text: str, field):
        self.text = text
        self.n = len(text)
        self.i = 0
        self.F = field

    def _skip(self):
        while self.i < self.n and self.text[self.i].isspace():
            self.i += 1

    def _peek(self):
        return self.text[self.i] if self.i < self.n else ""

    def parse(self) -> BivariatePoly:
        F = self.F
        terms = {}
        self._skip()
        if self.i >= self.n:
            raise ParseError("empty polynomial", self.i)
        sign = 1
        if self._peek() in "+-":
            sign = -1 if self._peek() == "-" else 1
            self.i += 1
        while True:
            et, ex, coeff = self._term()
            c = F.from_int(sign * coeff)
            key = (et, ex)
            terms[key] = F.add(terms.get(key, F.zero), c)
            self._skip()
            if self.i >= self.n:
                break
            ch = self._peek()
            if ch == "+":
                sign = 1
            elif ch == "-":
                sign = -1
            else:
                raise ParseError(f"expected '+' or '-', found {ch!r}", self.i)
            self.i += 1
        return BivariatePoly(F, terms)

    def _digits(self) -> str:
        start = self.i
        while self.i < self.n and self.text[self.i].isdigit():
            self.i += 1
        return self.text[start:self.i]

    def _coefficient(self) -> int:
        """The integer at the cursor, mod p: chunks of at most _COEFF_CHUNK
        digits folded in by Horner's rule, exact at any length."""
        digits, p, out = self._digits(), self.F.p, 0
        for at in range(0, len(digits), _COEFF_CHUNK):
            chunk = digits[at:at + _COEFF_CHUNK]
            out = (out * pow(10, len(chunk), p) + int(chunk)) % p
        return out

    def _term(self):
        self._skip()
        coeff = 1
        saw = star = False
        if self._peek().isdigit():
            coeff = self._coefficient()
            saw = True
            self._skip()
            star = self._peek() == "*"
            self.i += star
        et = ex = 0
        while True:
            self._skip()
            ch = self._peek()
            if ch in ("t", "x"):
                self.i += 1
                e = 1
                self._skip()
                if self._peek() == "^":
                    self.i += 1
                    self._skip()
                    if not self._peek().isdigit():
                        raise ParseError("expected a positive integer "
                                         "exponent after '^'", self.i)
                    digits = self._digits().lstrip("0")
                    if not digits:
                        raise ParseError("exponent must be positive", self.i)
                    e = int(digits[:10])  # past the bound from 9 digits
                if ch == "t":
                    et += e
                else:
                    ex += e
                if et + ex > MAX_TERM_DEGREE:
                    raise DegreeOutOfRange(
                        f"a term of degree above {MAX_TERM_DEGREE}")
                saw = True
                self._skip()
                star = self._peek() == "*"
                self.i += star
                continue
            if ch.isalpha():
                raise UnknownVariable(
                    f"unknown variable {ch!r} (only 't' and 'x')", self.i)
            if star:
                raise ParseError("expected 't' or 'x' after '*'", self.i)
            break
        if not saw:
            raise ParseError("expected a term", self.i)
        return et, ex, coeff


def parse_poly(text: str, field) -> BivariatePoly:
    """Parse into a bivariate polynomial over the field's prime subfield."""
    return _Parser(text, field).parse()


def parse_univariate(text: str, field) -> tuple[UnivariatePoly, str]:
    """Parse a polynomial using at most one variable; returns (poly, var)."""
    f = parse_poly(text, field)
    if f.deg_t() >= 1 and f.deg_x() >= 1:
        raise ParseError("expected a univariate polynomial, found both "
                         "'t' and 'x'", 0)
    if f.deg_x() >= 1:
        g = f.transpose()
        var = "x"
    else:
        g = f
        var = "t"
    coeffs = [field.zero] * (g.deg_t() + 1)
    for (i, _), c in g.terms.items():
        coeffs[i] = c
    return UnivariatePoly(field, coeffs), var
