"""Exact rational scalars, dense univariate polynomials, and determinant kernels.

Scalars are arbitrary-precision rationals (``fractions.Fraction``), always in
lowest terms with a positive denominator, so structural equality is
mathematical equality.  A scalar's string form is ``"p/q"`` (or ``"p"`` when
the denominator is 1), which is also the serialization format.

``UPoly`` is a dense univariate polynomial given by its coefficient tuple in
ascending power order.  The zero polynomial is canonically the empty tuple,
so again structural equality is mathematical equality.  Every coefficient
is a ``Fraction``: a determinant in a second unknown is a tuple of
``UPoly``s, one per power of the first, never a polynomial over
polynomials.  Every operation is a pure function of immutable values, so
all types here are safe to share between threads.
"""

from __future__ import annotations

import operator
import reprlib
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

#: Degree reported for the zero polynomial.
NEG_INFINITY = float("-inf")

#: Most digits a parsed numerator or denominator may have: Python converts
#: no longer integer to or from a string.
MAX_DIGITS = 4300


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division was requested but the remainder is nonzero."""


def _too_long(text: str) -> ValueError:
    return ValueError(f"a rational exceeds {MAX_DIGITS} digits: {text[:40]!r}")


def parse_rational(text) -> Fraction:
    """The exact rational a string spells: "p/q", a decimal, or exponent
    notation.  Anything else, a zero denominator, or a numerator,
    denominator or exponent over ``MAX_DIGITS`` digits raises ValueError;
    the size is bounded from the text before the value is built."""
    if not isinstance(text, str):
        raise ValueError(f"not an exact rational: {text!r}")
    # an integer or a "p/q" in plain ASCII digits, the common case, is read
    # without ``Fraction``'s general parser ("²" is a digit to ``isdigit``)
    numerator, slash, denominator = text.partition("/")
    unsigned = numerator.removeprefix("-")
    if unsigned.isdigit() and text.isascii() and (denominator.isdigit() or not slash):
        if max(len(unsigned), len(denominator)) > MAX_DIGITS:
            raise _too_long(text)
        if not slash:
            return Fraction(int(numerator))
        if not denominator.strip("0"):
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(numerator), int(denominator))
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, decimals = mantissa.partition(".")
    digits = [sum(c.isdigit() for c in part) for part in (*whole.split("/"), decimals)]
    if len(exponent) > MAX_DIGITS:
        raise _too_long(text)
    try:
        shift = int(exponent or 0)
    except ValueError:
        raise ValueError(f"Invalid literal for Fraction: {text!r}") from None
    if max(*digits, digits[0] + digits[-1] + max(shift, 0),
           digits[-1] - min(shift, 0) + 1) > MAX_DIGITS:
        raise _too_long(text)
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def as_rational(value) -> Fraction:
    """The exact rational ``value`` stands for: a ``Fraction``, an int, or a
    string read by ``parse_rational`` (so its digits are bounded).  A float
    or a bool is not an exact input, and it raises TypeError like any other
    type."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {reprlib.repr(value)}")


class UPoly:
    """Immutable univariate polynomial, coefficients in ascending power order."""

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable = ()) -> None:
        cs = [as_rational(c) for c in coefficients]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls) -> "UPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "UPoly":
        """The identity polynomial p(x) = x."""
        return cls((0, 1))

    @classmethod
    def constant(cls, value) -> "UPoly":
        return cls((value,))

    # -- inspection ---------------------------------------------------------

    @property
    def degree(self):
        """Degree of the polynomial; ``NEG_INFINITY`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if len(self.coeffs) > 1:
            raise ValueError(f"{self!r} is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "UPoly":
        if not isinstance(other, UPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UPoly(out)

    def __sub__(self, other) -> "UPoly":
        if not isinstance(other, UPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "UPoly":
        return UPoly(-c for c in self.coeffs)

    def __mul__(self, other) -> "UPoly":
        if isinstance(other, UPoly):
            if not self.coeffs or not other.coeffs:
                return UPoly()
            out: list = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    p = a * b
                    out[i + j] = p if out[i + j] is None else out[i + j] + p
            return UPoly(out)
        if isinstance(other, (int, Fraction)):
            return UPoly(c * other for c in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "UPoly":
        if exponent < 0:
            raise ValueError("negative exponent")
        if exponent == 0:
            return UPoly.one()
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    def __divmod__(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        """Polynomial long division over the rationals."""
        if not isinstance(other, UPoly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if not self:
            return UPoly(), UPoly()
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        quo = [Fraction(0)] * max(0, len(rem) - d)
        while True:
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) - 1 < d or not rem:
                break
            f = rem[-1] / lead
            pos = len(rem) - 1 - d
            quo[pos] = f
            for i, c in enumerate(other.coeffs):
                rem[pos + i] = rem[pos + i] - c * f
        return UPoly(quo), UPoly(rem)

    def __mod__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[1]

    def __truediv__(self, other) -> "UPoly":
        """Exact division.  Scalars divide coefficientwise; for a polynomial
        divisor the remainder must vanish, else ``NotDivisibleError``."""
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            return UPoly(c / other for c in self.coeffs)
        if isinstance(other, UPoly):
            if other.is_constant:
                return self / other.constant_value()
            quotient, remainder = divmod(self, other)
            if remainder:
                raise NotDivisibleError(f"{self!r} is not divisible by {other!r}")
            return quotient
        return NotImplemented

    # -- calculus and evaluation --------------------------------------------

    def derivative(self) -> "UPoly":
        return UPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __call__(self, value):
        """Evaluate by Horner's rule at a rational point."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * value + c
        return value * 0 if acc is None else acc

    # -- normal forms --------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer
        coefficients; the zero polynomial has none (``ValueError``)."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no content")
        num = gcd(*(c.numerator for c in self.coeffs))
        den = lcm(*(c.denominator for c in self.coeffs))
        return Fraction(num, den)

    def primitive_part(self) -> "UPoly":
        """self divided by its content, sign-fixed to a positive leading term."""
        if not self.coeffs:
            return self
        c = self.content()
        if self.coeffs[-1] < 0:
            c = -c
        return self / c

    # -- comparison / misc ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, UPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return other == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return self.format()

    def format(self, var: str = "x") -> str:
        """Human-readable rendering, highest power first."""
        return format_polynomial(self.to_strings(), var)


def format_polynomial(coefficients: Sequence[str], var: str = "x") -> str:
    """Human-readable rendering, highest power first, of the polynomial
    whose ascending coefficients are given as the strings ``str`` writes
    for ints and Fractions ("-3", "2/5")."""
    parts = []
    for power in range(len(coefficients) - 1, -1, -1):
        c = coefficients[power]
        if c == "0":
            continue
        negative = c[0] == "-"
        magnitude = c[1:] if negative else c
        if power:
            term = var if power == 1 else f"{var}^{power}"
            if magnitude != "1":
                term = f"{magnitude}*{term}"
        else:
            term = magnitude
        parts += (" - " if negative else " + ", term)
    if not parts:
        return "0"
    parts[0] = parts[0].strip(" +")  # the leading sign: "-" or none
    return "".join(parts)


def poly_gcd(p: UPoly, q: UPoly) -> UPoly:
    """Monic greatest common divisor over the rationals (Euclid)."""
    a, b = p, q
    while b:
        a, b = b, a % b
    if not a:
        return a
    return a / a.leading


def squarefree_part(p: UPoly) -> UPoly:
    """p with repeated factors collapsed to multiplicity one."""
    g = poly_gcd(p, p.derivative())
    if g.is_constant:
        return p
    return p / g


def _exact_quotient(value, divisor):
    """value / divisor in the ring of the entries, where it must be exact:
    an int stays an int (a remainder raises ``ArithmeticError``), and
    Fractions and polynomials divide as themselves."""
    if isinstance(value, int) and isinstance(divisor, int):
        quotient, remainder = divmod(value, divisor)
        if remainder:
            raise ArithmeticError(f"{value} is not divisible by {divisor}")
        return quotient
    return value / divisor


def bareiss_determinant(rows: Sequence[Sequence]) -> UPoly:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every intermediate division is exact in the entry ring, so the result is
    exact for integer or polynomial entries without any rational or
    rational-function arithmetic; integer entries give an int.  Row swaps
    are tracked with a sign flip; a fully zero pivot column short circuits
    to the zero result.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    a = [list(r) for r in rows]
    for row in a:
        if len(row) != n:
            raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return a[0][0] * 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = _exact_quotient(a[k][k] * a[i][j] - a[i][k] * a[k][j], prev)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign > 0 else -det


def banded_minors(bands: Sequence[Sequence], times=operator.mul) -> list:
    """Leading principal minors, of orders 1..m, of an order-m matrix with
    one subdiagonal and two superdiagonals.

    ``bands[k] = (A_k, B_k, C_k, D_k)`` holds row k at columns k-1..k+2;
    entries outside the square do not contribute.  Uses the order-3
    recurrence on leading principal minors implied by the band (expansion
    along the last column), so it needs only ring operations, and the minors
    lie in the ring of the entries.  A zero subdiagonal entry A_k (every row
    of an upper-triangular band) leaves one term, B_k times the last minor,
    and a zero D_(k-2) (every row of a tridiagonal band) drops the third.
    Each product is ``times(entry, minor)`` (by default ``*``), as A_k (C_(k-1) M),
    so the minors may have another form than the entries, which ``times`` maps.
    """
    if not bands:
        raise ValueError("empty matrix")
    dets: list = [0, 0, 1]  # leading minors of order -2, -1 and 0
    up = up2 = None  # the rows above, read only where their minor is nonzero
    for band in bands:
        a = band[0]
        det = times(band[1], dets[-1])
        if a:
            if dets[-2]:
                det = det - times(a, times(up[2], dets[-2]))
            if dets[-3] and up2[3]:
                det = det + times(a, times(up[0], times(up2[3], dets[-3])))
        dets.append(det)
        up2, up = up, band
    return dets[3:]
