"""Exact Gaussian-rational scalars.

The coefficient field of the whole package is Q(i): complex numbers with
rational real and imaginary parts.  This keeps every arithmetic question
decidable, in particular whether the difference of two shifts is an integer.
``GaussianRational`` stores one such number as an int triple
``(re + im*i) / den``, canonical: ``den`` is positive and ``re``, ``im`` and
``den`` share no factor.  Polynomial coefficients (see ``poly``) are the
same Gaussian integers over one denominator per polynomial, so every layer
reads the ints directly.  ``pair_text`` renders ``(re + im*i) / den``; it is
the one scalar renderer, which ``scalar_text`` also calls.  Integers of any
length print (``decimal_text``) and parse (``decimal_int``), also past the
interpreter's limit on ``str(int)`` and ``int(str)``.
Floating-point complex numbers are accepted only by the numeric oracle,
never by the symbolic core.

``fractions`` is imported only when a ``Fraction`` is asked for or passed
in: ints build scalars directly, and until ``fractions`` is imported no
``Fraction`` operand can exist.
"""

from __future__ import annotations

import sys
from math import gcd, lcm
from typing import TYPE_CHECKING, TypeVar, Union

if TYPE_CHECKING:
    from fractions import Fraction

RationalLike = Union[int, "Fraction"]
ScalarLike = Union["GaussianRational", int, "Fraction"]


class GaussianRational:
    """A complex number (re + im*i) / den with int parts.

    Every instance is canonical (``den > 0`` and ``gcd(re, im, den) == 1``),
    so equality and hashing are structural.  ``real`` and ``imag`` give the
    parts as ``Fraction`` values.  Instances are immutable.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, real: RationalLike, imag: RationalLike = 0):
        if isinstance(real, int) and isinstance(imag, int):
            re, im, den = int(real), int(imag), 1
        else:
            from fractions import Fraction

            real, imag = Fraction(real), Fraction(imag)
            # Over the lcm of two reduced denominators the parts share no factor.
            den = lcm(real.denominator, imag.denominator)
            re = real.numerator * (den // real.denominator)
            im = imag.numerator * (den // imag.denominator)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, re: int, im: int, den: int) -> GaussianRational:
        """The canonical instance for ``(re + im*i) / den``, ``den`` nonzero."""
        if den < 0:
            re, im, den = -re, -im, -den
        g = gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
        return _raw(re, im, den)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational._of, (self.re, self.im, self.den)

    @property
    def real(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.re, self.den)

    @property
    def imag(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.im, self.den)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_integer(self) -> bool:
        return not self.im and self.den == 1

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.re, self.im, self.den))

    def __neg__(self) -> GaussianRational:
        return GaussianRational._of(-self.re, -self.im, self.den)

    def _plus(self, re: int, im: int, den: int) -> GaussianRational:
        """self + (re + im*i)/den, over the product of the denominators and
        reduced by ``_of``."""
        a = self.den
        return GaussianRational._of(self.re * den + re * a, self.im * den + im * a, a * den)

    def __add__(self, other: ScalarLike) -> GaussianRational:
        if not _scalar_operand(other):
            return NotImplemented
        other = to_scalar(other)
        return self._plus(other.re, other.im, other.den)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> GaussianRational:
        if not _scalar_operand(other):
            return NotImplemented
        other = to_scalar(other)
        return self._plus(-other.re, -other.im, other.den)

    def __rsub__(self, other: ScalarLike) -> GaussianRational:
        return to_scalar(other) - self

    def __mul__(self, other: ScalarLike) -> GaussianRational:
        if not _scalar_operand(other):
            return NotImplemented
        other = to_scalar(other)
        return GaussianRational._of(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.den * other.den,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> GaussianRational:
        if not _scalar_operand(other):
            return NotImplemented
        other = to_scalar(other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division of Gaussian rational by zero")
        # (a/m) / (b/n) = a * conj(b) * n / (m * |b|^2)
        return GaussianRational._of(
            (self.re * other.re + self.im * other.im) * other.den,
            (self.im * other.re - self.re * other.im) * other.den,
            self.den * norm,
        )

    def __rtruediv__(self, other: ScalarLike) -> GaussianRational:
        return to_scalar(other) / self

    def __pow__(self, exponent: int) -> GaussianRational:
        return power_by_squaring(self, exponent, ONE)

    def __complex__(self) -> complex:
        # int / int is correctly rounded, so each part converts to the same
        # double as its reduced fraction would.
        return complex(self.re / self.den, self.im / self.den)

    def __str__(self) -> str:
        return scalar_text(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.real!r}, {self.imag!r})"


def _raw(re: int, im: int, den: int) -> GaussianRational:
    """Wrap a triple that is already canonical."""
    value = object.__new__(GaussianRational)
    object.__setattr__(value, "re", re)
    object.__setattr__(value, "im", im)
    object.__setattr__(value, "den", den)
    return value


Ring = TypeVar("Ring")


def power_by_squaring(base: Ring, exponent: int, one: Ring) -> Ring:
    """``base ** exponent`` by repeated squaring, for any ring element.

    Scans the exponent from its lowest bit and stops after the top bit, so it
    makes floor(log2 e) squarings and popcount(e) - 1 other products.  The
    result is multiplied by the squares from the lowest up; that order fixes
    the term order of a sparse result, and with it the order in which the
    numeric oracle sums its terms.  ``one`` is the result for a zero exponent.
    """
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a non-negative integer")
    if not exponent:
        return one
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if not exponent:
            return result
        base = base * base


def _is_fraction(value: object) -> bool:
    """Whether ``value`` is a ``Fraction``.  Looked up, not imported: before
    ``fractions`` is imported no ``Fraction`` can exist."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def _scalar_operand(value: object) -> bool:
    return isinstance(value, (GaussianRational, int)) or _is_fraction(value)


def to_scalar(value: ScalarLike) -> GaussianRational:
    """Coerce an int or Fraction into the scalar field."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int) or _is_fraction(value):
        return GaussianRational(value)
    raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def decimal_text(n: int) -> str:
    """``str(n)`` for an int of any length.

    ``str`` refuses ints past the interpreter's digit limit (4300 digits by
    default); those are split at a power of ten into halves that it takes.
    """
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + decimal_text(-n)
    half = n.bit_length() * 3 // 20  # about half the digits: log10(2) < 0.3
    high, low = divmod(n, 10**half)
    return decimal_text(high) + decimal_text(low).zfill(half)


def decimal_int(digits: str) -> int:
    """``int(digits)`` for ASCII decimal digits of any length; ``int`` alone
    refuses strings past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        if not (digits.isascii() and digits.isdigit()):
            raise
    half = len(digits) // 2
    return decimal_int(digits[:-half]) * 10**half + decimal_int(digits[-half:])


def _ratio_text(num: int, den: int) -> str:
    """``num/den`` in lowest terms; ``den`` is positive."""
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    if den == 1:
        return decimal_text(num)
    return f"{decimal_text(num)}/{decimal_text(den)}"


def pair_text(re: int, im: int, den: int) -> str:
    """Canonical decimal-free rendering of ``(re + im*i) / den`` with ``den``
    positive: "p/q", "(p/q)i", or a sum of both, each part in lowest terms."""
    if not im:
        return _ratio_text(re, den)
    g = gcd(im, den)
    magnitude, im_den = abs(im) // g, den // g
    if im_den != 1:
        imag = f"({decimal_text(magnitude)}/{decimal_text(im_den)})i"
    elif magnitude == 1:
        imag = "i"
    else:
        imag = f"{decimal_text(magnitude)}i"
    if not re:
        return imag if im > 0 else f"-{imag}"
    joiner = "+" if im > 0 else "-"
    return f"{_ratio_text(re, den)}{joiner}{imag}"


def pair_factor_text(re: int, im: int, den: int) -> str:
    """``pair_text`` safe to splice into a product: mixed values get
    parentheses."""
    if re and im:
        return f"({pair_text(re, im, den)})"
    return pair_text(re, im, den)


def scalar_text(value: GaussianRational) -> str:
    """Canonical decimal-free rendering: "p/q", "(p/q)i", or a sum of both."""
    return pair_text(value.re, value.im, value.den)

