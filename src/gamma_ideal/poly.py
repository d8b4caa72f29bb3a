"""Polynomial calculus over the Gaussian rationals.

Two layers:

* ``UniPoly`` -- dense univariate polynomials in the argument variable
  (printed as ``s``), used for the coefficients of the multivariate layer
  and for the shift multipliers.  A polynomial is stored as a tuple of
  Gaussian integers ``(re, im)``, plain int pairs, over one positive common
  denominator, kept primitive: the denominator and all the parts have no
  common factor.  It is the storage of ``GaussianRational`` (an
  ``(re, im, den)`` int triple) with one denominator for all coefficients,
  so building a polynomial from scalars and reading ``coeffs`` back only
  rescale ints.  Arithmetic, printing and the complex doubles of the
  numeric oracle (``complex_coeffs``) work on the ints directly.

* ``GammaPoly`` -- sparse multivariate polynomials in placeholders
  ``G(0), ..., G(n-1)`` standing for Gamma values at shifted arguments.
  Terms live in a map from exponent tuples to ``UniPoly`` coefficients:

      P = sum over exponent vectors e of  coeff_e(s) * G(0)^e[0] * ... * G(n-1)^e[n-1]

  Zero coefficients are never stored, so structural equality of the maps is
  polynomial equality.  Products and sums accumulate into plain dicts and
  build the result once.

Monomials are plain exponent tuples.  They are ordered lexicographically,
scanning from index 0: the first differing exponent decides, larger wins.
``highest_term`` and ``height`` refer to this order.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .scalars import (
    ONE,
    ZERO,
    GaussianRational,
    ScalarLike,
    _scalar_operand,
    pair_factor_text,
    power_by_squaring,
    to_scalar,
)

Monomial = Tuple[int, ...]

#: Degree of the zero polynomial.  A true minus infinity keeps degree
#: comparisons valid without special-casing (-inf < d and -inf + d = -inf).
MINUS_INFINITY = float("-inf")


# ---------------------------------------------------------------------------
# monomials


def lex_compare(m1: Monomial, m2: Monomial) -> int:
    """Compare exponent tuples lexicographically from index 0.

    Returns -1, 0 or 1.  Raises ``ValueError`` when the arities differ.
    """
    if len(m1) != len(m2):
        raise ValueError(f"monomial arity mismatch: {len(m1)} vs {len(m2)}")
    for a, b in zip(m1, m2):
        if a != b:
            return -1 if a < b else 1
    return 0


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if len(m1) != len(m2):
        raise ValueError(f"monomial arity mismatch: {len(m1)} vs {len(m2)}")
    return tuple(a + b for a, b in zip(m1, m2))


# ---------------------------------------------------------------------------
# univariate layer

UniPolyLike = Union["UniPoly", GaussianRational, int]

#: A Gaussian integer re + im*i.
Pair = Tuple[int, int]


class UniPoly:
    """Univariate polynomial over Q(i), stored as Gaussian integers over one
    common denominator.

    ``UniPoly(coeffs)`` takes scalars in ascending powers; ``coeffs`` gives
    them back as ``GaussianRational`` values.  Inside, the d-th coefficient is
    ``(re_d + im_d*i) / den`` with int parts.  Every instance is canonical:
    trailing zeros are stripped (the zero polynomial has no pairs and
    ``den`` 1), ``den`` is positive and shares no factor with all the parts
    at once.  So equal polynomials have equal storage, and structural
    equality and the hash are polynomial equality.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Sequence[ScalarLike] = ()):
        scalars = [to_scalar(c) for c in coeffs]
        # Over the lcm of canonical denominators the parts have no common factor.
        den = lcm(*(c.den for c in scalars))
        num = [(c.re * (den // c.den), c.im * (den // c.den)) for c in scalars]
        while num and num[-1] == (0, 0):
            num.pop()
        self._num: Tuple[Pair, ...] = tuple(num)
        self._den: int = den if num else 1

    @classmethod
    def _canonical(cls, num: Sequence[Pair], den: int) -> UniPoly:
        """The instance for ``sum num[d] s^d / den`` with ``den`` positive:
        strips trailing zeros and divides out the common factor."""
        end = len(num)
        while end and num[end - 1] == (0, 0):
            end -= 1
        if not end:
            return cls._raw((), 1)
        num = num[:end]
        if den != 1:
            g = den
            for re, im in num:
                g = gcd(g, re, im)
                if g == 1:
                    break
            if g != 1:
                num = [(re // g, im // g) for re, im in num]
                den //= g
        return cls._raw(tuple(num), den)

    @classmethod
    def _raw(cls, num: Tuple[Pair, ...], den: int) -> UniPoly:
        """Wrap storage that is already canonical."""
        p = object.__new__(cls)
        p._num = num
        p._den = den
        return p

    # -- constructors

    @classmethod
    def zero(cls) -> UniPoly:
        return cls._raw((), 1)

    @classmethod
    def one(cls) -> UniPoly:
        return cls._raw(((1, 0),), 1)

    @classmethod
    def constant(cls, value: ScalarLike) -> UniPoly:
        return cls((value,))

    @classmethod
    def x(cls) -> UniPoly:
        return cls._raw(((0, 0), (1, 0)), 1)

    @classmethod
    def linear(cls, shift: ScalarLike) -> UniPoly:
        """The monic linear polynomial  s + shift."""
        return cls((shift, ONE))

    # -- structure

    @property
    def coeffs(self) -> Tuple[GaussianRational, ...]:
        """The coefficients in ascending powers, as exact scalars."""
        den = self._den
        return tuple(GaussianRational._of(re, im, den) for re, im in self._num)

    @property
    def degree(self) -> Union[int, float]:
        return len(self._num) - 1 if self._num else MINUS_INFINITY

    @property
    def leading_coefficient(self) -> GaussianRational:
        if not self._num:
            raise ValueError("the zero polynomial has no leading coefficient")
        return GaussianRational._of(*self._num[-1], self._den)

    def coefficient(self, power: int) -> GaussianRational:
        if 0 <= power < len(self._num):
            return GaussianRational._of(*self._num[power], self._den)
        return ZERO

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, self._num))

    def __repr__(self) -> str:
        return f"UniPoly({self.coeffs!r})"

    # -- ring operations

    def __neg__(self) -> UniPoly:
        return UniPoly._raw(tuple((-re, -im) for re, im in self._num), self._den)

    def _combine(self, other: UniPoly, sign: int) -> UniPoly:
        """self + sign*other over the least common denominator."""
        g = gcd(self._den, other._den)
        scale_self = other._den // g
        scale_other = sign * (self._den // g)
        summed = [
            (ar * scale_self + br * scale_other, ai * scale_self + bi * scale_other)
            for (ar, ai), (br, bi) in zip_longest(self._num, other._num, fillvalue=(0, 0))
        ]
        return UniPoly._canonical(summed, self._den * scale_self)

    def __add__(self, other: UniPolyLike) -> UniPoly:
        if not _unipoly_operand(other):
            return NotImplemented
        return self._combine(_to_unipoly(other), 1)

    __radd__ = __add__

    def __sub__(self, other: UniPolyLike) -> UniPoly:
        if not _unipoly_operand(other):
            return NotImplemented
        return self._combine(_to_unipoly(other), -1)

    def __rsub__(self, other: UniPolyLike) -> UniPoly:
        return _to_unipoly(other) - self

    def __mul__(self, other: UniPolyLike) -> UniPoly:
        if not _unipoly_operand(other):
            return NotImplemented
        other = _to_unipoly(other)
        if not self._num or not other._num:
            return UniPoly.zero()
        size = len(self._num) + len(other._num) - 1
        re, im = [0] * size, [0] * size
        _convolve_into(re, im, self._num, other._num)
        return UniPoly._canonical(list(zip(re, im)), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> UniPoly:
        return power_by_squaring(self, exponent, UniPoly.one())

    # -- evaluation and substitution

    def __call__(self, point):
        """Horner evaluation; exact for scalar-field points, float for complex."""
        if isinstance(point, (complex, float)):
            return self.eval_complex(point)
        acc = ZERO
        point = to_scalar(point)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def eval_complex(self, point: complex) -> complex:
        acc = 0j
        point = complex(point)
        for c in self.complex_coeffs():
            acc = acc * point + c
        return acc

    def complex_coeffs(self) -> Tuple[complex, ...]:
        """The coefficients as complex doubles, highest power first: the
        Horner order of ``eval_complex`` and of the numeric oracle."""
        # int / int is correctly rounded, so each coefficient converts to the
        # same double as its reduced fraction would.
        den = self._den
        return tuple([complex(re / den, im / den) for re, im in reversed(self._num)])

    def compose_shift(self, offset: ScalarLike) -> UniPoly:
        """The polynomial evaluated at (s + offset)."""
        shifted_x = UniPoly.linear(offset)
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * shifted_x + UniPoly.constant(c)
        return acc

    def __str__(self) -> str:
        return unipoly_text(self)


def _convolve_into(re: List[int], im: List[int], a: Sequence[Pair], b: Sequence[Pair]) -> None:
    """Add the product of the Gaussian-integer sequences a and b into the
    parts re and im, which must be at least len(a) + len(b) - 1 long."""
    b_real = not any(bi for _, bi in b)
    for i, (ar, ai) in enumerate(a):
        if ai:
            for k, (br, bi) in enumerate(b, i):
                re[k] += ar * br - ai * bi
                im[k] += ar * bi + ai * br
        elif not ar:
            continue
        elif b_real:
            for k, (br, _) in enumerate(b, i):
                re[k] += ar * br
        else:
            for k, (br, bi) in enumerate(b, i):
                re[k] += ar * br
                im[k] += ar * bi


def _unipoly_operand(value: object) -> bool:
    return isinstance(value, UniPoly) or _scalar_operand(value)


def _to_unipoly(value: UniPolyLike) -> UniPoly:
    if isinstance(value, UniPoly):
        return value
    return UniPoly.constant(value)


def euclid_divide(num: UniPoly, den: UniPoly) -> Tuple[UniPoly, UniPoly]:
    """Exact long division: num = quotient*den + remainder with
    remainder zero or of degree strictly below den's."""
    if not den:
        raise ValueError("division by the zero polynomial")
    quotient = UniPoly.zero()
    remainder = num
    dd = den.degree
    lead = den.leading_coefficient
    while remainder and remainder.degree >= dd:
        shift = int(remainder.degree - dd)
        factor = remainder.leading_coefficient / lead
        step = UniPoly([ZERO] * shift + [factor])
        quotient = quotient + step
        remainder = remainder - step * den
    return quotient, remainder


# ---------------------------------------------------------------------------
# multivariate layer

GammaPolyLike = Union["GammaPoly", UniPoly, GaussianRational, int]


class GammaPoly:
    """Sparse polynomial in ``s`` and the Gamma placeholders of one arity."""

    __slots__ = ("arity", "_terms")

    def __init__(self, arity: int, terms: Mapping[Monomial, UniPolyLike] = ()):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        canonical: dict[Monomial, UniPoly] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != arity:
                raise ValueError(
                    f"exponent tuple {mono} does not match arity {arity}"
                )
            if any(not isinstance(e, int) or e < 0 for e in mono):
                raise ValueError(f"exponents must be non-negative integers: {mono}")
            poly = _to_unipoly(coeff)
            if not poly:
                continue
            if mono in canonical:
                poly = canonical[mono] + poly
                if not poly:
                    del canonical[mono]
                    continue
            canonical[mono] = poly
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_terms", canonical)

    @classmethod
    def _build(cls, arity: int, terms: Dict[Monomial, UniPoly]) -> GammaPoly:
        """Wrap a map the ring operations built: exponent tuples of the right
        arity and nonzero coefficients, so nothing is checked again."""
        p = object.__new__(cls)
        object.__setattr__(p, "arity", arity)
        object.__setattr__(p, "_terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("GammaPoly is immutable")

    def __reduce__(self):
        return GammaPoly._build, (self.arity, self._terms)

    # -- constructors

    @classmethod
    def zero(cls, arity: int) -> GammaPoly:
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, value: UniPolyLike) -> GammaPoly:
        return cls(arity, {(0,) * arity: _to_unipoly(value)})

    @classmethod
    def variable(cls, arity: int, index: int) -> GammaPoly:
        """The single placeholder G(index)."""
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        mono = tuple(1 if k == index else 0 for k in range(arity))
        return cls(arity, {mono: UniPoly.one()})

    @classmethod
    def s_var(cls, arity: int) -> GammaPoly:
        """The argument variable s embedded as a polynomial."""
        return cls.constant(arity, UniPoly.x())

    # -- structure

    @property
    def terms(self) -> Mapping[Monomial, UniPoly]:
        return MappingProxyType(self._terms)

    def coefficient(self, mono: Monomial) -> UniPoly:
        return self._terms.get(tuple(mono), UniPoly.zero())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GammaPoly):
            return NotImplemented
        return self.arity == other.arity and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self._terms.items())))

    def sorted_terms(self, reverse: bool = True) -> list[Tuple[Monomial, UniPoly]]:
        """Terms ordered by monomial, highest first by default."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=reverse)

    def highest_term(self) -> Tuple[Monomial, UniPoly]:
        """The lex-maximal monomial and its coefficient polynomial."""
        if not self._terms:
            raise ValueError("the zero polynomial has no highest term")
        mono = max(self._terms)
        return mono, self._terms[mono]

    def height(self) -> int:
        """Total degree of the lex-highest monomial."""
        mono, _ = self.highest_term()
        return monomial_degree(mono)

    def total_degree(self) -> Union[int, float]:
        """Largest total degree over all stored monomials (not order-dependent)."""
        if not self._terms:
            return MINUS_INFINITY
        return max(monomial_degree(m) for m in self._terms)

    # -- ring operations

    def _check_arity(self, other: GammaPoly) -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def _coerce(self, other: GammaPolyLike) -> GammaPoly:
        if isinstance(other, GammaPoly):
            self._check_arity(other)
            return other
        return GammaPoly.constant(self.arity, other)

    def __neg__(self) -> GammaPoly:
        return GammaPoly._build(self.arity, {m: -c for m, c in self._terms.items()})

    def __add__(self, other: GammaPolyLike) -> GammaPoly:
        return signed_sum(self.arity, ((1, self), (1, self._coerce(other))))

    __radd__ = __add__

    def __sub__(self, other: GammaPolyLike) -> GammaPoly:
        return signed_sum(self.arity, ((1, self), (-1, self._coerce(other))))

    def __rsub__(self, other: GammaPolyLike) -> GammaPoly:
        return self._coerce(other) - self

    def __mul__(self, other: GammaPolyLike) -> GammaPoly:
        if not isinstance(other, GammaPoly):
            factor = _to_unipoly(other)
            if not factor:
                return GammaPoly.zero(self.arity)
            return GammaPoly._build(
                self.arity, {m: c * factor for m, c in self._terms.items()}
            )
        self._check_arity(other)
        if len(self._terms) == 1 or len(other._terms) == 1:
            # No two products share a monomial, so none needs accumulating.
            return GammaPoly._build(
                self.arity,
                {
                    tuple(map(add, m1, m2)): c1 * c2
                    for m1, c1 in self._terms.items()
                    for m2, c2 in other._terms.items()
                },
            )
        # Both sides over one denominator each, so that every partial sum is a
        # pair of int lists; each coefficient is made canonical once, at the end.
        left, left_den = _common_denominator(self._terms)
        right, right_den = _common_denominator(other._terms)
        out: Dict[Monomial, Tuple[List[int], List[int]]] = {}
        for m1, a in left:
            for m2, b in right:
                mono = tuple(map(add, m1, m2))
                size = len(a) + len(b) - 1
                parts = out.get(mono)
                if parts is None:
                    parts = out[mono] = ([0] * size, [0] * size)
                elif len(parts[0]) < size:
                    grow = [0] * (size - len(parts[0]))
                    parts[0].extend(grow)
                    parts[1].extend(grow)
                re, im = parts
                _convolve_into(re, im, a, b)
                # Drop a cancelled monomial now, so that the term order is the
                # one that accumulating term by term gives.
                if not any(re) and not any(im):
                    del out[mono]
        den = left_den * right_den
        return GammaPoly._build(
            self.arity,
            {m: UniPoly._canonical(list(zip(re, im)), den) for m, (re, im) in out.items()},
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> GammaPoly:
        return power_by_squaring(self, exponent, GammaPoly.constant(self.arity, ONE))

    def __str__(self) -> str:
        return gamma_poly_text(self)

    def __repr__(self) -> str:
        return f"GammaPoly({self.arity}, {gamma_poly_text(self)!r})"


def signed_sum(arity: int, parts: Iterable[Tuple[int, GammaPoly]]) -> GammaPoly:
    """The sum of sign * poly over ``(sign, poly)`` pairs, with sign 1 or -1,
    accumulated into one term map.

    A monomial that cancels leaves the map and one that comes back is
    appended, so value and term order are those of adding the parts pairwise
    from the left.
    """
    merged: Dict[Monomial, UniPoly] = {}
    for sign, poly in parts:
        if poly.arity != arity:
            raise ValueError(f"arity mismatch: {arity} vs {poly.arity}")
        for mono, coeff in poly._terms.items():
            old = merged.get(mono)
            if old is None:
                merged[mono] = coeff if sign > 0 else -coeff
                continue
            total = old + coeff if sign > 0 else old - coeff
            if total:
                merged[mono] = total
            else:
                del merged[mono]
    return GammaPoly._build(arity, merged)


def _common_denominator(
    terms: Mapping[Monomial, UniPoly]
) -> Tuple[List[Tuple[Monomial, Tuple[Pair, ...]]], int]:
    """The terms' numerators, all rescaled to the least common denominator."""
    den = lcm(*(c._den for c in terms.values()))
    return [
        (m, c._num if c._den == den else tuple(
            (re * (den // c._den), im * (den // c._den)) for re, im in c._num
        ))
        for m, c in terms.items()
    ], den


def highest_term(p: GammaPoly) -> Tuple[Monomial, UniPoly]:
    return p.highest_term()


def height(p: GammaPoly) -> int:
    return p.height()


# ---------------------------------------------------------------------------
# canonical text form
#
# The grammar is the CLI's expression grammar, so any printed polynomial
# parses back to an equal value.  Terms appear highest monomial first;
# a leading '-' is hoisted out of each rendered term.  Coefficients are
# rendered straight from the stored int pairs (``scalars.pair_text``), with
# no scalar object built per coefficient.


def _hoists_minus(re: int, im: int) -> bool:
    """Sign used when hoisting '-' out of a printed term: a nonzero real part
    decides, a purely imaginary value takes the sign of its imaginary part."""
    return re < 0 if re else im < 0


def _power_term(
    re: int, im: int, den: int, power: int, var: str, tail: Sequence[str] = ()
) -> Tuple[bool, str]:
    """Render ``(re + im*i)/den * var^power * tail`` as (hoisted-negative,
    factor text).  A unit magnitude is left out unless nothing else would
    be printed."""
    negative = _hoists_minus(re, im)
    if negative:
        re, im = -re, -im
    factors = []
    if re != den or im or (power == 0 and not tail):
        factors.append(pair_factor_text(re, im, den))
    if power == 1:
        factors.append(var)
    elif power > 1:
        factors.append(f"{var}^{power}")
    factors.extend(tail)
    return negative, "*".join(factors)


def _unipoly_terms(p: UniPoly, var: str) -> Iterable[Tuple[bool, str]]:
    """The nonzero terms of ``p``, highest power first."""
    den = p._den
    for power in range(len(p._num) - 1, -1, -1):
        re, im = p._num[power]
        if re or im:
            yield _power_term(re, im, den, power, var)


def _joined(terms: Iterable[Tuple[bool, str]]) -> str:
    """The sum of rendered terms; "0" for none."""
    pieces: list[str] = []
    for negative, text in terms:
        pieces.append(f"-{text}" if negative else f"+{text}" if pieces else text)
    return "".join(pieces) or "0"


def unipoly_text(p: UniPoly, var: str = "s") -> str:
    return _joined(_unipoly_terms(p, var))


def _term_text(mono: Monomial, coeff: UniPoly) -> Tuple[bool, str]:
    """Render one multivariate term as (hoisted-negative, factor text)."""
    gamma_factors = [
        f"G({k})" if e == 1 else f"G({k})^{e}"
        for k, e in enumerate(mono)
        if e
    ]
    num = coeff._num
    re, im = num[-1]
    if any(r or i for r, i in num[:-1]):
        # A sum of powers of s: parenthesized, with the sign of its leading
        # coefficient hoisted.
        negative = _hoists_minus(re, im)
        body = _joined((sign != negative, text) for sign, text in _unipoly_terms(coeff, "s"))
        return negative, "*".join([f"({body})"] + gamma_factors)
    return _power_term(re, im, coeff._den, len(num) - 1, "s", gamma_factors)


def gamma_poly_text(p: GammaPoly) -> str:
    return _joined(_term_text(mono, coeff) for mono, coeff in p.sorted_terms())
