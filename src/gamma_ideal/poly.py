"""Polynomial calculus over the Gaussian rationals.

Two layers:

* ``UniPoly`` -- dense univariate polynomials in the argument variable
  (printed as ``s``), used for the coefficients of the multivariate layer
  and for the shift multipliers.  A polynomial is stored as two int tuples
  of equal length, the real and the imaginary parts of its Gaussian-integer
  numerators, over one positive common denominator, kept primitive: the
  denominator and all the parts have no common factor.  It is the storage
  of ``GaussianRational`` (an ``(re, im, den)`` int triple) with one
  denominator for all coefficients, so building a polynomial from scalars
  and reading ``coeffs`` back only rescale ints.  Arithmetic, printing and
  the complex doubles of the numeric oracle (``complex_coeffs``) work on
  the ints directly, in the same split layout.

* ``GammaPoly`` -- sparse multivariate polynomials in placeholders
  ``G(0), ..., G(n-1)`` standing for Gamma values at shifted arguments.
  Terms live in a map from exponent tuples to ``UniPoly`` coefficients:

      P = sum over exponent vectors e of  coeff_e(s) * G(0)^e[0] * ... * G(n-1)^e[n-1]

  Zero coefficients are never stored, so structural equality of the maps is
  polynomial equality.  The constructor's merge of repeated monomials,
  sums, products and the rewrite passes of ``ideal`` accumulate in
  ``TermSums``, which makes each sum canonical once, when the result is built.
  Products key their pairs by ints: each operand monomial is packed once,
  one exponent per fixed number of bytes, and each distinct key unpacked once.

Monomials are plain exponent tuples.  They are ordered lexicographically,
scanning from index 0: the first differing exponent decides, larger wins.
``highest_term`` and ``height`` refer to this order.

``gamma_poly_text`` prints the canonical text form in one pass over the
terms, rendering each distinct coefficient magnitude and Gamma power once.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from itertools import chain, compress, count, zip_longest
from math import gcd, lcm
from operator import add, itemgetter
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


# ---------------------------------------------------------------------------
# univariate layer

UniPolyLike = Union["UniPoly", GaussianRational, int]
#: A Gaussian-integer sequence as its (real parts, imaginary parts).
Parts = Tuple[Sequence[int], Sequence[int]]


class UniPoly:
    """Univariate polynomial over Q(i), stored as Gaussian integers over one
    common denominator.

    ``UniPoly(coeffs)`` takes scalars in ascending powers; ``coeffs`` gives
    them back as ``GaussianRational`` values.  Inside, the d-th coefficient is
    ``(_re[d] + _im[d]*i) / _den``: ``_re`` and ``_im`` are int tuples of
    equal length, the layout the arithmetic computes in.  Every instance is
    canonical: trailing zeros are stripped (the zero polynomial has empty
    parts and ``den`` 1), ``den`` is positive and shares no factor with all
    the parts at once.  So equal polynomials have equal storage, and
    structural equality and the hash are polynomial equality.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, coeffs: Sequence[ScalarLike] = ()):
        scalars = [to_scalar(c) for c in coeffs]
        den = lcm(*(c.den for c in scalars))
        re = [c.re * (den // c.den) for c in scalars]
        p = UniPoly._canonical(re, [c.im * (den // c.den) for c in scalars], den)
        self._re, self._im, self._den = p._re, p._im, p._den

    @classmethod
    def _canonical(cls, re: Sequence[int], im: Sequence[int], den: int) -> UniPoly:
        """The instance for ``sum (re[d] + im[d]*i) s^d / den``, with parts of
        equal length and ``den`` positive: strips trailing zeros and divides
        out the common factor."""
        end = len(re)
        while end and not (re[end - 1] or im[end - 1]):
            end -= 1
        if not end:
            return cls._raw((), (), 1)
        if end < len(re):
            re, im = re[:end], im[:end]
        if den != 1:
            g = gcd(den, *re, *im)
            if g != 1:
                re = [r // g for r in re]
                im = [i // g for i in im]
                den //= g
        return cls._raw(tuple(re), tuple(im), den)

    @classmethod
    def _raw(cls, re: Tuple[int, ...], im: Tuple[int, ...], den: int) -> UniPoly:
        """Wrap storage that is already canonical."""
        p = object.__new__(cls)
        p._re = re
        p._im = im
        p._den = den
        return p

    # -- constructors

    @classmethod
    def zero(cls) -> UniPoly:
        return cls._raw((), (), 1)

    @classmethod
    def one(cls) -> UniPoly:
        return cls._raw((1,), (0,), 1)

    @classmethod
    def constant(cls, value: ScalarLike) -> UniPoly:
        return cls((value,))

    @classmethod
    def x(cls) -> UniPoly:
        return cls._raw((0, 1), (0, 0), 1)

    @classmethod
    def linear(cls, shift: ScalarLike) -> UniPoly:
        """The monic linear polynomial  s + shift."""
        return cls((shift, ONE))

    # -- structure

    @property
    def coeffs(self) -> Tuple[GaussianRational, ...]:
        """The coefficients in ascending powers, as exact scalars."""
        den = self._den
        return tuple(GaussianRational._of(re, im, den) for re, im in zip(self._re, self._im))

    @property
    def degree(self) -> Union[int, float]:
        return len(self._re) - 1 if self._re else MINUS_INFINITY

    @property
    def leading_coefficient(self) -> GaussianRational:
        if not self._re:
            raise ValueError("the zero polynomial has no leading coefficient")
        return GaussianRational._of(self._re[-1], self._im[-1], self._den)

    def coefficient(self, power: int) -> GaussianRational:
        if 0 <= power < len(self._re):
            return GaussianRational._of(self._re[power], self._im[power], self._den)
        return ZERO

    def __bool__(self) -> bool:
        return bool(self._re)

    def is_zero(self) -> bool:
        return not self._re

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._den == other._den and self._re == other._re and self._im == other._im

    def __hash__(self) -> int:
        return hash((self._den, self._re, self._im))

    def __repr__(self) -> str:
        return f"UniPoly({self.coeffs!r})"

    # -- ring operations

    def __neg__(self) -> UniPoly:
        return UniPoly._raw(tuple([-r for r in self._re]), tuple([-i for i in self._im]), self._den)

    def _combine(self, other: UniPoly, sign: int) -> UniPoly:
        """self + sign*other over the least common denominator."""
        g = gcd(self._den, other._den)
        scale_self = other._den // g
        scale_other = sign * (self._den // g)
        re = [
            a * scale_self + b * scale_other for a, b in zip_longest(self._re, other._re, fillvalue=0)
        ]
        im = [
            a * scale_self + b * scale_other for a, b in zip_longest(self._im, other._im, fillvalue=0)
        ]
        return UniPoly._canonical(re, im, self._den * scale_self)

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
        if not self._re or not other._re:
            return UniPoly.zero()
        if other._re == (1,) and other._im == (0,) and other._den == 1:
            return self
        if self._re == (1,) and self._im == (0,) and self._den == 1:
            return other
        size = len(self._re) + len(other._re) - 1
        re, im = [0] * size, [0] * size
        _convolve_into(re, im, (self._re, self._im), (other._re, other._im))
        return UniPoly._canonical(re, im, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> UniPoly:
        return power_by_squaring(self, exponent, UniPoly.one())

    # -- evaluation and substitution

    def __call__(self, point: ScalarLike) -> GaussianRational:
        """Exact Horner evaluation at a scalar-field point."""
        acc = ZERO
        point = to_scalar(point)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def complex_coeffs(self) -> Tuple[complex, ...]:
        """The coefficients as complex doubles, highest power first: the
        Horner order of the numeric oracle."""
        # int / int is correctly rounded, so each coefficient converts to the
        # same double as its reduced fraction would.
        den = self._den
        return tuple([complex(re / den, im / den) for re, im in zip(self._re, self._im)][::-1])

    def compose_shift(self, offset: ScalarLike) -> UniPoly:
        """The polynomial evaluated at (s + offset)."""
        shifted_x = UniPoly.linear(offset)
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * shifted_x + UniPoly.constant(c)
        return acc

    def __str__(self) -> str:
        return unipoly_text(self)


def _convolve_into(re: List[int], im: List[int], a: Parts, b: Parts) -> None:
    """Add the product of the Gaussian-integer sequences a and b, each given
    as its (real parts, imaginary parts), into the parts re and im, which
    must be at least len(a[0]) + len(b[0]) - 1 long.  Realness is tested
    once per call: two real sequences take one real loop, and any other
    pair the Gaussian one.  Zero places of a are skipped."""
    a_re, a_im = a
    b_re, b_im = b
    if not any(a_im) and not any(b_im):
        for i, ar in enumerate(a_re):
            if ar:
                for k, br in enumerate(b_re, i):
                    re[k] += ar * br
        return
    for i, ar, ai in zip(count(), a_re, a_im):
        if ar or ai:
            for k, br, bi in zip(count(i), b_re, b_im):
                re[k] += ar * br - ai * bi
                im[k] += ar * bi + ai * br


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
        sums = TermSums()
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
            if poly:
                sums.add(mono, poly)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_terms", sums.terms())

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

    def sorted_terms(self) -> list[Tuple[Monomial, UniPoly]]:
        """Terms ordered by monomial, highest first."""
        return sorted(self._terms.items(), key=itemgetter(0), reverse=True)

    # -- ring operations

    def _coerce(self, other: GammaPolyLike) -> GammaPoly:
        """``other`` as a polynomial of this arity, or an arity error."""
        if not isinstance(other, GammaPoly):
            return GammaPoly.constant(self.arity, other)
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
        return other

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
        """The product, in the term order of adding the pairs one at a time.
        A scalar or ``UniPoly`` operand is coerced to a constant, as in ``+``
        and ``-``.  A one-term or empty operand multiplies term by term: no
        two of its pairs meet.  Otherwise each monomial packs to an int with
        as many bytes per exponent as the largest exponent sum needs, so a
        pair's key is ``k1 + k2``, and each distinct key unpacks once at the
        end."""
        left, right = self._terms, self._coerce(other)._terms
        if len(left) <= 1 or len(right) <= 1:
            return GammaPoly._build(
                self.arity,
                {tuple(map(add, m1, m2)): c1 * c2 for m1, c1 in left.items() for m2, c2 in right.items()},
            )
        top = max(chain.from_iterable(left)) + max(chain.from_iterable(right))
        width = (top.bit_length() + 7) // 8
        products = TermSums()
        lefts = zip(_packed(left, width), left.values())
        rights = zip(_packed(right, width), right.values())
        if _all_constant(left.values()) and _all_constant(right.values()):
            add_scalar = products.add_scalar
            rights = [(k2, c2._re[0], c2._im[0], c2._den) for k2, c2 in rights]
            for k1, c1 in lefts:
                r1, i1, d1 = c1._re[0], c1._im[0], c1._den
                for k2, r2, i2, d2 in rights:
                    add_scalar(k1 + k2, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2, d1 * d2)
        else:
            add_product = products.add_product
            rights = list(rights)
            for k1, c1 in lefts:
                for k2, c2 in rights:
                    add_product(k1 + k2, c1, c2)
        sums = products.terms()
        return GammaPoly._build(self.arity, dict(zip(_unpacked(sums, self.arity, width), sums.values())))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> GammaPoly:
        return power_by_squaring(self, exponent, GammaPoly.constant(self.arity, ONE))

    def __str__(self) -> str:
        return gamma_poly_text(self)

    def __repr__(self) -> str:
        return f"GammaPoly({self.arity}, {gamma_poly_text(self)!r})"


def _packed(monos: Iterable[Monomial], width: int) -> List[int]:
    """Each exponent tuple as one int, ``width`` bytes per exponent."""
    shift, keys = 8 * width, []
    for mono in monos:
        key = 0
        for e in mono:
            key = key << shift | e
        keys.append(key)
    return keys


def _unpacked(keys: Iterable[int], arity: int, width: int) -> Iterable[Monomial]:
    """The exponent tuples of ``_packed`` keys, in key order."""
    raw = b"".join([k.to_bytes(arity * width, "big") for k in keys])
    exponents = raw[::width]
    for b in range(1, width):
        exponents = [e << 8 | low for e, low in zip(exponents, raw[b::width])]
    return zip(*[iter(exponents)] * arity)


def _all_constant(coeffs: Iterable[UniPoly]) -> bool:
    """Whether every coefficient is a constant: one stored part."""
    return all(len(c._re) == 1 for c in coeffs)


def signed_sum(arity: int, parts: Iterable[Tuple[int, GammaPoly]]) -> GammaPoly:
    """The sum of sign * poly over ``(sign, poly)`` pairs, with sign 1 or -1,
    accumulated into one term map.

    A monomial that cancels leaves the map and one that comes back is
    appended, so value and term order are those of adding the parts pairwise
    from the left.
    """
    merged = TermSums()
    for sign, poly in parts:
        if poly.arity != arity:
            raise ValueError(f"arity mismatch: {arity} vs {poly.arity}")
        for mono, coeff in poly._terms.items():
            merged.add(mono, coeff if sign > 0 else -coeff)
    return GammaPoly._build(arity, merged.terms())


class TermSums:
    """An exact running sum of nonzero ``UniPoly`` coefficients per
    monomial, made canonical once, at the end.

    A key holds the one coefficient added to it so far, by reference, and
    from the second addend on an open ``[re, im, den]`` entry: the real and
    imaginary parts of the sum as int lists over one denominator, the
    layout of ``UniPoly`` with lists in place of tuples.  An addend over a
    denominator that does not divide the entry's rescales the entry to their
    least common multiple; a product is convolved straight into the lists
    (``add_product``), and a product of two constants, which
    ``GammaPoly.__mul__`` computes as a scalar when every coefficient of
    both operands is constant, adds to their first places (``add_scalar``).
    A key whose sum cancels leaves the map and one that comes back is
    appended, so the key order is that of adding one ``UniPoly`` at a time.
    ``terms`` passes each entry to ``UniPoly._canonical`` and the rest
    through untouched.  ``items`` hands the sums over as they are, and
    ``add`` and ``add_product`` take an open entry so handed over as an
    addend or first factor: a rewrite pass of ``ideal`` feeds the next one
    with nothing made canonical, and the entries move with it.
    """

    __slots__ = ("_sums",)

    def __init__(self):
        self._sums: Dict[object, Union[UniPoly, List]] = {}

    def items(self):
        """Each key with its sum as it is: a ``UniPoly`` or an open entry."""
        return self._sums.items()

    def add(self, key, coeff: Union[UniPoly, List]) -> None:
        held = self._sums.get(key)
        if held is None:
            self._sums[key] = coeff
            return
        c_re, c_im, c_den = coeff if type(coeff) is list else (coeff._re, coeff._im, coeff._den)
        re, im, scale = self._open(key, held, len(c_re), c_den)
        for d, r, i in zip(count(), c_re, c_im):
            re[d] += r * scale
            im[d] += i * scale
        if not any(re) and not any(im):
            del self._sums[key]

    def add_product(self, key, a: Union[UniPoly, List], b: UniPoly) -> None:
        """Add a * b at ``key``, convolved into the entry with the shorter
        operand driving the outer loop; a factor 1 is left out.  A fresh
        entry needs no zero test: a product of nonzero polynomials is not 0."""
        a_re, a_im, a_den = a if type(a) is list else (a._re, a._im, a._den)
        b_re, b_im, b_den = b._re, b._im, b._den
        if b_re == (1,) and b_im == (0,) and b_den == 1:
            return self.add(key, a)
        if a_re == (1,) and a_im == (0,) and a_den == 1:
            return self.add(key, b)
        if len(b_re) < len(a_re):
            a_re, a_im, b_re, b_im = b_re, b_im, a_re, a_im
        den = a_den * b_den
        size = len(a_re) + len(b_re) - 1
        held = self._sums.get(key)
        if held is None:
            re, im = [0] * size, [0] * size
            _convolve_into(re, im, (a_re, a_im), (b_re, b_im))
            self._sums[key] = [re, im, den]
            return
        if type(held) is list and held[2] == den and len(held[0]) >= size:
            re, im, _ = held
        else:
            re, im, scale = self._open(key, held, size, den)
            if scale != 1:
                a_re = [r * scale for r in a_re]
                a_im = [i * scale for i in a_im]
        _convolve_into(re, im, (a_re, a_im), (b_re, b_im))
        if not any(re) and not any(im):
            del self._sums[key]

    def add_scalar(self, key, re: int, im: int, den: int) -> None:
        """Add the nonzero constant ``(re + im*i) / den`` at ``key``, with
        ``den`` positive.  An open entry over the same denominator takes the
        parts as they are; any other entry goes through ``_open``."""
        held = self._sums.get(key)
        if held is None:
            self._sums[key] = [[re], [im], den]
            return
        if type(held) is list and held[2] == den:
            parts_re, parts_im, _ = held
        else:
            parts_re, parts_im, scale = self._open(key, held, 1, den)
            re, im = re * scale, im * scale
        parts_re[0] += re
        parts_im[0] += im
        if not any(parts_re) and not any(parts_im):
            del self._sums[key]

    def _open(self, key, held, size: int, den: int) -> Tuple[List[int], List[int], int]:
        """The entry's parts, at least ``size`` long, and the factor that
        brings an addend over ``den`` to the entry's denominator."""
        if type(held) is UniPoly:
            held = self._sums[key] = [list(held._re), list(held._im), held._den]
        re, im, total = held
        if len(re) < size:
            grow = [0] * (size - len(re))
            re.extend(grow)
            im.extend(grow)
        if total % den:
            scale = den // gcd(total, den)
            re[:] = [r * scale for r in re]
            im[:] = [i * scale for i in im]
            held[2] = total = total * scale
        return re, im, total // den

    def terms(self) -> Dict:
        """Each key's sum as a canonical, nonzero ``UniPoly``."""
        return {
            key: held if type(held) is UniPoly else UniPoly._canonical(*held)
            for key, held in self._sums.items()
        }


def highest_term(p: GammaPoly) -> Tuple[Monomial, UniPoly]:
    """The lex-maximal monomial and its coefficient polynomial."""
    if not p._terms:
        raise ValueError("the zero polynomial has no highest term")
    mono = max(p._terms)
    return mono, p._terms[mono]


def height(p: GammaPoly) -> int:
    """Total degree of the lex-highest monomial."""
    mono, _ = highest_term(p)
    return monomial_degree(mono)


# ---------------------------------------------------------------------------
# canonical text form
#
# Text is in the CLI's grammar, so a printed polynomial parses back to an
# equal value.  Terms come highest monomial first, each with a '-' hoisted out
# of its coefficient: a nonzero real part gives the sign, else the imaginary
# part.  A magnitude 1 is left out of a product unless nothing else would be
# printed.  A coefficient with several powers of s prints as a parenthesised
# sum, signed by its leading coefficient.  One loop per polynomial writes the
# text, rendering each distinct coefficient magnitude and G(k)^e once per call.


class _Magnitudes(dict):
    """Coefficient texts by (re, im, den), each rendered on first lookup."""

    def __missing__(self, key):
        text = self[key] = pair_factor_text(*key)
        return text


class _GammaFactors(dict):
    """``G(k)^e`` texts by (k, e), each rendered on first lookup."""

    def __missing__(self, key):
        k, e = key
        text = self[key] = f"G({k})" if e == 1 else f"G({k})^{e}"
        return text


def _write_sum(out: List[str], p: UniPoly, flip: bool, magnitudes: _Magnitudes) -> List[str]:
    """``out`` with the nonzero terms of ``p`` appended, highest power first,
    their signs inverted when ``flip`` and no '+' on the first."""
    re, im, den = p._re, p._im, p._den
    start = len(out)
    for power in range(len(re) - 1, -1, -1):
        r, i = re[power], im[power]
        if not (r or i):
            continue
        negative = r < 0 if r else i < 0
        if negative:
            r, i = -r, -i
        text = "" if r == den and not i and power else magnitudes[r, i, den]
        if power:
            s_power = "s" if power == 1 else f"s^{power}"
            text = f"{text}*{s_power}" if text else s_power
        out.append(("-" if negative != flip else "+" if len(out) > start else "") + text)
    return out


def unipoly_text(p: UniPoly) -> str:
    return "".join(_write_sum([], p, False, _Magnitudes())) or "0"


def gamma_poly_text(p: GammaPoly) -> str:
    out: List[str] = []
    magnitudes, gamma_factors = _Magnitudes(), _GammaFactors()
    for mono, coeff in p.sorted_terms():
        re, im, den = coeff._re, coeff._im, coeff._den
        top = len(re) - 1
        r, i = re[top], im[top]
        negative = r < 0 if r else i < 0
        if negative or out:
            out.append("-" if negative else "+")
        tail = "*".join(map(gamma_factors.__getitem__, compress(enumerate(mono), mono)))
        if top and (any(re[:top]) or any(im[:top])):
            out.append("(")
            _write_sum(out, coeff, negative, magnitudes)
            out.append(f")*{tail}" if tail else ")")
            continue
        if negative:
            r, i = -r, -i
        text = "" if r == den and not i and (top or tail) else magnitudes[r, i, den]
        if top:
            s_power = "s" if top == 1 else f"s^{top}"
            text = f"{text}*{s_power}" if text else s_power
        out.append(f"{text}*{tail}" if text and tail else text or tail)
    return "".join(out) or "0"


def input_and_normal_text(p: GammaPoly, normal: GammaPoly) -> Tuple[str, str]:
    """The texts of a polynomial and of its normal form.  With no generator
    to apply the normal form is the polynomial itself, rendered once."""
    text = gamma_poly_text(p)
    return text, text if normal is p else gamma_poly_text(normal)
