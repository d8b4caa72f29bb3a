"""Expression parser for polynomials in s and the Gamma placeholders G(k).

The grammar is

    expr    := sign? term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := atom ('^' uint)?
    atom    := uint postfix-i?
             | 'i' | 's'
             | 'G' '(' uint ')'
             | '(' expr ')' postfix-i?

where a postfix ``i`` multiplies by the imaginary unit (so the canonical
scalar renderings ``2i`` and ``(1/2)i`` parse back), a leading sign negates
the first term, and ``/`` is accepted whenever the divisor works out to a
nonzero constant — which covers rational literals like ``1/2`` without a
separate literal rule.  Everything the canonical printer emits round-trips
through this grammar.

One regular-expression pass splits the text into tokens, ``G(k)`` and
``^e`` one token each, and one loop reads them, keeping a stack of the open
parentheses.  A sum is one ``Sum`` node of its terms and their signs, a
product one ``Product`` node of its factors and which of them divide, and a
lone term or factor stands for itself; so the depth of the tree grows with
the nesting of parentheses, not with the length of the text.  Nesting
deeper than ``MAX_NESTING`` is a ``ParseError``.

Positions in errors are 0-based character offsets into the input.  Digits
are ASCII, names are runs of letters (``str.isalpha``) and any other
character but whitespace and ``+-*/^(),`` is a stray.  Integer literals may
have any number of digits; exponents and ``G(k)`` indices are read with
``int`` and keep the interpreter's digit limit.  A stray anywhere is the
error, else the first syntax error, else the first ``G(k)`` index out of
range for the declared arity, in text order.

Lowering is one walk over the tree.  A sum, or a lone node as a sum of one
term, adds its terms into one ``TermSums`` and builds one polynomial.  A
term folds its sign and its leaf factors (a literal, ``s`` or ``G(k)``,
each maybe to a ``^``) into one running term: a Gaussian-integer scalar
over a denominator, an ``s`` degree and a Gamma exponent list.  Its other
factors are lowered by the same walk and multiplied in, in factor order;
multiplying by one term keeps the order of the terms, so the term order is
that of multiplying factor by factor from the left.  A power of anything
but a leaf lowers its base and raises it.  A divisor must lower to a
nonzero constant, which folds into the scalar; any other divisor is a
``ParseError`` at its ``/``, and so is a ``^`` whose degree in ``s`` would
pass ``MAX_S_DEGREE``, at the ``^``.
"""

from __future__ import annotations

import math
import re
from typing import List, Optional, Tuple, Union

from ._record import Record, setfield
from .poly import GammaPoly, TermSums, UniPoly
from .scalars import I, ZERO, GaussianRational, decimal_int

#: Deepest parenthesis nesting accepted.  Lowering recurses once per level
#: into a parenthesised sum, and once more for each ``^``, postfix ``i`` or
#: ``/`` applied to it: at most four frames a level.
MAX_NESTING = 100

#: Highest degree in ``s`` that a ``^`` may produce; lowering stores a
#: polynomial in ``s`` densely, one coefficient per power.
MAX_S_DEGREE = 1_000_000


class ParseError(ValueError):
    """Syntax or binding error, carrying the offending input position."""

    def __init__(self, message: str, position: int):
        self.message = message
        self.position = position
        super().__init__(f"{message} (at position {position})")


# ---------------------------------------------------------------------------
# AST


class _Node(Record):
    """A tree node: immutable, and so are its parts, so a deep copy of a
    node is the node itself, however deep the tree under it."""

    __slots__ = ()

    def __deepcopy__(self, memo):
        return self


class Lit(_Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: GaussianRational):
        setfield(self, "value", value)


class SVar(_Node):
    __slots__ = ()


class GammaRef(_Node):
    __slots__ = _fields = ("index", "pos")
    _compared = ("index",)

    def __init__(self, index: int, pos: int = -1):
        setfield(self, "index", index)
        setfield(self, "pos", pos)


class Pow(_Node):
    __slots__ = _fields = ("base", "exponent", "pos")
    _compared = ("base", "exponent")

    def __init__(self, base: ExprAst, exponent: int, pos: int = -1):
        setfield(self, "base", base)
        setfield(self, "exponent", exponent)
        setfield(self, "pos", pos)


class Product(_Node):
    """Factors multiplied in order; the factors at the indices in
    ``divides`` divide instead, and ``pos`` holds where their '/' stand."""

    __slots__ = _fields = ("factors", "divides", "pos")
    _compared = ("factors", "divides")

    def __init__(self, factors: tuple, divides: Tuple[int, ...] = (), pos: Optional[tuple] = None):
        setfield(self, "factors", factors)
        setfield(self, "divides", divides)
        setfield(self, "pos", (-1,) * len(divides) if pos is None else pos)


class Sum(_Node):
    """Terms added in order, each with its sign, 1 or -1."""

    __slots__ = _fields = ("terms", "signs")

    def __init__(self, terms: tuple, signs: Tuple[int, ...]):
        setfield(self, "terms", terms)
        setfield(self, "signs", signs)


ExprAst = Union[Lit, SVar, GammaRef, Pow, Product, Sum]

_S = SVar()
_I = Lit(I)
_LEAVES = (Lit, SVar, GammaRef)


# ---------------------------------------------------------------------------
# parser

#: One token and the whitespace after it.  Groups: 2 an operator or a
#: parenthesis, 3 and 4 the gap before and the index of a whole ``G(k)``, 5
#: the exponent of a whole ``^e``, 6 an integer, 7 a name; anything else is
#: one character.  ``[^\W\d_]`` also takes the numeric characters that are
#: not digits, strays that ``parse_poly`` reports.
_TOKEN = re.compile(
    r"((?:([-+*/()])|G(\s*\(\s*)([0-9]+)\s*\)|\^\s*([0-9]+)|([0-9]+)|([^\W\d_]+)|.)\s*)", re.S
)
#: A token as an error message names it: digits, a name, one character, or
#: nothing at the end.
_WORD = re.compile(r"\s*(([0-9]+)|[^\W\d_]+|.?)", re.S)
#: Candidates for a stray character; letters among them are not.
_ODD = re.compile(r"[^\s0-9A-Za-z+\-*/^(),]")


def parse_poly(text: str, arity: int) -> ExprAst:
    """Parse an expression and bind its G(k) references against ``arity``."""
    if not text.strip():
        raise ParseError("empty input", 0)
    try:
        node, unbound = _parse(text, arity)
    except ValueError:
        for match in _ODD.finditer(text):
            if not match[0].isalpha():
                raise ParseError(f"unexpected character {match[0]!r}", match.start()) from None
        raise
    if unbound is not None:
        index, pos = unbound
        raise ParseError(f"gamma index {index} out of range for {arity} declared shifts", pos)
    return node


def _parse(text: str, arity: int) -> Tuple[ExprAst, Optional[Tuple[int, int]]]:
    """The tree, and the first out-of-range ``G(k)`` as (index, position)."""
    stack = []  # per open '(': the enclosing sum and product so far
    terms, signs, sign = [], [], 1  # the sum being read
    factors, divides, slashes = [], [], []  # the product being read
    atom = None  # the factor just read, until an operator takes it
    tail = 0  # what may follow ``atom``: 2 a postfix i or a ^, 1 a ^, 0 neither
    opening = True  # no term read yet at this level, so a sign may come
    unbound = None
    literals = {}
    pos = len(text) - len(text.lstrip())
    for token, op, gap, index, exponent, digits, name in _TOKEN.findall(text, pos):
        at = pos
        pos += len(token)
        if op:
            if atom is None:
                if op == "(":
                    if len(stack) == MAX_NESTING:
                        raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels", at)
                    stack.append((terms, signs, sign, factors, divides, slashes))
                    terms, signs, sign, factors, divides, slashes = [], [], 1, [], [], []
                    opening = True
                    continue
                if opening and op in "+-":
                    sign = 1 if op == "+" else -1
                    opening = False
                    continue
                raise _expected("a value", text, at)
            if op == "(" or op == ")" and not stack:
                raise _after_value(text, at, stack)
            factors.append(atom)
            atom = None
            opening = False
            if op == "*":
                continue
            if op == "/":
                divides.append(len(factors))
                slashes.append(at)
                continue
            terms.append(_product(factors, divides, slashes))
            signs.append(sign)
            factors, divides, slashes = [], [], []
            if op == ")":
                atom, tail = _sum(terms, signs), 2
                terms, signs, sign, factors, divides, slashes = stack.pop()
            else:
                sign = 1 if op == "+" else -1
        elif atom is None:
            if index:
                atom, tail = GammaRef(int(index), at + 1 + len(gap)), 1
                if unbound is None and not 0 <= atom.index < arity:
                    unbound = (atom.index, atom.pos)
            elif digits:
                atom, tail = literals.get(digits), 2
                if atom is None:
                    atom = literals[digits] = Lit(GaussianRational._of(decimal_int(digits), 0, 1))
            elif name == "s" or name == "i":
                atom, tail = _S if name == "s" else _I, 1
            elif name == "G":
                raise _gamma_error(text, at + 1)
            elif name:
                raise ParseError(f"unknown name {name!r}", at)
            else:
                raise _expected("a value", text, at)
        elif exponent and tail:
            atom, tail = Pow(atom, int(exponent), at), 0
        elif name == "i" and tail == 2:
            atom, tail = Product((atom, _I)), 1
        elif token[0] == "^" and tail:
            raise _expected("a non-negative integer exponent", text, at + 1)
        else:
            raise _after_value(text, at, stack)
    if atom is None:
        raise _expected("a value", text, pos)
    if stack:
        raise _expected("')'", text, pos)
    factors.append(atom)
    terms.append(_product(factors, divides, slashes))
    signs.append(sign)
    return _sum(terms, signs), unbound


def _product(factors: list, divides: list, slashes: list) -> ExprAst:
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors), tuple(divides), tuple(slashes))


def _sum(terms: list, signs: list) -> ExprAst:
    return terms[0] if len(terms) == 1 and signs[0] == 1 else Sum(tuple(terms), tuple(signs))


def _expected(what: str, text: str, pos: int) -> ParseError:
    """The error for the token at or after ``pos`` where ``what`` belongs."""
    match = _WORD.match(text, pos)
    return ParseError(f"expected {what}, found {match[1] or 'end of input'!r}", match.start(1))


def _after_value(text: str, pos: int, nested: list) -> ParseError:
    """The error for a token that no operator joins to the value before it."""
    if nested:
        return _expected("')'", text, pos)
    match = _WORD.match(text, pos)
    return ParseError(f"unexpected trailing input {match[1]!r}", match.start(1))


def _gamma_error(text: str, pos: int) -> ParseError:
    """The error for a ``G`` at ``pos - 1`` that no ``(index)`` follows."""
    match = _WORD.match(text, pos)
    if match[1] != "(":
        return _expected("'('", text, pos)
    match = _WORD.match(text, match.end())
    if not match[2]:
        return _expected("a gamma index", text, match.start())
    int(match[2])  # past the digit limit this raises, as reading the index does
    return _expected("')'", text, match.end())


# ---------------------------------------------------------------------------
# lowering


def lower_to_poly(node: ExprAst, arity: int) -> GammaPoly:
    """Evaluate an AST into the polynomial ring.

    A power that does not fold is its base raised to it; any other lone node
    is a sum of one term, and a lone factor a product of one factor.
    """
    if type(node) is Pow and not _folds(node):
        base = lower_to_poly(node.base, arity)
        _check_s_degree(node, max((c.degree for c in base._terms.values()), default=0))
        return base**node.exponent
    if type(node) is Sum:
        terms, signs = node.terms, node.signs
    else:
        terms, signs = (node,), (1,)
    sums = TermSums()
    for term, sign in zip(terms, signs):
        if type(term) is Product:
            factors, divides = term.factors, term.divides
        else:
            factors, divides = (term,), ()
        # The sign and the leaf factors folded: scalar (re + im*i)/den with
        # den positive, the power of s and the exponent of each G(k).
        re, im, den, power = sign, 0, 1, 0
        exponents = [0] * arity
        polys: List[GammaPoly] = []
        for k, factor in enumerate(factors):
            if divides and k in divides:
                value = _constant(factor, arity)
                if not value:
                    raise ParseError(
                        "division is only defined by a nonzero constant", term.pos[divides.index(k)]
                    )
                # dividing by (a + b*i)/d multiplies by d*(a - b*i)/(a^2 + b^2)
                a, b, d = value.re, value.im, value.den
                re, im = (re * a + im * b) * d, (im * a - re * b) * d
                den *= a * a + b * b
                continue
            kind, exponent = type(factor), 1
            if kind is Pow and _folds(factor):
                if type(factor.base) is SVar:
                    _check_s_degree(factor, 1)
                factor, exponent = factor.base, factor.exponent
                kind = type(factor)
            if kind is GammaRef:
                index = factor.index
                if not 0 <= index < arity:
                    raise ValueError(f"variable index {index} out of range for arity {arity}")
                exponents[index] += exponent
            elif kind is SVar:
                power += exponent
            elif kind is Lit:
                value = factor.value if exponent == 1 else factor.value**exponent
                re, im = re * value.re - im * value.im, re * value.im + im * value.re
                den *= value.den
            elif kind is Sum or kind is Product or kind is Pow:
                polys.append(lower_to_poly(factor, arity))
            else:
                raise TypeError(f"not an expression node: {factor!r}")
        if not (re or im):
            continue
        mono = tuple(exponents)
        coeff = UniPoly._canonical([0] * power + [re], [0] * power + [im], den)
        if not polys:
            sums.add(mono, coeff)
            continue
        if abs(re) == den and not im and not power and not any(mono):
            # Multiplying by 1 or -1 would only copy or negate the first
            # polynomial factor.
            product, negate = polys.pop(0), re < 0
        else:
            product, negate = GammaPoly._build(arity, {mono: coeff}), False
        for poly in polys:
            product = product * poly
        for mono, coeff in product._terms.items():
            sums.add(mono, -coeff if negate else coeff)
    return GammaPoly._build(arity, sums.terms())


def _folds(node: Pow) -> bool:
    """Whether a power folds into a term: a leaf to a valid exponent."""
    return type(node.base) in _LEAVES and isinstance(node.exponent, int) and node.exponent >= 0


def _check_s_degree(node: Pow, base_degree: int) -> None:
    """Reject a power whose degree in ``s`` would pass ``MAX_S_DEGREE``,
    before it is computed."""
    if base_degree * node.exponent > MAX_S_DEGREE:
        raise ParseError(f"power exceeds degree {MAX_S_DEGREE} in s", node.pos)


def _constant(node: ExprAst, arity: int) -> Optional[GaussianRational]:
    """The value of ``node`` when it is a constant, else None."""
    if type(node) is Lit:
        return node.value
    terms = lower_to_poly(node, arity)._terms
    if not terms:
        return ZERO
    (mono, coeff), *rest = terms.items()
    if rest or any(mono) or coeff.degree:
        return None
    return coeff.coefficient(0)


def parse_gamma_poly(text: str, arity: int) -> GammaPoly:
    """Parse straight to a polynomial; the usual entry point."""
    return lower_to_poly(parse_poly(text, arity), arity)


def parse_scalar(text: str) -> GaussianRational:
    """Parse an exact Gaussian-rational constant (shift-list entries)."""
    value = _constant(parse_poly(text, 0), 0)
    if value is None:
        raise ParseError("expected a constant, not a polynomial in s", 0)
    return value


def parse_shifts(text: str) -> Tuple[GaussianRational, ...]:
    """Parse a comma-separated shift list like ``0, 1/2, (1+i)/2``.

    Error positions count from the start of the whole list."""
    if not text.strip():
        raise ParseError("empty shift list", 0)
    shifts = []
    offset = 0  # where the current entry starts in ``text``
    for part in text.split(","):
        if not part.strip():
            raise ParseError("empty shift entry", offset)
        try:
            shifts.append(parse_scalar(part))
        except ParseError as exc:
            raise ParseError(exc.message, offset + exc.position) from None
        offset += len(part) + 1
    return tuple(shifts)


def parse_complex(text: str) -> complex:
    """A finite complex double from either float syntax ('2.5+1.5i') or an
    exact scalar expression ('1/2', '(1+i)/2')."""
    compact = text.strip().replace(" ", "")
    if not compact:
        raise ParseError("empty complex literal", 0)
    value = None
    if compact.isascii():
        # ``complex`` would also read other scripts' digits
        try:
            value = complex(compact.replace("i", "j"))
        except ValueError:
            pass
    try:
        if value is None:
            value = complex(parse_scalar(text))
        finite = math.isfinite(value.real) and math.isfinite(value.imag)
    except OverflowError:
        finite = False
    if not finite:
        raise ParseError(
            "not a finite complex double", len(text) - len(text.lstrip())
        )
    return value
