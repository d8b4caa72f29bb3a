"""Expression parser for polynomials in s and the Gamma placeholders G(k).

Recursive descent over the grammar

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

Positions in errors are 0-based character offsets into the input.
Integer literals may have any number of digits; exponents and ``G(k)``
indices are read with ``int`` and keep the interpreter's digit limit.

``G(k)`` indices are bound while parsing: the parser notes the first index
out of range for the declared arity and reports it once the whole text has
parsed, so a syntax error anywhere wins and otherwise the error names the
first unbound index in text order.

Sums and products are left-deep chains of binary nodes, one node per
operator, and lowering walks those chains with loops, so a flat sum of any
length parses.  Only parentheses nest, and nesting deeper than
``MAX_NESTING`` is a ``ParseError``.

Lowering folds the single-term factors of a product chain (literals, ``s``,
``G(k)``, their powers, and any parenthesised factor that comes out as one
term) into one running term: a Gaussian-integer scalar over a denominator,
an ``s`` degree and a Gamma exponent list.  Division by a constant folds
into the scalar.  The term is built once, and only the chain's parenthesised
sums are multiplied in as polynomials, in chain order; multiplying by a
single term keeps the order of the terms, so the result has the term order
that multiplying factor by factor from the left gives.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .poly import GammaPoly, UniPoly, signed_sum
from .scalars import I, GaussianRational, decimal_int

#: Deepest parenthesis nesting accepted; parsing and lowering recurse once
#: per level.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or binding error, carrying the offending input position."""

    def __init__(self, message: str, position: int):
        self.message = message
        self.position = position
        super().__init__(f"{message} (at position {position})")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Lit:
    value: GaussianRational


@dataclass(frozen=True)
class SVar:
    pass


@dataclass(frozen=True)
class GammaRef:
    index: int
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Add:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Sub:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Mul:
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Div:
    left: "ExprAst"
    right: "ExprAst"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: int


ExprAst = Union[Lit, SVar, GammaRef, Add, Sub, Mul, Div, Neg, Pow]


# ---------------------------------------------------------------------------
# lexer

_SYMBOLS = set("+-*/^(),")
#: Only ASCII digits: ``str.isdigit`` also accepts superscripts and other
#: scripts' digits, which ``int`` then rejects or silently reads.
_DIGITS = set("0123456789")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, value, position) triples; kinds are INT, NAME, SYM, END."""
    tokens: List[Tuple[str, str, int]] = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _DIGITS:
            start = k
            while k < len(text) and text[k] in _DIGITS:
                k += 1
            tokens.append(("INT", text[start:k], start))
            continue
        if ch.isalpha():
            start = k
            while k < len(text) and text[k].isalpha():
                k += 1
            tokens.append(("NAME", text[start:k], start))
            continue
        if ch in _SYMBOLS:
            tokens.append(("SYM", ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, arity: int):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0
        self.arity = arity
        #: The first out-of-range ``G(k)`` as (index, position), reported
        #: only if the whole text parses.
        self.unbound: Optional[Tuple[int, int]] = None

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> Tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept_sym(self, *symbols: str) -> Union[str, None]:
        kind, value, _ = self.peek()
        if kind == "SYM" and value in symbols:
            self.advance()
            return value
        return None

    def expect_sym(self, symbol: str) -> None:
        kind, value, pos = self.peek()
        if kind != "SYM" or value != symbol:
            raise ParseError(f"expected {symbol!r}, found {value or 'end of input'!r}", pos)
        self.advance()

    def expect_uint(self, what: str) -> Tuple[int, int]:
        kind, value, pos = self.peek()
        if kind != "INT":
            raise ParseError(f"expected {what}, found {value or 'end of input'!r}", pos)
        self.advance()
        return int(value), pos

    # -- grammar rules

    def parse_expr(self) -> ExprAst:
        sign = self.accept_sym("+", "-")
        node = self.parse_term()
        if sign == "-":
            node = Neg(node)
        while True:
            op = self.accept_sym("+", "-")
            if op is None:
                return node
            right = self.parse_term()
            node = Add(node, right) if op == "+" else Sub(node, right)

    def parse_term(self) -> ExprAst:
        node = self.parse_factor()
        while True:
            _, _, pos = self.peek()
            op = self.accept_sym("*", "/")
            if op is None:
                return node
            right = self.parse_factor()
            node = Mul(node, right) if op == "*" else Div(node, right, pos=pos)

    def parse_factor(self) -> ExprAst:
        node = self.parse_atom()
        if self.accept_sym("^"):
            exponent, _ = self.expect_uint("a non-negative integer exponent")
            node = Pow(node, exponent)
        return node

    def _postfix_i(self, node: ExprAst) -> ExprAst:
        kind, value, _ = self.peek()
        if kind == "NAME" and value == "i":
            self.advance()
            return Mul(node, Lit(I))
        return node

    def parse_atom(self) -> ExprAst:
        kind, value, pos = self.peek()
        if kind == "INT":
            self.advance()
            return self._postfix_i(Lit(GaussianRational(decimal_int(value))))
        if kind == "NAME":
            if value == "s":
                self.advance()
                return SVar()
            if value == "i":
                self.advance()
                return Lit(I)
            if value == "G":
                self.advance()
                self.expect_sym("(")
                index, ipos = self.expect_uint("a gamma index")
                self.expect_sym(")")
                if self.unbound is None and not 0 <= index < self.arity:
                    self.unbound = (index, ipos)
                return GammaRef(index, pos=ipos)
            raise ParseError(f"unknown name {value!r}", pos)
        if kind == "SYM" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", pos
                )
            self.advance()
            self.depth += 1
            node = self.parse_expr()
            self.depth -= 1
            self.expect_sym(")")
            return self._postfix_i(node)
        raise ParseError(
            f"expected a value, found {value or 'end of input'!r}", pos
        )


def parse_poly(text: str, arity: int) -> ExprAst:
    """Parse an expression and bind its G(k) references against ``arity``."""
    if not text.strip():
        raise ParseError("empty input", 0)
    parser = _Parser(text, arity)
    node = parser.parse_expr()
    kind, value, pos = parser.peek()
    if kind != "END":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    if parser.unbound is not None:
        index, pos = parser.unbound
        raise ParseError(
            f"gamma index {index} out of range for {arity} declared shifts",
            pos,
        )
    return node


def lower_to_poly(node: ExprAst, arity: int) -> GammaPoly:
    """Evaluate an AST into the polynomial ring."""
    if isinstance(node, (Add, Sub)):
        return _lower_sum(node, arity)
    if isinstance(node, (Mul, Div, Lit, SVar, GammaRef, Pow)):
        return _lower_product(node, arity)
    if isinstance(node, Neg):
        return -lower_to_poly(node.operand, arity)
    raise TypeError(f"not an expression node: {node!r}")


def _left_chain(node: ExprAst, kinds: tuple) -> Tuple[ExprAst, List[ExprAst]]:
    """The leftmost operand of a left-deep chain of ``kinds`` nodes and the
    chain's nodes, innermost first."""
    chain = []
    while isinstance(node, kinds):
        chain.append(node)
        node = node.left
    chain.reverse()
    return node, chain


def _lower_sum(node: ExprAst, arity: int) -> GammaPoly:
    """A chain of '+' and '-', summed into one term map."""
    first, chain = _left_chain(node, (Add, Sub))
    parts = [(1, lower_to_poly(first, arity))]
    for op in chain:
        parts.append((1 if isinstance(op, Add) else -1, lower_to_poly(op.right, arity)))
    return signed_sum(arity, parts)


#: One factor of a product as a single term: scalar ``(re + im*i)/den`` with
#: ``den`` positive, the power of ``s``, and ``(index, exponent)`` pairs with
#: nonzero exponents.
_Term = Tuple[int, int, int, int, Tuple[Tuple[int, int], ...]]


def _lower_product(node: ExprAst, arity: int) -> GammaPoly:
    """A chain of '*' and '/' (or a lone factor): its single-term factors
    folded into one term, then its other factors multiplied in, in chain
    order."""
    first, chain = _left_chain(node, (Mul, Div))
    re, im, den, power = 1, 0, 1, 0
    exponents = [0] * arity
    polys: List[GammaPoly] = []
    for op, factor in [(None, first)] + [(op, op.right) for op in chain]:
        term = _factor_term(factor, arity)
        if isinstance(op, Div):
            term = _inverse(term)
            if term is None:
                raise ParseError("division is only defined by a nonzero constant", op.pos)
        if isinstance(term, GammaPoly):
            polys.append(term)
            continue
        f_re, f_im, f_den, f_power, gammas = term
        re, im = re * f_re - im * f_im, re * f_im + im * f_re
        den *= f_den
        power += f_power
        for index, exponent in gammas:
            exponents[index] += exponent
    if not (re or im):
        return GammaPoly._build(arity, {})
    if polys and re == den and not im and not power and not any(exponents):
        # Multiplying by 1 would only copy the first polynomial factor.
        product = polys.pop(0)
    else:
        coeff = UniPoly._canonical([(0, 0)] * power + [(re, im)], den)
        product = GammaPoly._build(arity, {tuple(exponents): coeff})
    for poly in polys:
        product = product * poly
    return product


def _factor_term(node: ExprAst, arity: int) -> Union[_Term, GammaPoly]:
    """One factor of a product as a single term when it is one, else as a
    polynomial."""
    exponent = 1
    if (
        isinstance(node, Pow)
        and isinstance(node.base, (Lit, SVar, GammaRef))
        and isinstance(node.exponent, int)
        and node.exponent >= 0
    ):
        node, exponent = node.base, node.exponent
    if isinstance(node, Lit):
        value = node.value if exponent == 1 else node.value**exponent
        return value.re, value.im, value.den, 0, ()
    if isinstance(node, SVar):
        return 1, 0, 1, exponent, ()
    if isinstance(node, GammaRef):
        index = node.index
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        return 1, 0, 1, 0, ((index, exponent),) if exponent else ()
    if isinstance(node, Pow):
        return _single_term(lower_to_poly(node.base, arity) ** node.exponent)
    return _single_term(lower_to_poly(node, arity))


def _single_term(p: GammaPoly) -> Union[_Term, GammaPoly]:
    """``p`` as a ``_Term`` when it is zero or one scalar times powers of
    ``s`` and the ``G(k)``, else ``p`` itself."""
    if not p._terms:
        return 0, 0, 1, 0, ()
    if len(p._terms) != 1:
        return p
    [(mono, coeff)] = p._terms.items()
    *lower, (re, im) = coeff._num
    if any(r or i for r, i in lower):
        return p
    gammas = tuple((index, e) for index, e in enumerate(mono) if e)
    return re, im, coeff._den, len(lower), gammas


def _inverse(term: Union[_Term, GammaPoly]) -> Optional[_Term]:
    """The inverse of a nonzero constant, else None."""
    if isinstance(term, GammaPoly):
        return None
    re, im, den, power, gammas = term
    if power or gammas or not (re or im):
        return None
    # den / (re + im*i) = den * (re - im*i) / (re^2 + im^2)
    return re * den, -im * den, re * re + im * im, 0, ()


def parse_gamma_poly(text: str, arity: int) -> GammaPoly:
    """Parse straight to a polynomial; the usual entry point."""
    return lower_to_poly(parse_poly(text, arity), arity)


def parse_scalar(text: str) -> GaussianRational:
    """Parse an exact Gaussian-rational constant (shift-list entries)."""
    term = _single_term(parse_gamma_poly(text, 0))
    if isinstance(term, GammaPoly) or term[3]:
        raise ParseError("expected a constant, not a polynomial in s", 0)
    re, im, den, _, _ = term
    return GaussianRational._of(re, im, den)


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
        finite = cmath.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ParseError(
            "not a finite complex double", len(text) - len(text.lstrip())
        )
    return value
