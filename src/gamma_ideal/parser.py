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

Sums and products are left-deep chains of binary nodes, one node per
operator, and every pass over them (binding, lowering) walks those chains
with loops, so a flat sum of any length parses.  Only parentheses nest, and
nesting deeper than ``MAX_NESTING`` is a ``ParseError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple, Union

from .poly import GammaPoly, UniPoly, signed_sum
from .scalars import I, ONE, GaussianRational, to_scalar

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
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

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
            return self._postfix_i(Lit(to_scalar(int(value))))
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


def _walk(node: ExprAst) -> Iterator[ExprAst]:
    """Every node in pre-order, left operands first; iterative."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for name in ("base", "operand", "right", "left"):
            child = getattr(node, name, None)
            if child is not None:
                stack.append(child)


def parse_poly(text: str, arity: int) -> ExprAst:
    """Parse an expression and bind its G(k) references against ``arity``."""
    if not text.strip():
        raise ParseError("empty input", 0)
    parser = _Parser(text)
    node = parser.parse_expr()
    kind, value, pos = parser.peek()
    if kind != "END":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    for sub in _walk(node):
        if isinstance(sub, GammaRef) and not 0 <= sub.index < arity:
            raise ParseError(
                f"gamma index {sub.index} out of range for {arity} declared shifts",
                sub.pos,
            )
    return node


def lower_to_poly(node: ExprAst, arity: int) -> GammaPoly:
    """Evaluate an AST into the polynomial ring."""
    if isinstance(node, (Add, Sub)):
        return _lower_sum(node, arity)
    if isinstance(node, (Mul, Div)):
        return _lower_product(node, arity)
    if isinstance(node, Lit):
        return GammaPoly.constant(arity, UniPoly.constant(node.value))
    if isinstance(node, SVar):
        return GammaPoly.s_var(arity)
    if isinstance(node, GammaRef):
        return GammaPoly.variable(arity, node.index)
    if isinstance(node, Neg):
        return -lower_to_poly(node.operand, arity)
    if isinstance(node, Pow):
        return lower_to_poly(node.base, arity) ** node.exponent
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


def _lower_product(node: ExprAst, arity: int) -> GammaPoly:
    """A chain of '*' and '/', multiplied from the left."""
    first, chain = _left_chain(node, (Mul, Div))
    product = lower_to_poly(first, arity)
    for op in chain:
        factor = lower_to_poly(op.right, arity)
        if isinstance(op, Mul):
            product = product * factor
            continue
        scalar = _constant_value(factor)
        if scalar is None or scalar.is_zero():
            raise ParseError("division is only defined by a nonzero constant", op.pos)
        product = product * UniPoly.constant(ONE / scalar)
    return product


def _constant_value(p: GammaPoly) -> Union[GaussianRational, None]:
    """The scalar value of a constant polynomial, else None."""
    if p.is_zero():
        return to_scalar(0)
    items = list(p.terms.items())
    if len(items) != 1:
        return None
    mono, coeff = items[0]
    if any(mono) or coeff.degree > 0:
        return None
    return coeff.coefficient(0)


def parse_gamma_poly(text: str, arity: int) -> GammaPoly:
    """Parse straight to a polynomial; the usual entry point."""
    return lower_to_poly(parse_poly(text, arity), arity)


def parse_scalar(text: str) -> GaussianRational:
    """Parse an exact Gaussian-rational constant (shift-list entries)."""
    poly = parse_gamma_poly(text, 0)
    value = _constant_value(poly)
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
    """A complex double from either float syntax ('2.5+1.5i') or an exact
    scalar expression ('1/2', '(1+i)/2')."""
    compact = text.strip().replace(" ", "")
    if not compact:
        raise ParseError("empty complex literal", 0)
    if compact.isascii():
        # ``complex`` would also read other scripts' digits
        try:
            return complex(compact.replace("i", "j"))
        except ValueError:
            pass
    return complex(parse_scalar(text))
