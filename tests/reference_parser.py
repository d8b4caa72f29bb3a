"""The expression parser as it stood before sums and products became n-ary
nodes, kept verbatim as a reference for ``test_parser.py`` but for the
lines that build and read ``UniPoly`` storage: a character-by-character
tokenizer, recursive descent into left-deep chains of binary
``Add``, ``Sub``, ``Mul`` and ``Div`` nodes, and a lowering that walks those
chains and builds one polynomial per term before summing them.

The rewritten parser must give the same outcome on every text: the same
term storage and term order, or the same error message and position.  It
shares ``ParseError`` and the limits with the package, so outcomes compare.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from gamma_ideal._record import Record, setfield
from gamma_ideal.parser import MAX_NESTING, MAX_S_DEGREE, ParseError
from gamma_ideal.poly import GammaPoly, UniPoly, signed_sum
from gamma_ideal.scalars import I, GaussianRational, decimal_int


# ---------------------------------------------------------------------------
# AST


class Lit(Record):
    __slots__ = _fields = ("value",)

    def __init__(self, value: GaussianRational):
        setfield(self, "value", value)


class SVar(Record):
    __slots__ = ()


class GammaRef(Record):
    __slots__ = _fields = ("index", "pos")
    _compared = ("index",)

    def __init__(self, index: int, pos: int = -1):
        setfield(self, "index", index)
        setfield(self, "pos", pos)


class _Binary(Record):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: ExprAst, right: ExprAst):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(Record):
    __slots__ = _fields = ("left", "right", "pos")
    _compared = ("left", "right")

    def __init__(self, left: ExprAst, right: ExprAst, pos: int = -1):
        setfield(self, "left", left)
        setfield(self, "right", right)
        setfield(self, "pos", pos)


class Neg(Record):
    __slots__ = _fields = ("operand",)

    def __init__(self, operand: ExprAst):
        setfield(self, "operand", operand)


class Pow(Record):
    __slots__ = _fields = ("base", "exponent", "pos")
    _compared = ("base", "exponent")

    def __init__(self, base: ExprAst, exponent: int, pos: int = -1):
        setfield(self, "base", base)
        setfield(self, "exponent", exponent)
        setfield(self, "pos", pos)


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
        _, _, pos = self.peek()
        if self.accept_sym("^"):
            exponent, _ = self.expect_uint("a non-negative integer exponent")
            node = Pow(node, exponent, pos=pos)
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
        coeff = UniPoly._canonical([0] * power + [re], [0] * power + [im], den)
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
        if isinstance(node.base, SVar):
            _check_s_degree(node, 1)
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
        base = lower_to_poly(node.base, arity)
        _check_s_degree(node, max((c.degree for c in base._terms.values()), default=0))
        return _single_term(base**node.exponent)
    return _single_term(lower_to_poly(node, arity))


def _check_s_degree(node: Pow, base_degree: int) -> None:
    """Reject a power whose degree in ``s`` would pass ``MAX_S_DEGREE``,
    before it is computed."""
    if base_degree * node.exponent > MAX_S_DEGREE:
        raise ParseError(f"power exceeds degree {MAX_S_DEGREE} in s", node.pos)


def _single_term(p: GammaPoly) -> Union[_Term, GammaPoly]:
    """``p`` as a ``_Term`` when it is zero or one scalar times powers of
    ``s`` and the ``G(k)``, else ``p`` itself."""
    if not p._terms:
        return 0, 0, 1, 0, ()
    if len(p._terms) != 1:
        return p
    [(mono, coeff)] = p._terms.items()
    power = len(coeff._re) - 1
    if any(coeff._re[:power]) or any(coeff._im[:power]):
        return p
    gammas = tuple((index, e) for index, e in enumerate(mono) if e)
    return coeff._re[power], coeff._im[power], coeff._den, power, gammas


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
