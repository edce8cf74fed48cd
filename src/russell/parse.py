"""Recursive-descent parser for the polynomial expression grammar.

Grammar (EBNF)::

    expr     = term , { ( "+" | "-" ) , term } ;
    term     = factor , { "*" , factor } ;
    factor   = "-" , factor | power ;
    power    = atom , [ "^" , exponent ] ;
    atom     = number | variable | "(" , expr , ")" ;
    number   = integer , [ "/" , integer ] ;
    exponent = [ "-" ] , integer ;
    integer  = digit , { digit } ;

Exponentiation binds tightest, then "*", then binary "+" and "-".  Exponents
are integer literals; a negative exponent is legal only on a Laurent-flagged
variable.  There is no implicit multiplication ("2x" is a syntax error), and
exponents do not chain ("x^2^3" is a syntax error).  Identifiers must name
variables of the supplied context.

``parse(str(f), f.ctx) == f`` holds for every polynomial f.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Context, Poly


class ParseError(ValueError):
    """Syntax or name error, carrying the 0-based offset into the source."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


_OPS = "+-*^()/"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], ctx: Context):
        self.tokens = tokens
        self.ctx = ctx
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, at = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", at)
        self.advance()

    def at_op(self, *ops: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def parse_expr(self) -> Poly:
        # one running sum of int numerators, one bucket per denominator,
        # updated in place: a new Poly per "+" would copy every term so far,
        # and rescaling the sum to each new denominator would rescale every
        # term so far; either way parsing would be quadratic in the term count
        buckets: dict[int, dict[tuple[int, ...], int]] = {}
        sign = 1
        while True:
            term = self.parse_term()
            bucket = buckets.setdefault(term.den, {})
            for mono, c in term.nums.items():
                bucket[mono] = bucket.get(mono, 0) + sign * c
            if not self.at_op("+", "-"):
                return Poly._from_buckets(self.ctx, buckets)
            sign = 1 if self.advance()[1] == "+" else -1

    def parse_term(self) -> Poly:
        node = self.parse_factor()
        while self.at_op("*"):
            self.advance()
            node = node * self.parse_factor()
        return node

    def parse_factor(self) -> Poly:
        if self.at_op("-"):
            self.advance()
            return -self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> Poly:
        atom = self.parse_atom()
        if not self.at_op("^"):
            return self.ctx.var(atom) if isinstance(atom, str) else atom
        self.advance()
        sign = 1
        if self.at_op("-"):
            self.advance()
            sign = -1
        kind, digits, at = self.peek()
        if kind != "int":
            raise ParseError("expected an integer exponent", at)
        self.advance()
        exponent = sign * int(digits)
        if isinstance(atom, str):
            if exponent < 0 and not self.ctx.is_laurent(atom):
                raise ParseError(f"negative exponent on non-Laurent variable {atom!r}", at)
            return self.ctx.var(atom, exponent)
        if exponent < 0:
            raise ParseError("negative exponent is only allowed on a Laurent variable", at)
        return atom ** exponent

    def parse_atom(self) -> Poly | str:
        """A variable as its name, so that a power builds it once; else a Poly."""
        kind, value, at = self.peek()
        if kind == "int":
            self.advance()
            num = int(value)
            if self.at_op("/"):
                self.advance()
                dkind, dvalue, dat = self.peek()
                if dkind != "int":
                    raise ParseError("expected an integer denominator", dat)
                self.advance()
                if int(dvalue) == 0:
                    raise ParseError("zero denominator in rational literal", dat)
                return self.ctx.const(Fraction(num, int(dvalue)))
            return self.ctx.const(num)
        if kind == "ident":
            self.advance()
            if value not in self.ctx.variables:
                raise ParseError(f"unknown variable {value!r}", at)
            return value
        if kind == "op" and value == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, variable, or parenthesized expression", at)


def parse(text: str, ctx: Context) -> Poly:
    """Parse an expression into a fully expanded polynomial over ctx."""
    parser = _Parser(_tokenize(text), ctx)
    result = parser.parse_expr()
    kind, value, at = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected {value!r}", at)
    return result
