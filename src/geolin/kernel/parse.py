"""Recursive descent parser for the exact expression grammar.

Grammar, in decreasing binding strength:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-')* power
    power  := atom ('^' exponent)?
    atom   := number | name | name '(' expr ')' | '(' expr ')'

Exponents are integer literals, optionally signed, optionally
parenthesized, and chain right associatively, so x^2^3 means x^(2^3).
A tower whose value would exceed 2^_TOWER_LOG2 is refused before it is
computed: 2^9^9^9 would otherwise build an int of about 370M digits.
A single exponent past that bound is refused before its digits are
converted.
So is a power whose numerator or denominator could have more than
_POWER_TERMS terms, or a coefficient wider than _POWER_BITS bits: a
t-term polynomial to the n has up to C(n + t - 1, t - 1) terms, and
building the 12341 terms of (x+y+z+1)^40 would take seconds.  A product
or quotient is refused in the same way when a numerator or denominator
would multiply a t1-term polynomial by a t2-term one with t1*t2 past
_PRODUCT_TERMS, so (x+y+z+1)^16*(x+y+z+1)^16 cannot go round the power
bound.  A sum over unequal denominators is refused in the same way, since
it multiplies each numerator by the other denominator and the two
denominators together.
The caret binds tighter than unary minus: -x^2 is -(x^2).  A run of
signs of any length is read in a loop.  Parentheses, kernel calls and
exponents nested more than _NESTING levels deep are refused, well before
the recursion limit: each level of parentheses takes five stack frames
here, and deeper kernel nests would also recurse in evaluation and
printing.  Numbers may carry a decimal fraction part and are converted
exactly; a number with more than _LITERAL_DIGITS digits is refused
before it is converted.
Every error carries the byte offset where parsing failed.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, log2

from .core import Expr, KernelError, KERNEL_NAMES, as_expr, kernel_apply, var


class ParseError(KernelError):
    """Syntax error with the byte offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set("0123456789")
_DIGITS = set("0123456789")
# an exponent tower, and so any exponent, may be at most 2^_TOWER_LOG2
_TOWER_LOG2 = 64
_EXPONENT_DIGITS = len(str(1 << _TOWER_LOG2))
# bounds on the numerator and denominator of a literal power
_POWER_TERMS = 1000
_POWER_BITS = 1 << 13
# bound on the digits of a number literal, refused before any conversion
_LITERAL_DIGITS = 10 ** 6
# bound on a product of a t1-term and a t2-term polynomial, which forms
# t1*t2 term products and has up to that many terms
_PRODUCT_TERMS = 10_000
# digits read by one int() call, below the interpreter's 4300-digit limit
_CHUNK_DIGITS = 4000
# bound on nested parentheses, kernel calls and exponents
_NESTING = 100


def _digits_int(digits: str) -> int:
    """The integer a digit string spells, also past the interpreter's limit
    on int(str) (4300 digits by default), which is not lifted: it is
    process-wide.  Longer strings are split in halves and joined with one
    multiplication, which keeps the time subquadratic."""
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    low = len(digits) // 2
    return _digits_int(digits[:-low]) * 10 ** low + _digits_int(digits[-low:])


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.n = len(text)
        self.depth = 0

    def error(self, message: str, offset=None):
        raise ParseError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < self.n and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.n else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def nest(self, at: int):
        """Enter one level of nesting; the caller leaves it again."""
        self.depth += 1
        if self.depth > _NESTING:
            self.error(f"nesting exceeds {_NESTING} levels", at)

    def read_signs(self) -> int:
        """Read a run of unary signs; -1 when it negates, else 1."""
        sign = 1
        self.skip_ws()
        while self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
            self.skip_ws()
        return sign

    def parse_expr(self) -> Expr:
        self.skip_ws()
        value = self.parse_term()
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("+", "-"):
                return value
            at = self.pos
            self.pos += 1
            rhs = self.parse_term()
            if value.den != rhs.den:
                # over unequal denominators a sum cross-multiplies its parts
                self.check_product_size(
                    ((value.num, rhs.den), (rhs.num, value.den), (value.den, rhs.den)),
                    at, "sum")
            value = value + rhs if op == "+" else value - rhs

    def parse_term(self) -> Expr:
        value = self.parse_factor()
        while True:
            self.skip_ws()
            op = self.peek()
            at = self.pos
            if op == "*":
                self.pos += 1
                rhs = self.parse_factor()
                self.check_product_size(((value.num, rhs.num), (value.den, rhs.den)), at)
                value = value * rhs
            elif op == "/":
                self.pos += 1
                rhs = self.parse_factor()
                if rhs.is_zero_literal():
                    self.error("division by zero", at)
                self.check_product_size(((value.num, rhs.den), (value.den, rhs.num)), at)
                value = value / rhs
            else:
                return value

    def parse_factor(self) -> Expr:
        if self.read_signs() < 0:
            return -self.parse_power()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        self.skip_ws()
        if self.peek() == "^":
            at = self.pos
            self.pos += 1
            e = self.parse_exponent()
            if e < 0 and base.is_zero_literal():
                self.error("zero raised to a negative power", at)
            self.check_power_size(base, abs(e), at)
            return base ** e
        return base

    def check_product_size(self, pairs, at: int, what: str = "product"):
        """Refuse a product, or a sum, when one of its pairs of polynomial
        factors would form more than _PRODUCT_TERMS term products."""
        for p, q in pairs:
            if len(p) * len(q) > _PRODUCT_TERMS:
                self.error(f"{what} may exceed {_PRODUCT_TERMS} terms", at)

    def check_power_size(self, base: Expr, n: int, at: int):
        """Refuse base^n when its bounded size is past the limits."""
        if n < 2:
            return
        for poly in (base.num, base.den):
            t = len(poly)
            if t > 1 and comb(n + t - 1, t - 1) > _POWER_TERMS:
                self.error(f"power may exceed {_POWER_TERMS} terms", at)
            top = max((max(abs(c.numerator), c.denominator) for c in poly.values()), default=1)
            if top > 1 and n * log2(top) > _POWER_BITS:
                self.error(f"power may exceed {_POWER_BITS}-bit coefficients", at)

    def parse_exponent(self) -> int:
        sign = self.read_signs()
        if self.peek() == "(":
            self.nest(self.pos)
            self.pos += 1
            value = self.parse_exponent()
            self.skip_ws()
            self.expect(")")
            self.depth -= 1
        else:
            start = self.pos
            while self.peek() in _DIGITS:
                self.pos += 1
            if self.pos == start:
                self.error("expected an integer exponent")
            if self.peek() == ".":
                self.error("exponents must be integers")
            # the length test comes first: int() refuses more than 4300
            # digits, and any longer conversion takes quadratic time
            digits = self.text[start:self.pos].lstrip("0") or "0"
            if len(digits) > _EXPONENT_DIGITS or int(digits) > 1 << _TOWER_LOG2:
                self.error(f"exponent exceeds 2^{_TOWER_LOG2}", start)
            value = int(digits)
        self.skip_ws()
        if self.peek() == "^":
            at = self.pos
            self.nest(at)
            self.pos += 1
            rhs = self.parse_exponent()
            self.depth -= 1
            if rhs < 0:
                self.error("negative exponent inside an exponent tower", at)
            if abs(value) > 1 and rhs > _TOWER_LOG2 / log2(abs(value)):
                self.error(f"exponent tower exceeds 2^{_TOWER_LOG2}", at)
            value = value ** rhs
        return sign * value

    def parse_atom(self) -> Expr:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.nest(self.pos)
            self.pos += 1
            value = self.parse_expr()
            self.skip_ws()
            self.expect(")")
            self.depth -= 1
            return value
        if ch in _DIGITS or ch == ".":
            return self.parse_number()
        if ch in _NAME_START:
            return self.parse_name()
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")

    def parse_number(self) -> Expr:
        start = self.pos
        while self.peek() in _DIGITS:
            self.pos += 1
        int_part = self.text[start:self.pos]
        frac_part = ""
        if self.peek() == ".":
            self.pos += 1
            fstart = self.pos
            while self.peek() in _DIGITS:
                self.pos += 1
            frac_part = self.text[fstart:self.pos]
        if not int_part and not frac_part:
            self.error("malformed number", start)
        if len(int_part) + len(frac_part) > _LITERAL_DIGITS:
            self.error(f"number literal exceeds {_LITERAL_DIGITS} digits", start)
        whole = _digits_int(int_part) if int_part else 0
        if frac_part:
            q = Fraction(whole) + Fraction(_digits_int(frac_part), 10 ** len(frac_part))
            return as_expr(q)
        return as_expr(whole)

    def parse_name(self) -> Expr:
        start = self.pos
        while self.peek() in _NAME_CONT:
            self.pos += 1
        name = self.text[start:self.pos]
        self.skip_ws()
        if self.peek() == "(":
            if name not in KERNEL_NAMES:
                self.error(f"unknown function {name!r}", start)
            self.nest(start)
            self.pos += 1
            arg = self.parse_expr()
            self.skip_ws()
            self.expect(")")
            self.depth -= 1
            return kernel_apply(name, arg)
        return var(name)


def parse(text: str) -> Expr:
    """Parse a string into a canonical expression.

    Raises ParseError with a byte offset on malformed input.
    """
    if not isinstance(text, str):
        raise TypeError("parse() expects a string")
    p = _Parser(text)
    value = p.parse_expr()
    p.skip_ws()
    if p.pos != p.n:
        p.error("unexpected trailing input")
    return value
