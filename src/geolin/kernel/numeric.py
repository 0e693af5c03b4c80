"""Arbitrary precision numeric evaluation of exact expressions.

Evaluation works at a caller chosen binary precision and reports, next to
the value itself, the largest intermediate magnitude met along the way.
That peak is what a relative smallness test must compare against: a tiny
result produced from huge intermediates is evidence of cancellation, not
of a tiny function.

This module loads on first use: zerotest registers it as a placeholder
(geolin.lazy) whose body runs when the first kernel residual is
evaluated or the first witness value is printed, so a command that
decides every residual without a witness never compiles it.  mpmath is
imported on first use too, not with this module: by _context, which
makes the first mpmath context for eval_expr.
rational_str, which prints the witness value of every exact NONZERO
verdict, rounds and prints in integer arithmetic exactly as mpmath would,
and loads it only for a value past 2^3500 or below 2^-3500.  A run that
decides every kernel-free residual exactly never loads it; one that
evaluates a kernel residual does.

Each thread evaluates and prints in a context of its own, the main
thread in mpmath.mp: workprec sets the precision of the context it is
called on, and str() of a value reads the digits of its context, so
threads sharing mpmath.mp would compute and print at each other's
precision.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Mapping, Tuple

from .core import Expr, KERNEL, KernelError, P_ONE, _terms

# exp, sin and cos refuse an argument past 2^_ARG_MAG in magnitude:
# reducing an argument a modulo ln(2) or pi takes about log2|a| bits of
# working precision, and exp(exp(exp(exp(exp(x))))) meets arguments near
# 2^(10^15) on the sampled box, which would run out of memory
_ARG_MAG = 1 << 16

_MPMATH_NAMES = {"exp": "exp", "ln": "log", "sqrt": "sqrt", "sin": "sin", "cos": "cos"}


class EvalDomainError(KernelError):
    """Evaluation hit a pole or left the real domain of a kernel."""


_THREAD = threading.local()


def _context():
    """This thread's mpmath context: mpmath.mp in the main thread, whose
    making is paid at import, and a new one made on first use in any
    other."""
    ctx = getattr(_THREAD, "ctx", None)
    if ctx is None:
        import mpmath

        main = threading.current_thread() is threading.main_thread()
        ctx = _THREAD.ctx = mpmath.mp if main else mpmath.MPContext()
    return ctx


def _to_mpf(ctx, value):
    if isinstance(value, Fraction):
        return ctx.mpf(value.numerator) / ctx.mpf(value.denominator)
    return ctx.mpf(value)


class _Evaluator:
    def __init__(self, ctx, point):
        self.ctx = ctx
        self.point = point
        self.peak = ctx.mpf(0)

    def note(self, v):
        a = abs(v)
        if a > self.peak:
            self.peak = a
        return v

    def gen(self, g, e):
        if g.kind != KERNEL:
            try:
                base = self.point[g.name]
            except KeyError:
                raise EvalDomainError(f"no value supplied for variable {g.name!r}")
        else:
            arg = self.expr(g.arg)
            ctx = self.ctx
            if g.name in ("exp", "sin", "cos") and ctx.mag(arg) > _ARG_MAG:
                raise EvalDomainError(
                    f"{g.name} evaluated at an argument past 2^{_ARG_MAG}")
            if g.name == "ln" and arg <= 0:
                raise EvalDomainError("ln evaluated at a nonpositive point")
            if g.name == "sqrt" and arg < 0:
                raise EvalDomainError("sqrt evaluated at a negative point")
            base = getattr(ctx, _MPMATH_NAMES[g.name])(arg)
        self.note(base)
        if e == 1:
            return base
        return self.note(base ** e)

    def poly(self, p):
        # in graded order, which fixes how the sum rounds
        total = self.ctx.mpf(0)
        for m, c in _terms(p):
            term = _to_mpf(self.ctx, c)
            for g, e in m:
                term = self.note(term * self.gen(g, e))
            total = self.note(total + term)
        return total

    def expr(self, e: Expr):
        num = self.poly(e.num)
        if e.den == P_ONE:
            return num
        den = self.poly(e.den)
        if den == 0:
            raise EvalDomainError("denominator vanished at the sample point")
        return self.note(num / den)


def eval_expr(expr: Expr, point: Mapping[str, object], precision_bits: int = 256) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """Evaluate expr at a point, returning (value, peak magnitude).

    Point values may be ints, exact rationals, or floats; they are
    converted at the working precision.  Raises EvalDomainError at poles,
    for ln or sqrt outside their real domain, for exp, sin or cos past
    their argument bound, and for missing variables.
    """
    ctx = _context()
    with ctx.workprec(precision_bits):
        mp_point = {name: _to_mpf(ctx, v) for name, v in point.items()}
        ev = _Evaluator(ctx, mp_point)
        value = ev.expr(expr)
        return value, ev.peak


# mpmath prints a value with 15 significant digits, from 18 digits that
# its to_digits_exp truncates out of a fixed-point image of _DIGIT_BITS
# bits past the leading one
_STR_DIGITS = 15
_DIGIT_BITS = int((_STR_DIGITS + 3) * math.log(10, 2)) + 10
# past this binary exponent mpmath finds the power of ten by logarithms
_FIXED_EXP_LIMIT = 3500


def rational_str(p: int, q: int, precision_bits: int = 256) -> str:
    """str() of the exact rational p / q rounded to the nearest mpf of
    precision_bits bits, printed as eval_expr's values print.

    The rounding (ties to even) and mpmath's printing at its default 15
    digits are done in integer arithmetic; only a binary exponent past
    +-3500 goes through mpmath itself."""
    if q < 0:
        p, q = -p, -q
    if not p:
        return "0.0"
    sign = "-" if p < 0 else ""
    n = abs(p)
    # man * 2^-shift is |p| / q rounded to precision_bits bits
    shift = precision_bits - n.bit_length() + q.bit_length()
    while True:
        man, rem = divmod(n << shift, q) if shift >= 0 else divmod(n, q << -shift)
        if man.bit_length() <= precision_bits:
            break
        shift -= 1
    den = q if shift >= 0 else q << -shift
    if 2 * rem > den or (2 * rem == den and man & 1):
        man += 1
        if man.bit_length() > precision_bits:
            man >>= 1
            shift -= 1
    top = man.bit_length() - shift
    if abs(top) > _FIXED_EXP_LIMIT:
        ctx = _context()
        from mpmath.libmp import from_rational, round_nearest
        return str(ctx.mpf(from_rational(p, q, precision_bits, round_nearest),
                           prec=precision_bits))
    # to_digits_exp: the first digits, truncated, and the decimal exponent
    fixprec = max(_DIGIT_BITS - top, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    offset = fixprec - shift
    fixed = man << offset if offset >= 0 else man >> -offset
    digits = str(fixed * 10 ** fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    # to_str: round half up at the last printed digit, carrying through nines
    if len(digits) > _STR_DIGITS and digits[_STR_DIGITS] in "56789":
        kept = str(int(digits[:_STR_DIGITS]) + 1)
        if len(kept) > _STR_DIGITS:
            kept = kept[:_STR_DIGITS]
            exponent += 1
        digits = kept
    else:
        digits = digits[:_STR_DIGITS]
    if -5 < exponent < _STR_DIGITS:
        if exponent < 0:
            digits = "0" * -exponent + digits
            split = 1
        else:
            split = exponent + 1
        exponent = 0
    else:
        split = 1
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits.endswith("."):
        digits += "0"
    if not exponent:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"
