"""Arbitrary precision numeric evaluation of exact expressions.

Evaluation works at a caller chosen binary precision and reports, next to
the value itself, the largest intermediate magnitude met along the way.
That peak is what a relative smallness test must compare against: a tiny
result produced from huge intermediates is evidence of cancellation, not
of a tiny function.

mpmath is imported on first use, not with this module: by eval_expr, and
by rational_str, which prints the witness value of every exact NONZERO
verdict.  A run that decides every residual structurally never loads it;
one that evaluates a kernel residual, or finds a nonconstant kernel-free
residual nonzero, does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Tuple

from .core import Expr, KERNEL, KernelError, P_ONE, _terms

mpmath = None  # bound by _load on first use

# exp, sin and cos refuse an argument past 2^_ARG_MAG in magnitude:
# reducing an argument a modulo ln(2) or pi takes about log2|a| bits of
# working precision, and exp(exp(exp(exp(exp(x))))) meets arguments near
# 2^(10^15) on the sampled box, which would run out of memory
_ARG_MAG = 1 << 16


class EvalDomainError(KernelError):
    """Evaluation hit a pole or left the real domain of a kernel."""


def _load():
    global mpmath
    if mpmath is None:
        import mpmath


def _to_mpf(value):
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)
    return mpmath.mpf(value)


class _Evaluator:
    def __init__(self, point):
        self.point = point
        self.peak = mpmath.mpf(0)

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
            if g.name in ("exp", "sin", "cos") and mpmath.mag(arg) > _ARG_MAG:
                raise EvalDomainError(
                    f"{g.name} evaluated at an argument past 2^{_ARG_MAG}")
            if g.name == "exp":
                base = mpmath.exp(arg)
            elif g.name == "ln":
                if arg <= 0:
                    raise EvalDomainError("ln evaluated at a nonpositive point")
                base = mpmath.log(arg)
            elif g.name == "sqrt":
                if arg < 0:
                    raise EvalDomainError("sqrt evaluated at a negative point")
                base = mpmath.sqrt(arg)
            elif g.name == "sin":
                base = mpmath.sin(arg)
            elif g.name == "cos":
                base = mpmath.cos(arg)
            else:
                raise KernelError(f"unknown kernel {g.name!r}")
        self.note(base)
        if e == 1:
            return base
        return self.note(base ** e)

    def poly(self, p):
        # in graded order, which fixes how the sum rounds
        total = mpmath.mpf(0)
        for m, c in _terms(p):
            term = _to_mpf(c)
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
    _load()
    with mpmath.workprec(precision_bits):
        mp_point = {name: _to_mpf(v) for name, v in point.items()}
        ev = _Evaluator(mp_point)
        value = ev.expr(expr)
        return value, ev.peak


def rational_str(p: int, q: int, precision_bits: int = 256) -> str:
    """str() of the exact rational p / q rounded to the nearest mpf of
    precision_bits bits, printed as eval_expr's values print."""
    _load()
    from mpmath.libmp import from_rational, round_nearest
    return str(mpmath.mpf(from_rational(p, q, precision_bits, round_nearest),
                          prec=precision_bits))
