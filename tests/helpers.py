"""Shared test utilities.

The finite difference oracle here is the independent check for symbolic
derivatives: it never calls Expr.diff, only the numeric evaluator, so a
bug in the symbolic chain rule cannot hide inside it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath

from geolin.kernel import (
    Expr,
    core,
    cos,
    eval_expr,
    exp,
    integer,
    ln,
    sin,
    sqrt,
    var,
)
from geolin.transform import Transformation

FD_H = Fraction(1, 10**8)


def fd_derivative(expr: Expr, name: str, point: dict, precision_bits: int = 192):
    """Central difference approximation of d(expr)/d(name) at a point.

    Exact rational stepping plus 192 bit evaluation keeps the rounding
    error far below the h^2 truncation error, so a relative tolerance of
    1e-6 against this oracle is comfortable for smooth expressions.
    """
    up = dict(point)
    dn = dict(point)
    up[name] = point[name] + FD_H
    dn[name] = point[name] - FD_H
    with mpmath.workprec(precision_bits):
        vu, _ = eval_expr(expr, up, precision_bits)
        vd, _ = eval_expr(expr, dn, precision_bits)
        h = mpmath.mpf(FD_H.numerator) / mpmath.mpf(FD_H.denominator)
        return (vu - vd) / (2 * h)


def from_digits(s: str) -> int:
    """The int a decimal string spells, also past the 4300-digit limit
    that int(str) shares with str(int)."""
    value = 0
    for i in range(0, len(s), 1000):
        chunk = s[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def relative_close(a, b, tol=1e-6) -> bool:
    scale = max(abs(a), abs(b), mpmath.mpf(1))
    return abs(a - b) <= tol * scale


def sample_point(rng: random.Random, names) -> dict:
    return {n: Fraction(rng.randint(1, 2**12), 2**12) + Fraction(1, 2) for n in names}


def random_expr(rng: random.Random, depth: int = 3, names=("x", "y")) -> Expr:
    """Random expression, closed over the real domain on positive boxes.

    ln and sqrt arguments are wrapped as 1 + g^2 and denominators are kept
    away from zero, so evaluation anywhere on [1/2, 3/2]^n cannot leave the
    real domain.
    """
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return var(rng.choice(names))
        return integer(rng.randint(-3, 3))
    pick = rng.randrange(8)
    a = random_expr(rng, depth - 1, names)
    if pick == 0:
        return a + random_expr(rng, depth - 1, names)
    if pick == 1:
        return a - random_expr(rng, depth - 1, names)
    if pick == 2:
        return a * random_expr(rng, depth - 1, names)
    if pick == 3:
        b = random_expr(rng, depth - 1, names)
        return a / (b * b + 1)
    if pick == 4:
        return a ** rng.randint(2, 3)
    if pick == 5:
        return exp(a) if _small(a) else sin(a)
    if pick == 6:
        return rng.choice((sin, cos))(a)
    return rng.choice((ln, sqrt))(a * a + 1)


def _small(e: Expr) -> bool:
    # keep exp arguments shallow so nested exponentials stay evaluable
    return len(str(e)) < 40


def random_polynomial(rng: random.Random, names=("x", "y"), degree: int = 2, terms: int = 4) -> Expr:
    """Small random polynomial with integer coefficients in [-4, 4]."""
    acc = integer(0)
    for _ in range(terms):
        term = integer(rng.randint(-4, 4))
        for _ in range(rng.randint(0, degree)):
            term = term * var(rng.choice(names))
        acc = acc + term
    return acc


def random_invertible_map(rng: random.Random) -> Transformation:
    """Identity plus a two-term polynomial per component, redrawn until
    the Jacobian determinant is not the canonical zero."""
    while True:
        comps = [var(n) + random_polynomial(rng, names=("x", "y", "z"), terms=2)
                 for n in ("x", "y", "z")]
        t = Transformation.make(*comps)
        if not t.jacobian_determinant().is_zero_literal():
            return t


def fraction_chain_residuals(g, t: Transformation):
    """The Eqr4 residuals of a general pair under a map, built as a chain
    of reduced fractions: D(d1_i/d1_0)/d1_0, where D is the derivative
    along solutions with the solved second derivatives substituted and
    d1 the components' first derivatives along solutions.  This is the
    definition that `linearization_residuals` rearranges over one
    denominator, kept here as its oracle."""
    yp, zp = var("yp"), var("zp")
    ypp, zpp = g.solve_second_derivatives(yp, zp)

    def along(f):
        return (f.diff("x") + yp * f.diff("y") + zp * f.diff("z")
                + ypp * f.diff("yp") + zpp * f.diff("zp"))

    d1 = [along(c) for c in t.components]
    return [(f"Eqr4.{i + 1}", along(d1[i] / d1[0]) / d1[0]) for i in (1, 2)]


def poly_quotient(p, d):
    """The exact quotient p / d of two kernel polynomials, or None.

    Every generator counts as a free variable and the division runs over
    the integers, on the exponent tuples of the heuristic gcd.  For
    rewrite-normal p and d this is also their quotient in the kernel ring.
    """
    if not p:
        return core.P_ZERO
    gens = sorted(core._p_gens(p) | core._p_gens(d))
    kp, fp = core._zz_from_poly(p, gens)
    kd, fd = core._zz_from_poly(d, gens)
    q = core._zz_exact_div(fp, fd)
    if q is None:
        return None
    return core._p_scale(core._poly_from_zz(q, gens), core._qdiv(kp, kd))
