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
    rational,
    sin,
    sqrt,
    var,
)
from geolin import criteria
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


def general_pair_residual(g, i, yp, zp, ypp, zpp):
    """Left side of equation i of a general pair `g` on explicit jet
    values, contracted from its named coefficient families."""
    first = {2: yp, 3: zp}
    total = (g.E(i) + g.J(i, 2) * ypp + g.J(i, 3) * zpp
             + g.G(i, 2, 3) * (yp * zpp - zp * ypp))
    for k in (2, 3):
        total = total + g.Om(i, k) * first[k]
        for l in (2, 3):
            total = total + g.Lam(i, k, l) * first[k] * first[l]
            for m in (2, 3):
                total = total + g.Delta(i, k, l, m) * first[k] * first[l] * first[m]
    return total


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


# The pair and appendix tables as transcribed from the source by hand,
# kept as the oracle of the tables that geolin.criteria derives from the
# curvature of the lift.  The transcription carries one index slip: the
# right side of EqA2.3 has B223 * D2 where the curvature gives B323 * D2.

_half = rational(1, 2)
_quarter = rational(1, 4)
_third = rational(1, 3)
_sixth = rational(1, 6)


def _dx(f):
    return f.diff("x")


def _dy(f):
    return f.diff("y")


def _dz(f):
    return f.diff("z")


def transcribed_cubic2_residuals(s):
    """The fifteen integrability residuals for the cubic pair,
    transcribed in printed order."""
    A22, A23, A33 = s.A22, s.A23, s.A33
    B222, B223, B233 = s.B2_22, s.B2_23, s.B2_33
    B322, B323, B333 = s.B3_22, s.B3_23, s.B3_33
    C22, C23, C32, C33 = s.C2_2, s.C2_3, s.C3_2, s.C3_3
    D2, D3 = s.D2, s.D3
    conditions = [
        _half * _dx(C32) - _dy(D3) + _quarter * C33 * C32
        + _quarter * C22 * C32 - D2 * B322 - D3 * B323,

        _dx(B322) - _half * _dy(C32) - A22 * D3 + _half * C32 * B222
        + _half * C33 * B322 - _half * C22 * B322 - _half * B323 * C32,

        _dx(B323) - _third * _dx(B222) + _sixth * _dy(C22)
        - rational(4, 3) * D3 * A23 - rational(2, 3) * B322 * C23
        + rational(2, 3) * B223 * C32 - _half * _dy(C33),

        _half * _dx(C23) - _dz(D2) + _quarter * C23 * C33
        + _quarter * C23 * C22 - B223 * D2 - B233 * D3,

        _dx(B233) - _half * _dz(C23) - D2 * A33 + _half * C23 * B333
        - _half * B223 * C23 - _half * B233 * C33 + _half * B233 * C22,

        -_dy(A23) + _dz(A22) - A22 * B223 - A23 * B323
        + A23 * B222 + A33 * B322,

        -_dy(A33) + _dz(A23) - A22 * B233 - A23 * B333
        + A23 * B223 + A33 * B323,

        -_dx(A23) + rational(5, 6) * A23 * C22 + _third * A33 * C32
        - _third * _dz(B323) + B233 * B322 + _sixth * C33 * A23
        - B223 * B323 - rational(2, 3) * _dy(B223) + _third * _dy(B333)
        + rational(2, 3) * _dz(B222) - _third * C23 * A22,

        -_dx(A33) + _half * C22 * A33 + _half * A33 * C33 - _dy(B233)
        + _dz(B223) - B222 * B233 + B223 * B223 - B223 * B333
        + B233 * B323,

        -rational(2, 3) * _dx(B222) + _third * _dy(C22)
        - _half * C32 * B333 + D2 * A22 - rational(2, 3) * D3 * A23
        - _third * C23 * B322 + rational(5, 6) * B223 * C32 + _dx(B323)
        - _half * _dz(C32) + _half * C33 * B323 - _half * C22 * B323,

        -_dx(A22) + _half * C22 * A22 - B322 * B333 + _dy(B323)
        - _dz(B322) + B322 * B223 + B323 * B323 + _half * C33 * A22
        - B323 * B222,

        _dy(D2) + B222 * D2 + D3 * B223 - D3 * B333 + _half * _dx(C33)
        - _half * _dx(C22) - _dz(D3) + _quarter * C33 * C33
        - _quarter * C22 * C22 - B323 * D2,

        -2 * _dx(A23) + rational(4, 3) * _dy(B333) + _third * A23 * C22
        + rational(5, 3) * A23 * C33 + rational(2, 3) * C23 * A22
        - rational(4, 3) * _dz(B323) - rational(2, 3) * C32 * A33
        + 2 * B322 * B233 - 2 * B323 * B223
        - rational(2, 3) * _dy(B223) + rational(2, 3) * _dz(B222),

        _dx(B223) + _half * _dy(C23) - 2 * D2 * A23 + _half * C23 * B323
        + _half * C23 * B222 + _half * C33 * B223 - _half * B223 * C22
        - B233 * C32 - _dz(C22) - D3 * A33,

        -_dx(B223) + _dx(B333) + _dy(C23) - C23 * B323 + C23 * B222
        + B223 * C33 - B223 * C22 - _half * _dz(C33) - _half * _dz(C22)
        - 2 * D3 * A33,
    ]
    return [(f"Eq51.{k}", res) for k, res in enumerate(conditions, start=1)]


def transcribed_appendix_rhs(s, g1, g2, g3):
    """Right-hand sides of the seventeen gauge-derivative equations,
    keyed by catalog label.  Transcribed verbatim; known transcription
    defects in the source tables are preserved and surfaced by the
    pairwise-consistency records, never patched here."""
    A22, A23, A33 = s.A22, s.A23, s.A33
    B222, B223, B233 = s.B2_22, s.B2_23, s.B2_33
    B322, B323, B333 = s.B3_22, s.B3_23, s.B3_33
    C22, C23, C32, C33 = s.C2_2, s.C2_3, s.C3_2, s.C3_3
    D2, D3 = s.D2, s.D3
    return {
        "A1.3": -_dx(A22) - A22 * g2 + C22 * A22 + g1 * B222 + g1 * g1
        + _half * B322 * g3 - _half * B322 * B333 + _half * C32 * A23,

        "A1.4": _dy(D2) + D2 * g1 + g2 * g2 - _quarter * C23 * C32
        - g2 * C22 + B222 * D2 + D3 * B223 - _half * D3 * B333
        + _half * D3 * g3,

        "A1.5": -_third * _dx(B222) + rational(2, 3) * _dy(C22) + g1 * g2
        + _quarter * C32 * g3 - _quarter * C32 * B333 + D2 * A22
        + rational(2, 3) * D3 * A23 - _sixth * C23 * B322
        + _sixth * B223 * C32,

        "A1.6": -rational(2, 3) * _dx(B222) + _third * _dy(C22) + g1 * g2
        + _quarter * C32 * g3 - _quarter * C32 * B333 + D2 * A22
        + _third * D3 * A23 - _third * C23 * B322 + _third * B223 * C32,

        "A1.8": -2 * _dx(A23) + _dy(B333) - 2 * g2 * A23 + A23 * C22
        + 2 * g1 * B223 + g1 * g3 - g1 * B333 + g3 * B323
        - B333 * B323 + A22 * C23 + A23 * C33,

        "A1.9": -2 * _dx(B223) + _dx(B333) + _dy(C23) + 2 * D2 * A23
        - C23 * B323 + C23 * g1 - g2 * B333 + C23 * B222 + B223 * C33
        - B223 * C22 - _half * C33 * B333 + _half * B333 * C22
        + _half * C33 * g3 - _half * C22 * g3 + g3 * g2,

        "A2.1": -_dx(B323) + _half * _dz(C32) + D3 * A23
        - _half * C32 * B223 + _quarter * C32 * B333
        + _quarter * C32 * g3 - _half * C33 * B323
        + _half * C22 * B323 + g2 * g1,

        "A2.2": -_dx(A23) - A23 * g2 + A23 * C22 + g1 * B223
        + _half * g3 * B323 + _half * g3 * g1 - _half * B333 * B323
        - _half * B333 * g1 + _half * A33 * C32,

        "A2.3": -_half * _dx(C33) + _half * _dx(C22) + _dz(D3)
        + _half * g3 * D3 + _half * D3 * B333 - _quarter * C32 * C23
        - _quarter * C33 * C33 + _quarter * C22 * C22 + g2 * g2
        - C22 * g2 + B223 * D2 + g1 * D2,

        "A2.4": -_dx(B223) + 2 * A23 * D2 - _half * C23 * B323
        + _half * B233 * C32 + _dz(C22) + _half * C23 * g1
        + _quarter * C33 * g3 - _quarter * C22 * g3 + _half * g3 * g2
        - _quarter * B333 * C33 + _quarter * C22 * B333
        - _half * B333 * g2 + A33 * D3,

        "A2.7": _dx(B333) - 4 * _dx(B223) + 6 * A23 * D2
        - 2 * C23 * B323 + 2 * B233 * C32 + 2 * _dz(C22) + C23 * g1
        + _half * C33 * g3 - _half * C22 * g3 + g3 * g2
        - _half * B333 * C33 + _half * C22 * B333 - B333 * g2
        + 2 * A33 * D3,

        "A2.8": _half * _dz(C33) + _half * _dz(C22) - _dx(B223)
        + 2 * A23 * D2 + C23 * g1 + _half * C33 * g3
        - _half * C22 * g3 + g2 * g3 - _half * C33 * B333
        + _half * C22 * B333 - B333 * g2 + 2 * A33 * D3,

        "A2.9": -2 * _dx(A33) + _dz(B333) - 2 * A33 * g2 + C22 * A33
        + 2 * g1 * B233 + _half * g3 * g3 - _half * B333 * B333
        + A23 * C23 + A33 * C33,

        "A3.1": -_dy(B323) + _dz(B322) + _half * C32 * A23
        - B322 * B223 + _half * B322 * B333 + _half * B322 * g3
        - B323 * B323 + g1 * g1 - _half * C33 * A22
        + _half * C22 * A22 - A22 * g2 + B323 * B222 + B222 * g1,

        "A3.2": _third * _dz(B323) + _sixth * C32 * A33 - B233 * B322
        - _sixth * C33 * A23 + _sixth * C22 * A23 - A23 * g2
        + B223 * B323 - _half * B323 * B333 + _half * B323 * g3
        + B223 * g1 - _half * B333 * g1 + _half * g1 * g3
        + rational(2, 3) * _dy(B223) - _third * _dy(B333)
        - rational(2, 3) * _dz(B222) + _third * C23 * A22,

        "A3.3": rational(4, 3) * _dz(B323) + rational(2, 3) * C32 * A33
        - 2 * B233 * B322 - rational(2, 3) * C33 * A23
        + rational(2, 3) * C22 * A23 - 2 * A23 * g2 + 2 * B323 * B223
        - B323 * B333 + B323 * g3 + 2 * B223 * g1 - B333 * g1
        + g1 * g3 + rational(2, 3) * _dy(B223) - _third * _dy(B333)
        - rational(2, 3) * _dz(B222) + _third * C23 * A22,

        "A3.4": 2 * _dy(B233) - 2 * _dz(B223) + _dz(B333) - 2 * A33 * g2
        + 2 * B222 * B233 + 2 * B233 * g1 + _half * g3 * g3
        + C23 * A23 - 2 * B223 * B223 + 2 * B223 * B333
        - _half * B333 * B333 - 2 * B233 * B323,
    }


# which gauge entry each defining equation differentiates, and along
# which coordinate
TRANSCRIBED_APPENDIX_SLOTS = {
    "A1.3": (0, "y"), "A1.4": (1, "x"), "A1.5": (1, "y"), "A1.6": (0, "x"),
    "A1.8": (2, "y"), "A1.9": (2, "x"),
    "A2.1": (0, "x"), "A2.2": (0, "z"), "A2.3": (1, "x"), "A2.4": (1, "z"),
    "A2.7": (2, "x"), "A2.8": (2, "x"), "A2.9": (2, "z"),
    "A3.1": (0, "y"), "A3.2": (0, "z"), "A3.3": (2, "y"), "A3.4": (2, "z"),
}

# printed order of the full 24-line table, gauge-free lines marked
TRANSCRIBED_APPENDIX_ORDER = [
    ("A1.1", 0), ("A1.2", 1), ("A1.3", None), ("A1.4", None),
    ("A1.5", None), ("A1.6", None), ("A1.7", 2), ("A1.8", None),
    ("A1.9", None),
    ("A2.1", None), ("A2.2", None), ("A2.3", None), ("A2.4", None),
    ("A2.5", 3), ("A2.6", 4), ("A2.7", None), ("A2.8", None),
    ("A2.9", None),
    ("A3.1", None), ("A3.2", None), ("A3.3", None), ("A3.4", None),
    ("A3.5", 5), ("A3.6", 6),
]


def transcribed_appendix_residuals(s, gauge):
    """The 33 (label, residual) records of `appendix_residuals`, built
    from the transcribed tables: each gauge-derivative line is scored as
    the derivative of the gauge minus its transcribed right side, and
    each pair record as the difference of the two right sides."""
    gs = (gauge.G1_12, gauge.G2_12, gauge.G3_33)
    rhs = transcribed_appendix_rhs(s, *gs)
    free = transcribed_cubic2_residuals(s)
    labelled = []
    for label, free_index in TRANSCRIBED_APPENDIX_ORDER:
        if free_index is not None:
            labelled.append((f"Eq{label}", free[free_index][1]))
        else:
            slot, coord = TRANSCRIBED_APPENDIX_SLOTS[label]
            labelled.append((f"Eq{label}", gs[slot].diff(coord) - rhs[label]))
    for first, second in criteria._APPENDIX_PAIRS:
        labelled.append((f"Eq{first}-{second}", rhs[first] - rhs[second]))
    return labelled


# The scalar table as transcribed from the source by hand, kept as the
# oracle of the Eq3 lines that geolin.criteria reads from the projective
# Cotton tensor of the plane lift.

def transcribed_tresse_residuals(cubic):
    """The two relative invariants of a scalar cubic, transcribed."""
    E0, E1, E2, E3 = cubic.E0, cubic.E1, cubic.E2, cubic.E3
    t1 = (
        3 * _dx(E1 * E3) - _dy(_dy(E1)) + 2 * _dy(_dx(E2)) - 3 * _dy(E0 * E3)
        + E2 * _dy(E1) - 2 * E2 * _dx(E2) - 3 * _dx(_dx(E3)) - 3 * E3 * _dy(E0)
    )
    t2 = (
        3 * _dx(E0 * E3) + 2 * _dy(_dx(E1)) - 3 * _dy(_dy(E0)) - _dx(_dx(E2))
        - E1 * _dx(E2) + 2 * E1 * _dy(E1) - 3 * _dy(E0 * E2) + 3 * E0 * _dx(E3)
    )
    return [("Eq3.1", t1), ("Eq3.2", t2)]


# The plane tables as transcribed from the source by hand, kept as the
# oracle of the tables that geolin.geometry reads from the 2D connection
# G = -(a..f): Eq9 from its curvature, Eq11 from the covariant
# derivative of the metric.

def transcribed_geodesic2_flat_residuals(coef, coords):
    """The four plane flatness residuals on a..f, written in the given
    pair of coordinates."""
    u, v = coords
    a, b, c, d, e, f = coef.a, coef.b, coef.c, coef.d, coef.e, coef.f
    return [
        ("Eq9.1", a.diff(v) - b.diff(u) + b * e - c * d),
        ("Eq9.2", b.diff(v) - c.diff(u) + (a * c - b * b) + (b * f - c * e)),
        ("Eq9.3", d.diff(v) - e.diff(u) - (a * e - b * d) - (d * f - e * e)),
        ("Eq9.4", (b + f).diff(u) - (a + e).diff(v)),
    ]


def transcribed_metric_pde_residuals(coef, g):
    """The six first-order metric equations in 2D on a..f and
    (p, q, r) = (g11, g12, g22)."""
    a, b, c, d, e, f = coef.a, coef.b, coef.c, coef.d, coef.e, coef.f
    p, q, r = g.g(1, 1), g.g(1, 2), g.g(2, 2)
    two = integer(2)
    return [
        ("Eq11.1", p.diff("x") + two * (a * p + d * q)),
        ("Eq11.2", q.diff("x") + b * p + (a + e) * q + d * r),
        ("Eq11.3", r.diff("x") + two * (b * q + e * r)),
        ("Eq11.4", p.diff("y") + two * (b * p + e * q)),
        ("Eq11.5", q.diff("y") + c * p + (b + f) * q + e * r),
        ("Eq11.6", r.diff("y") + two * (c * q + f * r)),
    ]
