"""Shared test utilities.

The finite difference oracle here is the independent check for symbolic
derivatives: it never calls Expr.diff, only the numeric evaluator, so a
bug in the symbolic chain rule cannot hide inside it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from typing import Optional, Tuple

import mpmath

from geolin.kernel import (
    DEFAULT_CONFIG,
    EvalDomainError,
    Expr,
    Verdict,
    ZeroTestResult,
    core,
    cos,
    eval_expr,
    exp,
    integer,
    ln,
    rational,
    sin,
    sqrt,
    sum_of_products,
    var,
    zerotest,
)
from geolin.kernel.core import VAR, int_str
from geolin.kernel.numeric import rational_str
from geolin.criteria import Linear2, Quadratic2
from geolin.geometry import (
    SYM_PAIRS, Christoffel, Geodesic2Coefficients, GeometryError, coordinates, determinant,
    sym_key)
from geolin.projection import ScalarCubic, SystemCubic2, lift_scalar, lift_system
from geolin.report import evaluate_conditions
from geolin.transform import (
    DegenerateJacobianError,
    GeneralSystem2,
    SingularSystemError,
    Transformation,
    _FAMILIES,
)

# the ordered symmetric pairs of the dependent indices 2, 3
_DEPENDENT_PAIRS = tuple(combinations_with_replacement((2, 3), 2))

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


XYZ = ("x", "y", "z")
KERNELS = (exp, lambda a: sqrt(a * a + 1), sin, lambda a: ln(a * a + 1))


def kernel_maps(count=24):
    """ROADMAP item 3's seeded kernel maps, with the choices it leaves open
    written down: from random.Random(7), map n draws the three components
    var + random_polynomial(rng, XYZ, terms=2) in x, y, z order, then the
    component index rng.randrange(3), then the kernel argument
    random_polynomial(rng, XYZ, degree=1, terms=2), redrawn while it is a
    constant, and adds KERNELS[n % 4] of it to that component; the whole
    draw is repeated while the Jacobian determinant is the canonical zero."""
    rng = random.Random(7)
    maps = []
    for n in range(count):
        while True:
            comps = [var(name) + random_polynomial(rng, names=XYZ, terms=2) for name in XYZ]
            k = rng.randrange(3)
            arg = random_polynomial(rng, names=XYZ, degree=1, terms=2)
            while arg.is_rational():
                arg = random_polynomial(rng, names=XYZ, degree=1, terms=2)
            comps[k] = comps[k] + KERNELS[n % 4](arg)
            t = Transformation.make(*comps)
            if not t.jacobian_determinant().is_zero_literal():
                break
        maps.append(t)
    return maps


def hand_typed_coefficients(t: Transformation):
    """The families of `coefficients_from_transformation` as they were
    typed formula by formula, one closure per family shape, the oracle of
    its one induced cubic: delta_raw, lam_raw, omega and forcing are the
    cubic, quadratic, linear and free coefficients of equation i before
    symmetrization, with d(i, a) and d2(i, a, b) the first and second
    partials of component i."""
    jac = t.jacobian()
    det = determinant(jac)
    if det.is_zero_literal():
        raise DegenerateJacobianError("Jacobian determinant is canonically zero")
    coords = coordinates(t.dim)

    def d(i, a):
        return jac[i - 1][a - 1]

    seconds = {}

    def d2(i, a, b):
        v = seconds.get((i, a, b))
        if v is None:
            v = seconds[i, a, b] = d(i, a).diff(coords[b - 1])
        return v

    def delta_raw(i, j, k, l):
        return sum_of_products([(1, d(1, l), d2(i, j, k)), (-1, d2(1, j, k), d(i, l))])

    def delta_sym(i, j, k, l):
        return rational(1, 3) * (
            delta_raw(i, j, k, l) + delta_raw(i, j, l, k) + delta_raw(i, k, l, j))

    def lam_raw(i, j, l):
        return sum_of_products([
            (2, d(1, l), d2(i, 1, j)), (-2, d2(1, 1, j), d(i, l)),
            (1, d(1, 1), d2(i, j, l)), (-1, d(i, 1), d2(1, j, l))])

    def lam_sym(i, j, l):
        return rational(1, 2) * (lam_raw(i, j, l) + lam_raw(i, l, j))

    def omega(i, j):
        return sum_of_products([
            (2, d(1, 1), d2(i, 1, j)), (-2, d2(1, 1, j), d(i, 1)),
            (1, d(1, j), d2(i, 1, 1)), (-1, d2(1, 1, 1), d(i, j))])

    def forcing(i):
        return sum_of_products([(1, d(1, 1), d2(i, 1, 1)), (-1, d2(1, 1, 1), d(i, 1))])

    if t.dim == 2:
        return ScalarCubic(
            E0=forcing(2) / det,
            E1=omega(2, 2) / det,
            E2=lam_raw(2, 2, 2) / det,
            E3=delta_raw(2, 2, 2, 2) / det,
        )

    values = {}
    for i in (2, 3):
        for j in (2, 3):
            values[f"J{i}_{j}"] = sum_of_products(
                [(1, d(1, 1), d(i, j)), (-1, d(1, j), d(i, 1))])
            values[f"Om{i}_{j}"] = omega(i, j)
        values[f"G{i}_23"] = sum_of_products(
            [(1, d(1, 2), d(i, 3)), (-1, d(1, 3), d(i, 2))])
        values[f"E{i}"] = forcing(i)
        for j, k, l in combinations_with_replacement((2, 3), 3):
            values[f"Del{i}_{sym_key(j, k, l)}"] = delta_sym(i, j, k, l)
        for j, l in _DEPENDENT_PAIRS:
            values[f"Lam{i}_{sym_key(j, l)}"] = lam_sym(i, j, l)
    return GeneralSystem2.make(**values)


def geodesic2_from_christoffel(gamma: Christoffel) -> Geodesic2Coefficients:
    """The named a..f of a 2D connection, the inverse of
    `Geodesic2Coefficients.as_christoffel`."""
    if gamma.dim != 2:
        raise GeometryError("named coefficients a..f exist only in 2D")
    return Geodesic2Coefficients(*(-value for value in gamma.entries))


def typed_project(gamma: Christoffel):
    """`projection.project` as it was typed entry by entry, the oracle of
    the entries read off the geodesic formula."""
    g, two = gamma.gamma, integer(2)
    if gamma.dim == 2:
        return ScalarCubic(
            E0=g(2, 1, 1),
            E1=two * g(2, 1, 2) - g(1, 1, 1),
            E2=g(2, 2, 2) - two * g(1, 1, 2),
            E3=-g(1, 2, 2),
        )
    return SystemCubic2(
        A22=-g(1, 2, 2),
        A23=-g(1, 2, 3),
        A33=-g(1, 3, 3),
        B2_22=g(2, 2, 2) - two * g(1, 1, 2),
        B2_23=g(2, 2, 3) - g(1, 1, 3),
        B2_33=g(2, 3, 3),
        B3_22=g(3, 2, 2),
        B3_23=g(3, 2, 3) - g(1, 1, 2),
        B3_33=g(3, 3, 3) - two * g(1, 1, 3),
        C2_2=two * g(2, 1, 2) - g(1, 1, 1),
        C2_3=two * g(2, 1, 3),
        C3_2=two * g(3, 1, 2),
        C3_3=two * g(3, 1, 3) - g(1, 1, 1),
        D2=g(2, 1, 1),
        D3=g(3, 1, 1),
    )


def typed_lift_scalar(cubic, gauge) -> Geodesic2Coefficients:
    """`projection.lift_scalar` as it was typed, the oracle of the section
    plus projective change."""
    b, e, two = gauge.b, gauge.e, integer(2)
    return Geodesic2Coefficients(
        a=cubic.E1 + two * e,
        b=b,
        c=cubic.E3,
        d=-cubic.E0,
        e=e,
        f=two * b - cubic.E2,
    )


def typed_lift_system(s, gauge) -> Christoffel:
    """`projection.lift_system` as it was typed, the oracle of the section
    plus projective change."""
    g1, g2, g3 = gauge.G1_12, gauge.G2_12, gauge.G3_33
    half, two = rational(1, 2), integer(2)
    return Christoffel.from_components(3, {
        (1, 1, 1): two * g2 - s.C2_2,
        (1, 1, 2): g1,
        (1, 1, 3): half * (g3 - s.B3_33),
        (1, 2, 2): -s.A22,
        (1, 2, 3): -s.A23,
        (1, 3, 3): -s.A33,
        (2, 1, 1): s.D2,
        (2, 1, 2): g2,
        (2, 1, 3): half * s.C2_3,
        (2, 2, 2): two * g1 + s.B2_22,
        (2, 2, 3): half * (g3 + two * s.B2_23 - s.B3_33),
        (2, 3, 3): s.B2_33,
        (3, 1, 1): s.D3,
        (3, 1, 2): half * s.C3_2,
        (3, 1, 3): g2 + half * (s.C3_3 - s.C2_2),
        (3, 2, 2): s.B3_22,
        (3, 2, 3): g1 + s.B3_23,
        (3, 3, 3): g3,
    })


def typed_induced_terms():
    """`transform._INDUCED` built with its own slot-naming loop for the
    cubic's coefficients, the oracle of the table that reads slope_slot."""
    cubic = {}
    for indices, (_, weight, _) in _FAMILIES.items():
        for j in (2, 3):
            if len(indices) < 3:
                cubic[j, indices] = (weight, ("D{}", "C{}_", "B{}_")[len(indices)].format(j)
                                     + sym_key(*indices))
            elif j in indices:
                rest = indices[1:] if j == 2 else indices[:-1]
                cubic[j, indices] = (_FAMILIES[rest][1], "A" + sym_key(*rest))
    table = {}
    for indices, (slot, weight, _) in _FAMILIES.items():
        for i in (2, 3):
            parts = [(1, (i, j), (j, indices)) for j in (2, 3)]
            if indices[:1] == (2,):
                parts.append((1, i, (3, indices[1:])))
            if indices[-1:] == (3,):
                parts.append((-1, i, (2, indices[:-1])))
            table[slot.format(i)] = (i, indices, weight, tuple(
                (sign * cubic[at][0], factor, cubic[at][1])
                for sign, factor, at in parts if at in cubic))
    return table


def swap_scalar_axes(cubic: ScalarCubic) -> ScalarCubic:
    """The same curve family described with the two coordinates traded.

    Writing x as a function of y reverses the coefficient list up to
    sign; applying the swap twice gives back the original table.
    """
    swap = {"x": var("y"), "y": var("x")}
    return ScalarCubic(
        E0=-cubic.E3.substitute(swap),
        E1=-cubic.E2.substitute(swap),
        E2=-cubic.E1.substitute(swap),
        E3=-cubic.E0.substitute(swap),
    )


def pair_lower_terms(g, yp, zp):
    """The terms free of second derivatives of equations 2 and 3 of a
    general pair: one sum each over the 10 slope monomials, weighted by
    index orderings."""
    monomials = {(): None, (2,): yp, (3,): zp}
    for indices in list(_FAMILIES)[3:]:  # degrees 2 and 3
        monomials[indices] = monomials[indices[:-1]] * monomials[indices[-1:]]
    return {i: sum_of_products([
        (weight, getattr(g, slot.format(i)), monomials[indices])
        for indices, (slot, weight, _) in _FAMILIES.items()]) for i in (2, 3)}


def second_derivative_numerators(g, yp, zp):
    """(det, Sy, Sz) with y'' = Sy/det and z'' = Sz/det for a general pair:
    Cramer's rule on its leading matrix (rows i = 2, 3; columns multiply
    y'' and z''), before any division."""
    m = tuple((g.J(i, 2) - g.G(i, 2, 3) * zp, g.J(i, 3) + g.G(i, 2, 3) * yp)
              for i in (2, 3))
    det = determinant(m)
    if det.is_zero_literal():
        raise SingularSystemError("leading matrix determinant is canonically zero")
    lower = pair_lower_terms(g, yp, zp)
    sy = -lower[2] * m[1][1] + lower[3] * m[0][1]
    sz = -lower[3] * m[0][0] + lower[2] * m[1][0]
    return det, sy, sz


def solve_second_derivatives(g, yp, zp):
    """Explicit (y'', z'') of a general pair as functions of position and
    slope."""
    det, sy, sz = second_derivative_numerators(g, yp, zp)
    return sy / det, sz / det


def geodesic_second_derivatives(gamma: Christoffel, slopes):
    """The explicit second derivatives of a connection's projected
    geodesic system in any dimension, y_i'' = sum over j <= k of
    w_jk (y_i' G{1}_jk - G{i}_jk) u_j u_k, with u = (1, slopes) and w_jk
    1 for j = k, 2 otherwise."""
    u = (integer(1),) + tuple(slopes)
    monomials = [(j, k, 1 if j == k else 2, u[j - 1] * u[k - 1])
                 for j, k in SYM_PAIRS[gamma.dim]]

    def contraction(i, sign):
        return [(sign * w, gamma.gamma(i, j, k), uu) for j, k, w, uu in monomials]

    shared = sum_of_products(contraction(1, 1))
    return tuple(sum_of_products([(1, slope, shared)] + contraction(i, -1))
                 for i, slope in enumerate(slopes, 2))


def chain_rule_residuals(system, t: Transformation):
    """The Eqr4 residuals of the chain rule, the oracle of the comparison
    with the flat pullback: the second derivative of each transformed
    coordinate with respect to the new independent variable, with the
    system's second derivatives substituted in.  A cubic kind is read as
    its zero-gauge lift, a connection as it is, and a general pair is
    solved by Cramer's rule.  With d1 the components' first derivatives
    along solutions and D the derivative along solutions that also
    eliminates the second derivatives, residual i is D(d1_i/d1_0)/d1_0,
    built as N_i/(det*d1_0^3) with N_i = detD(d1_i)*d1_0 - d1_i*detD(d1_0)
    and detD = det*D; a zero N_i is returned as it is."""
    if isinstance(system, (Quadratic2, Linear2)):
        system = system.as_cubic()
    if isinstance(system, ScalarCubic):
        system = lift_scalar(system).as_christoffel()
    elif isinstance(system, SystemCubic2):
        system = lift_system(system)
    elif isinstance(system, Geodesic2Coefficients):
        system = system.as_christoffel()
    dim = system.dim if isinstance(system, Christoffel) else 3
    coords = coordinates(dim)
    slope_names = ("yp", "zp")[:dim - 1]
    slopes = tuple(var(name) for name in slope_names)
    if isinstance(system, Christoffel):
        det, seconds = integer(1), geodesic_second_derivatives(system, slopes)
    else:
        det, *seconds = second_derivative_numerators(system, *slopes)

    def along(f):
        return sum_of_products([(1, f.diff(coords[0]), None)] + [
            (1, slope, f.diff(name)) for name, slope in zip(coords[1:], slopes)])

    d1 = [along(c) for c in t.components]
    if d1[0].is_zero_literal():
        raise ValueError("new independent variable is constant along solutions")

    def det_along(f):
        return sum_of_products([(1, det, along(f))] + [
            (1, second, f.diff(name)) for name, second in zip(slope_names, seconds)])

    det_d0 = det_along(d1[0])
    numerators = [sum_of_products([(1, det_along(d1[i]), d1[0]), (-1, d1[i], det_d0)])
                  for i in range(1, dim)]
    if any(n.num for n in numerators):
        denominator = det * d1[0] ** 3
        numerators = [n / denominator for n in numerators]
    return [(f"Eqr4.{i}", n) for i, n in enumerate(numerators, 2)]


def fraction_chain_residuals(g, t: Transformation):
    """The Eqr4 residuals of a general pair under a map, built as a chain
    of reduced fractions: D(d1_i/d1_0)/d1_0, where D is the derivative
    along solutions with the solved second derivatives substituted and
    d1 the components' first derivatives along solutions.  This is the
    definition that `chain_rule_residuals` rearranges over one
    denominator."""
    yp, zp = var("yp"), var("zp")
    ypp, zpp = solve_second_derivatives(g, yp, zp)

    def along(f):
        return (f.diff("x") + yp * f.diff("y") + zp * f.diff("z")
                + ypp * f.diff("yp") + zpp * f.diff("zp"))

    d1 = [along(c) for c in t.components]
    return [(f"Eqr4.{i + 1}", along(d1[i] / d1[0]) / d1[0]) for i in (1, 2)]


def _family(g, name, i, *lower) -> Expr:
    """The family entry name{i}_{lower} of a general pair, its lower
    indices in any order; E{i} has none."""
    return getattr(g, f"{name}{i}_{sym_key(*lower)}" if lower else f"{name}{i}")


def _dot(row, col) -> Expr:
    """row[2] * col[2] + row[3] * col[3], for {2: ..., 3: ...} dicts."""
    return row[2] * col[2] + row[3] * col[3]


def fraction_chain_normal_form(g, config=DEFAULT_CONFIG):
    """The normal form of a general pair solved level by level through
    reduced fractions: each unknown multiplies the inverse Jacobian
    entries jac/det into a column that already holds the levels below.
    This is the definition that `transform.normal_form` rearranges
    through gamma = J^-1 (G2_23, G3_23), kept here as its oracle."""
    jac = {i: {j: g.J(i, j) for j in (2, 3)} for i in (2, 3)}
    gee = {(i, k): {j: g.G(i, k, j) for j in (2, 3)} for i, k in product((2, 3), repeat=2)}
    det = determinant(((jac[2][2], jac[2][3]), (jac[3][2], jac[3][3])))
    if det.is_zero_literal():
        raise DegenerateJacobianError("leading Jacobian block is singular")
    inv = {
        2: {2: jac[3][3] / det, 3: -jac[2][3] / det},
        3: {2: -jac[3][2] / det, 3: jac[2][2] / det},
    }

    def solve(rhs):
        """The column x with J x = rhs, for a column rhs = {i: ...}."""
        return {j: _dot(inv[j], rhs) for j in (2, 3)}

    # each unknown is a column {2: ..., 3: ...} over its upper index,
    # keyed by its remaining lower indices
    d = solve({i: _family(g, "E", i) for i in (2, 3)})
    c = {k: solve({i: _family(g, "Om", i, k) - _dot(gee[i, k], d) for i in (2, 3)})
         for k in (2, 3)}
    b = {}
    for k, l in _DEPENDENT_PAIRS:
        b[k, l] = b[l, k] = solve({
            i: _family(g, "Lam", i, k, l) - rational(1, 2) * (
                _dot(gee[i, l], c[k]) + _dot(gee[i, k], c[l]))
            for i in (2, 3)
        })

    def p_component(i, k, l, m):
        sym_gb = rational(1, 3) * (
            _dot(gee[i, m], b[k, l])
            + _dot(gee[i, k], b[l, m])
            + _dot(gee[i, l], b[m, k]))
        return 3 * _family(g, "Del", i, k, l, m) - 3 * sym_gb

    def solved(j, k, l, m):
        """Component j of the column x with J x = P_klm: the only one read."""
        return _dot(inv[j], {i: p_component(i, k, l, m) for i in (2, 3)})

    a = {
        (2, 2): solved(2, 2, 2, 2) / 3,
        (2, 3): solved(2, 2, 2, 3) / 2,
        (3, 3): solved(3, 3, 3, 3) / 3,
    }
    a[3, 2] = a[2, 3]

    cubic = SystemCubic2.make(
        **{f"A{sym_key(k, l)}": a[k, l] for k, l in _DEPENDENT_PAIRS},
        **{f"B{j}_{sym_key(k, l)}": b[k, l][j]
           for j in (2, 3) for k, l in _DEPENDENT_PAIRS},
        **{f"C{j}_{k}": c[k][j] for j, k in product((2, 3), repeat=2)},
        D2=d[2], D3=d[3],
    )

    labelled = []
    for i, k, l, m in product((2, 3), (2, 3), (2, 3), (2, 3)):
        res = _family(g, "Del", i, k, l, m) - jac[i][k] * a[l, m] - _dot(gee[i, m], b[k, l])
        labelled.append((f"Eqr57.Del{i}_{k}{l}{m}", res))
    for i, k, l in product((2, 3), (2, 3), (2, 3)):
        res = _family(g, "Lam", i, k, l) - _dot(jac[i], b[k, l]) - _dot(gee[i, l], c[k])
        labelled.append((f"Eqr55.Lam{i}_{k}{l}", res))
    for i, k in product((2, 3), (2, 3)):
        res = _family(g, "Om", i, k) - _dot(jac[i], c[k]) - _dot(gee[i, k], d)
        labelled.append((f"Eqr55.Om{i}_{k}", res))
    for i in (2, 3):
        res = _family(g, "E", i) - _dot(jac[i], d)
        labelled.append((f"Eqr55.E{i}", res))

    report = evaluate_conditions(labelled, config, facts=(("det J", str(det)),))
    return cubic, report


def transcribed_second_derivatives(system, slopes):
    """The explicit second derivatives of a ScalarCubic or SystemCubic2,
    typed from the equations each table's docstring writes out; the
    oracle of the geodesic formula that `chain_rule_residuals` reads
    from the lifted connection."""
    if isinstance(system, ScalarCubic):
        (yp,) = slopes
        return (-(system.E3 * yp ** 3 + system.E2 * yp ** 2
                  + system.E1 * yp + system.E0),)
    s = system
    yp, zp = slopes
    shared = s.A22 * yp ** 2 + 2 * s.A23 * yp * zp + s.A33 * zp ** 2
    ypp = -(shared * yp
            + s.B2_22 * yp ** 2 + 2 * s.B2_23 * yp * zp + s.B2_33 * zp ** 2
            + s.C2_2 * yp + s.C2_3 * zp + s.D2)
    zpp = -(shared * zp
            + s.B3_22 * yp ** 2 + 2 * s.B3_23 * yp * zp + s.B3_33 * zp ** 2
            + s.C3_2 * yp + s.C3_3 * zp + s.D3)
    return ypp, zpp


def general_pair_residual(g, i, yp, zp, ypp, zpp):
    """Left side of equation i of a general pair `g` on explicit jet
    values, contracted from its named coefficient families."""
    first = {2: yp, 3: zp}
    total = (_family(g, "E", i) + g.J(i, 2) * ypp + g.J(i, 3) * zpp
             + g.G(i, 2, 3) * (yp * zpp - zp * ypp))
    for k in (2, 3):
        total = total + _family(g, "Om", i, k) * first[k]
        for l in (2, 3):
            total = total + _family(g, "Lam", i, k, l) * first[k] * first[l]
            for m in (2, 3):
                total = total + _family(g, "Del", i, k, l, m) * first[k] * first[l] * first[m]
    return total


def packed_layout(gens, *polys):
    """(shifts, w, guard) of the heuristic gcd's packed keys for polys over
    the sorted generators gens: each generator's field shift, the field
    width (the largest exponent's bit length plus a guard bit) and the
    guard bits, the top bit of every field."""
    top = max((e for p in polys for m in p for _, e in m), default=0)
    w = top.bit_length() + 1
    shifts = {g: w * (len(gens) - 1 - i) for i, g in enumerate(gens)}
    return shifts, w, sum(1 << (s + w - 1) for s in shifts.values())


def poly_quotient(p, d):
    """The exact quotient p / d of two kernel polynomials, or None.

    Every generator counts as a free variable and the division runs over
    the integers, on the packed keys of the heuristic gcd.  For
    rewrite-normal p and d this is also their quotient in the kernel ring.
    """
    if not p:
        return core.P_ZERO
    gens = sorted(core._p_gens(p) | core._p_gens(d))
    shifts, w, guard = packed_layout(gens, p, d)
    kp, fp = core._pk_from_poly(p, shifts)
    kd, fd = core._pk_from_poly(d, shifts)
    q = core._pk_exact_div(fp, fd, w, guard)
    if q is None:
        return None
    return core._pk_to_poly(q, shifts, w, core._qdiv(kp, kd))


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
    keyed by catalog label.  Transcribed verbatim, slips included: the
    derived appendix in criteria.py corrects the EqA2.3 slip, and
    test_criteria.py's test_transcription_agrees_except_the_index_slip
    checks that the two differ by exactly that slip."""
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

# the lines that define the same gauge derivative, in the order of
# their records
TRANSCRIBED_APPENDIX_PAIRS = [
    ("A1.6", "A2.1"), ("A1.3", "A3.1"), ("A2.2", "A3.2"), ("A1.4", "A2.3"),
    ("A1.9", "A2.7"), ("A1.9", "A2.8"), ("A2.7", "A2.8"), ("A1.8", "A3.3"),
    ("A2.9", "A3.4"),
]

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
    for first, second in TRANSCRIBED_APPENDIX_PAIRS:
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


def naive_first_bianchi_residuals(curv):
    """Every cyclic sum R{i}_{jkl} + R{i}_{klj} + R{i}_{ljk} summed afresh,
    n^4 sums in lexicographic order: the oracle of the sums that
    geometry.first_bianchi_residuals skips or shares."""
    n = curv.dim
    out = []
    for i, j, k, l in product(range(1, n + 1), repeat=4):
        out.append(sum_of_products([
            (1, curv.component(i, j, k, l), None),
            (1, curv.component(i, k, l, j), None),
            (1, curv.component(i, l, j, k), None),
        ]))
    return tuple(out)


def leibniz_determinant(m) -> Expr:
    """The determinant as the signed sum over all permutations of one
    entry per row and column, each product built by chained `*`: the
    oracle of geometry.determinant's cofactor expansion."""
    n = len(m)
    total = integer(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = integer(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term = term * m[row][col]
        total = total + term
    return total


def kernel_free_mono_merge(m1, m2):
    """The product of two kernel-free monomials by a two-pointer merge of
    their name-sorted (generator, exponent) pairs, a pair of one side kept
    as it is: the oracle of core._mono_combine without kernels."""
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        a, b = m1[i], m2[j]
        if a[0] is b[0]:
            out.append((a[0], a[1] + b[1]))
            i += 1
            j += 1
        elif a[0].name < b[0].name:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
    out.extend(m1[i:] if i < len(m1) else m2[j:])
    return tuple(out)


def _fresh_exact(expr: Expr) -> bool:
    """True when expr holds no kernel and has degree at most _EXACT_DEGREE."""
    for p in (expr.num, expr.den):
        for m in p:
            if any(g.kind != VAR for g, _ in m) or sum(e for _, e in m) > zerotest._EXACT_DEGREE:
                return False
    return True


def _fresh_poly_at(p, point) -> tuple:
    """Ints (v, w) with v / w the value of p at the point {name: a}, every
    term scaled to p's top degree."""
    lcm = 1
    for c in p.values():
        lcm = math.lcm(lcm, Fraction(c).denominator)
    degree = max(sum(e for _, e in m) for m in p)
    total = 0
    for m, c in p.items():
        v = int(c * lcm)
        d = 0
        for g, e in m:
            v *= point[g.name] ** e
            d += e
        total += v << (zerotest._SCALE_BITS * (degree - d))
    return total, lcm << (zerotest._SCALE_BITS * degree)


def fresh_stream_is_zero(expr: Expr, config=DEFAULT_CONFIG) -> ZeroTestResult:
    """The zero test drawing its points from a fresh random.Random(seed)
    on every call, with no memo: the oracle of zerotest.is_zero, whose
    points are drawn once per process."""
    if expr.is_zero_literal():
        return ZeroTestResult(Verdict.ZERO, detail="canonical zero")
    if expr.is_rational():
        q = expr.as_rational()
        return ZeroTestResult(
            Verdict.NONZERO, witness={},
            witness_value=f"{int_str(q.numerator)}/{int_str(q.denominator)}",
            detail="nonzero rational constant")
    names = sorted(expr.variables())
    rng = random.Random(config.seed)
    if not names:
        try:
            value, peak = eval_expr(expr, {}, config.precision_bits)
        except EvalDomainError as err:
            return ZeroTestResult(Verdict.UNDECIDED, detail=f"evaluation failed: {err}")
        if abs(value) > config.tolerance * peak:
            return ZeroTestResult(Verdict.NONZERO, witness={}, witness_value=str(value),
                                  detail="nonzero kernel constant")
        return ZeroTestResult(Verdict.UNDECIDED, detail="constant numerically small")
    exact = _fresh_exact(expr)
    scale = zerotest._SCALE
    accepted = drawn = 0
    while accepted < config.points:
        if drawn == 8 * config.points:
            return ZeroTestResult(Verdict.UNDECIDED,
                                  detail="sampling budget exhausted by singular points")
        drawn += 1
        point = {name: rng.randint(0, scale) + scale // 2 for name in names}
        if exact:
            num, num_scale = _fresh_poly_at(expr.num, point)
            den, den_scale = _fresh_poly_at(expr.den, point)
            if not den:
                continue
            accepted += 1
            if not num:
                continue
            value = rational_str(num * den_scale, den * num_scale, config.precision_bits)
        else:
            try:
                value, peak = eval_expr(
                    expr, {name: Fraction(a, scale) for name, a in point.items()},
                    config.precision_bits)
            except EvalDomainError:
                continue
            accepted += 1
            if not abs(value) > config.tolerance * peak:
                continue
            value = str(value)
        return ZeroTestResult(
            Verdict.NONZERO,
            witness={name: str(Fraction(a, scale)) for name, a in point.items()},
            witness_value=value, detail=f"nonzero at sample {accepted}")
    return ZeroTestResult(Verdict.UNDECIDED, detail=f"small at all {config.points} samples")


def signed_pk_from_poly(p, shifts):
    """core._pk_from_poly with the signed content: (k, f) with p = k * f
    and f primitive with a positive leading term."""
    k = core._poly_rat_content(p)
    f = {}
    for m, c in p.items():
        key = 0
        for g, e in m:
            key |= e << shifts[g]
        f[key] = core._qdiv(c, k)
    return k, f


def gcd_with_divisor(a, b):
    """core._p_gcd(a, b) as (g, a/g, b/g, whole), with g = a / (a/g) and
    the common sign of the three chosen so that g has a positive leading
    term: two results are equal up to the cofactors' common sign exactly
    when these are equal."""
    qa, qb, whole = core._p_gcd(a, b)
    g = poly_quotient(a, qa)
    if g[core._lead(g)] < 0:
        g, qa, qb = core._p_neg(g), core._p_neg(qa), core._p_neg(qb)
    return g, qa, qb, whole


# The gcd on exponent tuples, as geolin.kernel.core ran it before its
# monomials became packed integer keys: the oracle that the packed gcd must
# match result for result.  tuple_gcd is core._p_gcd as it was then, with
# tuple_heu_gcd as its search, which has no division step and neither the
# degree nor the bit limit.


def tuple_gcd(a, b):
    """(g, a/g, b/g, whole): the common monomial factor comes out term by
    term, then the single-term, shared-generator and size guards read the
    quotients.  g is read back as a / (a/g), as gcd_with_divisor reads it,
    so no rewrite of a product forms it; it has a positive leading term."""
    if core._p_is_const(a) or core._p_is_const(b):
        return core.P_ONE, a, b, True
    mono = core._mono_common([*a, *b])
    qa, qb = a, b
    if mono:
        qa, qb = ({core._mono_div(m, mono): c for m, c in p.items()} for p in (a, b))
    gens_a, gens_b = core._p_gens(qa), core._p_gens(qb)
    common = gens_a & gens_b
    whole = True
    if len(qa) > 1 and len(qb) > 1 and common:
        found = None
        if (len(qa) <= core._GCD_TERM_LIMIT and len(qb) <= core._GCD_TERM_LIMIT
                and len(common) <= core._GCD_GEN_LIMIT):
            found = tuple_heu_gcd(qa, qb, sorted(gens_a | gens_b))
        if found is None:
            whole = False
        else:
            _, qa, qb = found
    return poly_quotient(a, qa), qa, qb, whole


def tuple_heu_gcd(a, b, gens):
    """(g, a/g, b/g) for polynomials in the generators gens, or None."""
    ka, fa = zz_from_poly(a, gens)
    kb, fb = zz_from_poly(b, gens)
    found = zz_heu_gcd(fa, fb, len(gens))
    if found is None:
        return None
    h, cfa, cfb = found
    if len(h) == 1 and not any(next(iter(h))):
        return core.P_ONE, a, b
    g = poly_from_zz(h, gens)
    ca = core._p_scale(poly_from_zz(cfa, gens), ka)
    cb = core._p_scale(poly_from_zz(cfb, gens), kb)
    # move the rational content of g into its cofactors
    c = core._poly_rat_content(g)
    if c == 1:
        return g, ca, cb
    return core._p_quo(g, c), core._p_scale(ca, c), core._p_scale(cb, c)


def zz_from_poly(p, gens):
    """(k, f) with p = k * f, k > 0 and f a primitive integer polynomial
    on exponent tuples; f's leading term may be negative."""
    k = core._poly_abs_content(p)
    index = {g: i for i, g in enumerate(gens)}
    f = {}
    for m, c in p.items():
        exps = [0] * len(gens)
        for g, e in m:
            exps[index[g]] = e
        f[tuple(exps)] = c // k if k.__class__ is int else core._qdiv(c, k)
    return k, f


def poly_from_zz(f, gens) -> dict:
    return core._poly_from_dict({
        core._mono(tuple((g, e) for g, e in zip(gens, exps) if e)): c
        for exps, c in f.items()
    })


def zz_heu_gcd(f, g, n):
    """(h, f/h, g/h) for nonzero integer polynomials in n variables, or None."""
    if not n:
        a = f[()]
        b = g[()]
        h = math.gcd(a, b)
        return {(): h}, {(): a // h}, {(): b // h}
    k = math.gcd(*f.values(), *g.values())
    if k != 1:
        f = {m: c // k for m, c in f.items()}
        g = {m: c // k for m, c in g.items()}
    f_norm = max(abs(c) for c in f.values())
    g_norm = max(abs(c) for c in g.values())
    x = 2 * min(f_norm, g_norm) + 2
    for _ in range(core._HEU_TRIES):
        ff = zz_eval_first(f, x)
        gg = zz_eval_first(g, x)
        if ff and gg:
            found = zz_heu_gcd(ff, gg, n - 1)
            if found is None:
                return None
            h = zz_primitive(zz_interpolate(found[0], x))
            if len(h) == 1 and h.get((0,) * n) == 1:
                return zz_scale(h, k), f, g
            cf = zz_exact_div(f, h)
            cg = zz_exact_div(g, h) if cf is not None else None
            if cg is not None:
                return zz_scale(h, k), cf, cg
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    return None


def zz_eval_first(f, x) -> dict:
    """f with its first variable set to x, as a polynomial in the rest."""
    powers = {}
    out: dict = {}
    for m, c in f.items():
        e = m[0]
        p = powers.get(e)
        if p is None:
            p = powers[e] = x ** e
        rest = m[1:]
        out[rest] = out.get(rest, 0) + c * p
    return {m: c for m, c in out.items() if c}


def zz_interpolate(h, x) -> dict:
    """Balanced x-adic expansion of h's coefficients as a new first variable."""
    out = {}
    half = x // 2
    i = 0
    while h:
        rest = {}
        for m, c in h.items():
            r = c % x
            if r > half:
                r -= x
            if r:
                out[(i,) + m] = r
            c = (c - r) // x
            if c:
                rest[m] = c
        h = rest
        i += 1
    return out


def zz_primitive(f) -> dict:
    k = math.gcd(*f.values())
    return f if k == 1 else {m: c // k for m, c in f.items()}


def zz_scale(f, k) -> dict:
    return f if k == 1 else {m: c * k for m, c in f.items()}


def zz_exact_div(f, d):
    """Exact quotient f / d over the integers on exponent tuples, or None.

    Lexicographic division; every quotient exponent must stay within the
    degree gap of f and d.  A single-term divisor divides term by term.
    """
    if len(d) == 1:
        ((lead, lc),) = d.items()
        quo = {}
        for m, c in f.items():
            t = tuple(e - l for e, l in zip(m, lead))
            q, r = divmod(c, lc)
            if r or min(t, default=0) < 0:
                return None
            quo[t] = q
        return quo
    lead = max(d)
    gap = [max(m[i] for m in f) - max(m[i] for m in d) for i in range(len(lead))]
    if min(gap, default=0) < 0:
        return None
    lc = d[lead]
    rem = dict(f)
    quo = {}
    while rem:
        m = max(rem)
        t = tuple(e - l for e, l in zip(m, lead))
        if any(e < 0 or e > gap_i for e, gap_i in zip(t, gap)):
            return None
        c, r = divmod(rem[m], lc)
        if r:
            return None
        quo[t] = c
        for dm, dc in d.items():
            mm = tuple(e + de for e, de in zip(t, dm))
            v = rem.get(mm, 0) - c * dc
            if v:
                rem[mm] = v
            else:
                del rem[mm]
    return quo


# Twins of three value classes as the frozen dataclasses they were, the
# oracle of geolin.kernel.frozen.Frozen: same fields, defaults and
# __post_init__, printed under the same name, with each __init__,
# __repr__, __eq__, __hash__, __setattr__ and __delattr__ generated by
# dataclasses.


@dataclass(frozen=True)
class ZeroTestResultTwin:
    __qualname__ = "ZeroTestResult"

    verdict: Verdict
    witness: Optional[dict] = None
    witness_value: Optional[str] = None
    detail: str = ""


@dataclass(frozen=True)
class ChristoffelTwin:
    __qualname__ = "Christoffel"

    dim: int
    entries: Tuple[Expr, ...]

    __post_init__ = Christoffel.__post_init__


@dataclass(frozen=True)
class GeneralSystem2Twin:
    __qualname__ = "GeneralSystem2"

    J2_2: Expr
    J2_3: Expr
    J3_2: Expr
    J3_3: Expr
    G2_23: Expr
    G3_23: Expr
    Del2_222: Expr
    Del2_223: Expr
    Del2_233: Expr
    Del2_333: Expr
    Del3_222: Expr
    Del3_223: Expr
    Del3_233: Expr
    Del3_333: Expr
    Lam2_22: Expr
    Lam2_23: Expr
    Lam2_33: Expr
    Lam3_22: Expr
    Lam3_23: Expr
    Lam3_33: Expr
    Om2_2: Expr
    Om2_3: Expr
    Om3_2: Expr
    Om3_3: Expr
    E2: Expr
    E3: Expr
