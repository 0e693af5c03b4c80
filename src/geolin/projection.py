"""Between geodesic connections and explicit second-order ODE systems.

Solving the geodesic equations of an n-dimensional symmetric connection
for derivatives with respect to the first coordinate eliminates the
curve parameter and leaves n-1 equations that are cubic polynomials in
the first derivatives.  `project` extracts those polynomial coefficient
tables; `lift_scalar` / `lift_system` rebuild a connection from them.
The connection has more components than the table, so lifting takes a
gauge: two free functions in 2D, three in 3D.  Projection then forgets
the gauge again, which is the round-trip identity tested here.
"""

from __future__ import annotations

from typing import Union

from .geometry import (
    Christoffel,
    CoefficientTable,
    Geodesic2Coefficients,
)
from .kernel import Expr, integer, rational, var

_HALF = rational(1, 2)
_TWO = integer(2)


class ScalarCubic(CoefficientTable):
    """Coefficients of y'' + E3 y'^3 + E2 y'^2 + E1 y' + E0 = 0."""

    E0: Expr
    E1: Expr
    E2: Expr
    E3: Expr


class SystemCubic2(CoefficientTable):
    """Cubically semi-linear pair in normal form; 15 coefficient slots.

        y'' + (A22 y'^2 + 2 A23 y'z' + A33 z'^2) y'
            + B2_22 y'^2 + 2 B2_23 y'z' + B2_33 z'^2
            + C2_2 y' + C2_3 z' + D2 = 0
        z'' + (A22 y'^2 + 2 A23 y'z' + A33 z'^2) z'
            + B3_22 y'^2 + 2 B3_23 y'z' + B3_33 z'^2
            + C3_2 y' + C3_3 z' + D3 = 0
    """

    A22: Expr
    A23: Expr
    A33: Expr
    B2_22: Expr
    B2_23: Expr
    B2_33: Expr
    B3_22: Expr
    B3_23: Expr
    B3_33: Expr
    C2_2: Expr
    C2_3: Expr
    C3_2: Expr
    C3_3: Expr
    D2: Expr
    D3: Expr


class ScalarGauge(CoefficientTable):
    """Free connection entries b, e left open by a 2D lift."""

    b: Expr
    e: Expr


class SystemGauge(CoefficientTable):
    """Free connection entries G1_12, G2_12, G3_33 left open by a 3D lift."""

    G1_12: Expr
    G2_12: Expr
    G3_33: Expr


ZERO_SCALAR_GAUGE = ScalarGauge.make()
ZERO_SYSTEM_GAUGE = SystemGauge.make()


def project(gamma: Christoffel) -> Union[ScalarCubic, SystemCubic2]:
    """Coefficient table of the parameter-free geodesic equations."""
    g = gamma.gamma
    if gamma.dim == 2:
        return ScalarCubic(
            E0=g(2, 1, 1),
            E1=_TWO * g(2, 1, 2) - g(1, 1, 1),
            E2=g(2, 2, 2) - _TWO * g(1, 1, 2),
            E3=-g(1, 2, 2),
        )
    return SystemCubic2(
        A22=-g(1, 2, 2),
        A23=-g(1, 2, 3),
        A33=-g(1, 3, 3),
        B2_22=g(2, 2, 2) - _TWO * g(1, 1, 2),
        B2_23=g(2, 2, 3) - g(1, 1, 3),
        B2_33=g(2, 3, 3),
        B3_22=g(3, 2, 2),
        B3_23=g(3, 2, 3) - g(1, 1, 2),
        B3_33=g(3, 3, 3) - _TWO * g(1, 1, 3),
        C2_2=_TWO * g(2, 1, 2) - g(1, 1, 1),
        C2_3=_TWO * g(2, 1, 3),
        C3_2=_TWO * g(3, 1, 2),
        C3_3=_TWO * g(3, 1, 3) - g(1, 1, 1),
        D2=g(2, 1, 1),
        D3=g(3, 1, 1),
    )


def lift_scalar(
    cubic: ScalarCubic, gauge: ScalarGauge = ZERO_SCALAR_GAUGE
) -> Geodesic2Coefficients:
    """2D geodesic coefficients whose projection is the given equation."""
    b, e = gauge.b, gauge.e
    return Geodesic2Coefficients(
        a=cubic.E1 + _TWO * e,
        b=b,
        c=cubic.E3,
        d=-cubic.E0,
        e=e,
        f=_TWO * b - cubic.E2,
    )


def lift_system(
    system: SystemCubic2, gauge: SystemGauge = ZERO_SYSTEM_GAUGE
) -> Christoffel:
    """3D connection whose projection is the given pair of equations.

    The three gauge entries occupy exactly the connection slots the
    projection cannot see.
    """
    g1, g2, g3 = gauge.G1_12, gauge.G2_12, gauge.G3_33
    s = system
    return Christoffel.from_components(3, {
        (1, 1, 1): _TWO * g2 - s.C2_2,
        (1, 1, 2): g1,
        (1, 1, 3): _HALF * (g3 - s.B3_33),
        (1, 2, 2): -s.A22,
        (1, 2, 3): -s.A23,
        (1, 3, 3): -s.A33,
        (2, 1, 1): s.D2,
        (2, 1, 2): g2,
        (2, 1, 3): _HALF * s.C2_3,
        (2, 2, 2): _TWO * g1 + s.B2_22,
        (2, 2, 3): _HALF * (g3 + _TWO * s.B2_23 - s.B3_33),
        (2, 3, 3): s.B2_33,
        (3, 1, 1): s.D3,
        (3, 1, 2): _HALF * s.C3_2,
        (3, 1, 3): g2 + _HALF * (s.C3_3 - s.C2_2),
        (3, 2, 2): s.B3_22,
        (3, 2, 3): g1 + s.B3_23,
        (3, 3, 3): g3,
    })


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
