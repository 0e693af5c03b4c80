"""Exact residual tests for reducibility to the free particle system.

Every checker turns a coefficient table into a list of residual
expressions, canonicalizes them, and runs the kernel zero test on each.
A report passes only when every residual is certified zero; a single
certified nonzero residual is a proof of failure.

Condition identifiers (Eq3.1, Eq51.7, EqA2.5, ...) are stable catalog
labels for the individual residuals; reports cite them so that a FAIL
names the exact condition that broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .geometry import (
    CoefficientTable,
    Geodesic2Coefficients,
    geodesic2_flat_conditions,
    geodesic2_flat_residuals,
)
from .kernel import DEFAULT_CONFIG, Expr, ZeroTestConfig, rational
from .projection import (
    ScalarCubic,
    ScalarGauge,
    SystemCubic2,
    SystemGauge,
    ZERO_SCALAR_GAUGE,
    ZERO_SYSTEM_GAUGE,
    lift_scalar,
)
from .report import ConditionReport, evaluate_conditions

_half = rational(1, 2)
_quarter = rational(1, 4)
_third = rational(1, 3)
_sixth = rational(1, 6)


class CoefficientDomainError(ValueError):
    """A coefficient depends on a coordinate its equation kind forbids."""


def _dx(f: Expr) -> Expr:
    return f.diff("x")


def _dy(f: Expr) -> Expr:
    return f.diff("y")


def _dz(f: Expr) -> Expr:
    return f.diff("z")


@dataclass(frozen=True)
class Quadratic2(CoefficientTable):
    """Quadratically semi-linear pair; coefficients functions of (y, z).

        y'' + B2_22 y'^2 + 2 B2_23 y'z' + B2_33 z'^2 = 0
        z'' + B3_22 y'^2 + 2 B3_23 y'z' + B3_33 z'^2 = 0
    """

    B2_22: Expr
    B2_23: Expr
    B2_33: Expr
    B3_22: Expr
    B3_23: Expr
    B3_33: Expr

    def __post_init__(self):
        for name, value in self.entries().items():
            if not value.diff("x").is_zero_literal():
                raise CoefficientDomainError(
                    f"quadratic coefficient {name} depends on x"
                )

    def as_cubic(self) -> SystemCubic2:
        return SystemCubic2.make(**self.entries())


@dataclass(frozen=True)
class Linear2(CoefficientTable):
    """Pair linear in first derivatives; the C's are functions of x only.

        y'' + C2_2 y' + C2_3 z' + D2 = 0
        z'' + C3_2 y' + C3_3 z' + D3 = 0
    """

    C2_2: Expr
    C2_3: Expr
    C3_2: Expr
    C3_3: Expr
    D2: Expr
    D3: Expr

    def __post_init__(self):
        for name in ("C2_2", "C2_3", "C3_2", "C3_3"):
            value = getattr(self, name)
            for coord in ("y", "z"):
                if not value.diff(coord).is_zero_literal():
                    raise CoefficientDomainError(
                        f"linear coefficient {name} depends on {coord}"
                    )

    def as_cubic(self) -> SystemCubic2:
        return SystemCubic2.make(**self.entries())


def tresse_residuals(cubic: ScalarCubic) -> List[Tuple[str, Expr]]:
    """The two classical relative invariants whose vanishing decides
    linearizability of a scalar cubically semi-linear equation."""
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


def tresse_scalar(
    cubic: ScalarCubic, config: ZeroTestConfig = DEFAULT_CONFIG
) -> ConditionReport:
    return evaluate_conditions(
        "scalar-cubic", tresse_residuals(cubic), config)


def lie_gauge_residuals(
    cubic: ScalarCubic,
    gauge: ScalarGauge = ZERO_SCALAR_GAUGE,
    config: ZeroTestConfig = DEFAULT_CONFIG,
) -> ConditionReport:
    """Flatness conditions on the 2D lift under the supplied gauge.

    A PASS certifies the gauge as a witness that the scalar equation is
    the projected geodesic system of a flat plane connection, which is
    the constructive route to a linearizing transformation.
    """
    return geodesic2_flat_conditions(lift_scalar(cubic, gauge), config)


def cubic2_residuals(s: SystemCubic2) -> List[Tuple[str, Expr]]:
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


def check_cubic2(
    s: SystemCubic2, config: ZeroTestConfig = DEFAULT_CONFIG
) -> ConditionReport:
    """Decide whether the cubic pair is linearizable; PASS is a proof,
    condition by condition, FAIL names a broken condition."""
    return evaluate_conditions("cubic-2", cubic2_residuals(s), config)


def quadratic2_residuals(q: Quadratic2) -> List[Tuple[str, Expr]]:
    """The four quadratic pair conditions: Eq51.11, .13, .8 and .9 on the
    cubic embedding, whose other lines vanish there."""
    lines = cubic2_residuals(q.as_cubic())
    return [(f"Eq53.{k}", lines[i - 1][1])
            for k, i in enumerate((11, 13, 8, 9), start=1)]


def check_quadratic2(
    q: Quadratic2, config: ZeroTestConfig = DEFAULT_CONFIG
) -> ConditionReport:
    return evaluate_conditions("quadratic-2", quadratic2_residuals(q), config)


def linear2_residuals(l: Linear2) -> List[Tuple[str, Expr]]:
    """The three linear pair conditions: -Eq51.1, -Eq51.4 and -Eq51.12 on
    the cubic embedding, whose other lines vanish there.  Each is the
    derivative side minus the coefficient side, so a pure-D violation
    shows up with the sign of the D term."""
    lines = cubic2_residuals(l.as_cubic())
    return [(f"Eq55.{k}", -lines[i - 1][1])
            for k, i in enumerate((1, 4, 12), start=1)]


def check_linear2(
    l: Linear2, config: ZeroTestConfig = DEFAULT_CONFIG
) -> ConditionReport:
    return evaluate_conditions("linear-2", linear2_residuals(l), config)


def _appendix_rhs(s: SystemCubic2, g1: Expr, g2: Expr, g3: Expr):
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
_APPENDIX_SLOTS = {
    "A1.3": (0, "y"), "A1.4": (1, "x"), "A1.5": (1, "y"), "A1.6": (0, "x"),
    "A1.8": (2, "y"), "A1.9": (2, "x"),
    "A2.1": (0, "x"), "A2.2": (0, "z"), "A2.3": (1, "x"), "A2.4": (1, "z"),
    "A2.7": (2, "x"), "A2.8": (2, "x"), "A2.9": (2, "z"),
    "A3.1": (0, "y"), "A3.2": (0, "z"), "A3.3": (2, "y"), "A3.4": (2, "z"),
}

# equations defining the same gauge derivative, in printed order
_APPENDIX_PAIRS = [
    ("A1.6", "A2.1"),
    ("A1.3", "A3.1"),
    ("A2.2", "A3.2"),
    ("A1.4", "A2.3"),
    ("A1.9", "A2.7"),
    ("A1.9", "A2.8"),
    ("A2.7", "A2.8"),
    ("A1.8", "A3.3"),
    ("A2.9", "A3.4"),
]

# printed order of the full 24-line table, gauge-free lines marked
_APPENDIX_ORDER = [
    ("A1.1", 0), ("A1.2", 1), ("A1.3", None), ("A1.4", None),
    ("A1.5", None), ("A1.6", None), ("A1.7", 2), ("A1.8", None),
    ("A1.9", None),
    ("A2.1", None), ("A2.2", None), ("A2.3", None), ("A2.4", None),
    ("A2.5", 3), ("A2.6", 4), ("A2.7", None), ("A2.8", None),
    ("A2.9", None),
    ("A3.1", None), ("A3.2", None), ("A3.3", None), ("A3.4", None),
    ("A3.5", 5), ("A3.6", 6),
]


def appendix_residuals(
    s: SystemCubic2,
    gauge: SystemGauge = ZERO_SYSTEM_GAUGE,
    config: ZeroTestConfig = DEFAULT_CONFIG,
) -> ConditionReport:
    """Evaluate the full 24-line integrability table on an explicit gauge.

    Seven lines constrain the coefficient table alone; seventeen define
    partial derivatives of the three gauge functions and are scored as
    (derivative of the supplied gauge) minus (printed right side).
    Slots defined by more than one line additionally get pairwise
    consistency records; those differences are independent of the gauge.
    PASS certifies the supplied gauge as a flat-lift witness.
    """
    gs = (gauge.G1_12, gauge.G2_12, gauge.G3_33)
    rhs = _appendix_rhs(s, *gs)
    residuals = cubic2_residuals(s)
    labelled = []
    for label, free_index in _APPENDIX_ORDER:
        if free_index is not None:
            labelled.append((f"Eq{label}", residuals[free_index][1]))
        else:
            slot, coord = _APPENDIX_SLOTS[label]
            labelled.append((f"Eq{label}", gs[slot].diff(coord) - rhs[label]))
    for first, second in _APPENDIX_PAIRS:
        labelled.append((f"Eq{first}-{second}", rhs[first] - rhs[second]))

    # the printed table and the fifteen-condition list disagree on one
    # combination; record the instance value of that mismatch openly
    gap = (rhs["A1.4"] - rhs["A2.3"]) - residuals[11][1]
    facts = (("gap Eq51.12 vs EqA1.4-A2.3", str(gap)),)
    return evaluate_conditions("cubic-2 appendix", labelled, config, facts)


def _remark_differences(q: Quadratic2) -> List[Tuple[str, Expr]]:
    coef = Geodesic2Coefficients(
        a=-q.B2_22, b=-q.B2_23, c=-q.B2_33,
        d=-q.B3_22, e=-q.B3_23, f=-q.B3_33,
    )
    r9 = [res for _, res in geodesic2_flat_residuals(coef, ("y", "z"))]
    r53 = [res for _, res in quadratic2_residuals(q)]
    return [
        ("Eq53.1-Eq9.3", r53[0] - r9[2]),
        ("Eq53.2-Eq9.(1,4)", r53[1] + 2 * r9[0] + rational(4, 3) * r9[3]),
        ("Eq53.3-Eq9.(1,4)", r53[2] + r9[0] + _third * r9[3]),
        ("Eq53.4-Eq9.2", r53[3] + r9[1]),
    ]


def remark_mapping(
    q: Quadratic2, config: ZeroTestConfig = DEFAULT_CONFIG
) -> ConditionReport:
    """Identify the quadratic conditions with the plane-flatness ones.

    Negating the six coefficients turns each quadratic condition, a line
    of the fifteen on the cubic embedding, into a fixed linear
    combination of the plane residuals in coordinates (y, z); the report
    scores the four differences, which must vanish identically.
    """
    return evaluate_conditions(
        "quadratic-2 remark", _remark_differences(q), config)
