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

import functools
import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .geometry import (
    Christoffel,
    CoefficientTable,
    coordinates,
    covariant_derivative,
    geodesic2_flat_conditions,
    geodesic2_flat_residuals,
    riemann,
)
from .kernel import DEFAULT_CONFIG, ZERO, Expr, ZeroTestConfig, parse, rational, var
from .projection import (
    ScalarCubic,
    ScalarGauge,
    SystemCubic2,
    SystemGauge,
    ZERO_SCALAR_GAUGE,
    ZERO_SYSTEM_GAUGE,
    lift_scalar,
    lift_system,
)
from .report import ConditionReport, evaluate_conditions


class CoefficientDomainError(ValueError):
    """A coefficient depends on a coordinate its equation kind forbids."""


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
    linearizability of a scalar cubically semi-linear equation: three
    times the projective Cotton tensor of its plane lift G,

        Eq3.1 = nabla_x T_22 - nabla_y T_21,  Eq3.2 = nabla_x T_12 - nabla_y T_11,

    with T_jl = 2 Ric_jl + Ric_lj (three times the projective Schouten
    tensor) and Ric_jl = R{1}_{j1l} + R{2}_{j2l}.  The gauge of the lift
    cancels from both, so the zero gauge is used."""
    gamma = lift_scalar(cubic).as_christoffel()
    r = riemann(gamma).component
    ric = {(j, l): r(1, j, 1, l) + r(2, j, 2, l) for j in (1, 2) for l in (1, 2)}
    schouten = {(j, l): 2 * ric[j, l] + ric[l, j] for j, l in ric}
    nabla = functools.partial(covariant_derivative, gamma,
                              lambda i, j: schouten[i, j])
    return [("Eq3.1", nabla(1, 2, 2) - nabla(2, 2, 1)),
            ("Eq3.2", nabla(1, 1, 2) - nabla(2, 1, 1))]


def tresse_scalar(
    cubic: ScalarCubic, config: ZeroTestConfig = DEFAULT_CONFIG
) -> ConditionReport:
    return evaluate_conditions(tresse_residuals(cubic), config)


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


# The pair conditions are the flatness of the lifted 3D connection: each
# line is a fixed rational combination of the curvature components of
# lift_system(s, gauge), labelled as by Riemann.labelled().  Eq51.1-15:
_EQ51 = (
    "R3_112",
    "R3_212",
    "R3_312 - 1/3*R1_112 - 1/3*R2_212",
    "R2_113",
    "R2_313",
    "R1_223",
    "R1_323",
    "R1_213 - 2/3*R2_223 + 1/3*R3_323",
    "R1_313 - R2_323",
    "R3_213 + 1/3*R1_112 - 2/3*R2_212",
    "R1_212 + R3_223",
    "R3_113 - R2_112",
    "2*R1_312 - 2/3*R2_223 + 4/3*R3_323",
    "2*R2_213 - R1_113 - R2_312",
    "R2_213 - R1_113 - 2*R2_312 + R3_313",
)

# the 24 appendix lines in printed order: seven are lines of the fifteen,
# and seventeen define a partial derivative of the gauge, each scored as
# (that derivative of the gauge) minus (its right side)
_APPENDIX = {
    "A1.1": _EQ51[0],
    "A1.2": _EQ51[1],
    "A1.3": "-R1_212",
    "A1.4": "R2_112",
    "A1.5": "1/3*R2_212 - 2/3*R1_112",
    "A1.6": "2/3*R2_212 - 1/3*R1_112",
    "A1.7": _EQ51[2],
    "A1.8": "-2*R1_312",
    "A1.9": "2*R2_312",
    "A2.1": "R3_213",
    "A2.2": "-R1_213",
    "A2.3": "R3_113",
    "A2.4": "R2_213 - R1_113",
    "A2.5": _EQ51[3],
    "A2.6": _EQ51[4],
    "A2.7": "4*R2_213 - 2*R1_113",
    "A2.8": "R2_213 - R1_113 + R3_313",
    "A2.9": "-2*R1_313",
    "A3.1": "R3_223",
    "A3.2": "1/3*R3_323 - 2/3*R2_223",
    "A3.3": "4/3*R3_323 - 2/3*R2_223",
    "A3.4": "-2*R2_323",
    "A3.5": _EQ51[5],
    "A3.6": _EQ51[6],
}


@functools.cache
def _slot_forms():
    """Each connection slot G{i}_{jk} of the lift as {name: rational}
    over the coefficient and gauge names, read off one lift of variables."""
    probe = lift_system(SystemCubic2(*map(var, SystemCubic2.keys())),
                        SystemGauge(*map(var, SystemGauge.keys())))
    forms = {}
    for i, j, k in itertools.product((1, 2, 3), repeat=3):
        entry = probe.gamma(i, j, k)
        forms[i, j, k] = {name: entry.diff(name).as_rational()
                          for name in entry.variables()}
    return forms


@functools.cache
def _line_terms(combination: str):
    """One combination of curvature components expanded, by index algebra
    over the slot forms, into derivative terms ((name, coord, c), ...)
    and product terms grouped by a shared factor ((a, ((b, c), ...)), ...),
    from R{i}_{jkl} = T(k, l) - T(l, k) with
    T(p, q) = d_p G{i}_{jq} + sum_m G{i}_{mp} G{m}_{jq}."""
    line = parse(combination)
    forms = _slot_forms()
    derivs, products = defaultdict(int), defaultdict(int)
    for label in line.variables():
        weight = line.diff(label).as_rational()
        i, j, k, l = (int(ch) for ch in label[1] + label[3:])
        for p, q, w in ((k, l, weight), (l, k, -weight)):
            for name, u in forms[i, j, q].items():
                derivs[name, coordinates(3)[p - 1]] += w * u
            for m in (1, 2, 3):
                for a, u in forms[i, m, p].items():
                    for b, v in forms[m, j, q].items():
                        products[min(a, b), max(a, b)] += w * u * v

    def exact(c):
        # an int where integral, so that scaling stays in int arithmetic
        return c.numerator if c.denominator == 1 else c

    left = {pair: exact(c) for pair, c in products.items() if c}
    grouped = []
    while left:
        # factor out the name shared by the most products left
        shared = Counter(name for pair in left for name in set(pair))
        first = min(shared, key=lambda name: (-shared[name], name))
        rest = sorted((b if a == first else a, c) for (a, b), c in left.items()
                      if first in (a, b))
        grouped.append((first, tuple(rest)))
        left = {pair: c for pair, c in left.items() if first not in pair}
    return (
        tuple((name, coord, exact(c)) for (name, coord), c in sorted(derivs.items()) if c),
        tuple(grouped),
    )


def _curvature_lines(combinations, values: Dict[str, Expr]) -> List[Expr]:
    """Each combination evaluated on the coefficient and gauge values by
    name; each partial derivative is taken once for all of them."""
    partials: Dict[Tuple[str, str], Expr] = {}
    lines = []
    for combination in combinations:
        derivs, products = _line_terms(combination)
        total = ZERO
        for name, coord, c in derivs:
            d = partials.get((name, coord))
            if d is None:
                d = partials[name, coord] = values[name].diff(coord)
            total = total + d * c
        for first, rest in products:
            a = values[first]
            if not a.is_zero_literal():
                total = total + a * sum((values[b] * c for b, c in rest), ZERO)
        lines.append(total)
    return lines


def cubic2_residuals(s: SystemCubic2) -> List[Tuple[str, Expr]]:
    """The fifteen integrability residuals for the cubic pair, in printed
    order: the combinations `_EQ51` of the curvature of `lift_system(s)`.
    The gauge cancels from each of them, so none is read."""
    lines = _curvature_lines(_EQ51, s.entries())
    return [(f"Eq51.{k}", res) for k, res in enumerate(lines, start=1)]


def check_cubic2(
    s: SystemCubic2, config: ZeroTestConfig = DEFAULT_CONFIG
) -> ConditionReport:
    """Decide whether the cubic pair is linearizable; PASS is a proof,
    condition by condition, FAIL names a broken condition."""
    return evaluate_conditions(cubic2_residuals(s), config)


def quadratic2_residuals(q: Quadratic2) -> List[Tuple[str, Expr]]:
    """The four quadratic pair conditions: Eq51.11, .13, .8 and .9 on the
    cubic embedding, whose other lines vanish there."""
    lines = cubic2_residuals(q.as_cubic())
    return [(f"Eq53.{k}", lines[i - 1][1])
            for k, i in enumerate((11, 13, 8, 9), start=1)]


def check_quadratic2(
    q: Quadratic2, config: ZeroTestConfig = DEFAULT_CONFIG
) -> ConditionReport:
    return evaluate_conditions(quadratic2_residuals(q), config)


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
    return evaluate_conditions(linear2_residuals(l), config)


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

def appendix_residuals(
    s: SystemCubic2,
    gauge: SystemGauge = ZERO_SYSTEM_GAUGE,
    config: ZeroTestConfig = DEFAULT_CONFIG,
) -> ConditionReport:
    """Evaluate the full 24-line integrability table on an explicit gauge.

    Each line is its combination `_APPENDIX` of the curvature of
    `lift_system(s, gauge)`: seven are lines of the fifteen, and seventeen
    define partial derivatives of the gauge.  Slots defined by two lines
    also get a pairwise consistency record, the difference of the two
    scores, which is independent of the gauge.  PASS certifies the
    supplied gauge as a flat-lift witness.
    """
    lines = _curvature_lines(_APPENDIX.values(), {**s.entries(), **gauge.entries()})
    scored = dict(zip(_APPENDIX, lines))
    labelled = [(f"Eq{label}", line) for label, line in scored.items()]
    for first, second in _APPENDIX_PAIRS:
        labelled.append((f"Eq{first}-{second}", scored[second] - scored[first]))
    return evaluate_conditions(labelled, config)


def _remark_differences(q: Quadratic2) -> List[Tuple[str, Expr]]:
    # the six B's in field order are the (y, z) plane connection in storage order
    plane = Christoffel(2, tuple(q.entries().values()))
    r9 = [res for _, res in geodesic2_flat_residuals(riemann(plane, ("y", "z")))]
    r53 = [res for _, res in quadratic2_residuals(q)]
    return [
        ("Eq53.1-Eq9.3", r53[0] - r9[2]),
        ("Eq53.2-Eq9.(1,4)", r53[1] + 2 * r9[0] + rational(4, 3) * r9[3]),
        ("Eq53.3-Eq9.(1,4)", r53[2] + r9[0] + rational(1, 3) * r9[3]),
        ("Eq53.4-Eq9.2", r53[3] + r9[1]),
    ]


def remark_mapping(
    q: Quadratic2, config: ZeroTestConfig = DEFAULT_CONFIG
) -> ConditionReport:
    """Identify the quadratic conditions with the plane-flatness ones.

    The six coefficients are a plane connection in coordinates (y, z),
    and each quadratic condition, a line of the fifteen on the cubic
    embedding, is a fixed linear combination of that plane's flatness
    residuals; the report scores the four differences, which must vanish
    identically.
    """
    return evaluate_conditions(_remark_differences(q), config)
