"""Point transformations and the systems they generate.

A point transformation sends source coordinates to new coordinates in
which candidate equations should become the free particle system.  This
module extracts the coefficient families such a map induces, reduces
the general linearizable form to its cubic normal form, verifies
candidate maps by exact substitution of the chain rule, and transports
metrics back along a map.  The induced families are the coefficients of
one cubic in the slopes: sums of the tensor
D(i; a, b, c) = T_1,c T_i,ab - T_1,ab T_i,c of the map's partials, each
over its ordering weight comb(|K|, K.count(3)).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb
from typing import Dict, Tuple, Union

from .criteria import Linear2, Quadratic2
from .geometry import (
    Christoffel,
    CoefficientTable,
    Geodesic2Coefficients,
    Metric,
    SYM_PAIRS,
    coordinates,
    determinant,
    sym_key,
)
from .kernel import (
    DEFAULT_CONFIG,
    Expr,
    ZeroTestConfig,
    as_expr,
    integer,
    sum_of_products,
    var,
)
from .kernel.frozen import Frozen
from .projection import ScalarCubic, SystemCubic2, lift_scalar, lift_system
from .report import ConditionReport, evaluate_conditions


class TransformError(ValueError):
    pass


class DegenerateJacobianError(TransformError):
    """The map's Jacobian determinant is canonically zero."""


class TransversalityError(TransformError):
    """The new independent variable is constant along solution curves."""


class SingularSystemError(TransformError):
    """The system cannot be solved for its second derivatives."""


class Transformation(Frozen):
    """An invertible change of all coordinates; the first component is
    the new independent variable."""

    components: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) not in (2, 3):
            raise TransformError("expected 2 or 3 components")

    @staticmethod
    def make(*components) -> "Transformation":
        return Transformation(tuple(as_expr(c) for c in components))

    @staticmethod
    def identity(dim: int) -> "Transformation":
        return Transformation(tuple(var(n) for n in coordinates(dim)))

    @property
    def dim(self) -> int:
        return len(self.components)

    def jacobian(self) -> Tuple[Tuple[Expr, ...], ...]:
        coords = coordinates(self.dim)
        return tuple(
            tuple(comp.diff(name) for name in coords)
            for comp in self.components
        )

    def jacobian_determinant(self) -> Expr:
        return determinant(self.jacobian())


def _induced_families():
    """(slot, weight, terms) of each family of the induced cubic, keyed by
    its dependent indices K in the order of the 10 slope monomials; slot
    is the field name with {} for the upper index.  The weight
    comb(|K|, K.count(3)) counts the monomial's index orderings; a term
    (w, a, b, c) has a <= b and w the number of orderings (a, b, c) of K
    padded with 1s to three indices, divided by the weight."""
    table = {}
    for degree, name in enumerate(("E", "Om", "Lam", "Del")):
        for indices in combinations_with_replacement((2, 3), degree):
            weight = comb(degree, indices.count(3))
            counts = Counter((*sorted(p[:2]), p[2]) for p in
                             dict.fromkeys(permutations((1,) * (3 - degree) + indices)))
            slot = f"{name}{{}}_{sym_key(*indices)}" if indices else name + "{}"
            # integral weights stay ints, which sum_of_products need not rescale
            table[indices] = (slot, weight, tuple(
                (Fraction(n, weight) if n % weight else n // weight, *abc)
                for abc, n in counts.items()))
    return table


_FAMILIES = _induced_families()


class GeneralSystem2(CoefficientTable):
    """General linearizable pair; 26 independent coefficient slots.

        J2_2 y'' + J2_3 z'' + G2_23 (y'z'' - z'y'') + cubic + lower = 0
        J3_2 y'' + J3_3 z'' + G3_23 (y'z'' - z'y'') + cubic + lower = 0

    The Del slots are the fully symmetrized cubic coefficients, the Lam
    slots the symmetrized quadratic ones; symmetrization never changes
    the equations since the first derivatives enter symmetrically.
    """

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

    def J(self, i: int, j: int) -> Expr:
        return getattr(self, f"J{i}_{j}")

    def G(self, i: int, k: int, j: int) -> Expr:
        if k == j:
            return integer(0)
        field = getattr(self, f"G{i}_23")
        return field if (k, j) == (2, 3) else -field

    def Delta(self, i: int, k: int, l: int, m: int) -> Expr:
        return getattr(self, f"Del{i}_{sym_key(k, l, m)}")

    def Lam(self, i: int, k: int, l: int) -> Expr:
        return getattr(self, f"Lam{i}_{sym_key(k, l)}")

    def Om(self, i: int, k: int) -> Expr:
        return getattr(self, f"Om{i}_{k}")

    def E(self, i: int) -> Expr:
        return getattr(self, f"E{i}")

    def _lower(self, yp: Expr, zp: Expr) -> Dict[int, Expr]:
        """The terms free of second derivatives of equations 2 and 3: one sum
        each over the 10 slope monomials, weighted by index orderings."""
        monomials = {(): None, (2,): yp, (3,): zp}
        for indices in list(_FAMILIES)[3:]:  # degrees 2 and 3
            monomials[indices] = monomials[indices[:-1]] * monomials[indices[-1:]]
        return {i: sum_of_products([
            (weight, getattr(self, slot.format(i)), monomials[indices])
            for indices, (slot, weight, _) in _FAMILIES.items()]) for i in (2, 3)}

    def _leading_matrix(self, yp: Expr, zp: Expr) -> Tuple[Tuple[Expr, Expr], ...]:
        """Rows i = 2, 3; columns multiply y'' and z''."""
        return tuple(
            (self.J(i, 2) - self.G(i, 2, 3) * zp,
             self.J(i, 3) + self.G(i, 2, 3) * yp)
            for i in (2, 3)
        )

    def second_derivative_numerators(self, yp: Expr, zp: Expr) -> Tuple[Expr, Expr, Expr]:
        """(det, Sy, Sz) with y'' = Sy/det and z'' = Sz/det: Cramer's rule
        on the leading matrix, before any division."""
        m = self._leading_matrix(yp, zp)
        det = determinant(m)
        if det.is_zero_literal():
            raise SingularSystemError(
                "leading matrix determinant is canonically zero")
        lower = self._lower(yp, zp)
        sy = -lower[2] * m[1][1] + lower[3] * m[0][1]
        sz = -lower[3] * m[0][0] + lower[2] * m[1][0]
        return det, sy, sz

    def solve_second_derivatives(self, yp: Expr, zp: Expr) -> Tuple[Expr, Expr]:
        """Explicit (y'', z'') as functions of position and slope."""
        det, sy, sz = self.second_derivative_numerators(yp, zp)
        return sy / det, sz / det


# the ordered symmetric pairs of the dependent indices 2, 3
_DEPENDENT_PAIRS = tuple(combinations_with_replacement((2, 3), 2))


def coefficients_from_transformation(
    t: Transformation,
) -> Union[ScalarCubic, GeneralSystem2]:
    """Coefficient families induced by substituting the map into the
    free particle system; the result is linearizable by construction.

    With T_i,a and T_i,ab the partials of component i (index 1 for x),
    the entry with dependent indices K sums the tensor
    D(i; a, b, c) = T_1,c T_i,ab - T_1,ab T_i,c over the orderings of K
    padded with 1s to three indices, divided by the ordering weight
    comb(|K|, K.count(3)).  J{i}_j = M(i; 1, j) and G{i}_23 = M(i; 2, 3)
    for the minor M(i; a, b) = T_1,a T_i,b - T_1,b T_i,a.  A two-component
    map induces J times Lie's cubic, J the Jacobian determinant, so its
    cubic is the families at i = 2 over J.  Only a canonically zero
    Jacobian determinant is rejected."""
    jac = t.jacobian()
    det = determinant(jac)
    if det.is_zero_literal():
        raise DegenerateJacobianError("Jacobian determinant is canonically zero")
    coords = coordinates(t.dim)
    index = range(1, t.dim + 1)
    first = {(i, a): jac[i - 1][a - 1] for i in index for a in index}
    # each mixed second partial once, in index order
    second = {(i, a, b): first[i, a].diff(coords[b - 1])
              for i in index for a, b in SYM_PAIRS[t.dim]}

    def family(i, indices):
        return sum_of_products([
            term for w, a, b, c in _FAMILIES[indices][2]
            for term in ((w, first[1, c], second[i, a, b]),
                         (-w, second[1, a, b], first[i, c]))])

    def minor(i, a, b):
        return sum_of_products([(1, first[1, a], first[i, b]),
                                (-1, first[1, b], first[i, a])])

    if t.dim == 2:
        return ScalarCubic(**{f"E{len(indices)}": family(2, indices) / det
                              for indices in _FAMILIES if 3 not in indices})
    return GeneralSystem2.make(
        **{f"J{i}_{j}": minor(i, 1, j) for i, j in product((2, 3), repeat=2)},
        **{f"G{i}_23": minor(i, 2, 3) for i in (2, 3)},
        **{slot.format(i): family(i, indices)
           for i in (2, 3) for indices, (slot, _, _) in _FAMILIES.items()})


def normal_form(
    g: GeneralSystem2, config: ZeroTestConfig = DEFAULT_CONFIG
) -> Tuple[SystemCubic2, ConditionReport]:
    """Divide out the leading matrix and score the reduction.

    The returned coefficients always reproduce the solved second
    derivatives; the report certifies whether the original coefficient
    families are exactly the ones that shared cubic normal form
    generates, record by record.  A FAIL means the pair is not
    expressible with a single shared cubic coefficient matrix.

    G(i, k, j) is G{i}_23 times the symbol antisymmetric in (k, j), so
    J^-1 applied to the column (G(i, k, .) . x)_i is +-x_j gamma, with
    gamma = J^-1 (G2_23, G3_23).  Each level of unknowns is therefore J^-1
    of an input column, the adjugate times that column over det J, plus a
    scalar of the level below times gamma, built and reduced as one sum.
    """
    jac = {i: {j: g.J(i, j) for j in (2, 3)} for i in (2, 3)}
    det = determinant(((jac[2][2], jac[2][3]), (jac[3][2], jac[3][3])))
    if det.is_zero_literal():
        raise DegenerateJacobianError("leading Jacobian block is singular")
    adjugate = {2: ((1, jac[3][3]), (-1, jac[2][3])),
                3: ((-1, jac[3][2]), (1, jac[2][2]))}
    inverse = 1 / det

    def column(family, *indices):
        return {i: family(i, *indices) for i in (2, 3)}

    def adjugate_times(col, j):
        """Component j of adj(J) col = det J * J^-1 col, for a column col = {i: ...}."""
        (w2, a2), (w3, a3) = adjugate[j]
        return sum_of_products([(w2, a2, col[2]), (w3, a3, col[3])])

    gee = column(g.G, 2, 3)
    gamma = {j: adjugate_times(gee, j) / det for j in (2, 3)}

    def solved(col, j, scalar, w=1, w_scalar=1):
        """w * (J^-1 col)_j + w_scalar * scalar * gamma_j, as one sum."""
        return sum_of_products([(w, adjugate_times(col, j), inverse),
                                (w_scalar, scalar, gamma[j])])

    def level(col, scalar):
        """The column J^-1 col + scalar * gamma."""
        return {j: solved(col, j, scalar) for j in (2, 3)}

    half = Fraction(1, 2)
    # each unknown is a column {2: ..., 3: ...} over its upper index,
    # keyed by its remaining lower indices
    d = {j: adjugate_times(column(g.E), j) / det for j in (2, 3)}
    c = {2: level(column(g.Om, 2), -d[3]),
         3: level(column(g.Om, 3), d[2])}
    b = {(2, 2): level(column(g.Lam, 2, 2), -c[2][3]),
         (2, 3): level(column(g.Lam, 2, 3), half * (c[2][2] - c[3][3])),
         (3, 3): level(column(g.Lam, 3, 3), c[3][2])}
    b[3, 2] = b[2, 3]
    a = {
        (2, 2): solved(column(g.Delta, 2, 2, 2), 2, b[2, 2][3], w_scalar=-1),
        (2, 3): solved(column(g.Delta, 2, 2, 3), 2, 2 * b[2, 3][3] - b[2, 2][2],
                       3 * half, -half),
        (3, 3): solved(column(g.Delta, 3, 3, 3), 3, b[3, 3][2]),
    }
    a[3, 2] = a[2, 3]

    cubic = SystemCubic2.make(
        **{f"A{sym_key(k, l)}": a[k, l] for k, l in _DEPENDENT_PAIRS},
        **{f"B{j}_{sym_key(k, l)}": b[k, l][j]
           for j in (2, 3) for k, l in _DEPENDENT_PAIRS},
        **{f"C{j}_{k}": c[k][j] for j, k in product((2, 3), repeat=2)},
        D2=d[2], D3=d[3],
    )

    # Each record keeps its defining formula as one sum_of_products: the
    # input entry minus J_i . x minus (G(i, m, .) . y), with
    # (G(i, m, .) . y) = G{i}_23 y_3 for m = 2 and -G{i}_23 y_2 for m = 3.
    def minus_j(i, x):
        return [(-1, jac[i][j], x[j]) for j in (2, 3)]

    def minus_g(i, m, y):
        return (-1, gee[i], y[3]) if m == 2 else (1, gee[i], y[2])

    labelled = []
    for i, k, l, m in product((2, 3), (2, 3), (2, 3), (2, 3)):
        res = sum_of_products([(1, g.Delta(i, k, l, m), None),
                               (-1, jac[i][k], a[l, m]), minus_g(i, m, b[k, l])])
        labelled.append((f"Eqr57.Del{i}_{k}{l}{m}", res))
    for i, k, l in product((2, 3), (2, 3), (2, 3)):
        res = sum_of_products([(1, g.Lam(i, k, l), None), *minus_j(i, b[k, l]),
                               minus_g(i, l, c[k])])
        labelled.append((f"Eqr55.Lam{i}_{k}{l}", res))
    for i, k in product((2, 3), (2, 3)):
        res = sum_of_products([(1, g.Om(i, k), None), *minus_j(i, c[k]), minus_g(i, k, d)])
        labelled.append((f"Eqr55.Om{i}_{k}", res))
    for i in (2, 3):
        res = sum_of_products([(1, g.E(i), None), *minus_j(i, d)])
        labelled.append((f"Eqr55.E{i}", res))

    report = evaluate_conditions(labelled, config, facts=(("det J", str(det)),))
    return cubic, report


# names of the slope symbols y', z'; maps and tables may not use them
_SLOPES = ("yp", "zp")


def _along_solutions(f: Expr, coords, slopes) -> Expr:
    """D0(f): the derivative of f with respect to coords[0] through the
    coordinates, with slopes for the first derivatives of the others;
    f's dependence on slope symbols is left out."""
    return sum_of_products([(1, f.diff(coords[0]), None)] + [
        (1, slope, f.diff(name)) for name, slope in zip(coords[1:], slopes)])


def _geodesic_second_derivatives(gamma: Christoffel, slopes) -> Tuple[Expr, ...]:
    """The explicit second derivatives of the connection's projected
    geodesic system in any dimension, y_i'' = sum over j <= k of
    w_jk (y_i' G{1}_jk - G{i}_jk) u_j u_k, with u = (1, slopes) and w_jk
    1 for j = k, 2 otherwise; the shared sum over G{1} is built once."""
    u = (integer(1),) + tuple(slopes)
    monomials = [(j, k, 1 if j == k else 2, u[j - 1] * u[k - 1])
                 for j, k in SYM_PAIRS[gamma.dim]]

    def contraction(i, sign):
        return [(sign * w, gamma.gamma(i, j, k), uu) for j, k, w, uu in monomials]

    shared = sum_of_products(contraction(1, 1))
    return tuple(sum_of_products([(1, slope, shared)] + contraction(i, -1))
                 for i, slope in enumerate(slopes, 2))


def linearization_residuals(system, t: Transformation):
    """Labelled residuals of the straightening test, one per dependent
    variable: the second derivative of each transformed coordinate with
    respect to the new independent variable, with the system's second
    derivatives substituted in.  All identically zero exactly when the
    map sends solutions to straight lines.

    A cubic kind is read as its zero-gauge lift, whose gauge the
    projection does not see, so det = 1 for it and for a connection; a
    general pair is solved by Cramer's rule.  With d1 the first
    derivatives of the components along solutions and D the derivative
    along solutions that also eliminates the second derivatives,
    residual i is D(d1_i/d1_0)/d1_0.  It is built as
    N_i/(det*d1_0^3) with N_i = detD(d1_i)*d1_0 - d1_i*detD(d1_0) and
    detD = det*D, which needs no division.  A ZERO record is the
    canonical zero N_i; the denominator is built only when some N_i is
    nonzero.
    """
    if isinstance(system, (Quadratic2, Linear2)):
        system = system.as_cubic()
    if isinstance(system, ScalarCubic):
        system = lift_scalar(system).as_christoffel()
    elif isinstance(system, SystemCubic2):
        system = lift_system(system)
    elif isinstance(system, Geodesic2Coefficients):
        system = system.as_christoffel()
    if isinstance(system, Christoffel):
        dim, values = system.dim, system.entries
    elif isinstance(system, GeneralSystem2):
        dim, values = 3, tuple(system.entries().values())
    else:
        raise TransformError(f"unsupported system type {type(system).__name__}")
    if t.dim != dim:
        shape = "a scalar equation" if dim == 2 else "a pair of equations"
        raise TransformError(f"{shape} needs a {dim}-component map")
    for e in t.components + values:
        clash = set(_SLOPES) & e.variables()
        if clash:
            raise TransformError(
                f"names {sorted(clash)} are reserved for derivative symbols")

    coords = coordinates(dim)
    slope_names = _SLOPES[:dim - 1]
    slopes = tuple(var(name) for name in slope_names)
    if isinstance(system, Christoffel):
        det, seconds = integer(1), _geodesic_second_derivatives(system, slopes)
    else:
        det, *seconds = system.second_derivative_numerators(*slopes)
    d1 = [_along_solutions(c, coords, slopes) for c in t.components]
    if d1[0].is_zero_literal():
        raise TransversalityError(
            "new independent variable is constant along solutions")

    def det_along(f):
        return sum_of_products([(1, det, _along_solutions(f, coords, slopes))] + [
            (1, second, f.diff(name)) for name, second in zip(slope_names, seconds)])

    det_d0 = det_along(d1[0])
    numerators = [sum_of_products([(1, det_along(d1[i]), d1[0]), (-1, d1[i], det_d0)])
                  for i in range(1, dim)]
    if any(n.num for n in numerators):
        denominator = det * d1[0] ** 3
        numerators = [n / denominator for n in numerators]
    return [(f"Eqr4.{i}", n) for i, n in enumerate(numerators, 2)]


def verify_linearizing_transformation(
    system, t: Transformation, config: ZeroTestConfig = DEFAULT_CONFIG
) -> ConditionReport:
    """Check by substitution that the map straightens every solution.

    Builds the transformed first derivatives with fresh slope symbols,
    differentiates once more along solutions (eliminating second
    derivatives through the system), and zero-tests each residual of
    `linearization_residuals`.  PASS certifies the map sends solutions
    to straight lines.  A map whose Jacobian determinant is canonically
    zero is no point transformation and raises DegenerateJacobianError.
    """
    residuals = linearization_residuals(system, t)
    if t.jacobian_determinant().is_zero_literal():
        raise DegenerateJacobianError("Jacobian determinant is canonically zero")
    return evaluate_conditions(residuals, config)


def pullback_metric(t: Transformation, target: Metric) -> Metric:
    """Transport a metric on the image coordinates back along the map."""
    if target.dim != t.dim:
        raise TransformError("map and metric dimensions differ")
    compose = dict(zip(coordinates(t.dim), t.components))
    jac = t.jacobian()
    n = t.dim
    pulled = Metric(n, tuple(e.substitute(compose) for e in target.entries))
    entries = {}
    for a, b in SYM_PAIRS[n]:
        total = integer(0)
        for i, j in product(range(1, n + 1), repeat=2):
            total = total + jac[i - 1][a - 1] * jac[j - 1][b - 1] * pulled.g(i, j)
        entries[(a, b)] = total
    return Metric.from_components(n, entries)
