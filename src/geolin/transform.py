"""Point transformations and the systems they generate.

A point transformation sends source coordinates to new coordinates in
which candidate equations should become the free particle system.  This
module extracts the coefficient families such a map induces, reduces
the general linearizable form to its cubic normal form, verifies
candidate maps against the flat connection pulled back through them,
and transports metrics back along a map.  The induced families are the
coefficients of one cubic in the slopes: sums of the tensor
D(i; a, b, c) = T_1,c T_i,ab - T_1,ab T_i,c of the map's partials, each
over its ordering weight comb(|K|, K.count(3)).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb
from typing import Tuple, Union

from .criteria import Linear2, Quadratic2
from .geometry import (
    Christoffel,
    CoefficientTable,
    Geodesic2Coefficients,
    Metric,
    SYM_PAIRS,
    adjugate,
    coordinates,
    determinant,
    sym_key,
)
from .kernel import (
    DEFAULT_CONFIG,
    ZERO,
    Expr,
    ZeroTestConfig,
    as_expr,
    integer,
    sum_of_products,
    var,
)
from .kernel.frozen import Frozen
from .projection import ScalarCubic, SystemCubic2, project, project_weights, slope_slot
from .report import ConditionReport, evaluate_conditions


class TransformError(ValueError):
    pass


class DegenerateJacobianError(TransformError):
    """The map's Jacobian determinant is canonically zero."""


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


# the ordered symmetric pairs of the dependent indices 2, 3
_DEPENDENT_PAIRS = tuple(combinations_with_replacement((2, 3), 2))


def _induced_terms():
    """{slot name: (i, K, weight, terms)}: `induced_pair` sums w * factor *
    cubic.key over terms (w, factor, key), factor (i, j) for J{i}_j and i
    for G{i}_23.  cubic[j, K] = slope_slot(3, j, K) = (w, key); K is
    sorted, so K[1:] drops a 2 and K[:-1] a 3."""
    cubic = {(j, K): slot for j in (2, 3) for K in _FAMILIES if (slot := slope_slot(3, j, K))}
    table = {}
    for indices, (slot, weight, _) in _FAMILIES.items():
        for i in (2, 3):
            # (sign, factor, (equation, K) of the cubic's coefficient)
            parts = [(1, (i, j), (j, indices)) for j in (2, 3)]
            if indices[:1] == (2,):
                parts.append((1, i, (3, indices[1:])))
            if indices[-1:] == (3,):
                parts.append((-1, i, (2, indices[:-1])))
            table[slot.format(i)] = (i, indices, weight, tuple(
                (sign * cubic[at][0], factor, cubic[at][1])
                for sign, factor, at in parts if at in cubic))
    return table


_INDUCED = _induced_terms()


@lru_cache(maxsize=1)
def _partials(t: Transformation):
    """(jac, second, adj, det): the Jacobian rows, the second partials T_i,ab
    keyed (i, a, b) with a <= b, the adjugate and det T, rejected when
    canonically zero.  Kept for the last map, as the coefficients and the
    pullback of one map both read them; callers never mutate them."""
    jac = t.jacobian()
    adj = adjugate(jac)
    # expanded along the first row, whose cofactors adj already holds
    det = sum_of_products([(1, jac[0][c], adj[c][0]) for c in range(t.dim)])
    if det.is_zero_literal():
        raise DegenerateJacobianError("Jacobian determinant is canonically zero")
    coords = coordinates(t.dim)
    return jac, {(i, a, b): jac[i - 1][a - 1].diff(coords[b - 1])
                 for i in range(1, t.dim + 1) for a, b in SYM_PAIRS[t.dim]}, adj, det


def flat_pullback(t: Transformation) -> Tuple[Expr, Union[ScalarCubic, SystemCubic2]]:
    """(det T, P): the projected geodesic equations of the flat connection
    pulled back through the map, G{k}_ij = sum over a of (T^-1)_ka T_a,ij,
    as numerators P over det T.  The same sum over the adjugate needs no
    fraction, and project is linear, so each slot of P is one sum of
    adj_ka T_a,ij over project's weights."""
    _, second, adj, det = _partials(t)
    live = {key: value for key, value in second.items() if value.num}
    cubic = ScalarCubic if t.dim == 2 else SystemCubic2
    return det, cubic(*[sum_of_products([
        (c, adj[k - 1][a - 1], live[a, i, j])
        for (k, i, j), c in terms for a in range(1, t.dim + 1) if (a, i, j) in live])
        for terms in project_weights(t.dim).values()])


def induced_pair(J, G, cubic: SystemCubic2):
    """The 20 family slots, each times its ordering weight, that J(i, j),
    G(i, k, j) and a cubic pair induce, as sum_of_products terms without
    zero products: the slope coefficients of J{i}_2 Q2 + J{i}_3 Q3 +
    G{i}_23 (y'Q3 - z'Q2), with -Q2 and -Q3 the cubic's y'' and z''."""
    factors = {(i, j): J(i, j) for i in (2, 3) for j in (2, 3)}
    factors.update({i: G(i, 2, 3) for i in (2, 3)})
    factors = {key: value for key, value in factors.items() if value.num}
    entries = {key: value for key, value in cubic.entries().items() if value.num}
    return {name: [(w, factors[factor], entries[key]) for w, factor, key in terms
                   if factor in factors and key in entries]
            for name, (_, _, _, terms) in _INDUCED.items()}


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
    jac, second, adj, det = _partials(t)
    index = range(1, t.dim + 1)
    first = {(i, a): jac[i - 1][a - 1] for i in index for a in index}

    def family(i, indices):
        return sum_of_products([
            term for w, a, b, c in _FAMILIES[indices][2]
            for term in ((w, first[1, c], second[i, a, b]),
                         (-w, second[1, a, b], first[i, c])) if term[1].num and term[2].num])

    def minor(i, a, b):
        # rows 1, i and columns a < b: the cofactor of the other row r and column c
        r, c = 5 - i, 6 - a - b
        return adj[c - 1][r - 1] if (r + c) % 2 == 0 else -adj[c - 1][r - 1]

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


def linearization_residuals(system, t: Transformation):
    """Eqr4.i, one per dependent variable: the map straightens the system
    exactly when its second derivatives are those of flat_pullback(t) =
    (det T, P).  Each slope coefficient of equation i is one sum_of_products,
    det T times the system's minus P's (through `induced_pair` for a pair);
    Eqr4.i is the canonical zero when all are, else their sum times the
    slope monomials over det T.  A singular pair raises SingularSystemError."""
    if isinstance(system, (Quadratic2, Linear2)):
        system = system.as_cubic()
    elif isinstance(system, Geodesic2Coefficients):
        system = project(system.as_christoffel())
    elif isinstance(system, Christoffel):
        system = project(system)
    if not isinstance(system, (ScalarCubic, SystemCubic2, GeneralSystem2)):
        raise TransformError(f"unsupported system type {type(system).__name__}")
    dim = 2 if isinstance(system, ScalarCubic) else 3
    if t.dim != dim:
        shape = "a scalar equation" if dim == 2 else "a pair of equations"
        raise TransformError(f"{shape} needs a {dim}-component map")
    for e in t.components + tuple(system.entries().values()):
        clash = set(_SLOPES) & e.variables()
        if clash:
            raise TransformError(f"names {sorted(clash)} are reserved for derivative symbols")

    det, pulled = flat_pullback(t)
    if isinstance(system, GeneralSystem2):
        # the leading matrix has det J + y' M_13 + z' M_23, M the minors of [J | G]
        rows = [(system.J(i, 2), system.J(i, 3), system.G(i, 2, 3)) for i in (2, 3)]
        if all(determinant([(row[a], row[b]) for row in rows]).is_zero_literal()
               for a, b in combinations(range(3), 2)):
            raise SingularSystemError("leading matrix determinant is canonically zero")
        induced = induced_pair(system.J, system.G, pulled)
        differences = {(i, indices): [(weight, det, getattr(system, name)),
                                      *((-w, a, b) for w, a, b in induced[name])]
                       for name, (i, indices, weight, _) in _INDUCED.items()}
    else:
        # a cubic: det T times each slot against P's, weighted as its term
        differences = {(i, K): [(w, det, getattr(system, name)), (-w, getattr(pulled, name), None)]
                       for i, K in product(range(2, dim + 1), _FAMILIES)
                       if (slot := slope_slot(dim, i, K)) for w, name in [slot]}

    residuals = []
    yp, zp = (var(name) for name in _SLOPES)
    for i in range(2, dim + 1):
        sums = {indices: sum_of_products(terms)
                for (j, indices), terms in differences.items() if j == i}
        terms = [(1, d, yp ** indices.count(2) * zp ** indices.count(3))
                 for indices, d in sums.items() if d.num]
        residuals.append((f"Eqr4.{i}", sum_of_products(terms) / det if terms else ZERO))
    return residuals


def verify_linearizing_transformation(
    system, t: Transformation, config: ZeroTestConfig = DEFAULT_CONFIG
) -> ConditionReport:
    """Zero-test each residual of `linearization_residuals`: PASS certifies
    that the map sends solutions to straight lines."""
    return evaluate_conditions(linearization_residuals(system, t), config)


def pullback_metric(t: Transformation, target: Metric) -> Metric:
    """Transport a metric on the image coordinates back along the map."""
    if target.dim != t.dim:
        raise TransformError("map and metric dimensions differ")
    compose = dict(zip(coordinates(t.dim), t.components))
    jac, n = t.jacobian(), t.dim
    pulled = Metric(n, tuple(e.substitute(compose) for e in target.entries))
    return Metric.from_components(n, {(a, b): sum(
        (jac[i - 1][a - 1] * jac[j - 1][b - 1] * pulled.g(i, j)
         for i, j in product(range(1, n + 1), repeat=2)), integer(0)) for a, b in SYM_PAIRS[n]})
