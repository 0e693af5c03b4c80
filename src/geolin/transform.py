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
from functools import cache, lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb
from typing import Tuple, Union

from .geometry import (
    Christoffel,
    Geodesic2Coefficients,
    Metric,
    SYM_PAIRS,
    adjugate,
    coordinates,
    determinant,
)
from .kernel import (
    DEFAULT_CONFIG,
    ZERO,
    Expr,
    ZeroTestConfig,
    as_expr,
    exact_coefficient,
    integer,
    sum_of_products,
    var,
)
from .kernel.frozen import Frozen
from .projection import (
    GeneralSystem2, Linear2, Quadratic2, ScalarCubic, SystemCubic2, _combine, family_slot,
    project, project_weights, slope_slot)
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
    for degree in range(4):
        for indices in combinations_with_replacement((2, 3), degree):
            weight = comb(degree, indices.count(3))
            counts = Counter((*sorted(p[:2]), p[2]) for p in
                             dict.fromkeys(permutations((1,) * (3 - degree) + indices)))
            table[indices] = (family_slot(indices), weight, tuple(
                (exact_coefficient(Fraction(n, weight)), *abc) for abc, n in counts.items()))
    return table


_FAMILIES = _induced_families()


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
        return ScalarCubic(**{slot[1]: family(2, indices) / det
                              for indices in _FAMILIES if (slot := slope_slot(2, 2, indices))})
    return GeneralSystem2.make(
        **{f"J{i}_{j}": minor(i, 1, j) for i, j in product((2, 3), repeat=2)},
        **{f"G{i}_23": minor(i, 2, 3) for i in (2, 3)},
        **{slot.format(i): family(i, indices)
           for i in (2, 3) for indices, (slot, _, _) in _FAMILIES.items()})


@cache
def _normal_form_plan():
    """(steps, records) of `normal_form`, read off _FAMILIES, _INDUCED and
    slope_slot on first use; shared, so callers never mutate them.

    A step (family, scalar, slots) solves the slots of one K, lowest
    degree first: scalar is the (slot, c) of the G terms of K's induced
    entry, and a slot (j, name, w, w_gamma) is w (J^-1 F_K)_j + w_gamma
    scalar gamma_j.  A shared A_kl is read from equation k at K = (k, k, l).
    A record (label, field, terms) of ordered indices kappa holds the
    terms (c, factor, slot), factor (i, j) for J{i}_j and i for G{i}_23."""
    steps = []
    for K, (family, weight, _) in _FAMILIES.items():
        scalar = sorted(((key, w) for w, factor, key in _INDUCED[family.format(2)][3]
                         if factor == 2), key=lambda term: term[1] < 0)
        steps.append((family, tuple(scalar), tuple(
            (j, name, exact_coefficient(Fraction(weight, w)), exact_coefficient(Fraction(-1, w)))
            for j in (2, 3) if len(K) < 3 or K[:2] == (j, j)
            for w, name in [slope_slot(3, j, K)])))
    records = []
    for degree in (3, 2, 1, 0):
        for i, kappa in product((2, 3), product((2, 3), repeat=degree)):
            K = tuple(sorted(kappa))
            field = _FAMILIES[K][0].format(i)
            # x_j(kappa) = slope_slot(3, j, K), at degree 3 only for j = kappa_1
            terms = [(-1, (i, j), slope_slot(3, j, K)[1])
                     for j in (kappa[:1] if degree == 3 else (2, 3))]
            if kappa:
                # G(i, m, 5 - m) is G{i}_23 for m = 2 and -G{i}_23 for m = 3
                m, lower = kappa[-1], tuple(sorted(kappa[:-1]))
                terms.append((-1 if m == 2 else 1, i, slope_slot(3, 5 - m, lower)[1]))
            # the field with its sorted lower indices in kappa's order
            label = field[:len(field) - degree] + "".join(map(str, kappa))
            records.append((("Eqr57." if degree == 3 else "Eqr55.") + label, field, tuple(terms)))
    return tuple(steps), tuple(records)


def normal_form(
    g: GeneralSystem2, config: ZeroTestConfig = DEFAULT_CONFIG
) -> Tuple[SystemCubic2, ConditionReport]:
    """Divide out the leading matrix and score the reduction.

    The returned coefficients always reproduce the solved second
    derivatives; the report certifies whether the original coefficient
    families are exactly the ones that shared cubic normal form
    generates, record by record.  A FAIL means the pair is not
    expressible with a single shared cubic coefficient matrix.

    Each family entry times its weight is its entry of `induced_pair`: J
    applied to the cubic's column at K plus G{i}_23 times one scalar of
    lower slots.  With gamma = J^-1 (G2_23, G3_23), each slot is therefore
    the adjugate times the family's column over det J plus that scalar
    times gamma, built and reduced as one sum.  Each record is
    F{i}(kappa) - sum_j J{i}_j x_j(kappa) - G(i, kappa_last, .) .
    x(kappa less its last index), with x_j(kappa) the cubic's slot at j
    and the sorted kappa.
    """
    jac = {(i, j): g.J(i, j) for i in (2, 3) for j in (2, 3)}
    det = determinant(((jac[2, 2], jac[2, 3]), (jac[3, 2], jac[3, 3])))
    if det.is_zero_literal():
        raise DegenerateJacobianError("leading Jacobian block is singular")
    adj = adjugate(((jac[2, 2], jac[2, 3]), (jac[3, 2], jac[3, 3])))
    inverse = 1 / det

    def adjugate_times(col, j):
        """Component j of adj(J) col = det J * J^-1 col, for a column col = {i: ...}."""
        return sum_of_products([(1, adj[j - 2][0], col[2]), (1, adj[j - 2][1], col[3])])

    gee = {i: g.G(i, 2, 3) for i in (2, 3)}
    gamma = {j: adjugate_times(gee, j) / det for j in (2, 3)}
    steps, records = _normal_form_plan()
    x = {}
    for family, scalar, slots in steps:
        col = {i: getattr(g, family.format(i)) for i in (2, 3)}
        s = _combine(scalar, x) if scalar else None
        for j, name, w, w_gamma in slots:
            terms = [(w, adjugate_times(col, j), inverse)]
            if scalar:
                terms.append((w_gamma, s, gamma[j]))
            x[name] = sum_of_products(terms)
    cubic = SystemCubic2(**x)

    factors = {**jac, **gee}
    labelled = [(label, sum_of_products([(1, getattr(g, field), None),
                                         *((c, factors[f], x[slot]) for c, f, slot in terms)]))
                for label, field, terms in records]
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
