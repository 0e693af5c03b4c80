"""Between geodesic connections and explicit second-order ODE systems.

Solving the geodesic equations of an n-dimensional symmetric connection
G for derivatives by the first coordinate x (index 1) leaves n-1
equations cubic in the slopes y_i', with u = (1, y_2', ..., y_n') and
w_jk the number of orderings of (j, k):

    -y_i'' = sum over j <= k of w_jk (G{i}_jk - y_i' G{1}_jk) u_j u_k.

`project` reads each slot of the coefficient table off this formula, at
the slope monomial `slope_slot` names.  A lift starts from the section
with every G{1}_1k zero, in which each slot fills the one other entry
it reads, and applies the projective change G{i}_jk += delta^i_j psi_k
+ delta^i_k psi_j, which projection cannot see: the gauge (two free
functions in 2D, three in 3D) fixes psi.  Projection then forgets the
gauge again, which is the round-trip identity tested here.

The coefficient tables of every equation kind live here too, so that
reading a document needs neither the checks nor the transformations;
each takes its fields from slope_slot, family_slot or _GAUGE.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations, product
from math import lcm
from typing import Dict, Tuple, Union

from .geometry import SYM_PAIRS, Christoffel, CoefficientTable, Geodesic2Coefficients, sym_key
from .kernel import Expr, integer


@cache
def slope_slot(dim: int, i: int, K: Tuple[int, ...]):
    """(w, name): the ScalarCubic or SystemCubic2 slot that, times w,
    is the coefficient of the slope monomial K (its sorted dependent
    indices) in equation i, or None where equation i has no such term.
    The cubic terms of a pair share the slot A_{K-i}, weighted by the
    orderings of K less one i; every other slot by the orderings of K."""
    n = len(K)
    if max(K, default=i) > dim or dim == n == 3 and i not in K:
        return None
    rest = K[:K.index(i)] + K[K.index(i) + 1:] if dim == n == 3 else K
    name = f"E{n}" if dim == 2 else ("D{}", "C{}_", "B{}_", "A")[n].format(i) + sym_key(*rest)
    return len(set(permutations(rest))), name


def family_slot(K: Tuple[int, ...]) -> str:
    """The GeneralSystem2 family of the slope monomial K, with {} for the
    upper index: E{}, Om{}_k, Lam{}_kl or Del{}_klm by the degree of K."""
    name = ("E", "Om", "Lam", "Del")[len(K)]
    return f"{name}{{}}_{sym_key(*K)}" if K else name + "{}"


def _slots(dim: int, *degrees: int) -> Dict[str, str]:
    """The annotations of a cubic table's fields: the slope_slot name of
    each slope monomial of each degree in turn, by equation, then by
    monomial, each name once."""
    return dict.fromkeys([slot[1] for n in degrees for i in range(2, dim + 1)
                          for K in combinations_with_replacement(range(2, dim + 1), n)
                          if (slot := slope_slot(dim, i, K))], "Expr")


class ScalarCubic(CoefficientTable):
    """Coefficients of y'' + E3 y'^3 + E2 y'^2 + E1 y' + E0 = 0."""

    __annotations__ = _slots(2, 0, 1, 2, 3)


class SystemCubic2(CoefficientTable):
    """Cubically semi-linear pair in normal form; 15 coefficient slots.

        y'' + (A22 y'^2 + 2 A23 y'z' + A33 z'^2) y'
            + B2_22 y'^2 + 2 B2_23 y'z' + B2_33 z'^2
            + C2_2 y' + C2_3 z' + D2 = 0
        z'' + (A22 y'^2 + 2 A23 y'z' + A33 z'^2) z'
            + B3_22 y'^2 + 2 B3_23 y'z' + B3_33 z'^2
            + C3_2 y' + C3_3 z' + D3 = 0
    """

    __annotations__ = _slots(3, 3, 2, 1, 0)


class CoefficientDomainError(ValueError):
    """A coefficient depends on a coordinate its equation kind forbids."""


class Quadratic2(CoefficientTable):
    """Quadratically semi-linear pair; coefficients functions of (y, z).

        y'' + B2_22 y'^2 + 2 B2_23 y'z' + B2_33 z'^2 = 0
        z'' + B3_22 y'^2 + 2 B3_23 y'z' + B3_33 z'^2 = 0
    """

    __annotations__ = _slots(3, 2)

    def __post_init__(self):
        for name, value in self.entries().items():
            if not value.diff("x").is_zero_literal():
                raise CoefficientDomainError(
                    f"quadratic coefficient {name} depends on x"
                )

    def as_cubic(self) -> SystemCubic2:
        return SystemCubic2.make(**self.entries())


class Linear2(CoefficientTable):
    """Pair linear in first derivatives; the C's are functions of x only.

        y'' + C2_2 y' + C2_3 z' + D2 = 0
        z'' + C3_2 y' + C3_3 z' + D3 = 0
    """

    __annotations__ = _slots(3, 1, 0)

    def __post_init__(self):
        for name in _slots(3, 1):
            value = getattr(self, name)
            for coord in ("y", "z"):
                if not value.diff(coord).is_zero_literal():
                    raise CoefficientDomainError(
                        f"linear coefficient {name} depends on {coord}"
                    )

    def as_cubic(self) -> SystemCubic2:
        return SystemCubic2.make(**self.entries())


class GeneralSystem2(CoefficientTable):
    """General linearizable pair; 26 independent coefficient slots.

        J2_2 y'' + J2_3 z'' + G2_23 (y'z'' - z'y'') + cubic + lower = 0
        J3_2 y'' + J3_3 z'' + G3_23 (y'z'' - z'y'') + cubic + lower = 0

    The slots are J{i}_{j}, G{i}_23, then the families Del{i}_{klm},
    Lam{i}_{kl}, Om{i}_{k} and E{i} of the slope monomials of degree 3
    down to 0, for i, j, k <= l <= m in (2, 3).  The Del slots are the
    fully symmetrized cubic coefficients, the Lam slots the symmetrized
    quadratic ones; symmetrization never changes the equations since the
    first derivatives enter symmetrically.
    """

    __annotations__ = dict.fromkeys(
        [*(f"J{i}_{j}" for i, j in product((2, 3), repeat=2)), "G2_23", "G3_23",
         *(family_slot(K).format(i) for n in (3, 2, 1, 0) for i in (2, 3)
           for K in combinations_with_replacement((2, 3), n))], "Expr")

    def J(self, i: int, j: int) -> Expr:
        return getattr(self, f"J{i}_{j}")

    def G(self, i: int, k: int, j: int) -> Expr:
        if k == j:
            return integer(0)
        field = getattr(self, f"G{i}_23")
        return field if (k, j) == (2, 3) else -field


# the entry each gauge field sets, and the sign of the named tables
# against the connection: a..f, and so b and e, are its negation
_GAUGE = {2: ({"b": (1, 1, 2), "e": (2, 1, 2)}, -1),
          3: ({"G1_12": (1, 1, 2), "G2_12": (2, 1, 2), "G3_33": (3, 3, 3)}, 1)}


class ScalarGauge(CoefficientTable):
    """Free connection entries b, e left open by a 2D lift."""

    __annotations__ = dict.fromkeys(_GAUGE[2][0], "Expr")


class SystemGauge(CoefficientTable):
    """Free connection entries G1_12, G2_12, G3_33 left open by a 3D lift."""

    __annotations__ = dict.fromkeys(_GAUGE[3][0], "Expr")


ZERO_SCALAR_GAUGE = ScalarGauge.make()
ZERO_SYSTEM_GAUGE = SystemGauge.make()

_CUBICS = {2: ScalarCubic, 3: SystemCubic2}
# connection entries (i, j, k), j <= k, in storage order
_ENTRIES = {dim: tuple((i, *pair) for i in range(1, dim + 1) for pair in pairs)
            for dim, pairs in SYM_PAIRS.items()}


@cache
def project_weights(dim: int) -> Dict[str, Tuple]:
    """{slot: ((entry, c), ...)}: each slot of the projected equations, in
    field order, as an int combination of connection entries read off the
    formula, positive terms first; shared, so callers never mutate it.
    Each entry reaches a slot once in an equation, both equations give a
    shared cubic slot the same terms, and a slot's weight divides every c."""
    weights = defaultdict(dict)
    for i, (j, k) in product(range(2, dim + 1), SYM_PAIRS[dim]):
        w, K = len({(j, k), (k, j)}), tuple(m for m in (j, k) if m > 1)
        for entry, c, at in (((i, j, k), w, K), ((1, j, k), -w, tuple(sorted(K + (i,))))):
            v, name = slope_slot(dim, i, at)
            weights[name][entry] = c // v
    return {name: tuple(sorted(weights[name].items(), key=lambda term: term[1] < 0))
            for name in _CUBICS[dim].keys()}


def _combine(terms: Tuple, values: Dict, d: int = 1) -> Expr:
    """The sum of c * values[key] over terms (key, c), over d, as one chain
    of + and -: a weight of 1 or -1 multiplies nothing, and terms with a
    positive one first negate nothing."""
    total = None
    for key, c in terms:
        v = values[key] if c == 1 or c == -1 else abs(c) * values[key]
        total = (v if c > 0 else -v) if total is None else total + v if c > 0 else total - v
    return total if d == 1 else total / d


def project(gamma: Christoffel) -> Union[ScalarCubic, SystemCubic2]:
    """Coefficient table of the parameter-free geodesic equations."""
    values = dict(zip(_ENTRIES[gamma.dim], gamma.entries))
    return _CUBICS[gamma.dim](*[_combine(terms, values)
                                for terms in project_weights(gamma.dim).values()])


@cache
def lift_forms(dim: int) -> Dict[Tuple[int, int, int], Tuple]:
    """{entry: (d, terms)}: each entry of the lifted table (the connection
    in 3D, a..f in 2D, in storage order) as the int combination `terms` of
    the slots and gauge fields, over d.  In the section each slot fills
    the entry of its projection that is not a G{1}_1k, divided by its
    weight there; psi_m then takes the m-th gauge entry, which no other
    psi reaches, to its value.  The gauge terms come first, and with them
    a positive term.  Shared, so callers never mutate it."""
    def change(i, j, k):  # {m: n}: the projective change adds n psi_m to G{i}_jk
        return Counter([k] * (i == j) + [j] * (i == k))
    section = {entry: {name: Fraction(1, c)} for name, terms in project_weights(dim).items()
               for entry, c in terms if entry[:2] != (1, 1)}
    fields, sign = _GAUGE[dim]
    psi = {m: {name: Fraction(sign, n), **{key: -c / n for key, c in section.get(at, {}).items()}}
           for name, at in fields.items() for m, n in change(*at).items()}
    forms = {}
    for entry in _ENTRIES[dim]:
        form = Counter()
        for m, n in change(*entry).items():
            form.update({key: n * c for key, c in psi[m].items()})
        form.update(section.get(entry, {}))
        d = lcm(*(c.denominator for c in form.values()))
        forms[entry] = d, tuple((key, int(c * sign * d)) for key, c in form.items() if c)
    return forms


def _lift(dim: int, table: CoefficientTable, gauge: CoefficientTable) -> Tuple[Expr, ...]:
    values = {**table.entries(), **gauge.entries()}
    return tuple([_combine(terms, values, d) for d, terms in lift_forms(dim).values()])


def lift_scalar(
    cubic: ScalarCubic, gauge: ScalarGauge = ZERO_SCALAR_GAUGE
) -> Geodesic2Coefficients:
    """2D geodesic coefficients whose projection is the given equation."""
    return Geodesic2Coefficients(*_lift(2, cubic, gauge))


def lift_system(
    system: SystemCubic2, gauge: SystemGauge = ZERO_SYSTEM_GAUGE
) -> Christoffel:
    """3D connection whose projection is the given pair of equations."""
    return Christoffel(3, _lift(3, system, gauge))
