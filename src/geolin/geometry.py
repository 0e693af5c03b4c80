"""Symmetric connections, curvature, and flat-metric machinery in 2D/3D.

Coordinates are fixed: (x, y) in two dimensions, (x, y, z) in three.
Connection components are stored with the symmetric lower index pair
ordered, so a 2D connection has exactly 6 independent entries and a 3D
one has 18.  Second-order geodesic data in 2D also travels as the six
named coefficient functions a..f of

    x'' = a x'^2 + 2b x'y' + c y'^2,    y'' = d x'^2 + 2e x'y' + f y'^2,

related to the connection by a plain sign flip per component.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .kernel import (
    DEFAULT_CONFIG,
    Expr,
    Verdict,
    ZERO,
    ZeroTestConfig,
    as_expr,
    integer,
    is_zero,
    rational,
    sum_of_products,
)
from .kernel.frozen import Frozen
from .report import ConditionReport, evaluate_conditions

# ordered symmetric index pairs (1-based), the storage layout everywhere
SYM_PAIRS = {n: tuple(itertools.combinations_with_replacement(range(1, n + 1), 2))
             for n in (2, 3)}
# ordered skew index pairs k < l, the stored last pair of a curvature entry
SKEW_PAIRS = {dim: tuple((k, l) for k, l in pairs if k < l)
              for dim, pairs in SYM_PAIRS.items()}
# position of a pair in SYM_PAIRS, under either index order
_SYM_SLOT = {dim: {pair: n for n, (j, k) in enumerate(pairs) for pair in ((j, k), (k, j))}
             for dim, pairs in SYM_PAIRS.items()}
# position of a pair in SKEW_PAIRS and the sign of that index order
_SKEW_SLOT = {dim: {pair: (n, sign) for n, (k, l) in enumerate(pairs)
                    for pair, sign in (((k, l), 1), ((l, k), -1))}
              for dim, pairs in SKEW_PAIRS.items()}

_HALF = rational(1, 2)


class GeometryError(Exception):
    pass


class DegenerateMetricError(GeometryError):
    """The metric determinant is canonically zero."""


class UndecidedMetricError(GeometryError):
    """The determinant could not be certified nonzero."""


class CoefficientTable(Frozen):
    """Base of the value classes that hold one named coefficient table;
    the field order is the table's key order."""

    @classmethod
    def keys(cls) -> Tuple[str, ...]:
        return cls._field_names

    @classmethod
    def make(cls, *args, **kwargs):
        """Values by position in key order or by keyword, each coerced
        to an expression; omitted values are zero, and an unknown,
        surplus or repeated value raises TypeError."""
        keys = cls.keys()
        given = dict(zip(keys, args))
        unknown = sorted(set(kwargs) - set(keys)) + [str(v) for v in args[len(keys):]]
        if unknown:
            raise TypeError(f"unknown coefficients {unknown}")
        twice = sorted(given.keys() & kwargs.keys())
        if twice:
            raise TypeError(f"coefficients given twice {twice}")
        given.update(kwargs)
        return cls(**{key: as_expr(given.get(key, 0)) for key in keys})

    def entries(self) -> Dict[str, Expr]:
        """The table as a plain {key: value} dict, values not copied."""
        return {key: getattr(self, key) for key in self.keys()}


def sym_key(*indices: int) -> str:
    """Key suffix of an index tuple symmetric in all its indices: the
    indices in ascending order, so sym_key(3, 2) is "23"."""
    return "".join(str(v) for v in sorted(indices))


def _sym_pairs(dim: int) -> Tuple[Tuple[int, int], ...]:
    pairs = SYM_PAIRS.get(dim)
    if pairs is None:
        raise GeometryError(f"unsupported dimension {dim}")
    return pairs


def _symmetric_entries(
    dim: int, mapping: Mapping[Tuple[int, ...], Expr], what: str,
    heads: Tuple[Tuple[int, ...], ...],
) -> Tuple[Expr, ...]:
    """Storage tuple of a table symmetric in its last index pair: for each
    leading index tuple in `heads`, one entry per pair of SYM_PAIRS[dim].
    Either order of a pair names the same entry, and omitted entries are
    zero; a bad index or two different values for one entry raise."""
    pairs = _sym_pairs(dim)
    table: Dict[Tuple[int, ...], Expr] = {}
    for index, value in mapping.items():
        head, slot = tuple(index[:-2]), _SYM_SLOT[dim].get(tuple(index[-2:]))
        if head not in heads or slot is None:
            raise GeometryError(f"bad {what} index {index} for dimension {dim}")
        key = head + pairs[slot]
        value = as_expr(value)
        if key in table and table[key] != value:
            raise GeometryError(f"conflicting values for {what} entry {key}")
        table[key] = value
    return tuple(table.get(head + pair, ZERO) for head in heads for pair in pairs)


def coordinates(dim: int) -> Tuple[str, ...]:
    """Coordinate names: (x, y) in two dimensions, (x, y, z) in three."""
    if dim not in (2, 3):
        raise GeometryError(f"unsupported dimension {dim}")
    return ("x", "y", "z")[:dim]


def determinant(m: Sequence[Sequence[Expr]]) -> Expr:
    """Determinant of a square matrix given by rows, by cofactor expansion
    along the first row."""
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return sum_of_products([(1, m[0][0], m[1][1]), (-1, m[0][1], m[1][0])])
    return sum_of_products([
        ((-1) ** c, m[0][c], determinant([row[:c] + row[c + 1:] for row in m[1:]]))
        for c in range(len(m))
    ])


def adjugate(m: Sequence[Sequence[Expr]]) -> Tuple[Tuple[Expr, ...], ...]:
    """The transposed cofactors of a square matrix given by rows: det(m)
    times its inverse."""
    index = range(len(m))

    def cofactor(r, c):
        minor = determinant([row[:c] + row[c + 1:] for j, row in enumerate(m) if j != r])
        return minor if (r + c) % 2 == 0 else -minor
    return tuple(tuple(cofactor(c, r) for c in index) for r in index)


class Metric(Frozen):
    """Symmetric metric tensor with exact entries.

    Entries follow SYM_PAIRS[dim]; g(i, j) resolves either index order.
    Metric.plane(p, q, r) builds the 2D metric with g11, g12, g22 = p, q, r.
    """

    dim: int
    entries: Tuple[Expr, ...]

    def __post_init__(self):
        pairs = _sym_pairs(self.dim)
        if len(self.entries) != len(pairs):
            raise GeometryError(
                f"{self.dim}D metric needs {len(pairs)} entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_components(dim: int, mapping: Mapping[Tuple[int, int], Expr]) -> "Metric":
        return Metric(dim, _symmetric_entries(dim, mapping, "metric", ((),)))

    @staticmethod
    def plane(p, q, r) -> "Metric":
        return Metric(2, (as_expr(p), as_expr(q), as_expr(r)))

    @staticmethod
    def identity(dim: int) -> "Metric":
        one = integer(1)
        return Metric.from_components(dim, {(i, i): one for i in range(1, dim + 1)})

    def g(self, i: int, j: int) -> Expr:
        return self.entries[_SYM_SLOT[self.dim][i, j]]

    def determinant(self) -> Expr:
        index = range(1, self.dim + 1)
        return determinant([[self.g(i, j) for j in index] for i in index])


class Christoffel(Frozen):
    """Connection components G{i}_{jk}, symmetric in the lower pair.

    Storage is one entry per upper index and ordered lower pair: 6
    components in 2D, 18 in 3D, asserted at construction.
    """

    dim: int
    entries: Tuple[Expr, ...]

    def __post_init__(self):
        expected = self.dim * len(_sym_pairs(self.dim))
        if len(self.entries) != expected:
            raise GeometryError(
                f"{self.dim}D connection needs {expected} components, got {len(self.entries)}"
            )

    @staticmethod
    def from_components(dim: int, mapping: Mapping[Tuple[int, int, int], Expr]) -> "Christoffel":
        uppers = tuple((i,) for i in range(1, dim + 1))
        return Christoffel(dim, _symmetric_entries(dim, mapping, "connection", uppers))

    def gamma(self, i: int, j: int, k: int) -> Expr:
        slots = _SYM_SLOT[self.dim]
        return self.entries[(i - 1) * len(SYM_PAIRS[self.dim]) + slots[j, k]]


class Riemann(Frozen):
    """Curvature components R{i}_{jkl}, skew in the last index pair."""

    dim: int
    entries: Tuple[Expr, ...]  # ordered by (i, j, (k, l) with k < l)

    def __post_init__(self):
        expected = self.dim * self.dim * (self.dim * (self.dim - 1) // 2)
        if len(self.entries) != expected:
            raise GeometryError(
                f"{self.dim}D curvature needs {expected} stored components, got {len(self.entries)}"
            )

    def component(self, i: int, j: int, k: int, l: int) -> Expr:
        if k == l:
            return ZERO
        slot, sign = _SKEW_SLOT[self.dim][k, l]
        value = self.entries[((i - 1) * self.dim + (j - 1)) * len(SKEW_PAIRS[self.dim]) + slot]
        return value if sign == 1 else -value

    def labelled(self) -> Tuple[Tuple[str, Expr], ...]:
        """Stored components with R{i}_{jkl} labels, in storage order."""
        index = range(1, self.dim + 1)
        labels = [f"R{i}_{j}{k}{l}" for i in index for j in index
                  for k, l in SKEW_PAIRS[self.dim]]
        return tuple(zip(labels, self.entries))


class Geodesic2Coefficients(CoefficientTable):
    """The six named functions a..f of a 2D quadratic geodesic system."""

    a: Expr
    b: Expr
    c: Expr
    d: Expr
    e: Expr
    f: Expr

    # a..f in field order are the negated 2D connection components in
    # storage order: G1_11, G1_12, G1_22, G2_11, G2_12, G2_22

    def as_christoffel(self) -> Christoffel:
        return Christoffel(2, tuple(-value for value in self.entries().values()))


def christoffel_from_metric(
    g: Metric, config: ZeroTestConfig = DEFAULT_CONFIG
) -> Christoffel:
    """Levi-Civita connection of an exact metric.

    Requires a certified nonzero determinant: a canonically zero
    determinant raises DegenerateMetricError, an undecided one raises
    UndecidedMetricError rather than risking division by a hidden zero.
    """
    det = g.determinant()
    verdict = is_zero(det, config)
    if verdict.verdict is Verdict.ZERO:
        raise DegenerateMetricError("metric determinant is canonically zero")
    if verdict.verdict is Verdict.UNDECIDED:
        raise UndecidedMetricError(
            f"cannot certify det(g) nonzero: {verdict.detail}"
        )
    names = coordinates(g.dim)
    index = range(1, g.dim + 1)
    adj = adjugate([[g.g(i, j) for j in index] for i in index])
    half_over_det = _HALF / det
    components: Dict[Tuple[int, int, int], Expr] = {}
    for i in index:
        for j, k in SYM_PAIRS[g.dim]:
            components[(i, j, k)] = half_over_det * sum_of_products([
                (1, adj[i - 1][m - 1], g.g(j, m).diff(names[k - 1])
                 + g.g(k, m).diff(names[j - 1]) - g.g(j, k).diff(names[m - 1]))
                for m in index])
    return Christoffel.from_components(g.dim, components)


def riemann(gamma: Christoffel, coords: Optional[Sequence[str]] = None) -> Riemann:
    """Curvature of a symmetric connection written in the coordinates
    `coords`, by default coordinates(gamma.dim).

    R{i}_{jkl} = d_k G{i}_{jl} - d_l G{i}_{jk}
               + sum_m (G{i}_{mk} G{m}_{jl} - G{i}_{ml} G{m}_{jk)}.
    """
    names = coords or coordinates(gamma.dim)
    index = range(1, gamma.dim + 1)
    G = {(i, j, k): gamma.gamma(i, j, k) for i in index for j in index for k in index}
    entries = []
    for i in index:
        for j in index:
            for k, l in SKEW_PAIRS[gamma.dim]:
                terms = [(1, G[i, j, l].diff(names[k - 1]), None),
                         (-1, G[i, j, k].diff(names[l - 1]), None)]
                for m in index:
                    terms.append((1, G[i, m, k], G[m, j, l]))
                    terms.append((-1, G[i, m, l], G[m, j, k]))
                entries.append(sum_of_products(terms))
    return Riemann(gamma.dim, tuple(entries))


def covariant_derivative(
    gamma: Christoffel, t: Callable[[int, int], Expr], k: int, i: int, j: int
) -> Expr:
    """Component nabla_k t_ij of the covariant derivative of a two-index
    tensor t(i, j) under gamma, in coordinates(gamma.dim):

        nabla_k t_ij = d_k t_ij - sum_m (G{m}_{ki} t_mj + G{m}_{kj} t_im).
    """
    terms = [(1, t(i, j).diff(coordinates(gamma.dim)[k - 1]), None)]
    for m in range(1, gamma.dim + 1):
        terms.append((-1, gamma.gamma(m, k, i), t(m, j)))
        terms.append((-1, gamma.gamma(m, k, j), t(i, m)))
    return sum_of_products(terms)


def first_bianchi_residuals(curv: Riemann) -> Tuple[Expr, ...]:
    """Cyclic sums R{i}_{jkl} + R{i}_{klj} + R{i}_{ljk}, all index tuples
    in lexicographic order.

    A tuple that repeats a lower index sums one stored entry with its
    negation and a zero, by the skew storage of Riemann, so it is ZERO
    with no arithmetic.  The cyclic sum does not change when (j, k, l)
    rotates, so each rotation class of distinct indices is summed once
    per i, at its first tuple, and shared by the other two: 6 sums in
    3D, none in 2D.
    """
    n = curv.dim
    r = curv.component
    out = []
    for i in range(1, n + 1):
        sums: Dict[Tuple[int, int, int], Expr] = {}
        for j, k, l in itertools.product(range(1, n + 1), repeat=3):
            if j == k or k == l or l == j:
                out.append(ZERO)
                continue
            # lexicographic order meets a class first at its least rotation
            rotation = min((j, k, l), (k, l, j), (l, j, k))
            total = sums.get(rotation)
            if total is None:
                total = sums[rotation] = sum_of_products([
                    (1, r(i, j, k, l), None),
                    (1, r(i, k, l, j), None),
                    (1, r(i, l, j, k), None),
                ])
            out.append(total)
    return tuple(out)


def is_flat(
    gamma: Christoffel, config: ZeroTestConfig = DEFAULT_CONFIG
) -> ConditionReport:
    """Zero test of every stored curvature component, labelled
    Eq6.R{i}_{jkl} in storage order; PASS certifies a flat connection."""
    labelled = [(f"Eq6.{label}", component)
                for label, component in riemann(gamma).labelled()]
    return evaluate_conditions(labelled, config)


def geodesic2_flat_residuals(curv: Riemann) -> List[Tuple[str, Expr]]:
    """The four plane flatness residuals of a 2D curvature: R1_112,
    R1_212, R2_112 and -(R1_112 + R2_212).  On the connection -(a..f)
    they are the printed conditions on a..f."""
    r = curv.component
    return [
        ("Eq9.1", r(1, 1, 1, 2)),
        ("Eq9.2", r(1, 2, 1, 2)),
        ("Eq9.3", r(2, 1, 1, 2)),
        ("Eq9.4", -r(1, 1, 1, 2) - r(2, 2, 1, 2)),
    ]


def geodesic2_flat_conditions(
    coef: Geodesic2Coefficients, config: ZeroTestConfig = DEFAULT_CONFIG
) -> ConditionReport:
    """The four flatness conditions on the coefficients a..f."""
    return evaluate_conditions(
        geodesic2_flat_residuals(riemann(coef.as_christoffel())), config)


def metric_pde_residuals(
    coef: Geodesic2Coefficients,
    g: Metric,
    config: ZeroTestConfig = DEFAULT_CONFIG,
) -> ConditionReport:
    """The six first-order metric equations in 2D: the covariant
    derivative nabla_k g_ij of g under the connection G = -(a..f),
    labelled Eq11.1-6 for k = x, y in turn and ij = 11, 12, 22 within.
    A candidate metric solves the system when all six vanish.  The
    determinant and its degeneracy verdict ride along as facts;
    degeneracy does not by itself fail the report.
    """
    if g.dim != 2:
        raise GeometryError("the metric equations are a 2D check")
    gamma = coef.as_christoffel()
    labelled = [(f"Eq11.{n}", covariant_derivative(gamma, g.g, k, i, j))
                for n, (k, (i, j)) in enumerate(
                    itertools.product((1, 2), SYM_PAIRS[2]), start=1)]
    det = g.determinant()
    degeneracy = is_zero(det, config)
    facts = (
        ("determinant", str(det)),
        ("degenerate", {"zero": "yes", "nonzero": "no", "undecided": "undecided"}[degeneracy.verdict.value]),
    )
    return evaluate_conditions(labelled, config, facts=facts)
