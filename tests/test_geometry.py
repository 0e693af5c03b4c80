"""Geometry layer: connections from metrics, curvature, 2D flatness checks.

Fixed oracles first: the worked 2D metric with known connection, the
round sphere, and the two printed flat-candidate metrics.  Property
tests cover the first Bianchi identity and the sign-map round trip.
"""

import itertools
import random

import pytest

from geolin.geometry import (
    Christoffel,
    DegenerateMetricError,
    Geodesic2Coefficients,
    GeometryError,
    Metric,
    Riemann,
    UndecidedMetricError,
    christoffel_from_metric,
    coordinates,
    determinant,
    first_bianchi_residuals,
    geodesic2_flat_conditions,
    geodesic2_flat_residuals,
    is_flat,
    metric_pde_residuals,
    riemann,
)
from geolin.criteria import Quadratic2, quadratic2_residuals, remark_mapping
from geolin.kernel import Verdict, cos, exp, integer, is_zero, parse, sin, sqrt, var
from geolin.report import FAIL, PASS
from helpers import (
    geodesic2_from_christoffel,
    leibniz_determinant,
    naive_first_bianchi_residuals,
    random_expr,
    random_polynomial,
    transcribed_geodesic2_flat_residuals,
    transcribed_metric_pde_residuals,
)


def ex2_metric() -> Metric:
    p = parse("1 + x^2 - 2*x/y + 1/y^2")
    q = parse("(1 + x^2)/y^2 - x/y^3")
    r = parse("(1 + x^2)/y^4")
    return Metric.plane(p, q, r)


def ex2_coefficients() -> Geodesic2Coefficients:
    return Geodesic2Coefficients.make(
        a=parse("y"), b=parse("1/y"), c=0, d=parse("-y^3"), e=parse("-y"), f=parse("2/y"),
    )


def ex1_metric() -> Metric:
    p = parse("exp(2*y - 2*x)")
    return Metric.plane(p, -p, p)


def ex1_coefficients() -> Geodesic2Coefficients:
    one = integer(1)
    return Geodesic2Coefficients.make(a=one, b=0, c=one, d=0, e=one, f=0)


class TestMetric:
    def test_identity_connection_vanishes(self):
        for dim in (2, 3):
            gamma = christoffel_from_metric(Metric.identity(dim))
            assert all(entry.is_zero_literal() for entry in gamma.entries)

    def test_component_count_enforced(self):
        with pytest.raises(GeometryError):
            Metric(2, (integer(1), integer(0)))
        with pytest.raises(GeometryError):
            Christoffel(3, tuple(integer(0) for _ in range(17)))

    def test_symmetric_access(self):
        g = Metric.plane(integer(1), var("x"), integer(5))
        assert g.g(2, 1) == g.g(1, 2) == var("x")

    def test_worked_2d_metric_connection(self):
        gamma = christoffel_from_metric(ex2_metric())
        expected = ex2_coefficients().as_christoffel()
        for i in (1, 2):
            for j, k in ((1, 1), (1, 2), (2, 2)):
                assert gamma.gamma(i, j, k) == expected.gamma(i, j, k), (i, j, k)

    def test_worked_2d_metric_determinant(self):
        det = ex2_metric().determinant()
        assert det == parse("1/y^6")

    def test_degenerate_metric_refused(self):
        with pytest.raises(DegenerateMetricError):
            christoffel_from_metric(ex1_metric())

    def test_undecided_determinant_refused(self):
        # sqrt(2)*sqrt(3) - sqrt(6) is zero, but not canonically
        g = Metric.plane(1, 0, sqrt(2) * sqrt(3) - sqrt(6))
        with pytest.raises(UndecidedMetricError):
            christoffel_from_metric(g)

    def test_determinant_of_4x4_matches_leibniz(self):
        rng = random.Random(4)
        m = [tuple(integer(rng.randint(-9, 9)) for _ in range(4)) for _ in range(4)]
        det = determinant(m)
        assert det.is_rational() and det.as_rational() != 0
        assert det == leibniz_determinant(m)


class TestIndexValidation:
    BUILDERS = (
        # (builder, a valid index, out-of-range indices, the valid index reordered)
        (Metric.from_components, (1, 2), [(1, 3), (0, 1), (3, 3)], (2, 1)),
        (Christoffel.from_components, (1, 1, 2),
         [(3, 1, 1), (0, 1, 1), (1, 1, 3), (1, 0, 2)], (1, 2, 1)),
    )

    @pytest.mark.parametrize("build, valid, bad, swapped", BUILDERS)
    def test_out_of_range_index(self, build, valid, bad, swapped):
        for index in bad:
            with pytest.raises(GeometryError):
                build(2, {valid: var("x"), index: var("y")})

    @pytest.mark.parametrize("build, valid, bad, swapped", BUILDERS)
    def test_conflicting_orders(self, build, valid, bad, swapped):
        with pytest.raises(GeometryError):
            build(2, {valid: var("x"), swapped: var("y")})
        agreeing = build(2, {valid: var("x"), swapped: var("x")})
        assert agreeing == build(2, {swapped: var("x")})

    @pytest.mark.parametrize("build, valid, bad, swapped", BUILDERS)
    def test_unsupported_dimension(self, build, valid, bad, swapped):
        for dim in (1, 4):
            with pytest.raises(GeometryError):
                build(dim, {valid: var("x")})

    def test_refused_shapes(self):
        with pytest.raises(GeometryError):
            coordinates(4)
        with pytest.raises(GeometryError):
            Riemann(2, ())
        with pytest.raises(GeometryError):
            geodesic2_from_christoffel(Christoffel.from_components(3, {}))


class TestSphere:
    def setup_method(self):
        x = var("x")
        self.gamma = christoffel_from_metric(Metric.plane(1, 0, sin(x) ** 2))

    def test_connection_components(self):
        x = var("x")
        assert self.gamma.gamma(1, 2, 2) == -sin(x) * cos(x)
        # equal to cos/sin once sin^2 = 1 - cos^2 is taken into account;
        # the quotient itself may be stored with either denominator
        assert (self.gamma.gamma(2, 1, 2) - cos(x) / sin(x)).is_zero_literal()
        assert self.gamma.gamma(1, 1, 1).is_zero_literal()

    def test_curved(self):
        curv = riemann(self.gamma)
        # R1_212 = sin(x)^2 on the unit sphere
        assert (curv.component(1, 2, 1, 2) - sin(var("x")) ** 2).is_zero_literal()
        report = is_flat(self.gamma)
        assert report.overall == FAIL
        assert report.record("Eq6.R1_212").verdict is Verdict.NONZERO


class TestRiemann:
    def test_flat_for_worked_connection(self):
        report = is_flat(ex2_coefficients().as_christoffel())
        assert report.overall == PASS

    def test_skew_accessor(self):
        gamma = Christoffel.from_components(3, {(1, 2, 3): var("x") * var("y")})
        curv = riemann(gamma)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert curv.component(i, j, 1, 2) == -curv.component(i, j, 2, 1)
                assert curv.component(i, j, 2, 2).is_zero_literal()

    def random_curvature(self, seed):
        rng = random.Random(seed)
        names = ("x", "y", "z")
        mapping = {(i, j, k): random_polynomial(rng, names)
                   for i in (1, 2, 3) for j in (1, 2, 3) for k in range(j, 4)}
        return riemann(Christoffel.from_components(3, mapping))

    def test_skew_in_last_pair_3d(self):
        curv = self.random_curvature(11)
        for i, j, k, l in itertools.product((1, 2, 3), repeat=4):
            if k != l:
                assert curv.component(i, j, k, l) == -curv.component(i, j, l, k)

    def test_labelled_agrees_with_component(self):
        curv = self.random_curvature(12)
        labelled = curv.labelled()
        assert len(labelled) == len(curv.entries) == 27
        for label, value in labelled:
            i, j, k, l = (int(c) for c in label[1] + label[3:])
            assert label == f"R{i}_{j}{k}{l}" and k < l
            assert curv.component(i, j, k, l) == value

    def test_first_bianchi_random(self):
        rng = random.Random(7)
        for dim, names in ((2, ("x", "y")), (3, ("x", "y", "z"))):
            for _ in range(8):
                mapping = {}
                for i in range(1, dim + 1):
                    for j in range(1, dim + 1):
                        for k in range(j, dim + 1):
                            mapping[(i, j, k)] = random_polynomial(rng, names)
                curv = riemann(Christoffel.from_components(dim, mapping))
                assert all(r.is_zero_literal() for r in first_bianchi_residuals(curv))

    def test_first_bianchi_matches_every_sum_taken_afresh(self):
        # the skipped sums (a repeated index) and the shared ones (a
        # rotation) must come out as the oracle's, on curvatures and on
        # stored entries that are none, whose distinct-index sums are not 0
        rng = random.Random(29)
        for dim, names in ((2, ("x", "y")), (3, ("x", "y", "z"))):
            stored = dim * dim * (dim * (dim - 1) // 2)
            for shape in range(6):
                mapping = {(i, j, k): random_polynomial(rng, names)
                           for i in range(1, dim + 1) for j in range(1, dim + 1)
                           for k in range(j, dim + 1)}
                curv = riemann(Christoffel.from_components(dim, mapping))
                assert first_bianchi_residuals(curv) == naive_first_bianchi_residuals(curv)
                entries = [random_polynomial(rng, names) for _ in range(stored)]
                if shape % 2:
                    # kernel-free fractions over a few denominators
                    dens = [random_polynomial(rng, names, degree=1, terms=2) + 3
                            for _ in range(2)]
                    entries = [e / rng.choice(dens) for e in entries]
                arbitrary = Riemann(dim, tuple(entries))
                fast = first_bianchi_residuals(arbitrary)
                naive = naive_first_bianchi_residuals(arbitrary)
                assert len(fast) == dim ** 4
                assert fast == naive
                # every tuple of distinct indices, and no other, is nonzero
                distinct = [len({j, k, l}) == 3 for _, j, k, l in
                            itertools.product(range(1, dim + 1), repeat=4)]
                assert [not r.is_zero_literal() for r in fast] == distinct


class TestCoefficients:
    def test_sign_map_round_trip(self):
        rng = random.Random(3)
        for _ in range(10):
            coef = Geodesic2Coefficients.make(*(random_polynomial(rng) for _ in range(6)))
            back = geodesic2_from_christoffel(coef.as_christoffel())
            assert back == coef

    def test_flat_conditions_pass_on_worked_examples(self):
        for coef in (ex1_coefficients(), ex2_coefficients()):
            assert geodesic2_flat_conditions(coef).overall == "PASS"

    def test_flat_conditions_counterexample(self):
        coef = Geodesic2Coefficients.make(a=var("y"))
        report = geodesic2_flat_conditions(coef)
        assert report.overall == "FAIL"
        assert report.record("Eq9.1").residual == integer(1)


class TestMetricEquations:
    def test_worked_metric_satisfies_equations(self):
        report = metric_pde_residuals(ex2_coefficients(), ex2_metric())
        assert report.overall == "PASS"
        assert report.fact("degenerate") == "no"

    def test_degenerate_candidate_still_solves(self):
        # the printed first candidate solves the equations yet degenerates
        report = metric_pde_residuals(ex1_coefficients(), ex1_metric())
        assert report.overall == "PASS"
        assert report.fact("degenerate") == "yes"

    def test_wrong_metric_fails(self):
        g = Metric.plane(integer(1), integer(0), var("y"))
        report = metric_pde_residuals(ex2_coefficients(), g)
        assert report.overall == "FAIL"

    def test_metric_equations_are_2d_only(self):
        with pytest.raises(GeometryError):
            metric_pde_residuals(ex2_coefficients(), Metric.identity(3))


class TestTranscriptionOracle:
    """Eq9 is read from the curvature of the connection -(a..f) and Eq11
    from the covariant derivative of the metric under it; the hand
    transcription in helpers is their oracle."""

    @staticmethod
    def random_entry(rng, kernels, names):
        if kernels:
            return random_expr(rng, depth=2, names=names)
        return random_polynomial(rng, names=names)

    @pytest.mark.parametrize("kernels, shapes", [(False, 6), (True, 4)],
                             ids=["polynomial", "kernel"])
    def test_derived_tables_agree_with_transcription(self, kernels, shapes):
        rng = random.Random(81)
        for _ in range(shapes):
            for coords in (("x", "y"), ("y", "z")):
                coef = Geodesic2Coefficients.make(
                    *(self.random_entry(rng, kernels, coords) for _ in range(6)))
                derived = geodesic2_flat_residuals(riemann(coef.as_christoffel(), coords))
                transcribed = transcribed_geodesic2_flat_residuals(coef, coords)
                if coords == ("x", "y"):
                    g = Metric.plane(*(self.random_entry(rng, kernels, coords) for _ in range(3)))
                    derived += [(r.condition_id, r.residual)
                                for r in metric_pde_residuals(coef, g).records]
                    transcribed += transcribed_metric_pde_residuals(coef, g)
                assert [cid for cid, _ in derived] == [cid for cid, _ in transcribed]
                for (cid, new), (_, old) in zip(derived, transcribed):
                    assert is_zero(new - old).verdict is Verdict.ZERO, cid
                    if not kernels:
                        assert new == old, cid

    def test_remark_passes_on_a_kernel_shape(self):
        rng = random.Random(82)
        q = Quadratic2.make(*(random_expr(rng, depth=2, names=("y", "z")) for _ in range(6)))
        assert all(not res.is_zero_literal() for _, res in quadratic2_residuals(q))
        assert remark_mapping(q).overall == PASS
