import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

from geolin.criteria import Linear2, Quadratic2, check_cubic2, tresse_scalar
from geolin.document import load_document
from geolin.geometry import Geodesic2Coefficients, Metric
from geolin.kernel import (
    Verdict, as_expr, exp, integer, is_zero, ln, parse, rational, sqrt, var)
from geolin.report import FAIL, PASS, evaluate_conditions
from geolin.projection import (
    ScalarCubic, ScalarGauge, SystemCubic2, SystemGauge, lift_scalar, lift_system)
from geolin.transform import (
    DegenerateJacobianError,
    GeneralSystem2,
    SingularSystemError,
    Transformation,
    TransformError,
    _FAMILIES,
    coefficients_from_transformation,
    flat_pullback,
    induced_pair,
    normal_form,
    pullback_metric,
    verify_linearizing_transformation,
)

from helpers import (
    chain_rule_residuals,
    fraction_chain_residuals,
    general_pair_residual,
    geodesic_second_derivatives,
    hand_typed_coefficients,
    kernel_maps,
    pair_lower_terms,
    random_expr,
    random_invertible_map,
    random_polynomial,
    second_derivative_numerators,
    solve_second_derivatives,
    transcribed_second_derivatives,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

X, Y, Z = var("x"), var("y"), var("z")
XYZ = ("x", "y", "z")
SLOPES = (var("yp"), var("zp"))

# u = e^x, v = e^y, w = e^z straightens y'' - y' + y'^2 = z'' - z' + z'^2 = 0
EXP_MAP = Transformation.make(exp(X), exp(Y), exp(Z))
SIMPLE_PAIR = SystemCubic2.make(B2_22=1, B3_33=1, C2_2=-1, C3_3=-1)

# u = ln(xy), v = e^y, w = e^(y+z) straightens the worked variable pair
LOG_MAP = Transformation.make(ln(X * Y), exp(Y), exp(Y + Z))
WORKED_PAIR = SystemCubic2.make(
    A22="x/y + x/y^2", B2_22=1, C2_2="1/x",
    B3_23=1, B3_33=1, C3_3="1/x",
)

# u = x e^(yz), v = x y^2 z^2, w = y generates the irreducible-looking pair
TANGLED_MAP = Transformation.make(X * exp(Y * Z), X * Y ** 2 * Z ** 2, Y)

SCALAR_FLAT = ScalarCubic.make(E1=-1, E3=1)
SCALAR_FLAT_MAP = Transformation.make(
    sqrt(rational(1, 2)) * exp(Y - X),
    sqrt(rational(1, 2)) * exp(-X - Y),
)
SCALAR_DAMPED = ScalarCubic.make(E0="y^3", E1="3*y")
SCALAR_DAMPED_MAP = Transformation.make(
    parse("x - 1/y"), parse("x^2/2 - x/y"))

FORCED_PAIR = SystemCubic2.make(D2="z", D3="z")

TANGLED_FAMILIES = {
    "J2_2": "x*y*z^2*exp(y*z)*(2 - y*z)",
    "J2_3": "x*y^2*z*exp(y*z)*(2 - y*z)",
    "J3_2": "exp(y*z)",
    "J3_3": "0",
    "G2_23": "0",
    "G3_23": "-x*y*exp(y*z)",
    "Del2_222": "2*x^2*z^3*exp(y*z)*(1 - y*z)",
    "Del2_223": "2*x^2*y*z^2*exp(y*z)*(1 - y*z)",
    "Del2_233": "2*x^2*y^2*z*exp(y*z)*(1 - y*z)",
    "Del2_333": "2*x^2*y^3*exp(y*z)*(1 - y*z)",
    "Del3_222": "-x*z^2*exp(y*z)",
    "Del3_223": "-(2/3)*x*(1 + y*z)*exp(y*z)",
    "Del3_233": "-(1/3)*x*y^2*exp(y*z)",
    "Del3_333": "0",
    "Lam2_22": "x*z^2*exp(y*z)*(2 - y^2*z^2)",
    "Lam2_23": "x*y*z*exp(y*z)*(4 - y*z - y^2*z^2)",
    "Lam2_33": "x*y^2*exp(y*z)*(2 - y^2*z^2)",
    "Lam3_22": "-2*z*exp(y*z)",
    "Lam3_23": "-y*exp(y*z)",
    "Lam3_33": "0",
    "Om2_2": "2*y*z^2*exp(y*z)*(2 - y*z)",
    "Om2_3": "2*y^2*z*exp(y*z)*(2 - y*z)",
    "Om3_2": "0",
    "Om3_3": "0",
    "E2": "0",
    "E3": "0",
}


def total_derivative(expr, yp, zp, ypp, zpp):
    return (expr.diff("x") + yp * expr.diff("y") + zp * expr.diff("z")
            + ypp * expr.diff("yp") + zpp * expr.diff("zp"))


def random_perturbed_identity(rng, dim=3) -> Transformation:
    names = ("x", "y", "z")[:dim]
    comps = []
    for base in names[:dim]:
        comps.append(var(base) + random_polynomial(rng, names=names, terms=2))
    return Transformation.make(*comps)


class TestTransformation:
    def test_identity(self):
        t = Transformation.identity(3)
        assert t.dim == 3
        assert t.jacobian_determinant() == integer(1)

    def test_component_count_bounds(self):
        with pytest.raises(TransformError):
            Transformation.make(X)
        with pytest.raises(TransformError):
            Transformation.make(X, Y, Z, X)

    def test_jacobian_layout(self):
        t = Transformation.make("x*y", "y^2")
        jac = t.jacobian()
        assert jac[0][0] == Y
        assert jac[0][1] == X
        assert jac[1][0] == integer(0)
        assert jac[1][1] == parse("2*y")

    def test_log_map_determinant_is_invertible(self):
        assert LOG_MAP.jacobian_determinant() == parse("exp(2*y + z)/x")
        assert bool(is_zero(LOG_MAP.jacobian_determinant())) is False
        assert is_zero(LOG_MAP.jacobian_determinant()).verdict.value == "nonzero"

    def test_collapsed_map_determinant_is_zero(self):
        collapsed = Transformation.make(Y, Y, Y)
        assert bool(is_zero(collapsed.jacobian_determinant())) is True
        with pytest.raises(DegenerateJacobianError):
            coefficients_from_transformation(collapsed)


class TestGeneralFamilies:
    def test_slot_counts(self):
        assert len(dataclasses.fields(GeneralSystem2)) == 26

    def test_unknown_slot_rejected(self):
        with pytest.raises(TypeError):
            GeneralSystem2.make(J2_4=1)

    def test_index_accessors(self):
        g = GeneralSystem2.make(G2_23="x")
        assert g.G(2, 2, 3) == X
        assert g.G(2, 3, 2) == -X
        assert g.G(2, 2, 2).is_zero_literal()

    def test_exponential_map_families(self):
        g = coefficients_from_transformation(EXP_MAP)
        assert g.J2_2 == parse("exp(x + y)")
        assert g.J3_3 == parse("exp(x + z)")
        assert g.Lam2_22 == parse("exp(x + y)")
        assert g.Lam3_33 == parse("exp(x + z)")
        assert g.Om2_2 == parse("-exp(x + y)")
        assert g.Om3_3 == parse("-exp(x + z)")
        zero_names = [f.name for f in dataclasses.fields(GeneralSystem2)
                      if f.name not in ("J2_2", "J3_3", "Lam2_22", "Lam3_33",
                                        "Om2_2", "Om3_3")]
        for name in zero_names:
            assert getattr(g, name).is_zero_literal(), name

    def test_tangled_map_families(self):
        g = coefficients_from_transformation(TANGLED_MAP)
        for name, text in TANGLED_FAMILIES.items():
            assert getattr(g, name) == parse(text), name

    def test_equation_residual_shape(self):
        g = coefficients_from_transformation(EXP_MAP)
        yp, zp = var("yp"), var("zp")
        ypp, zpp = var("ypp"), var("zpp")
        want = parse("exp(x + y)") * (ypp + yp ** 2 - yp)
        assert general_pair_residual(g, 2, yp, zp, ypp, zpp) == want

    def test_expansion_identity_for_tangled_map(self):
        # substituting the map into u'' = w'' = 0 and clearing u' must
        # reproduce exactly the stored coefficient contraction
        self._check_expansion(TANGLED_MAP)

    def test_expansion_identity_for_random_maps(self):
        rng = random.Random(21)
        for _ in range(5):
            self._check_expansion(random_perturbed_identity(rng))

    @staticmethod
    def _check_expansion(t):
        g = coefficients_from_transformation(t)
        yp, zp = var("yp"), var("zp")
        ypp, zpp = var("ypp"), var("zpp")
        first = [c.diff("x") + yp * c.diff("y") + zp * c.diff("z")
                 for c in t.components]
        second = [total_derivative(f, yp, zp, ypp, zpp) for f in first]
        for i in (2, 3):
            direct = second[i - 1] * first[0] - first[i - 1] * second[0]
            assert (direct - general_pair_residual(g, i, yp, zp, ypp, zpp)).is_zero_literal()

    def test_leading_determinant_factors(self):
        g = coefficients_from_transformation(TANGLED_MAP)
        yp, zp = var("yp"), var("zp")
        det_j = g.J2_2 * g.J3_3 - g.J2_3 * g.J3_2
        want = det_j * (1 + X * Z * yp + X * Y * zp)
        assert second_derivative_numerators(g, yp, zp)[0] == want

    def test_solved_derivatives_at_sample_slopes(self):
        g = coefficients_from_transformation(TANGLED_MAP)
        ypp, zpp = solve_second_derivatives(g, var("yp"), var("zp"))
        at = {"x": 1, "y": 1, "z": 3, "yp": 1, "zp": 1}
        assert ypp.substitute(at) == rational(-64, 3)
        assert zpp.substitute(at) == rational(-206, 3)
        at = {"x": 1, "y": 1, "z": 3, "yp": 1, "zp": 0}
        assert ypp.substitute(at) == integer(-12)
        assert zpp.substitute(at) == integer(-27)

    def test_singular_leading_matrix(self):
        g = GeneralSystem2.make(Om2_2=1, Om3_3=1)
        with pytest.raises(SingularSystemError):
            solve_second_derivatives(g, var("yp"), var("zp"))


class TestInducedCubic:
    def test_every_entry_prints_as_the_hand_typed_families(self):
        # closure pools 31, 1 and 2, the seeded kernel maps and the named maps
        maps = []
        for pool in (31, 1, 2):
            rng = random.Random(pool)
            maps += [random_invertible_map(rng) for _ in range(50)]
        maps += kernel_maps()
        maps += [EXP_MAP, TANGLED_MAP, LOG_MAP, SCALAR_DAMPED_MAP, SCALAR_FLAT_MAP]
        for t in maps:
            got, want = coefficients_from_transformation(t), hand_typed_coefficients(t)
            assert type(got) is type(want)
            assert ({key: str(v) for key, v in got.entries().items()}
                    == {key: str(v) for key, v in want.entries().items()})


class TestGeneralScalar:
    def test_damped_map_regenerates_its_own_equation(self):
        assert SCALAR_DAMPED_MAP.jacobian_determinant() == parse("1/y^3")
        assert coefficients_from_transformation(SCALAR_DAMPED_MAP) == SCALAR_DAMPED

    def test_scalar_map_output_always_passes_point_test(self):
        rng = random.Random(22)
        for _ in range(5):
            t = random_perturbed_identity(rng, dim=2)
            cubic = coefficients_from_transformation(t)
            assert tresse_scalar(cubic).overall == PASS


class TestNormalForm:
    def test_exponential_map_reduces_to_simple_pair(self):
        g = coefficients_from_transformation(EXP_MAP)
        cubic, report = normal_form(g)
        assert cubic == SIMPLE_PAIR
        assert report.overall == PASS
        assert report.fact("det J") == "exp(2*x + y + z)"
        assert len(report.records) == 30

    def test_tangled_map_fails_consistency(self):
        g = coefficients_from_transformation(TANGLED_MAP)
        cubic, report = normal_form(g)
        assert report.overall == "FAIL"
        assert report.record("Eqr55.Lam3_23").residual == parse("-y*exp(y*z)")
        assert report.record("Eqr55.Lam3_32").residual == parse("y*exp(y*z)")
        for i in (2, 3):
            assert report.record(f"Eqr55.E{i}").residual.is_zero_literal()
            for k in (2, 3):
                assert report.record(f"Eqr55.Om{i}_{k}").residual.is_zero_literal()

    def test_tangled_reduction_is_still_exact(self):
        # the printed-shape consistency fails, yet the solved second
        # derivatives agree with the reduced cubic pair everywhere
        g = coefficients_from_transformation(TANGLED_MAP)
        cubic, _ = normal_form(g)
        assert cubic.A22 == parse("2*x*z*(1 - y*z)/(y*(2 - y*z))")
        assert cubic.A23 == parse("2*x*(1 - y*z)/(2 - y*z)")
        assert cubic.A33 == parse("2*x*y*(1 - y*z)/(z*(2 - y*z))")
        assert cubic.B3_22 == parse("z*(2 - y^2*z^2)/(y^2*(2 - y*z))")
        assert cubic.B3_23 == parse("(4 - y*z - y^2*z^2)/(y*(2 - y*z))")
        assert cubic.B3_33 == parse("(2 - y^2*z^2)/(z*(2 - y*z))")
        assert cubic.C3_2 == parse("2*z/(x*y)")
        assert cubic.C3_3 == parse("2/x")
        for name in ("B2_22", "B2_23", "B2_33", "C2_2", "C2_3", "D2", "D3"):
            assert getattr(cubic, name).is_zero_literal(), name
        yp, zp = var("yp"), var("zp")
        got_ypp, got_zpp = solve_second_derivatives(g, yp, zp)
        shared = cubic.A22 * yp ** 2 + 2 * cubic.A23 * yp * zp + cubic.A33 * zp ** 2
        want_ypp = -(shared * yp + cubic.B2_22 * yp ** 2
                     + 2 * cubic.B2_23 * yp * zp + cubic.B2_33 * zp ** 2
                     + cubic.C2_2 * yp + cubic.C2_3 * zp + cubic.D2)
        want_zpp = -(shared * zp + cubic.B3_22 * yp ** 2
                     + 2 * cubic.B3_23 * yp * zp + cubic.B3_33 * zp ** 2
                     + cubic.C3_2 * yp + cubic.C3_3 * zp + cubic.D3)
        assert (got_ypp - want_ypp).is_zero_literal()
        assert (got_zpp - want_zpp).is_zero_literal()

    def test_singular_leading_block_rejected(self):
        g = GeneralSystem2.make(J2_2="y", J2_3="y", J3_2="y", J3_3="y")
        with pytest.raises(DegenerateJacobianError):
            normal_form(g)


class TestVerifyTransformation:
    def test_simple_pair_with_exponential_map(self):
        assert verify_linearizing_transformation(SIMPLE_PAIR, EXP_MAP).overall == PASS

    def test_worked_pair_with_log_map(self):
        assert verify_linearizing_transformation(WORKED_PAIR, LOG_MAP).overall == PASS

    def test_tangled_general_pair_with_its_own_map(self):
        g = coefficients_from_transformation(TANGLED_MAP)
        assert verify_linearizing_transformation(g, TANGLED_MAP).overall == PASS

    def test_scalar_flat_equation(self):
        report = verify_linearizing_transformation(SCALAR_FLAT, SCALAR_FLAT_MAP)
        assert report.overall == PASS

    def test_scalar_damped_equation(self):
        report = verify_linearizing_transformation(SCALAR_DAMPED, SCALAR_DAMPED_MAP)
        assert report.overall == PASS

    def test_forced_pair_identity_is_not_linearizing(self):
        report = verify_linearizing_transformation(
            FORCED_PAIR, Transformation.identity(3))
        assert report.overall == FAIL
        assert all(record.result.witness is not None for record in report.records
                   if record.verdict is Verdict.NONZERO)

    def test_connection_input_is_projected_first(self):
        lifted = lift_system(SIMPLE_PAIR, SystemGauge.make(G3_33=1))
        assert verify_linearizing_transformation(lifted, EXP_MAP).overall == PASS

    def test_plane_coefficient_input_is_projected_first(self):
        coef = Geodesic2Coefficients.make(a=1, c=1, e=1)
        report = verify_linearizing_transformation(coef, SCALAR_FLAT_MAP)
        assert report.overall == PASS

    def test_restricted_shapes_are_widened(self):
        # e^y straightens y'' + y'^2 = 0
        quad = Quadratic2.make(B2_22=1, B3_33=1)
        t = Transformation.make(X, exp(Y), exp(Z))
        assert verify_linearizing_transformation(quad, t).overall == PASS
        lin = Linear2.make(D2="z", D3="z")
        report = verify_linearizing_transformation(lin, Transformation.identity(3))
        assert report.overall == FAIL

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(TransformError):
            verify_linearizing_transformation(SCALAR_FLAT, EXP_MAP)
        with pytest.raises(TransformError):
            verify_linearizing_transformation(
                SIMPLE_PAIR, Transformation.identity(2))

    def test_metric_is_not_a_system(self):
        with pytest.raises(TransformError):
            verify_linearizing_transformation(Metric.identity(2), Transformation.identity(2))

    def test_reserved_slope_names_rejected(self):
        bad = ScalarCubic.make(E0="yp")
        with pytest.raises(TransformError):
            verify_linearizing_transformation(bad, Transformation.identity(2))

    def test_constant_first_component_rejected(self):
        # a constant new independent variable zeroes a row of the Jacobian
        with pytest.raises(DegenerateJacobianError):
            verify_linearizing_transformation(
                ScalarCubic.make(), Transformation.make(1, Y))
        with pytest.raises(DegenerateJacobianError):
            verify_linearizing_transformation(
                SIMPLE_PAIR, Transformation.make(2, Y, Z))

    def test_non_invertible_map_rejected(self):
        # the residuals of a map with a canonically zero Jacobian
        # determinant can vanish, but it is no point transformation
        scalar = ScalarCubic.make(E0="x*y^2 + sin(y)")
        with pytest.raises(DegenerateJacobianError):
            verify_linearizing_transformation(scalar, Transformation.make(X, X))
        with pytest.raises(DegenerateJacobianError):
            verify_linearizing_transformation(
                SIMPLE_PAIR, Transformation.make(X, exp(Y), exp(Y)))

    def test_singular_general_pair_rejected(self):
        with pytest.raises(SingularSystemError):
            verify_linearizing_transformation(
                GeneralSystem2.make(Om2_2=1, Om3_3=1), Transformation.identity(3))

    def test_kernel_map_with_huge_fraction_chain_verifies(self):
        # built as a chain of reduced fractions, its residuals stop 29
        # gcds at the size guard; over one denominator they need none
        t = Transformation.make(
            "y^2 + sqrt(4*x^2 - 8*x*y + 4*y^2 + 1) + x - 4*y",
            "4*y*z + y - 3",
            "-3*y + z - 1",
        )
        g = coefficients_from_transformation(t)
        report = verify_linearizing_transformation(g, t)
        assert report.overall == PASS
        assert [r.verdict for r in report.records] == [Verdict.ZERO] * 2

    def test_residuals_match_the_fraction_chain_on_foreign_maps(self):
        # pool 31: system k against map k + 1, which does not straighten it
        rng = random.Random(31)
        maps = [random_invertible_map(rng) for _ in range(11)]
        nonzero = 0
        for k in range(10):
            g = coefficients_from_transformation(maps[k])
            report = verify_linearizing_transformation(g, maps[k + 1])
            oracle = evaluate_conditions(fraction_chain_residuals(g, maps[k + 1]))
            assert report.overall == oracle.overall == FAIL
            for record in report.records:
                assert record.verdict is Verdict.NONZERO
                point = {name: as_expr(Fraction(value))
                         for name, value in record.result.witness.items()}
                value = record.residual.substitute(point)
                assert value.is_rational() and not value.is_zero_literal()
                nonzero += 1
        assert nonzero == 20

    def test_random_scalar_maps_verify_against_their_own_output(self):
        rng = random.Random(24)
        for _ in range(4):
            t = random_perturbed_identity(rng, dim=2)
            g = coefficients_from_transformation(t)
            assert verify_linearizing_transformation(g, t).overall == PASS

    def test_random_maps_verify_against_their_own_output(self):
        rng = random.Random(23)
        verdicts = []
        for _ in range(3):
            t = random_perturbed_identity(rng)
            g = coefficients_from_transformation(t)
            assert verify_linearizing_transformation(g, t).overall == PASS
            cubic, report = normal_form(g)
            verdicts.append(report.overall)
            if report.overall == PASS:
                assert check_cubic2(cubic).overall == PASS
        assert verdicts == [FAIL, PASS, PASS]


def bumped(t: Transformation, k: int, bump) -> Transformation:
    """The map with bump added to component k (0-based)."""
    comps = list(t.components)
    comps[k] = comps[k] + bump
    return Transformation.make(*comps)


def slope_sum(terms_by_slot, i):
    """The sum over the slope monomials of equation i of a table of
    sum_of_products terms keyed by family slot name."""
    total = integer(0)
    for indices, (slot, _, _) in _FAMILIES.items():
        monomial = integer(1)
        for k in indices:
            monomial = monomial * SLOPES[k - 2]
        for w, a, b in terms_by_slot[slot.format(i)]:
            total = total + w * a * b * monomial
    return total


class TestFlatPullback:
    """Verification against the flat connection pulled back through the
    map, with the chain rule along solutions as its oracle; the oracle
    splits the verdict over the records differently (one per transformed
    coordinate, not one per equation), so the overall verdicts are
    compared."""

    @pytest.mark.parametrize("pool", [31, 1, 2])
    def test_pool_maps_agree_with_the_fraction_chain(self, pool):
        # x*y (even k) or z^2 (odd k) added to component k % 3; pool 1's
        # map 45 has 4*x*y as its second component, so x*y would only
        # shift a straightened coordinate there
        rng = random.Random(pool)
        for k in range(50):
            t = random_invertible_map(rng)
            g = coefficients_from_transformation(t)
            for m, want in ((t, PASS), (bumped(t, k % 3, Z ** 2 if k % 2 else X * Y), FAIL)):
                oracle = evaluate_conditions(fraction_chain_residuals(g, m))
                assert verify_linearizing_transformation(g, m).overall == oracle.overall == want

    def test_kernel_maps_agree_with_the_chain_rule(self):
        for n, t in enumerate(kernel_maps()):
            g = coefficients_from_transformation(t)
            for m, want in ((t, PASS), (bumped(t, n % 3, Z ** 2 if n % 2 else X * Y), FAIL)):
                oracle = evaluate_conditions(chain_rule_residuals(g, m))
                assert verify_linearizing_transformation(g, m).overall == oracle.overall == want

    def test_corpus_maps_with_each_component_bumped(self):
        documents = 0
        for path in sorted(CORPUS.glob("*.ini")):
            doc = load_document(str(path))
            t = doc.transformation()
            if t is None:
                continue
            documents += 1
            system = doc.system()
            assert verify_linearizing_transformation(system, t).overall == PASS
            for k in range(t.dim):
                m = bumped(t, k, X * Y)
                oracle = evaluate_conditions(chain_rule_residuals(system, m))
                assert verify_linearizing_transformation(system, m).overall == (
                    oracle.overall) == FAIL, (path.name, k)
        assert documents == 5

    def test_kernel_map_5_normal_form_cubic_verifies(self):
        # the chain rule along this cubic's solutions ran past 15 minutes
        t = kernel_maps()[5]
        cubic, _ = normal_form(coefficients_from_transformation(t))
        report = verify_linearizing_transformation(cubic, t)
        assert report.overall == PASS
        assert all(record.residual.is_zero_literal() for record in report.records)

    def test_scalar_pullback_is_det_times_the_induced_cubic(self):
        rng = random.Random(25)
        for _ in range(8):
            t = random_perturbed_identity(rng, dim=2)
            det, pulled = flat_pullback(t)
            cubic = coefficients_from_transformation(t)
            for key in ScalarCubic.keys():
                assert (det * getattr(cubic, key) - getattr(pulled, key)).is_zero_literal()

    def test_pair_pullback_is_det_times_the_normal_form_on_pool_31(self):
        rng = random.Random(31)
        for _ in range(10):
            t = random_invertible_map(rng)
            det, pulled = flat_pullback(t)
            cubic, _ = normal_form(coefficients_from_transformation(t))
            for key in SystemCubic2.keys():
                assert (det * getattr(cubic, key) - getattr(pulled, key)).is_zero_literal()

    def test_induced_pair_matches_the_contraction(self):
        # J{i}_2 Q2 + J{i}_3 Q3 + G{i}_23 (y'Q3 - z'Q2) with -Q the cubic's
        # second derivatives is minus the pair's equation on them, with
        # its lower slots zero
        rng = random.Random(26)
        for _ in range(6):
            cubic = random_cubic(rng, random_polynomial, 3)
            lead = GeneralSystem2.make(**{key: random_polynomial(rng, XYZ) for key in
                                          ("J2_2", "J2_3", "J3_2", "J3_3", "G2_23", "G3_23")})
            seconds = transcribed_second_derivatives(cubic, SLOPES)
            induced = induced_pair(lead.J, lead.G, cubic)
            for i in (2, 3):
                assert slope_sum(induced, i) == -general_pair_residual(lead, i, *SLOPES, *seconds)

    def test_a_pair_residual_is_its_equation_on_the_straightened_derivatives(self):
        rng = random.Random(31)
        maps = [random_invertible_map(rng) for _ in range(4)]
        for k in range(3):
            g = coefficients_from_transformation(maps[k])
            det, pulled = flat_pullback(maps[k + 1])
            straightened = SystemCubic2(*(value / det for value in pulled.entries().values()))
            seconds = transcribed_second_derivatives(straightened, SLOPES)
            report = verify_linearizing_transformation(g, maps[k + 1])
            assert report.overall == FAIL
            for i, record in zip((2, 3), report.records):
                want = general_pair_residual(g, i, *SLOPES, *seconds)
                assert (record.residual - want).is_zero_literal()

    def test_a_scalar_residual_is_the_difference_of_second_derivatives(self):
        det, pulled = flat_pullback(SCALAR_FLAT_MAP)
        straightened = ScalarCubic(*(value / det for value in pulled.entries().values()))
        system = ScalarCubic.make(E0="y", E1=-1, E3=1)
        (record,) = verify_linearizing_transformation(system, SCALAR_FLAT_MAP).records
        (mine,), (map_,) = (transcribed_second_derivatives(c, SLOPES[:1])
                            for c in (system, straightened))
        assert record.verdict is Verdict.NONZERO
        assert (record.residual - (map_ - mine)).is_zero_literal()

    def test_a_singular_determinant_needs_every_minor_of_the_leading_block(self):
        # det J is zero, but J2_2 G3_23 - J3_2 G2_23 = 1: the leading
        # matrix has determinant y', so the pair is y'' = 0 and
        # y'z'' - z'y'' = 0, whose solutions are the straight lines
        g = GeneralSystem2.make(J2_2=1, G3_23=1)
        identity = Transformation.identity(3)
        for m, want in ((identity, PASS), (bumped(identity, 1, X * Y), FAIL)):
            oracle = evaluate_conditions(chain_rule_residuals(g, m))
            assert verify_linearizing_transformation(g, m).overall == oracle.overall == want
        with pytest.raises(SingularSystemError):
            verify_linearizing_transformation(
                GeneralSystem2.make(J2_2="y", J3_2="y", G2_23="x", G3_23="x"), identity)


def random_cubic(rng, draw, dim):
    """A ScalarCubic (dim 2) or SystemCubic2 (dim 3) of draw(rng, names)
    coefficients."""
    cls = ScalarCubic if dim == 2 else SystemCubic2
    return cls.make(**{key: draw(rng, XYZ[:dim]) for key in cls.keys()})


def lifted(cubic, gauge):
    """The connection of a cubic's lift in the given gauge."""
    if isinstance(cubic, ScalarCubic):
        return lift_scalar(cubic, gauge).as_christoffel()
    return lift_system(cubic, gauge)


GAUGES = {2: ScalarGauge, 3: SystemGauge}


class TestGeodesicSecondDerivatives:
    """The one formula for the cubic shapes against their transcriptions."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_polynomial_cubics_match_the_transcription(self, dim):
        rng = random.Random(40 + dim)
        for _ in range(8):
            cubic = random_cubic(rng, random_polynomial, dim)
            slopes = SLOPES[:dim - 1]
            assert geodesic_second_derivatives(lifted(cubic, GAUGES[dim].make()), slopes) == (
                transcribed_second_derivatives(cubic, slopes))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_kernel_cubics_match_the_transcription(self, dim):
        rng = random.Random(50 + dim)
        for _ in range(6):
            cubic = random_cubic(rng, lambda r, names: random_expr(r, 2, names), dim)
            slopes = SLOPES[:dim - 1]
            got = geodesic_second_derivatives(lifted(cubic, GAUGES[dim].make()), slopes)
            want = transcribed_second_derivatives(cubic, slopes)
            for g, w in zip(got, want):
                assert g == w or (g - w).is_zero_literal()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_the_gauge_drops_out(self, dim):
        rng = random.Random(60 + dim)
        for _ in range(6):
            cubic = random_cubic(rng, random_polynomial, dim)
            gauge = GAUGES[dim].make(*(random_polynomial(rng, XYZ[:dim])
                                       for _ in GAUGES[dim].keys()))
            slopes = SLOPES[:dim - 1]
            assert geodesic_second_derivatives(lifted(cubic, gauge), slopes) == (
                transcribed_second_derivatives(cubic, slopes))

    def test_lower_terms_match_the_contraction_on_pool_31(self):
        rng = random.Random(31)
        zero = integer(0)
        for _ in range(50):
            g = coefficients_from_transformation(random_invertible_map(rng))
            lower = pair_lower_terms(g, *SLOPES)
            for i in (2, 3):
                assert lower[i] == general_pair_residual(g, i, *SLOPES, zero, zero)


class TestPullbackMetric:
    def test_damped_map_pullback_matches_worked_solution(self):
        got = pullback_metric(SCALAR_DAMPED_MAP, Metric.identity(2))
        want = Metric.plane(
            parse("1 + x^2 - 2*x/y + 1/y^2"),
            parse("(1 + x^2)/y^2 - x/y^3"),
            parse("(1 + x^2)/y^4"),
        )
        assert got == want

    def test_flat_map_pullback(self):
        got = pullback_metric(SCALAR_FLAT_MAP, Metric.identity(2))
        p = parse("1/2*exp(2*y - 2*x) + 1/2*exp(-2*x - 2*y)")
        q = parse("-1/2*exp(2*y - 2*x) + 1/2*exp(-2*x - 2*y)")
        assert got == Metric.plane(p, q, p)

    def test_identity_pullback(self):
        assert pullback_metric(
            Transformation.identity(3), Metric.identity(3)) == Metric.identity(3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(TransformError):
            pullback_metric(SCALAR_DAMPED_MAP, Metric.identity(3))
