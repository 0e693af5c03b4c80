import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from geolin import criteria, transform
from geolin.criteria import (
    _APPENDIX,
    _EQ51,
    CoefficientDomainError,
    Linear2,
    Quadratic2,
    appendix_residuals,
    check_cubic2,
    check_linear2,
    check_quadratic2,
    cubic2_residuals,
    lie_gauge_residuals,
    linear2_residuals,
    quadratic2_residuals,
    remark_mapping,
    tresse_residuals,
    tresse_scalar,
)
from geolin.geometry import Metric, christoffel_from_metric, covariant_derivative, is_flat, riemann
from geolin.kernel import ZERO, Verdict, core, exp, integer, is_zero, parse, rational, sqrt, var
from geolin.projection import (
    ScalarCubic,
    ScalarGauge,
    SystemCubic2,
    SystemGauge,
    lift_scalar,
    lift_system,
    project,
)
from geolin.report import FAIL, PASS
from geolin.transform import Transformation, coefficients_from_transformation, pullback_metric

from helpers import (
    random_expr,
    random_invertible_map,
    random_polynomial,
    swap_scalar_axes,
    TRANSCRIBED_APPENDIX_ORDER,
    TRANSCRIBED_APPENDIX_PAIRS,
    TRANSCRIBED_APPENDIX_SLOTS,
    transcribed_appendix_residuals,
    transcribed_cubic2_residuals,
    transcribed_tresse_residuals,
)


def generic_function(prefix, names=("y", "z")):
    """Degree-2 polynomial whose six coefficients are free symbols, so
    value and all derivatives up to second order are independent."""
    u, v = (var(n) for n in names)
    monomials = [integer(1), u, v, u * u, u * v, v * v]
    total = integer(0)
    for k, m in enumerate(monomials):
        total = total + var(f"{prefix}{k}") * m
    return total


FLAT_CUBIC = ScalarCubic.make(E1=-1, E3=1)            # y'' + y'^3 - y' = 0
DAMPED_CUBIC = ScalarCubic.make(E0="y^3", E1="3*y")   # y'' + 3yy' + y^3 = 0
PAINLEVE_LIKE = ScalarCubic.make(E0="-y^2")           # y'' = y^2

SIMPLE_PAIR = SystemCubic2.make(B2_22=1, B3_33=1, C2_2=-1, C3_3=-1)
WORKED_PAIR = SystemCubic2.make(
    A22="x/y + x/y^2", B2_22=1, C2_2="1/x", B3_23=1, B3_33=1, C3_3="1/x")
FORCED_PAIR = SystemCubic2.make(D2="z", D3="z")
WITNESS_GAUGE = SystemGauge.make(G3_33=1)


class TestTresse:
    def test_flat_example_passes(self):
        report = tresse_scalar(FLAT_CUBIC)
        assert report.overall == PASS
        assert all(r.residual.is_zero_literal() for r in report.records)

    def test_damped_example_passes(self):
        report = tresse_scalar(DAMPED_CUBIC)
        assert report.overall == PASS
        assert all(r.residual.is_zero_literal() for r in report.records)

    def test_negative_control(self):
        report = tresse_scalar(PAINLEVE_LIKE)
        assert report.overall == FAIL
        assert report.record("Eq3.1").residual.is_zero_literal()
        assert report.record("Eq3.2").residual == integer(6)

    def test_interchange_symmetry(self):
        # trading the two coordinates swaps the two residuals up to sign
        cubic = ScalarCubic(
            E0=generic_function("p", ("x", "y")),
            E1=generic_function("q", ("x", "y")),
            E2=generic_function("r", ("x", "y")),
            E3=generic_function("s", ("x", "y")),
        )
        rename = {"x": var("y"), "y": var("x")}
        t1, t2 = (res for _, res in tresse_residuals(cubic))
        s1, s2 = (res for _, res in tresse_residuals(swap_scalar_axes(cubic)))
        assert (s1 + t2.substitute(rename)).is_zero_literal()
        assert (s2 + t1.substitute(rename)).is_zero_literal()


class TestTresseDerivation:
    """Eq3 is read from the projective Cotton tensor of the plane lift;
    the hand transcription in helpers is its oracle."""

    @pytest.mark.parametrize("kernels, shapes", [(False, 10), (True, 6)],
                             ids=["polynomial", "kernel"])
    def test_derived_lines_agree_with_transcription(self, kernels, shapes):
        rng = random.Random(19)
        for _ in range(shapes):
            entries = (random_expr(rng, depth=2) if kernels else random_polynomial(rng)
                       for _ in range(4))
            cubic = ScalarCubic.make(*entries)
            derived = tresse_residuals(cubic)
            transcribed = transcribed_tresse_residuals(cubic)
            assert [cid for cid, _ in derived] == [cid for cid, _ in transcribed]
            for (cid, new), (_, old) in zip(derived, transcribed):
                assert is_zero(new - old).verdict is Verdict.ZERO, cid
                if not kernels:
                    assert new == old, cid

    def test_gauge_cancels(self):
        # the same Cotton lines at a random gauge of the lift
        rng = random.Random(20)
        for _ in range(4):
            cubic = ScalarCubic.make(*(random_polynomial(rng) for _ in range(4)))
            gauge = ScalarGauge.make(random_polynomial(rng), random_polynomial(rng))
            gamma = lift_scalar(cubic, gauge).as_christoffel()
            r = riemann(gamma).component
            ric = {(j, l): r(1, j, 1, l) + r(2, j, 2, l) for j in (1, 2) for l in (1, 2)}

            def t(j, l):
                return 2 * ric[j, l] + ric[l, j]

            def nabla(k, i, j):
                return covariant_derivative(gamma, t, k, i, j)

            at_gauge = [nabla(1, 2, 2) - nabla(2, 2, 1), nabla(1, 1, 2) - nabla(2, 1, 1)]
            assert at_gauge == [res for _, res in tresse_residuals(cubic)]

    def test_kernel_map_passes(self):
        # the cubic a small kernel map induces; its transcribed lines took
        # over a minute to build
        x, y = var("x"), var("y")
        t = Transformation.make(exp(y) + x, 3 * exp(x) + sqrt(x * x + 1) + y)
        report = tresse_scalar(coefficients_from_transformation(t))
        assert report.overall == PASS
        assert all(r.residual.is_zero_literal() for r in report.records)


class TestReport:
    def test_missing_label(self):
        report = tresse_scalar(FLAT_CUBIC)
        with pytest.raises(KeyError):
            report.record("nope")
        assert report.fact("nope") is None


class TestLieGauge:
    def test_flat_example_witness(self):
        report = lie_gauge_residuals(FLAT_CUBIC, ScalarGauge.make(b=0, e=1))
        assert report.overall == PASS
        assert all(r.residual.is_zero_literal() for r in report.records)

    def test_damped_example_witness(self):
        gauge = ScalarGauge.make(b="1/y", e="-y")
        report = lie_gauge_residuals(DAMPED_CUBIC, gauge)
        assert report.overall == PASS

    def test_wrong_gauge_fails(self):
        report = lie_gauge_residuals(FLAT_CUBIC)
        assert report.overall == FAIL
        assert report.record("Eq9.2").residual == integer(-1)


class TestCubicPair:
    def test_worked_pair_passes(self):
        report = check_cubic2(WORKED_PAIR)
        assert report.overall == PASS
        assert len(report.records) == 15
        assert [r.condition_id for r in report.records] == [
            f"Eq51.{k}" for k in range(1, 16)]
        assert all(r.residual.is_zero_literal() for r in report.records)

    def test_simple_pair_passes(self):
        assert check_cubic2(SIMPLE_PAIR).overall == PASS

    def test_forced_pair_fails(self):
        report = check_cubic2(FORCED_PAIR)
        assert report.overall == FAIL
        assert report.record("Eq51.4").residual == integer(-1)
        assert report.record("Eq51.12").residual == integer(-1)

    def test_zero_system_passes(self):
        assert check_cubic2(SystemCubic2.make()).overall == PASS


class TestQuadraticPair:
    def test_constant_pair_passes(self):
        q = Quadratic2.make(B2_22=1, B3_33=1)
        assert check_quadratic2(q).overall == PASS

    def test_zero_passes(self):
        assert check_quadratic2(Quadratic2.make()).overall == PASS

    def test_negative_control(self):
        report = check_quadratic2(Quadratic2.make(B3_22="z"))
        assert report.overall == FAIL
        assert report.record("Eq53.1").residual == integer(-1)

    @pytest.mark.parametrize("values, expected", [
        (dict(B3_33="y"), ("0", "4/3", "1/3", "0")),
        (dict(B2_33="y"), ("0", "0", "0", "-1")),
        (dict(B3_22="z"), ("-1", "0", "0", "0")),
    ], ids=["B3_33", "B2_33", "B3_22"])
    def test_each_condition_is_pinned(self, values, expected):
        report = check_quadratic2(Quadratic2.make(**values))
        assert [r.condition_id for r in report.records] == [
            f"Eq53.{k}" for k in range(1, 5)]
        assert [r.residual for r in report.records] == [parse(e) for e in expected]

    def test_rejects_x_dependence(self):
        with pytest.raises(CoefficientDomainError):
            Quadratic2.make(B2_22="x")


class TestLinearPair:
    def test_isotropic_forcing_passes(self):
        l = Linear2.make(D2="exp(x)*y", D3="exp(x)*z")
        report = check_linear2(l)
        assert report.overall == PASS

    def test_anisotropic_forcing_fails(self):
        l = Linear2.make(D2="w1*y", D3="w2*z")
        report = check_linear2(l)
        assert report.overall == FAIL
        assert report.record("Eq55.3").residual == parse("w2 - w1")

    def test_shear_forcing_fails(self):
        l = Linear2.make(D2="z", D3="z")
        report = check_linear2(l)
        assert report.overall == FAIL
        assert report.record("Eq55.2").residual == integer(1)
        assert report.record("Eq55.3").residual == integer(1)

    @pytest.mark.parametrize("values, expected", [
        (dict(D3="y"), ("1", "0", "0")),
        (dict(D2="z"), ("0", "1", "0")),
        (dict(D2="w1*y", D3="w2*z"), ("0", "0", "w2 - w1")),
    ], ids=["D3", "D2", "anisotropic"])
    def test_each_condition_is_pinned(self, values, expected):
        report = check_linear2(Linear2.make(**values))
        assert [r.condition_id for r in report.records] == [
            f"Eq55.{k}" for k in range(1, 4)]
        assert [r.residual for r in report.records] == [parse(e) for e in expected]

    def test_rejects_nonconstant_velocity_terms(self):
        with pytest.raises(CoefficientDomainError):
            Linear2.make(C2_2="y")


class TestAppendix:
    def test_zero_system_zero_gauge(self):
        report = appendix_residuals(SystemCubic2.make())
        assert report.overall == PASS
        assert len(report.records) == 33

    def test_simple_pair_with_witness_gauge(self):
        report = appendix_residuals(SIMPLE_PAIR, WITNESS_GAUGE)
        assert report.overall == PASS
        assert all(r.residual.is_zero_literal() for r in report.records)

    def test_simple_pair_zero_gauge_is_not_a_witness(self):
        # the pair is linearizable, but the zero gauge does not embed it
        # in a flat connection; the defining equations notice
        report = appendix_residuals(SIMPLE_PAIR)
        assert report.overall == FAIL
        assert report.record("EqA2.9").residual == rational(1, 2)

    def test_worked_pair_with_witness_gauge(self):
        report = appendix_residuals(WORKED_PAIR, WITNESS_GAUGE)
        assert report.overall == PASS

    def test_forced_pair_fails_gauge_free_line(self):
        report = appendix_residuals(FORCED_PAIR)
        assert report.overall == FAIL
        assert report.record("EqA2.5").residual == integer(-1)

    def test_pairwise_records_are_gauge_independent(self):
        rng = random.Random(21)
        fields = ("A22", "A23", "A33", "B2_22", "B2_23", "B2_33", "B3_22",
                  "B3_23", "B3_33", "C2_2", "C2_3", "C3_2", "C3_3", "D2", "D3")
        system = SystemCubic2.make(**{
            name: random_polynomial(rng, names=("x", "y", "z"), terms=2)
            for name in fields})
        pair_ids = [f"Eq{a}-{b}" for a, b in (
            ("A1.6", "A2.1"), ("A1.3", "A3.1"), ("A2.2", "A3.2"),
            ("A1.4", "A2.3"), ("A1.9", "A2.7"), ("A1.9", "A2.8"),
            ("A2.7", "A2.8"), ("A1.8", "A3.3"), ("A2.9", "A3.4"))]
        reports = []
        for _ in range(2):
            gauge = SystemGauge(
                G1_12=random_polynomial(rng, names=("x", "y", "z")),
                G2_12=random_polynomial(rng, names=("x", "y", "z")),
                G3_33=random_polynomial(rng, names=("x", "y", "z")),
            )
            reports.append(appendix_residuals(system, gauge))
        for pid in pair_ids:
            assert reports[0].record(pid).residual == reports[1].record(pid).residual


class TestRemark:
    def test_symbolic_identity(self):
        q = Quadratic2(
            B2_22=generic_function("a"), B2_23=generic_function("b"),
            B2_33=generic_function("c"), B3_22=generic_function("d"),
            B3_23=generic_function("e"), B3_33=generic_function("f"),
        )
        report = remark_mapping(q)
        assert report.overall == PASS
        assert all(r.residual.is_zero_literal() for r in report.records)

    def test_zero_case(self):
        assert remark_mapping(Quadratic2.make()).overall == PASS

    def test_identity_is_not_vacuous(self):
        # every quadratic condition is nonzero on the generic pair, so the
        # four vanishing differences compare nonzero residuals
        q = Quadratic2(
            B2_22=generic_function("a"), B2_23=generic_function("b"),
            B2_33=generic_function("c"), B3_22=generic_function("d"),
            B3_23=generic_function("e"), B3_33=generic_function("f"),
        )
        assert all(not res.is_zero_literal() for _, res in quadratic2_residuals(q))
        assert remark_mapping(q).overall == PASS


class TestEmbeddings:
    @pytest.mark.parametrize("kernels", [False, True], ids=["polynomial", "kernel"])
    def test_restricted_shapes_leave_only_their_own_lines(self, kernels):
        # the quadratic and linear conditions are lines of the fifteen on
        # the cubic embedding; every other line vanishes canonically there,
        # and each check's records print as its lines, built alone
        rng = random.Random(53)

        def coefficient(names):
            if kernels:
                return random_expr(rng, depth=2, names=names)
            return random_polynomial(rng, names=names, terms=3)

        for _ in range(25):
            q = Quadratic2.make(**{k: coefficient(("y", "z")) for k in Quadratic2.keys()})
            l = Linear2.make(
                **{k: coefficient(("x",)) for k in ("C2_2", "C2_3", "C3_2", "C3_3")},
                **{k: coefficient(("x", "y", "z")) for k in ("D2", "D3")})
            for shape, kept in ((q, (8, 9, 11, 13)), (l, (1, 4, 12))):
                for cid, res in cubic2_residuals(shape.as_cubic()):
                    if int(cid.split(".")[1]) not in kept:
                        assert res.is_zero_literal(), (cid, str(res))
            lines = [res for _, res in cubic2_residuals(q.as_cubic())]
            assert [(cid, str(res)) for cid, res in quadratic2_residuals(q)] == [
                (f"Eq53.{k}", str(lines[i - 1])) for k, i in enumerate((11, 13, 8, 9), start=1)]
            lines = [res for _, res in cubic2_residuals(l.as_cubic())]
            assert [(cid, str(res)) for cid, res in linear2_residuals(l)] == [
                (f"Eq55.{k}", str(-lines[i - 1])) for k, i in enumerate((1, 4, 12), start=1)]

    @pytest.mark.parametrize("doc, built", [("sys-ex1", 3), ("sys-ex3-quad", 4)])
    def test_one_restricted_check_expands_only_its_lines(self, doc, built):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        code = ("import contextlib, io, geolin.cli, geolin.criteria as c\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    geolin.cli.main(['check', 'corpus/{doc}.ini'])\n"
                "print(c._line_terms.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) == built

    def test_linear_embedding_check(self):
        l = Linear2.make(D2="z", D3="z")
        report = check_cubic2(l.as_cubic())
        assert report.overall == FAIL
        assert report.record("Eq51.4").residual == integer(-1)

    def test_quadratic_embedding_check(self):
        q = Quadratic2.make(B2_22=1, B3_33=1)
        assert check_cubic2(q.as_cubic()).overall == PASS


XYZ = ("x", "y", "z")


def random_pair_and_gauge(rng, kernels):
    def coefficient():
        if kernels:
            return random_expr(rng, depth=2, names=XYZ)
        return random_polynomial(rng, names=XYZ, terms=3)

    pair = SystemCubic2.make(**{k: coefficient() for k in SystemCubic2.keys()})
    return pair, SystemGauge(*(coefficient() for _ in SystemGauge.keys()))


class TestDerivedTables:
    """The Eq51 and appendix lines are combinations of the curvature of
    the lift; the hand transcription and geometry.riemann are oracles."""

    @pytest.mark.parametrize("kernels, shapes", [(False, 8), (True, 4)],
                             ids=["polynomial", "kernel"])
    def test_transcription_agrees_except_the_index_slip(self, kernels, shapes):
        rng = random.Random(71)
        for _ in range(shapes):
            s, gauge = random_pair_and_gauge(rng, kernels)
            derived = cubic2_residuals(s) + [
                (r.condition_id, r.residual) for r in appendix_residuals(s, gauge).records]
            transcribed = transcribed_cubic2_residuals(s) + transcribed_appendix_residuals(s, gauge)
            # the transcribed EqA2.3 has B223 * D2 where the curvature
            # gives B323 * D2
            slip = s.D2 * (s.B3_23 - s.B2_23)
            assert [cid for cid, _ in derived] == [cid for cid, _ in transcribed]
            for (cid, new), (_, old) in zip(derived, transcribed):
                expected = -slip if cid in ("EqA2.3", "EqA1.4-A2.3") else ZERO
                assert is_zero(new - old - expected).verdict is Verdict.ZERO, cid

    def test_integer_pairs_multiply_ints_only(self, monkeypatch):
        # each curvature line is one sum_of_products that scales its
        # weights to ints, so over integer pairs and gauges no product
        # multiplies a Fraction coefficient
        calls = []
        mul_into = core._p_mul_into

        def recording(acc, p1, p2, w=1):
            calls.append((w, p1, p2))
            mul_into(acc, p1, p2, w)

        monkeypatch.setattr(core, "_p_mul_into", recording)
        rng = random.Random(74)
        for _ in range(4):
            s, gauge = random_pair_and_gauge(rng, kernels=False)
            assert check_cubic2(s).records
            assert appendix_residuals(s, gauge).records
        assert calls
        for w, p1, p2 in calls:
            assert w.__class__ is int
            assert all(c.__class__ is int for c in (*p1.values(), *p2.values()))

    def test_integral_weights_are_ints(self):
        # sum_of_products re-normalizes an integral Fraction weight, so the
        # test above cannot see one, but it then takes its Fraction branch
        weights = [w for _, _, terms in transform._FAMILIES.values() for w, *_ in terms]
        for _, scalar, slots in transform._normal_form_plan()[0]:
            weights += [w for _, w in scalar] + [c for *_, w, w_gamma in slots for c in (w, w_gamma)]
        for line in (*_EQ51, *_APPENDIX.values()):
            derivs, products = criteria._line_terms(line)
            weights += [c for *_, c in derivs + products]
        assert {w.__class__ for w in weights} == {int, Fraction}
        assert [w for w in weights if w.denominator == 1 and w.__class__ is not int] == []

    def test_appendix_pairs_are_read_off_the_gauge_derivatives(self):
        # 17 lines define one gauge derivative each, 7 (lines of the
        # fifteen) define none, and the pairs are the lines that define
        # the same one
        gauge = SystemGauge.keys()
        defined = {label: [(name, coord) for name, coord, _ in criteria._line_terms(line)[0]
                           if name in gauge] for label, line in _APPENDIX.items()}
        assert {label: terms[0] for label, terms in defined.items() if len(terms) == 1} == {
            label: (gauge[slot], coord) for label, (slot, coord) in TRANSCRIBED_APPENDIX_SLOTS.items()}
        assert [label for label, terms in defined.items() if not terms] == [
            label for label, free in TRANSCRIBED_APPENDIX_ORDER if free is not None]
        assert len(TRANSCRIBED_APPENDIX_SLOTS) == 17
        assert criteria._appendix_pairs() == tuple(TRANSCRIBED_APPENDIX_PAIRS)

    def test_fraction_coefficients_agree_with_the_transcription(self):
        # a pair with Fraction coefficients gives Fraction operands to the
        # flat sum_of_products terms, whose weights are Fractions here too
        rng = random.Random(73)
        for _ in range(4):
            s = SystemCubic2.make(**{
                key: rational(rng.randint(-5, 5), rng.choice((2, 3, 6, 7)))
                * random_polynomial(rng, names=XYZ, terms=3)
                for key in SystemCubic2.keys()})
            for (cid, new), (_, old) in zip(cubic2_residuals(s), transcribed_cubic2_residuals(s)):
                assert is_zero(new - old).verdict is Verdict.ZERO, cid

    def test_each_line_is_its_combination_of_riemann(self):
        rng = random.Random(72)
        for _ in range(3):
            s, gauge = random_pair_and_gauge(rng, kernels=False)
            curvature = dict(riemann(lift_system(s, gauge)).labelled())

            def combination(text):
                line = parse(text)
                return sum((curvature[label] * line.diff(label)
                            for label in sorted(line.variables())), ZERO)

            # the gauge cancels from the fifteen lines, read at zero gauge
            assert [res for _, res in cubic2_residuals(s)] == list(map(combination, _EQ51))
            report = appendix_residuals(s, gauge)
            for label, text in _APPENDIX.items():
                assert report.record(f"Eq{label}").residual == combination(text), label

    def test_flat_lifts_of_random_maps_pass(self):
        # the Euclidean connection pulled back along a map is flat, and at
        # the pulled-back gauge its projection passes the whole table;
        # the transcribed EqA2.3 fails here wherever D2*(B3_23 - B2_23) != 0
        rng = random.Random(3)
        slips = 0
        for _ in range(8):
            t = random_invertible_map(rng)
            gamma = christoffel_from_metric(pullback_metric(t, Metric.identity(3)))
            s = project(gamma)
            gauge = SystemGauge(gamma.gamma(1, 1, 2), gamma.gamma(2, 1, 2), gamma.gamma(3, 3, 3))
            assert lift_system(s, gauge) == gamma
            # every stored entry, also those no Bianchi sum involves
            assert is_flat(gamma).overall == PASS
            assert appendix_residuals(s, gauge).overall == PASS
            slips += not (s.D2 * (s.B3_23 - s.B2_23)).is_zero_literal()
        assert slips >= 2
