"""Acceptance checks, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Everything is
exercised at the default zero-test settings (16 points, 256 bits,
1e-30 relative tolerance, seed 0); timed criteria assert their stated
wall-clock budgets.
"""

import dataclasses
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from geolin.cli import main
from geolin.criteria import (
    Linear2,
    Quadratic2,
    check_cubic2,
    check_linear2,
    check_quadratic2,
    lie_gauge_residuals,
    linear2_residuals,
    remark_mapping,
    tresse_scalar,
)
from geolin.document import load_document
from geolin.geometry import (
    Christoffel,
    Metric,
    christoffel_from_metric,
    first_bianchi_residuals,
    is_flat,
    metric_pde_residuals,
    riemann,
)
from geolin.kernel import (
    Verdict,
    eval_expr,
    integer,
    parse,
    sin,
    var,
)
from geolin.projection import (
    ScalarCubic,
    ScalarGauge,
    SystemCubic2,
    SystemGauge,
    lift_scalar,
    lift_system,
    project,
)
from geolin.report import FAIL, PASS, evaluate_conditions
from geolin.transform import (
    GeneralSystem2,
    Transformation,
    coefficients_from_transformation,
    linearization_residuals,
    normal_form,
    pullback_metric,
    verify_linearizing_transformation,
)

from helpers import random_invertible_map, random_polynomial

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus(name: str):
    return load_document(str(CORPUS / f"{name}.ini"))


def all_zero_records(report):
    for record in report.records:
        assert record.result.verdict is Verdict.ZERO, record.condition_id
        assert record.residual.is_zero_literal(), record.condition_id


def test_criterion_01_scalar_invariant_suite():
    for name in ("lie-ex1", "lie-ex2"):
        started = time.perf_counter()
        report = tresse_scalar(corpus(name).system())
        assert time.perf_counter() - started < 1.0
        assert report.overall == PASS
        all_zero_records(report)
    started = time.perf_counter()
    report = tresse_scalar(corpus("lie-counter").system())
    assert time.perf_counter() - started < 1.0
    assert report.overall == FAIL
    assert report.records[1].residual == integer(6)


def test_criterion_02_gauge_witness_suite():
    ex1 = corpus("lie-ex1")
    report = lie_gauge_residuals(ex1.system(), ex1.gauge())
    assert report.overall == PASS
    all_zero_records(report)
    ex2 = corpus("lie-ex2")
    report = lie_gauge_residuals(ex2.system(), ex2.gauge())
    assert report.overall == PASS
    all_zero_records(report)
    control = lie_gauge_residuals(ex1.system(), ScalarGauge.make())
    assert control.overall == FAIL
    assert control.record("Eq9.2").residual == integer(-1)


def test_criterion_03_pair_invariant_suite():
    started = time.perf_counter()
    report = check_cubic2(corpus("sys-ex4").system())
    assert time.perf_counter() - started < 10.0
    assert report.overall == PASS
    assert len(report.records) == 15
    all_zero_records(report)
    report = check_cubic2(corpus("sys-ex3").system())
    assert report.overall == PASS
    all_zero_records(report)
    report = check_cubic2(corpus("sys-ex2-cubic").system())
    assert report.overall == FAIL
    assert report.record("Eq51.4").result.verdict is Verdict.NONZERO


def test_criterion_04_restricted_shape_suites():
    aniso = corpus("sys-ex1").system()
    residuals = dict(linear2_residuals(aniso))
    assert residuals["Eq55.3"] == parse("w2 - w1")
    assert check_linear2(aniso).overall == FAIL
    iso = corpus("sys-ex1-iso").system()
    report = check_linear2(iso)
    assert report.overall == PASS
    all_zero_records(report)

    def generic(prefix):
        terms = parse("0")
        for k, mono in enumerate(("1", "y", "z", "y^2", "y*z", "z^2")):
            terms = terms + var(f"{prefix}{k}") * parse(mono)
        return terms

    symbolic = Quadratic2.make(**{
        name: generic(f"c{idx}_")
        for idx, name in enumerate(
            n.name for n in dataclasses.fields(Quadratic2))
    })
    report = remark_mapping(symbolic)
    assert report.overall == PASS
    all_zero_records(report)


def test_criterion_05_transformation_suite():
    pairs = [
        (corpus("sys-ex3").system(), corpus("sys-ex3").transformation()),
        (corpus("sys-ex4").system(), corpus("sys-ex4").transformation()),
        (corpus("sys-ex5").system(), corpus("sys-ex5").transformation()),
        (corpus("lie-ex1").system(), corpus("lie-ex1").transformation()),
        (corpus("lie-ex2").system(), corpus("lie-ex2").transformation()),
    ]
    for system, candidate in pairs:
        started = time.perf_counter()
        result = verify_linearizing_transformation(system, candidate)
        assert time.perf_counter() - started < 5.0
        assert result.overall == PASS, result
    started = time.perf_counter()
    control = verify_linearizing_transformation(
        SystemCubic2.make(D2="z", D3="z"), Transformation.identity(3))
    assert time.perf_counter() - started < 5.0
    assert control.overall == FAIL


def test_criterion_06_metric_suite():
    ex2 = corpus("lie-ex2")
    coef = lift_scalar(ex2.system(), ex2.gauge())
    report = metric_pde_residuals(coef, ex2.metric())
    assert report.overall == PASS
    all_zero_records(report)
    assert report.fact("degenerate") == "no"
    assert pullback_metric(ex2.transformation(), Metric.identity(2)) == ex2.metric()

    ex1 = corpus("lie-ex1")
    coef = lift_scalar(ex1.system(), ex1.gauge())
    printed = ex1.metric()
    report = metric_pde_residuals(coef, printed)
    assert report.overall == PASS
    all_zero_records(report)
    assert printed.determinant().is_zero_literal()
    assert report.fact("degenerate") == "yes"
    pulled = pullback_metric(ex1.transformation(), Metric.identity(2))
    assert pulled != printed
    other = metric_pde_residuals(coef, pulled)
    assert other.overall == PASS
    all_zero_records(other)
    assert other.fact("degenerate") == "no"


def test_criterion_07_round_trip_property():
    started = time.perf_counter()
    rng = random.Random(71)
    for _ in range(100):
        cubic = ScalarCubic.make(**{
            name: random_polynomial(rng, names=("x", "y"))
            for name in ("E0", "E1", "E2", "E3")})
        gauge = ScalarGauge(b=random_polynomial(rng), e=random_polynomial(rng))
        assert project(lift_scalar(cubic, gauge).as_christoffel()) == cubic
    for _ in range(100):
        pair = SystemCubic2.make(**{
            field.name: random_polynomial(rng, names=("x", "y", "z"), terms=3)
            for field in dataclasses.fields(SystemCubic2)})
        gauge = SystemGauge(
            G1_12=random_polynomial(rng, names=("x", "y", "z")),
            G2_12=random_polynomial(rng, names=("x", "y", "z")),
            G3_33=random_polynomial(rng, names=("x", "y", "z")),
        )
        assert project(lift_system(pair, gauge)) == pair
    assert time.perf_counter() - started < 30.0


def test_criterion_08_curvature_properties():
    rng = random.Random(81)
    for _ in range(50):
        entries = {
            (i, j, k): random_polynomial(rng, names=("x", "y", "z"), terms=2)
            for i in (1, 2, 3)
            for (j, k) in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
        }
        curv = riemann(Christoffel.from_components(3, entries))
        for residual in first_bianchi_residuals(curv):
            assert residual.is_zero_literal()
    ex2 = corpus("lie-ex2")
    lifted = lift_scalar(ex2.system(), ex2.gauge()).as_christoffel()
    for _, component in riemann(lifted).labelled():
        assert component.is_zero_literal()
    sphere = christoffel_from_metric(Metric.plane(1, 0, sin(var("x")) ** 2))
    report = is_flat(sphere)
    assert report.overall == FAIL
    assert all(record.result.witness is not None for record in report.records
               if record.verdict is Verdict.NONZERO)


def test_criterion_09_closure_property():
    # three pools of 50 maps; each pool's count of consistent normal forms
    # is pinned, so a verdict that flips either way fails the test
    for pool, expected in ((31, 15), (1, 18), (2, 21)):
        rng = random.Random(pool)
        consistent = 0
        for _ in range(50):
            candidate = random_invertible_map(rng)
            system = coefficients_from_transformation(candidate)
            result = verify_linearizing_transformation(system, candidate)
            assert result.overall == PASS, result
            cubic, report = normal_form(system)
            if report.overall == PASS:
                consistent += 1
                assert check_cubic2(cubic).overall == PASS
        assert consistent == expected, pool


def test_criterion_10_count_assertions():
    assert len(Christoffel.from_components(2, {}).entries) == 6
    assert len(Christoffel.from_components(3, {}).entries) == 18
    assert len(dataclasses.fields(SystemCubic2)) == 15
    assert len(dataclasses.fields(GeneralSystem2)) == 26


def _corpus_reports():
    """Every condition report the corpus can produce, one pass."""
    from geolin.criteria import appendix_residuals
    from geolin.geometry import metric_pde_residuals
    reports = []
    for path in sorted(CORPUS.glob("*.ini")):
        doc = load_document(str(path))
        system = doc.system()
        if doc.kind == "scalar-cubic":
            reports.append(tresse_scalar(system))
            reports.append(lie_gauge_residuals(system, doc.gauge()))
        elif doc.kind == "cubic-2":
            reports.append(check_cubic2(system))
            reports.append(appendix_residuals(system, doc.gauge()))
        elif doc.kind == "quadratic-2":
            reports.append(check_quadratic2(system))
        elif doc.kind == "linear-2":
            reports.append(check_linear2(system))
        elif doc.kind == "general-2":
            reports.append(normal_form(system)[1])
        candidate = doc.transformation()
        if candidate is not None:
            reports.append(evaluate_conditions(
                linearization_residuals(system, candidate)))
        metric = doc.metric()
        if metric is not None:
            coef = lift_scalar(system, doc.gauge())
            reports.append(metric_pde_residuals(coef, metric))
    return reports


def test_criterion_11_soundness_guard(capsys):
    checked = 0
    for report in _corpus_reports():
        for record in report.records:
            result = record.result
            if record.residual.is_zero_literal():
                assert result.verdict is Verdict.ZERO, record.condition_id
            if result.verdict is Verdict.NONZERO:
                assert not record.residual.is_zero_literal(), record.condition_id
                point = {name: Fraction(text)
                         for name, text in (result.witness or {}).items()}
                value, _ = eval_expr(record.residual, point, 512)
                assert abs(value) > 1e-30, record.condition_id
            checked += 1
    assert checked > 100

    command_by_kind = {
        "scalar-cubic": "check", "cubic-2": "check", "quadratic-2": "check",
        "linear-2": "check", "general-2": "normal-form",
    }
    for path in sorted(CORPUS.glob("*.ini")):
        doc = load_document(str(path))
        argv = [command_by_kind[doc.kind], str(path), "--format", "json"]
        first_code = main(argv)
        first = capsys.readouterr().out
        second_code = main(argv)
        second = capsys.readouterr().out
        assert first_code == second_code
        assert first == second
        json.loads(first)
