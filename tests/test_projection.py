import dataclasses
import random
from itertools import combinations_with_replacement

from geolin.geometry import Christoffel, Geodesic2Coefficients, sym_key
from geolin.kernel import Expr, integer, parse, var
from geolin.projection import (
    ScalarCubic,
    ScalarGauge,
    SystemCubic2,
    SystemGauge,
    lift_scalar,
    lift_system,
    project,
    slope_slot,
)
from geolin.transform import _INDUCED

from helpers import (
    random_polynomial,
    swap_scalar_axes,
    typed_induced_terms,
    typed_lift_scalar,
    typed_lift_system,
    typed_project,
)


def random_scalar_cubic(rng) -> ScalarCubic:
    return ScalarCubic.make(**{
        name: random_polynomial(rng, names=("x", "y"))
        for name in ("E0", "E1", "E2", "E3")
    })


def random_system_cubic(rng) -> SystemCubic2:
    names = [f.name for f in dataclasses.fields(SystemCubic2)]
    return SystemCubic2.make(**{
        name: random_polynomial(rng, names=("x", "y", "z"), terms=3)
        for name in names
    })


class TestScalarRoundTrip:
    def test_lift_then_project_zero_gauge(self):
        rng = random.Random(11)
        for _ in range(20):
            cubic = random_scalar_cubic(rng)
            again = project(lift_scalar(cubic).as_christoffel())
            assert again == cubic

    def test_lift_then_project_random_gauge(self):
        # the gauge entries must drop out of the projection exactly
        rng = random.Random(12)
        for _ in range(20):
            cubic = random_scalar_cubic(rng)
            gauge = ScalarGauge(
                b=random_polynomial(rng),
                e=random_polynomial(rng),
            )
            again = project(lift_scalar(cubic, gauge).as_christoffel())
            assert again == cubic

    def test_lift_places_gauge_entries(self):
        gauge = ScalarGauge.make(b="x", e="y^2")
        coef = lift_scalar(ScalarCubic.make(), gauge)
        assert coef.b == var("x")
        assert coef.e == parse("y^2")

    def test_worked_flat_equation(self):
        # y'' + y'^3 - y' = 0 lifted at b=0, e=1
        cubic = ScalarCubic.make(E1=-1, E3=1)
        coef = lift_scalar(cubic, ScalarGauge.make(b=0, e=1))
        assert coef == Geodesic2Coefficients.make(a=1, c=1, e=1)
        assert project(coef.as_christoffel()) == cubic


class TestSystemRoundTrip:
    def test_lift_then_project_zero_gauge(self):
        rng = random.Random(13)
        for _ in range(20):
            system = random_system_cubic(rng)
            assert project(lift_system(system)) == system

    def test_lift_then_project_random_gauge(self):
        rng = random.Random(14)
        for _ in range(20):
            system = random_system_cubic(rng)
            gauge = SystemGauge(
                G1_12=random_polynomial(rng, names=("x", "y", "z")),
                G2_12=random_polynomial(rng, names=("x", "y", "z")),
                G3_33=random_polynomial(rng, names=("x", "y", "z")),
            )
            assert project(lift_system(system, gauge)) == system

    def test_lift_places_gauge_entries(self):
        gauge = SystemGauge.make(G1_12="x", G2_12="y", G3_33="z")
        gamma = lift_system(SystemCubic2.make(), gauge)
        assert gamma.gamma(1, 1, 2) == var("x")
        assert gamma.gamma(2, 1, 2) == var("y")
        assert gamma.gamma(3, 3, 3) == var("z")

    def test_worked_lift(self):
        system = SystemCubic2.make(
            A22="x/y + x/y^2",
            B2_22=1,
            C2_2="1/x",
            B3_23=1,
            B3_33=1,
            C3_3="1/x",
        )
        gamma = lift_system(system)
        assert gamma.gamma(2, 2, 2) == integer(1)
        assert gamma.gamma(3, 2, 3) == integer(1)
        assert gamma.gamma(1, 2, 2) == parse("-(x/y + x/y^2)")
        # identical first-derivative coefficients leave this slot empty
        assert gamma.gamma(3, 1, 3).is_zero_literal()
        assert project(gamma) == system


class TestAxisSwap:
    def test_involution(self):
        rng = random.Random(15)
        for _ in range(10):
            cubic = random_scalar_cubic(rng)
            assert swap_scalar_axes(swap_scalar_axes(cubic)) == cubic

    def test_constant_coefficients(self):
        cubic = ScalarCubic.make(E1=-1, E3=1)
        swapped = swap_scalar_axes(cubic)
        assert swapped == ScalarCubic.make(E0=-1, E2=1)

    def test_coefficients_are_renamed(self):
        cubic = ScalarCubic.make(E0="y^2")
        assert swap_scalar_axes(cubic).E3 == parse("-x^2")


class TestShapes:
    def test_slot_counts(self):
        assert len(dataclasses.fields(ScalarCubic)) == 4
        assert len(dataclasses.fields(SystemCubic2)) == 15

    def test_make_rejects_unknown_names(self):
        try:
            SystemCubic2.make(B1_11=1)
        except TypeError as err:
            assert "B1_11" in str(err)
        else:
            raise AssertionError("expected TypeError")

    def test_indexed_accessors(self):
        # a symmetric index tuple names the field whose suffix is sym_key
        assert sym_key(3, 2, 2) == "223" and sym_key(3, 2) == "23"


# coefficient shapes beyond polynomials: kernels, denominators and rationals
_SHAPES = ("exp(x)/(1 + y)", "sqrt(x^2 + 1)", "1/(x - y)", "sin(y)/3", "2/7")


def mixed_coefficient(rng, names) -> Expr:
    """A random polynomial, half of the time plus one of _SHAPES times
    another, a third of the time over 1 + a square."""
    e = random_polynomial(rng, names=names, terms=3)
    if rng.random() < 0.5:
        e = e + parse(rng.choice(_SHAPES)) * random_polynomial(rng, names=names, terms=2)
    if rng.random() < 0.3:
        e = e / (1 + random_polynomial(rng, names=names, terms=2) ** 2)
    return e


def printed(values) -> list:
    return [str(value) for value in values]


class TestDerivedTables:
    """project and both lifts read off the geodesic formula print exactly
    what the hand-typed tables did."""

    def test_project_matches_the_typed_entries(self):
        rng = random.Random(21)
        for dim in (2, 3):
            names = ("x", "y", "z")[:dim]
            for _ in range(15):
                gamma = Christoffel(dim, tuple(
                    mixed_coefficient(rng, names) for _ in range(dim * dim * (dim + 1) // 2)))
                derived, typed = project(gamma), typed_project(gamma)
                assert type(derived) is type(typed)
                assert printed(derived.entries().values()) == printed(typed.entries().values())

    def test_lift_scalar_matches_the_typed_entries(self):
        rng = random.Random(22)
        for n in range(20):
            cubic = ScalarCubic(*(mixed_coefficient(rng, ("x", "y")) for _ in range(4)))
            gauge = ScalarGauge.make() if n % 2 else ScalarGauge(
                *(mixed_coefficient(rng, ("x", "y")) for _ in range(2)))
            assert printed(lift_scalar(cubic, gauge).entries().values()) == \
                printed(typed_lift_scalar(cubic, gauge).entries().values())

    def test_lift_system_matches_the_typed_entries(self):
        rng = random.Random(23)
        for n in range(20):
            system = SystemCubic2(*(mixed_coefficient(rng, ("x", "y", "z")) for _ in range(15)))
            gauge = SystemGauge.make() if n % 2 else SystemGauge(
                *(mixed_coefficient(rng, ("x", "y", "z")) for _ in range(3)))
            assert printed(lift_system(system, gauge).entries) == \
                printed(typed_lift_system(system, gauge).entries)

    def test_induced_table_matches_the_typed_slot_loop(self):
        assert _INDUCED == typed_induced_terms()

    def test_slope_slot_reaches_every_field_and_nothing_else(self):
        # every (equation, slope monomial of degree <= 3) pair of a dimension
        for dim, cls in ((2, ScalarCubic), (3, SystemCubic2)):
            monomials = [K for n in range(4)
                         for K in combinations_with_replacement((2, 3), n)]
            slots = {(i, K): slope_slot(dim, i, K)
                     for i in range(2, dim + 1) for K in monomials}
            reached = {slot[1] for slot in slots.values() if slot}
            assert reached == set(cls.keys())
            # the three A_kl of a pair are shared by both equations, and
            # every other slot holds one monomial of one equation
            shared = 3 if dim == 3 else 0
            assert sum(1 for slot in slots.values() if slot) == len(cls.keys()) + shared
            assert all(slot is None for (i, K), slot in slots.items() if max(K, default=2) > dim)

    def test_slope_slot_weights(self):
        assert slope_slot(2, 2, (2, 2, 2)) == (1, "E3")
        assert slope_slot(3, 2, ()) == (1, "D2")
        assert slope_slot(3, 3, (2,)) == (1, "C3_2")
        assert slope_slot(3, 2, (2, 3)) == (2, "B2_23")
        # y'^2 z' in the y equation is 2 A23 y'z' times y'; in the z equation A22 y'^2 times z'
        assert slope_slot(3, 2, (2, 2, 3)) == (2, "A23")
        assert slope_slot(3, 3, (2, 2, 3)) == (1, "A22")
        assert slope_slot(3, 2, (3, 3, 3)) is None
