"""Seeded input generators for the benchmark workloads.

The generators consume their random stream in exactly the order of the
acceptance suite's helpers, so ``closure_maps(31, 50)`` reproduces the
draws of the closure criterion: heavy draws at indices 5, 19 and 42 and
15 consistent normal forms.
"""

from __future__ import annotations

import dataclasses
import random

from geolin.geometry import Christoffel
from geolin.kernel import integer, var
from geolin.projection import ScalarCubic, ScalarGauge, SystemCubic2, SystemGauge
from geolin.transform import Transformation

XYZ = ("x", "y", "z")
_CONNECTION_SLOTS = [(i, j, k) for i in (1, 2, 3)
                     for (j, k) in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))]


def random_polynomial(rng: random.Random, names=("x", "y"), degree: int = 2, terms: int = 4):
    """Small random polynomial with integer coefficients in [-4, 4]."""
    acc = integer(0)
    for _ in range(terms):
        term = integer(rng.randint(-4, 4))
        for _ in range(rng.randint(0, degree)):
            term = term * var(rng.choice(names))
        acc = acc + term
    return acc


def random_invertible_map(rng: random.Random) -> Transformation:
    """Identity plus a two-term polynomial per component, redrawn until
    the Jacobian determinant is not the canonical zero."""
    while True:
        comps = [var(n) + random_polynomial(rng, names=XYZ, terms=2) for n in XYZ]
        t = Transformation.make(*comps)
        if not t.jacobian_determinant().is_zero_literal():
            return t


def closure_maps(draw_seed: int, draws: int) -> list:
    rng = random.Random(draw_seed)
    return [random_invertible_map(rng) for _ in range(draws)]


@dataclasses.dataclass(frozen=True)
class InvariantCase:
    """One invariants item: a cubic pair for the fifteen-condition test
    and a system lift, a scalar equation for a scalar lift, and a 3D
    connection for curvature and the first Bianchi identity."""

    pair: SystemCubic2
    pair_gauge: SystemGauge
    scalar: ScalarCubic
    scalar_gauge: ScalarGauge
    connection: Christoffel


def invariant_cases(seed: int, count: int) -> list:
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        pair = SystemCubic2.make(**{
            field.name: random_polynomial(rng, names=XYZ, terms=3)
            for field in dataclasses.fields(SystemCubic2)})
        pair_gauge = SystemGauge(*(random_polynomial(rng, names=XYZ) for _ in range(3)))
        scalar = ScalarCubic.make(**{
            name: random_polynomial(rng) for name in ("E0", "E1", "E2", "E3")})
        scalar_gauge = ScalarGauge(b=random_polynomial(rng), e=random_polynomial(rng))
        connection = Christoffel.from_components(3, {
            slot: random_polynomial(rng, names=XYZ, terms=2) for slot in _CONNECTION_SLOTS})
        cases.append(InvariantCase(pair, pair_gauge, scalar, scalar_gauge, connection))
    return cases
