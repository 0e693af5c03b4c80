"""normal_form against its fraction-chain oracle.

`transform.normal_form` solves one slope monomial K at a time off the
family and slot tables, each slot through gamma = J^-1 (G2_23, G3_23),
and reads each shared A_kl from equation k at K = (k, k, l);
`helpers.fraction_chain_normal_form` is the level-by-level definition it
rearranges, with the same A_kl rule.  On polynomial maps the kernel's
reduced fractions are canonical, so the two agree byte for byte, also on
pairs that no cubic reproduces, where the A_kl rule shows.  Over kernels
a gcd can stop short, so a printed form may differ; the difference must
then be the canonical zero.
"""

import random

import pytest

from geolin.criteria import check_cubic2
from geolin.kernel import rational, var
from geolin.report import PASS
from geolin.transform import (
    DegenerateJacobianError,
    GeneralSystem2,
    coefficients_from_transformation,
    normal_form,
)

from helpers import fraction_chain_normal_form, kernel_maps, random_invertible_map


@pytest.fixture(scope="module")
def closure_pools():
    """(system, normal form) for every map of closure pools 31, 1 and 2."""
    out = []
    for pool in (31, 1, 2):
        rng = random.Random(pool)
        for _ in range(50):
            system = coefficients_from_transformation(random_invertible_map(rng))
            out.append((system, normal_form(system)))
    return out


@pytest.fixture(scope="module")
def bumped_pool():
    """(system, normal form) for every pool-31 map, once with Del2_233 + x
    and once with Del3_223 + y: pairs that no cubic reproduces, so the
    equation and K that each shared A_kl is read from show in its bytes."""
    out = []
    for field, bump in (("Del2_233", "x"), ("Del3_223", "y")):
        rng = random.Random(31)
        for _ in range(50):
            entries = coefficients_from_transformation(random_invertible_map(rng)).entries()
            entries[field] = entries[field] + var(bump)
            system = GeneralSystem2(**entries)
            out.append((system, normal_form(system)))
    return out


def _records(report):
    return [(r.condition_id, str(r.residual), r.verdict, r.result.witness)
            for r in report.records]


def test_closure_pools_match_the_fraction_chain(closure_pools, bumped_pool):
    for system, (cubic, report) in closure_pools + bumped_pool:
        want_cubic, want_report = fraction_chain_normal_form(system)
        assert cubic.entries() == want_cubic.entries()
        assert _records(report) == _records(want_report)
        assert report.overall == want_report.overall
        assert report.fact("det J") == want_report.fact("det J")


def test_closure_pools_lam_mismatch_is_the_g_term_of_the_trace(closure_pools):
    """What the closure FAILs come from: only the mixed Lam records are
    nonzero, by +-G{i}_23 (C2_2 + C3_3)/2, so they cancel when summed
    over both index orderings.  This pins the per-ordering records; it
    moves with ROADMAP item 1, which scores each slope monomial once."""
    half = rational(1, 2)
    mixed_labels = {f"Eqr55.Lam{i}_{kl}" for i in (2, 3) for kl in ("23", "32")}
    for system, (cubic, report) in closure_pools:
        for i in (2, 3):
            mixed = half * getattr(system, f"G{i}_23") * (cubic.C2_2 + cubic.C3_3)
            assert report.record(f"Eqr55.Lam{i}_23").residual == mixed
            assert report.record(f"Eqr55.Lam{i}_32").residual == -mixed
        for record in report.records:
            label = record.condition_id
            if label.startswith("Eqr55.") and label not in mixed_labels:
                assert record.residual.is_zero_literal(), label


def test_kernel_maps_differ_from_the_fraction_chain_by_zero():
    reduced = 0
    for t in kernel_maps():
        system = coefficients_from_transformation(t)
        try:
            want_cubic, want_report = fraction_chain_normal_form(system)
        except DegenerateJacobianError:
            with pytest.raises(DegenerateJacobianError):
                normal_form(system)
            continue
        cubic, report = normal_form(system)
        assert report.overall == want_report.overall
        assert [r.verdict for r in report.records] == [r.verdict for r in want_report.records]
        pairs = list(zip(cubic.entries().values(), want_cubic.entries().values()))
        pairs += [(r.residual, w.residual) for r, w in zip(report.records, want_report.records)]
        differs = [(got, want) for got, want in pairs if str(got) != str(want)]
        for got, want in differs:
            assert (got - want).is_zero_literal()
        reduced += bool(differs)
    # the sweep reaches fractions whose gcd stops short
    assert reduced


def test_kernel_map_normal_form_cubic_passes():
    # sqrt map 1: the fraction chain's cubic ran past 60 s in check_cubic2
    t = kernel_maps(2)[1]
    cubic, _ = normal_form(coefficients_from_transformation(t))
    assert check_cubic2(cubic).overall == PASS
