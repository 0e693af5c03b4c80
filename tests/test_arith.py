"""Arithmetic that skips the gcds canonical form already decides.

Two reduced kernel-free pairs multiply, divide and raise to powers into
coprime pairs once their cross-cancellations are done, so the kernel
skips the final gcd there.  A sum over unequal denominators skips none:
it runs gcd(b, d) for the lcm and then the final gcd.  These tests
compare each result with the full normalization of the raw, unskipped
pair, and check that kernels, operands whose own gcd stopped at the
size guard, and cross gcds that stop there still take the full path.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from geolin.kernel import core, exp, gcd, integer, sqrt, var
from helpers import random_polynomial, zz_heu_gcd

x, y, z, w = (var(n) for n in "xyzw")
# six more generators: two factors S + p share seven generators, past the
# gcd size guard of six
S = sum((var(f"x{i}") for i in range(1, 7)), integer(0))


def _linear(rng):
    while True:
        p = random_polynomial(rng, names=("x", "y", "z"), degree=1, terms=2)
        if not p.is_rational():
            return p


def _factor_pool(rng):
    pool = []
    while len(pool) < 5:
        p = random_polynomial(rng, names=("x", "y", "z"), degree=2, terms=3)
        if not p.is_rational():
            pool.append(p)
    return pool


def _fraction(rng, pool):
    """A rational function whose factors come from a shared pool, so two
    draws often share factors across numerator and denominator."""
    num = random_polynomial(rng, names=("x", "y", "z"), degree=1, terms=2)
    if num.is_zero_literal():
        num = integer(rng.choice((-3, 2, 5)))
    den = integer(rng.choice((1, 2, -3, 6)))
    for _ in range(rng.randint(0, 2)):
        num = num * rng.choice(pool)
    for _ in range(rng.randint(1, 2)):
        den = den * rng.choice(pool)
    return num / den


def _full(num, den):
    """The full normalization of a raw pair, final gcd included."""
    return core._mk(num, den)


def _same(e, num, den):
    """e is the full normalization of the raw pair num / den.

    Where that normalization's gcd stops at the size guard, the smaller
    gcds of the skipping path may still cancel a factor, so e need only
    be the same function there.
    """
    *_, whole = core._p_gcd(num, den)
    if whole:
        expected = _full(num, den)
        assert (e.num, e.den) == (expected.num, expected.den)
        return
    # the same function: equal cross products at random integer points
    rng = random.Random(0)
    for _ in range(3):
        point = {}
        left = _value(e.num, point, rng) * _value(den, point, rng)
        assert left == _value(num, point, rng) * _value(e.den, point, rng)


def _value(p, point, rng):
    """p at point, drawing a value for each variable not yet in it."""
    total = 0
    for mono, c in p.items():
        for g, k in mono:
            if g.name not in point:
                point[g.name] = rng.randint(-10 ** 6, 10 ** 6)
            c = c * point[g.name] ** k
        total += c
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_skipped_gcds_match_the_full_normalization(seed):
    rng = random.Random(seed)
    pool = _factor_pool(rng)
    a = _fraction(rng, pool)
    b = _fraction(rng, pool)
    pm = core._p_mul
    _same(a * b, pm(a.num, b.num), pm(a.den, b.den))
    _same(a / b, pm(a.num, b.den), pm(a.den, b.num))

    def raw_sum(p, q):
        return core._p_add(pm(p.num, q.den), pm(q.num, p.den)), pm(p.den, q.den)

    _same(a + b, *raw_sum(a, b))
    _same(a - b, *raw_sum(a, -b))
    # a + (b - a) cancels back to b through gcd(a.den, (b - a).den)
    c = b - a
    _same(a + c, *raw_sum(a, c))
    n = rng.choice((2, 3))
    _same(a ** n, core._p_pow(a.num, n), core._p_pow(a.den, n))
    _same(a ** -n, core._p_pow(a.den, n), core._p_pow(a.num, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_gcds_past_the_size_guard_match_the_full_normalization(seed):
    # denominators f * (S + p) make gcd(b, d) and the cross gcds stop at
    # the generator guard; with a shared f, unequal S + p and equal
    # numerators, a - b loses S and only the final gcd finds f
    rng = random.Random(seed)
    pool = _factor_pool(rng)
    wide = [S + _linear(rng) for _ in range(2)]

    def operand(num):
        if rng.random() < 0.3:
            num = num * rng.choice(wide)
        return num / (rng.choice(pool[:2]) * rng.choice(wide))

    top = rng.choice(pool)
    a = operand(top)
    b = operand(top if rng.random() < 0.5 else rng.choice(pool))
    pm = core._p_mul
    _same(a * b, pm(a.num, b.num), pm(a.den, b.den))
    _same(a / b, pm(a.num, b.den), pm(a.den, b.num))
    for q in (b, -b):
        _same(a + q, core._p_add(pm(a.num, q.den), pm(q.num, a.den)), pm(a.den, q.den))


def test_kernel_operands_keep_the_final_gcd():
    # the quotient ring of kernels is not a UFD: only the final gcd sees
    # that these products reduce
    assert sqrt(x) * (sqrt(x) / x) == 1
    assert str((sqrt(x) / y) * (sqrt(x) / (x * y + x))) == "1/(y^2 + y)"
    assert str(exp(x) / (exp(x) + 1) * (1 / exp(x))) == "1/(exp(x) + 1)"


def test_operand_past_the_size_guard_keeps_the_final_gcd():
    # s has 151 terms, so the gcd that builds big stops at the guard and
    # leaves the common factor y + 1 in place
    s = sum((x ** k for k in range(151)), integer(0))
    big = (s * (y + 1)) / ((y + 1) * z)
    assert len(big.num) > gcd._GCD_TERM_LIMIT
    assert big.den == ((y + 1) * z).num
    assert big * ((1 - x) / w) == (1 - x ** 151) / (z * w)
    # negation keeps the record that big's gcd stopped early
    assert (-big) * ((1 - x) / w) == (x ** 151 - 1) / (z * w)


def test_sum_whose_denominator_gcd_stops_early_keeps_the_final_gcd():
    # the denominators share seven generators, so gcd(b, d) stops at the
    # guard and finds 1 although x + 1 divides both; the final gcd of the
    # full pair still sees x + 1
    b = (x + 1) * (S + y)
    d = (x + 1) * (S + z)
    *_, whole = core._p_gcd(b.num, d.num)
    assert not whole
    total = 1 / b - 1 / d
    assert total == (z - y) / ((x + 1) * (S + y) * (S + z))
    raw_num = core._p_add(d.num, core._p_neg(b.num))
    assert (total.num, total.den) == (
        _full(raw_num, core._p_mul(b.num, d.num)).num,
        _full(raw_num, core._p_mul(b.num, d.num)).den,
    )


def test_sum_whose_final_gcd_stops_early_is_not_plain(monkeypatch):
    # gcd(b, d) = x + 1 runs on denominators of 2 and 4 terms; the
    # numerator N = a*(d/g) + c*(b/g) = (x + 1)*(y^3 + y^2 + x - 1) has
    # 6 terms, so past a limit of 4 the final gcd stops and leaves x + 1
    a, b = 2 * y**2, x**2 - 1
    c, d = y**3 + y**2 + x + 1, (x + 1) * (y + 1)
    monkeypatch.setattr(gcd, "_GCD_TERM_LIMIT", 4)
    got = a / b + c / d
    monkeypatch.undo()
    want = a / b + c / d
    assert str(want) == "(y^3 + y^2 + x - 1)/(x*y + x - y - 1)"
    assert got._plain is False and got != want
    assert (got - want) is core.ZERO


def test_product_whose_cross_gcd_stops_early_keeps_the_final_gcd():
    # s has 152 terms and the factor x + 1; the cross gcd of s with
    # (x + 1) w stops at the term guard, and only the final gcd of
    # (x^152 - 1) / ((x + 1) z w) cancels x + 1
    s = sum((x ** k for k in range(152)), integer(0))
    a = s / z
    b = (x - 1) / ((x + 1) * w)
    *_, whole = core._p_gcd(s.num, b.den)
    assert not whole
    product = a * b
    assert product.den == (z * w).num
    assert product == (x ** 152 - 1) / ((x + 1) * z * w)


@pytest.fixture
def gcd_calls(monkeypatch):
    """The (a, b) of every _p_gcd call."""
    calls = []
    real = core._p_gcd
    monkeypatch.setattr(core, "_p_gcd", lambda a, b: calls.append((a, b)) or real(a, b))
    return calls


def test_coprime_product_runs_only_its_cross_cancellations(gcd_calls):
    a = (x + 1) / (y + 2)
    b = (y + 3) / (x + 2)
    gcd_calls.clear()
    product = a * b
    assert gcd_calls == [((x + 1).num, (x + 2).num), ((y + 3).num, (y + 2).num)]
    assert str(product) == "(x*y + 3*x + y + 3)/(x*y + 2*x + 2*y + 4)"


def test_sum_over_coprime_denominators_runs_the_lcm_and_final_gcds(gcd_calls):
    a = 1 / (x + 1)
    b = 1 / (y + 1)
    gcd_calls.clear()
    total = a + b
    assert gcd_calls == [
        ((x + 1).num, (y + 1).num),
        ((x + y + 2).num, ((x + 1) * (y + 1)).num),
    ]
    assert str(total) == "(x + y + 2)/(x*y + x + y + 1)"


def test_sum_over_unequal_denominators_cancels_a_factor_of_their_gcd():
    # 1/(x(x+1)) + 1/(x(x-1)) = 2x/(x(x+1)(x-1)): the new numerator
    # shares the factor x of gcd(b, d)
    assert 1 / (x * (x + 1)) + 1 / (x * (x - 1)) == 2 / (x * x - 1)
    # 1/(x(x+1)) - 1/(x(x+2)) = 1/(x(x+1)(x+2)) shares nothing with it
    assert 1 / (x * (x + 1)) - 1 / (x * (x + 2)) == 1 / (x * (x + 1) * (x + 2))
    # (x+1)/(x(x+2)) + 1/(x(x+2)) keeps the equal-denominator path
    assert (x + 1) / (x * (x + 2)) + 1 / (x * (x + 2)) == 1 / x


_shift = st.integers(-5, 5)
_gap = st.integers(1, 4)


@settings(max_examples=80, deadline=None)
@given(_shift, _shift, _gap, _gap, st.integers(1, 6), st.integers(1, 6))
def test_unit_heuristic_gcd_matches_trial_division(a, b, da, db, kf, kg):
    # f = kf (x + a)(y + b) and g = kg (x + c)(y + d) with c != a and
    # d != b share no polynomial factor
    c, d = a + da, b + db
    f = {(1, 1): kf, (1, 0): kf * b, (0, 1): kf * a, (0, 0): kf * a * b}
    g = {(1, 1): kg, (1, 0): kg * d, (0, 1): kg * c, (0, 0): kg * c * d}
    f = {m: v for m, v in f.items() if v}
    g = {m: v for m, v in g.items() if v}
    k = core._igcd(kf, kg)
    # the same on packed keys: exponents of at most 1 take 2-bit fields,
    # x in the high one, with guard bits 0b1010
    w, guard = 2, 0b1010

    def packed(p):
        return {ex << w | ey: v for (ex, ey), v in p.items()}

    pf, pg, unit = packed(f), packed(g), {0: 1}
    # what trial division by the unit candidate gives, content included
    expected = (
        {0: k},
        gcd._pk_exact_div(gcd._pk_exact_div(pf, {0: k}, w, guard), unit, w, guard),
        gcd._pk_exact_div(gcd._pk_exact_div(pg, {0: k}, w, guard), unit, w, guard),
    )
    assert expected[1] == packed({m: v // k for m, v in f.items()})
    assert gcd._pk_heu_gcd(pf, pg, 2, w, guard) == expected
    # and the tuple oracle gives the same triple on exponent tuples
    h, cf, cg = zz_heu_gcd(f, g, 2)
    assert (packed(h), packed(cf), packed(cg)) == expected
