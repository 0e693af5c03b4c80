"""Exact kernel: canonical form, rewrites, arithmetic, differentiation."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from geolin.kernel import (
    KernelDomainError,
    KernelError,
    ONE,
    ZERO,
    Verdict,
    cos,
    eval_expr,
    exp,
    integer,
    is_zero,
    kernel_apply,
    ln,
    parse,
    rational,
    sin,
    sqrt,
    var,
)
from helpers import fd_derivative, random_expr, relative_close, sample_point

x = var("x")
y = var("y")
z = var("z")


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_gcd_reduction():
    assert (x + y) ** 2 / (x**2 - y**2) == (x + y) / (x - y)
    assert (x**2 - 1) / (x - 1) == x + 1
    assert (x * y + x) / x == y + 1


def test_denominator_normalization():
    # primitive integer denominator with positive leading coefficient
    e = x / (rational(2, 3) * y)
    assert str(e) == "3/2*x/(y)"
    e = x / (-y + 1)
    assert str(e) == "-x/(y - 1)"


def test_zero_and_one_identities():
    assert x - x == ZERO
    assert x / x == ONE
    assert x * 0 == ZERO
    assert x**0 == ONE
    assert (x + y) - (y + x) == ZERO


def test_rational_constant_folding():
    assert (rational(3, 4) + rational(1, 4)).as_rational() == 1
    assert rational(10, 4) == rational(5, 2)
    assert integer(7) / integer(14) == rational(1, 2)


def test_float_rejected():
    with pytest.raises(TypeError):
        x + 0.5
    with pytest.raises(TypeError):
        integer(1.5)
    with pytest.raises(TypeError):
        x ** 1.5


def test_bad_names_rejected():
    with pytest.raises(KernelError):
        var("")
    with pytest.raises(KernelError):
        kernel_apply("tan", x)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        x / (y - y)
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


# ---------------------------------------------------------------------------
# rewrite table
# ---------------------------------------------------------------------------


def test_exp_merge_and_extraction():
    assert exp(x) * exp(-x) == ONE
    assert exp(x + y) * exp(x - y) == exp(2 * x)
    assert 1 / exp(x) == exp(-x)
    assert (exp(2 * x) + exp(x)) / exp(x) == exp(x) + 1
    assert exp(x) ** 3 == exp(3 * x)
    assert exp(ZERO) == ONE


def test_ln_and_trig_constants():
    assert ln(ONE) == ZERO
    assert sin(ZERO) == ZERO
    assert cos(ZERO) == ONE
    with pytest.raises(KernelDomainError):
        ln(integer(-2))
    with pytest.raises(KernelDomainError):
        ln(ZERO)


def test_sqrt_rules():
    assert sqrt(x + 1) ** 2 == x + 1
    assert sqrt(rational(9, 4)) == rational(3, 2)
    assert sqrt(rational(1, 2)) ** 2 == rational(1, 2)
    assert str(sqrt(rational(1, 2))) == "1/2*sqrt(2)"
    assert 1 / sqrt(x) == sqrt(x) / x
    with pytest.raises(KernelDomainError):
        sqrt(integer(-1))


def test_sqrt_of_a_rational_function_stays_whole():
    # sqrt(N/D) = sqrt(N*D)/D holds only where D > 0; rewriting it there
    # made this sum the canonical 0, though it is 2 at x = 1
    e = parse("sqrt(-1/(x-2))*sqrt(2-x) + 1")
    assert is_zero(e).verdict is Verdict.NONZERO
    assert eval_expr(e, {"x": 1})[0] == 2
    f = parse("sqrt(1/(1-x))")
    assert str(f) == "sqrt(-1/(x - 1))"
    assert eval_expr(f, {"x": Fraction(3, 4)})[0] == 2
    for g in (e, f):
        assert parse(str(g)) == g
    # without the rewrite, squares and denominators keep the kernel
    q = x / (x + 1)
    assert sqrt(q) ** 2 != q
    assert str(1 / sqrt(1 / x)) == "1/(sqrt(1/(x)))"


_signed_poly = st.lists(st.integers(-4, 4), min_size=1, max_size=4)
_GRID = [Fraction(k, 8) for k in range(-16, 17)]


def _negative_somewhere(coeffs, at):
    """The polynomial with these coefficients in x, shifted to be -1 at x = at."""
    p = sum((c * x ** i for i, c in enumerate(coeffs)), ZERO)
    return p - p.substitute({"x": rational(at)}) - 1


def _exact_at(p, point) -> Fraction:
    v = p.substitute({"x": rational(point)}).as_rational()
    return Fraction(int(v.numerator), int(v.denominator))


@settings(max_examples=60, deadline=None)
@given(_signed_poly, _signed_poly, st.sampled_from(_GRID), st.sampled_from(_GRID))
# -(x + 3/2)/(2*x + 3) is the constant -1/2, whose square root is refused
@example(n=[0, -1], d=[0, 2], at_n=Fraction(-1, 2), at_d=Fraction(-2))
# (2*x - 3)/(x - 3/2) is the constant 2
@example(n=[0, 2], d=[0, 1], at_n=Fraction(1), at_d=Fraction(1, 2))
def test_sqrt_of_a_signed_quotient_is_the_real_root(n, d, at_n, at_d):
    num = _negative_somewhere(n, at_n)
    den = _negative_somewhere(d, at_d)
    quotient = num / den
    if quotient.is_rational():
        if quotient.as_rational() < 0:
            with pytest.raises(KernelDomainError):
                sqrt(quotient)
        else:
            root = sqrt(quotient)
            assert root ** 2 == quotient
            assert eval_expr(root, {})[0] > 0
        return
    root = sqrt(quotient)
    for point in _GRID:
        nv, dv = (_exact_at(p, point) for p in (num, den))
        if not dv or nv / dv <= 0:
            continue
        q = nv / dv
        value, _ = eval_expr(root, {"x": point})
        with mpmath.workprec(256):
            expected = mpmath.sqrt(mpmath.mpf(q.numerator) / q.denominator)
        assert relative_close(value, expected, 1e-60), (str(root), point)


def test_pythagorean_toggle():
    assert sin(x) ** 2 + cos(x) ** 2 - 1 == ZERO


def test_sin_odd_powers_keep_one_factor():
    e = sin(x) ** 3
    assert str(e) == "-cos(x)^2*sin(x) + sin(x)"


# ---------------------------------------------------------------------------
# ring laws: structural equality must hold on the rational subfield, where
# the gcd is complete, for any construction order
# ---------------------------------------------------------------------------

_leaves = st.one_of(
    st.sampled_from([x, y, z]),
    st.integers(min_value=-4, max_value=4).map(integer),
)

_rational_exprs = st.recursive(
    _leaves,
    lambda inner: st.tuples(inner, inner).flatmap(
        lambda ab: st.sampled_from([ab[0] + ab[1], ab[0] - ab[1], ab[0] * ab[1]])
    ),
    max_leaves=12,
)


@given(_rational_exprs, _rational_exprs, _rational_exprs)
@settings(max_examples=60, deadline=None)
def test_ring_axioms_structural(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ZERO


@given(_rational_exprs, _rational_exprs)
@settings(max_examples=40, deadline=None)
def test_division_inverts_multiplication(a, b):
    if not b.is_zero_literal():
        assert (a * b) / b == a


def test_kernel_identities_never_claim_nonzero():
    # equal functions with distinct canonical pairs must not test NONZERO
    candidates = [
        ln(exp(x)) - x,
        exp(ln(x + 2)) - (x + 2),
        sin(2 * x) - 2 * sin(x) * cos(x),
        sqrt(x**2 + 2 * x + 1) - sqrt((x + 1) ** 2),
    ]
    for e in candidates:
        assert is_zero(e).verdict is not Verdict.NONZERO, str(e)


# ---------------------------------------------------------------------------
# differentiation, frozen table plus the finite difference oracle
# ---------------------------------------------------------------------------


def test_derivative_table():
    assert (x**3 * y).diff("x") == 3 * x**2 * y
    assert exp(x**2).diff("x") == 2 * x * exp(x**2)
    assert ln(x).diff("x") == 1 / x
    assert sqrt(x).diff("x") == 1 / (2 * sqrt(x))
    assert sin(2 * x).diff("x") == 2 * cos(2 * x)
    assert cos(x).diff("x") == -sin(x)
    assert (x / y).diff("y") == -x / y**2
    assert (x * y).diff("z") == ZERO


def test_derivatives_match_finite_differences():
    rng = random.Random(20260819)
    names = ("x", "y")
    checked = 0
    for _ in range(200):
        f = random_expr(rng, depth=3, names=names)
        g = random_expr(rng, depth=2, names=names)
        prod = f * g
        if not prod.variables():
            continue
        name = rng.choice(sorted(prod.variables()))
        d = prod.diff(name)
        point = sample_point(rng, sorted(prod.variables() | {name}))
        try:
            got, _ = eval_expr(d, point, 192)
            want = fd_derivative(prod, name, point)
        except Exception:
            continue
        assert relative_close(got, want), (str(prod), name, got, want)
        checked += 1
    assert checked >= 150


def test_product_rule_symbolic():
    rng = random.Random(7)
    for _ in range(25):
        f = random_expr(rng, depth=2)
        g = random_expr(rng, depth=2)
        lhs = (f * g).diff("x")
        rhs = f.diff("x") * g + f * g.diff("x")
        assert is_zero(lhs - rhs).verdict is not Verdict.NONZERO


def test_substitution():
    assert (x**2 + y).substitute({"x": y + 1}) == y**2 + 3 * y + 1
    assert exp(x).substitute({"x": ZERO}) == ONE
    assert (x / y).substitute({"x": y}) == ONE
    e = exp(x * y)
    assert e.substitute({"y": ZERO}) == ONE
    # simultaneous, not sequential
    assert (x + y).substitute({"x": y, "y": x}) == x + y


def test_variables_collection():
    assert sorted((exp(x * y) + z).variables()) == ["x", "y", "z"]
    assert (integer(5) / integer(7)).variables() == frozenset()


def test_structural_keys_are_total_order():
    exprs = [x, y, x + y, exp(x), ln(x + 2), x**2, rational(1, 2)]
    keys = [e.key() for e in exprs]
    assert len(set(keys)) == len(keys)
    for a in exprs:
        for b in exprs:
            # exactly one of <, ==, > must hold for every pair
            assert (a.key() < b.key()) + (a.key() == b.key()) + (a.key() > b.key()) == 1
    assert x.key() == var("x").key()
