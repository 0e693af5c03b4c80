"""Coefficient representation: a coefficient is an int whenever it is integral."""

import dataclasses
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from geolin.criteria import check_cubic2
from geolin.kernel import as_expr, integer, parse, rational, sqrt, var
from geolin.projection import SystemCubic2

x = var("x")
y = var("y")


def coefficients(e):
    """Every coefficient of e, kernel arguments included."""
    for p in (e.num, e.den):
        for m, c in p.items():
            yield c
            for g, _ in m:
                if g.arg is not None:
                    yield from coefficients(g.arg)


def integer_pair(seed):
    rng = random.Random(seed)

    def poly():
        acc = integer(0)
        for _ in range(3):
            term = integer(rng.randint(-4, 4))
            for _ in range(rng.randint(0, 2)):
                term = term * var(rng.choice("xyz"))
            acc = acc + term
        return acc

    return SystemCubic2.make(**{f.name: poly() for f in dataclasses.fields(SystemCubic2)})


def test_integral_coefficients_of_cubic2_residuals_are_ints():
    seen = 0
    for record in check_cubic2(integer_pair(5)).records:
        r = record.residual
        # denominators are primitive integer polynomials
        assert all(type(c) is int for c in r.den.values())
        for c in coefficients(r):
            seen += 1
            # a rational coefficient only where the value is not integral
            assert type(c) is int or c.denominator != 1, (c, type(c))
    assert seen


def test_integral_rational_products_fold_to_ints():
    half = parse("x/2 + 1/2")
    assert type(rational(1, 2).as_rational()) is Fraction
    assert [type(c) for c in coefficients(half)] == [Fraction, Fraction, int]
    doubled = half * 2
    assert doubled == x + 1
    assert all(type(c) is int for c in coefficients(doubled))
    assert all(type(c) is int for c in coefficients((x / 3) * (3 * y)))
    assert all(type(c) is int for c in coefficients((x / 2).diff("x") * 2))


def test_rational_values_and_no_floats():
    q = (integer(6) / integer(4)).as_rational()
    assert q == Fraction(3, 2)
    assert type(q) is not float
    assert type((integer(6) / integer(3)).as_rational()) is int
    exprs = [
        parse("x/2 + 1/2") * 2,
        (x + rational(3, 4)) / (2 * y - 6),
        sqrt(rational(8, 3) * x),
        parse("exp(x/3)*sin(y/5) + cos(2/3*x)^2"),
        (x ** 2 / 4).diff("x"),
    ]
    for e in exprs:
        for c in coefficients(e):
            assert not isinstance(c, float), (e, c)


_trees = st.recursive(
    st.one_of(
        st.sampled_from(["x", "y"]),
        st.tuples(st.sampled_from(["int", "rational"]), st.integers(-6, 6), st.integers(1, 4)),
    ),
    lambda inner: st.tuples(st.sampled_from("+-*/"), inner, inner),
    max_leaves=8,
)


def build(tree, as_fraction):
    """Evaluate a tree of operations on variables and constants.

    An ("int", n, k) leaf is the int n, or with as_fraction the equal
    Fraction(n*k, k); a ("rational", n, k) leaf is Fraction(n, k) either way,
    so products of non-integral constants can come out integral.
    """
    if isinstance(tree, str):
        return var(tree)
    if tree[0] == "int":
        _, n, k = tree
        return as_expr(Fraction(n * k, k) if as_fraction else n)
    if tree[0] == "rational":
        _, n, k = tree
        return as_expr(Fraction(n, k))
    op, a, b = tree
    a = build(a, as_fraction)
    b = build(b, as_fraction)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b if not b.is_zero_literal() else a


@given(_trees)
@settings(max_examples=80, deadline=None)
def test_fraction_and_int_constants_build_the_same_expression(tree):
    a = build(tree, as_fraction=True)
    b = build(tree, as_fraction=False)
    assert a == b
    assert hash(a) == hash(b)
    assert a.key() == b.key()
    assert str(a) == str(b)
    assert list(map(type, coefficients(a))) == list(map(type, coefficients(b)))
