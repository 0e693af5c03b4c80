"""A polynomial holds no term order: equal term sets give equal results.

The kernel keeps a polynomial as a dict from monomial to coefficient and
computes graded order only where it is observed.  Each property here
builds the same polynomial from its terms in two shuffled insertion
orders and checks that nothing downstream can tell them apart.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from geolin.kernel import core, eval_expr, is_zero, var

from helpers import poly_quotient

X, Y = core._var_gen("x"), core._var_gen("y")
EXP_X = core._kernel_gen("exp", var("x"))
SQRT_Y = core._kernel_gen("sqrt", var("y") + 1)
SIN_X = core._kernel_gen("sin", var("x"))

_terms = st.lists(
    st.tuples(
        st.integers(-6, 6).filter(bool),
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
    ),
    min_size=1, max_size=6,
)


def _monomial(exps, gens):
    return core._mono(tuple(sorted(((g, e) for g, e in zip(gens, exps) if e),
                                   key=lambda t: t[0].skey)))


def _shuffled_polys(terms, rnd, gens):
    """The polynomial with these terms, inserted in two random orders."""
    acc = {}
    for c, *exps in terms:
        m = _monomial(exps, gens)
        acc[m] = acc.get(m, 0) + Fraction(c, rnd.choice((1, 2, 3)))
    items = list(acc.items())
    out = []
    for _ in range(2):
        rnd.shuffle(items)
        out.append(core._poly_from_dict(dict(items)))
    return out


def _expr(p):
    return core.Expr(p, core.P_ONE, _internal=True)


@settings(max_examples=80, deadline=None)
@given(_terms, _terms, st.randoms(use_true_random=False))
def test_insertion_order_is_never_observed(terms, divisor_terms, rnd):
    p1, p2 = _shuffled_polys(terms, rnd, (X, Y, EXP_X))
    if not p1:
        return
    e1, e2 = _expr(p1), _expr(p2)
    assert e1 == e2
    assert hash(e1) == hash(e2)
    assert e1.key() == e2.key()
    assert str(e1) == str(e2)
    assert core._poly_rat_content(p1) == core._poly_rat_content(p2)
    assert str(e1.diff("x")) == str(e2.diff("x"))
    d1, d2 = _shuffled_polys(divisor_terms, rnd, (X, Y, EXP_X))
    if d1:
        a1, a2 = core._p_mul(p1, d1), core._p_mul(p2, d2)
        assert a1 == a2
        qa, qd, whole = core._p_gcd(a1, d2)
        assert (qa, qd, whole) == core._p_gcd(a2, d1)
        g = poly_quotient(a1, qa)
        assert core._p_mul(g, qa) == a1


@settings(max_examples=40, deadline=None)
@given(_terms, st.randoms(use_true_random=False))
def test_numeric_values_do_not_depend_on_insertion_order(terms, rnd):
    p1, p2 = _shuffled_polys(terms, rnd, (X, EXP_X, SQRT_Y))
    if not p1:
        return
    e1, e2 = _expr(p1), _expr(p2)
    point = {"x": Fraction(rnd.randint(1, 99), 37), "y": Fraction(rnd.randint(1, 99), 41)}
    assert eval_expr(e1, point) == eval_expr(e2, point)
    r1, r2 = is_zero(e1), is_zero(e2)
    assert r1.verdict is r2.verdict
    assert r1.witness == r2.witness
    assert r1.witness_value == r2.witness_value


def test_lead_is_the_least_graded_key_over_every_term():
    # _lead builds the graded key only at the top total degree; it must
    # pick what min over every term by that key picks, kernels and ties
    # in the top degree included
    rnd = random.Random(53)
    gens = (X, Y, EXP_X, SQRT_Y, SIN_X)
    ties = kernels = 0
    for _ in range(400):
        p = {}
        for _ in range(rnd.randint(1, 8)):
            exps = [rnd.randint(0, 3), rnd.randint(0, 3)] + [rnd.randint(0, 1) for _ in gens[2:]]
            p[_monomial(exps, gens)] = rnd.choice((-3, -1, 1, 2, Fraction(-1, 2)))
        lead = core._lead(p)
        assert lead == min(p, key=core._term_sort_key)
        top = [m for m in p if sum(e for _, e in m) == sum(e for _, e in lead)]
        ties += len(top) > 1
        kernels += any(g.kind == core.KERNEL for g, _ in lead)
    assert ties >= 50 and kernels >= 50
