"""Polynomial gcd: cofactors, primitivity, heuristic against the PRS.

The kernel's gcd returns (g, a/g, b/g).  Polynomials in plain variables
go to the heuristic gcd, whose candidates are confirmed by exact division;
inputs holding kernels go to the primitive pseudo-remainder sequence (PRS).
These tests build raw polynomials with a planted common factor and check
the result against its definition and against the PRS, without any
outside computer algebra system.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from geolin.kernel import core, exp, sqrt, var
from geolin.transform import coefficients_from_transformation, linearization_residuals
from helpers import random_invertible_map

X, Y, Z = (core._var_gen(n) for n in ("x", "y", "z"))

_terms = st.lists(
    st.tuples(
        st.integers(-6, 6).filter(bool),
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
    ),
    min_size=1, max_size=4,
)


def _poly(terms) -> tuple:
    acc: dict = {}
    for c, ex, ey, ez in terms:
        mono = tuple((g, e) for g, e in ((X, ex), (Y, ey), (Z, ez)) if e)
        acc[mono] = acc.get(mono, 0) + core._Q(c)
    return core._poly_from_dict(acc)


def _divides(d, p) -> bool:
    return core._p_exact_div(p, d) is not None


def _prs_only(a, b):
    """The gcd with the heuristic switched off, None if the PRS gives up."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_heu_gcd", lambda *args: None)
        return core._p_gcd(a, b, strict=True)


@settings(max_examples=80, deadline=None)
@given(_terms, _terms, _terms)
def test_gcd_properties_with_planted_factor(f, u, v):
    f, u, v = _poly(f), _poly(u), _poly(v)
    if not (f and u and v):
        return
    a = core._p_mul(f, u)
    b = core._p_mul(f, v)
    g, qa, qb = core._p_gcd(a, b)
    assert core._p_mul(g, qa) == a
    assert core._p_mul(g, qb) == b
    assert core._poly_rat_content(g) == 1
    assert g[0][1] > 0
    assert _divides(core._p_primitive(f), g)
    assert core._p_is_const(core._p_gcd(qa, qb)[0])
    # the PRS can trip the size guard on intermediate remainders even for
    # small inputs; when it completes, both paths must agree
    prs = _prs_only(a, b)
    assert prs is None or prs == (g, qa, qb)


def test_heuristic_point_keeps_the_greatest_divisor():
    # with x*y^2 = 256711 the image pair in z is 256711 - z and
    # (256711 - z)(91*z + 1); a first point of 513422, below the bound
    # 2*256711 + 2, expanded their gcd to the constant 1, which divides
    # both inputs and was taken for the gcd
    f = _poly([(1, 1, 2, 0), (-1, 0, 0, 1)])
    b = core._p_mul(f, _poly([(1, 0, 1, 1), (1, 0, 0, 0)]))
    assert core._p_gcd(f, b) == (f, core.P_ONE, core._p_exact_div(b, f))


def test_prs_gives_up_instead_of_returning_a_non_divisor():
    # 9 and 12 terms; the remainder contents pass the size guard, which
    # once made the PRS return a 357-term polynomial dividing neither input
    f = _poly([(-2, 0, 0, 2), (-2, 3, 2, 0), (2, 0, 2, 0)])
    a = core._p_mul(f, _poly([(3, 0, 0, 0), (2, 3, 3, 0), (-1, 0, 0, 2)]))
    b = core._p_mul(f, _poly([(-5, 0, 2, 1), (-6, 0, 1, 2), (-3, 2, 2, 0), (2, 0, 2, 0)]))
    prs = core._prs_gcd(a, b, core._p_gens(a) & core._p_gens(b), False)
    assert prs is None or (_divides(prs, a) and _divides(prs, b))
    g, qa, qb = core._p_gcd(a, b)
    assert g == core._p_primitive(f)
    assert core._p_mul(g, qa) == a
    assert core._p_mul(g, qb) == b


def test_variable_inputs_use_the_heuristic(monkeypatch):
    calls = []
    heu = core._heu_gcd
    monkeypatch.setattr(core, "_heu_gcd", lambda *args: calls.append(1) or heu(*args))
    x, y = var("x"), var("y")
    assert (x**2 - y**2) / (x**2 + 2 * x * y + y**2) == (x - y) / (x + y)
    assert calls


@pytest.mark.parametrize("kernel", [exp, sqrt])
def test_kernel_inputs_take_the_prs_path(monkeypatch, kernel):
    x, y = var("x"), var("y")
    factor = kernel(x) + y
    a = (factor * (y + 2)).num
    b = (factor * (x - 3 * y)).num
    heu, prs = core._heu_gcd, core._prs_gcd
    prs_inputs = []

    def variables_only(a, b, gens):
        assert all(g.kind == core.VAR for g in gens)
        return heu(a, b, gens)

    def spy(a, b, *rest):
        prs_inputs.append((a, b))
        return prs(a, b, *rest)

    monkeypatch.setattr(core, "_heu_gcd", variables_only)
    monkeypatch.setattr(core, "_prs_gcd", spy)
    g, qa, qb = core._p_gcd(a, b)
    assert (a, b) in prs_inputs
    assert g == factor.num
    assert core._p_mul(g, qa) == a
    assert core._p_mul(g, qb) == b


def test_prs_give_up_propagates_on_pool_31_draw_19(monkeypatch):
    """Pool 31, draw 19 used to hand the gcd an 85-term and a 60-term
    polynomial whose true gcd has 6 terms.  The PRS tripped the size guard
    while taking a remainder's content, read the give-up as content 1 and
    returned a 567-term non-divisor after about 10 s.  Addition now works
    over the gcd of the denominators, so the pair is rebuilt here from the
    captured operands of each addition, as the cross products that the
    addition used to form."""
    rng = random.Random(31)
    for _ in range(19):
        random_invertible_map(rng)
    t = random_invertible_map(rng)
    system = coefficients_from_transformation(t)
    operands = []
    add = core.Expr.__add__

    def spy(self, other):
        operands.append((self, other))
        return add(self, other)

    monkeypatch.setattr(core.Expr, "__add__", spy)
    linearization_residuals(system, t)
    monkeypatch.undo()
    pairs = []
    for p, q in operands:
        if not isinstance(q, core.Expr) or p.den == q.den:
            continue
        num = core._p_add(core._p_mul(p.num, q.den), core._p_mul(q.num, p.den))
        den = core._p_mul(p.den, q.den)
        if (len(num), len(den)) == (85, 60):
            pairs.append((num, den))
    assert len(pairs) == 1
    a, b = pairs[0]
    prs = core._prs_gcd(a, b, core._p_gens(a) & core._p_gens(b), False)
    assert prs is None or (_divides(prs, a) and _divides(prs, b))
    g, qa, qb = core._p_gcd(a, b)
    y, z, yp, zp = var("y"), var("z"), var("yp"), var("zp")
    assert g == ((2 * y * zp + 2 * yp * z - 1) ** 2).num
    assert len(g) == 6
    assert core._p_mul(g, qa) == a
    assert core._p_mul(g, qb) == b
