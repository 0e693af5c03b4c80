"""Polynomial gcd: cofactors, primitivity, and the heuristic over kernels.

The kernel's gcd returns (a/g, b/g, whole), the cofactors up to one
common sign; these tests read g as a / (a/g) and fix the sign so that g
has a positive leading term (helpers.gcd_with_divisor).  Both inputs are
packed once with every kernel as a free variable, their common monomial
factor comes out of the packed keys, and the rest is first tried by one
exact division:
an operand over its own monomial content that divides the other is the
gcd, and one of degree one in a variable with a single term in it, or a
single term free of it, is irreducible, so the gcd is 1.  The rest go to
the heuristic gcd; a candidate counts only once it divides both inputs
exactly over the integers, and whole says whether the search ran to the
end.  A property below checks that the division step changes no result.
Every polynomial the kernel builds is rewrite-normal, so a divisor in
that free ring divides in the kernel ring with the same cofactors, and a
property below checks this over sqrt, sin and exp atoms.  These tests build raw polynomials
with a planted common factor and check the result against its
definition, without any outside computer algebra system, and check the
gcd on packed integer keys result for result against the gcd on
exponent tuples that it replaced (helpers.tuple_gcd).
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geolin.kernel import core, exp, gcd, integer, ln, parse, sin, sqrt, var
from geolin.transform import coefficients_from_transformation
from helpers import (
    fraction_chain_residuals,
    gcd_with_divisor,
    packed_layout,
    poly_quotient,
    random_invertible_map,
    signed_pk_from_poly,
    tuple_gcd,
    zz_exact_div,
    zz_from_poly,
)

X, Y, Z = (core._var_gen(n) for n in ("x", "y", "z"))
LN_Z = core._kernel_gen("ln", var("z"))

_terms = st.lists(
    st.tuples(
        st.integers(-6, 6).filter(bool),
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
    ),
    min_size=1, max_size=4,
)
_ln_terms = st.lists(
    st.tuples(
        st.integers(-6, 6).filter(bool),
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
    ),
    min_size=1, max_size=5,
)


def _poly(terms, gens=(X, Y, Z)) -> dict:
    acc: dict = {}
    for c, *exps in terms:
        mono = core._mono(tuple(sorted(((g, e) for g, e in zip(gens, exps) if e),
                                       key=lambda t: t[0].skey)))
        acc[mono] = acc.get(mono, 0) + Fraction(c)
    return core._poly_from_dict(acc)


def _primitive(p) -> dict:
    return core._p_quo(p, core._poly_rat_content(p))


def _divides(d, p) -> bool:
    return poly_quotient(p, d) is not None


def _check_planted(f, a, b):
    """The gcd of a and b is whole, has exact cofactors and holds f."""
    g, qa, qb, whole = gcd_with_divisor(a, b)
    assert whole
    assert core._p_mul(g, qa) == a
    assert core._p_mul(g, qb) == b
    assert core._poly_rat_content(g) == 1
    assert g[core._lead(g)] > 0
    assert _divides(_primitive(f), g)
    return g, qa, qb


@settings(max_examples=80, deadline=None)
@given(_terms, _terms, _terms)
def test_gcd_properties_with_planted_factor(f, u, v):
    f, u, v = _poly(f), _poly(u), _poly(v)
    if not (f and u and v):
        return
    _, qa, qb = _check_planted(f, core._p_mul(f, u), core._p_mul(f, v))
    assert core._p_is_const(gcd_with_divisor(qa, qb)[0])


@settings(max_examples=60, deadline=None)
@given(_ln_terms, _ln_terms, _ln_terms)
def test_planted_factor_over_a_kernel_is_recovered(f, u, v):
    # ln(z) has no rewrite, so the ring over x, y and ln(z) is a unique
    # factorization domain and the heuristic finds the greatest divisor
    gens = (X, Y, LN_Z)
    f, u, v = _poly(f, gens), _poly(u, gens), _poly(v, gens)
    if not (f and u and v):
        return
    _check_planted(f, core._p_mul(f, u), core._p_mul(f, v))


def test_planted_factor_over_ln_that_stalled_the_old_sequence():
    # the slowest of 150 seeded planted-factor pairs over x, y and ln(z):
    # a pseudo-remainder sequence took about 3 s on it and missed the factor
    f = parse("-3*ln(z)^3*x^2*y^3 + 6*ln(z)^3*x*y^3 - x^2*y^3 + 4*y^3 + 3*x^2")
    u = parse("4*ln(z)^2*x^3*y^2 - 4*ln(z)^3*x^2*y + 3*ln(z)^3*y^3 + 3*ln(z)*y^3 + y^3")
    v = parse("-3*ln(z)^3*x^2*y^3 - 6*ln(z)^2*x^3*y^2 - 4*ln(z)^3*x^2 + 5*x*y^2")
    a, b = (f * u).num, (f * v).num
    assert (len(a), len(b)) == (24, 19)
    g, _, _ = _check_planted(f.num, a, b)
    assert g == _primitive(f.num)


def test_heuristic_point_keeps_the_greatest_divisor():
    # with x*y^2 = 256711 the image pair in z is 256711 - z and
    # (256711 - z)(91*z + 1); a first point of 513422, below the bound
    # 2*256711 + 2, expanded their gcd to the constant 1, which divides
    # both inputs and was taken for the gcd
    f = _poly([(1, 1, 2, 0), (-1, 0, 0, 1)])
    u = _poly([(1, 0, 1, 1), (1, 0, 0, 0)])
    assert gcd_with_divisor(f, core._p_mul(f, u)) == (f, core.P_ONE, u, True)


def test_prs_gives_up_instead_of_returning_a_non_divisor():
    # 9 and 12 terms; the remainder contents of a pseudo-remainder
    # sequence, the gcd before the heuristic ran on every input, passed the
    # size guard here and once made it return a 357-term polynomial
    # dividing neither input
    f = _poly([(-2, 0, 0, 2), (-2, 3, 2, 0), (2, 0, 2, 0)])
    a = core._p_mul(f, _poly([(3, 0, 0, 0), (2, 3, 3, 0), (-1, 0, 0, 2)]))
    b = core._p_mul(f, _poly([(-5, 0, 2, 1), (-6, 0, 1, 2), (-3, 2, 2, 0), (2, 0, 2, 0)]))
    g, qa, qb, whole = gcd_with_divisor(a, b)
    assert whole
    assert _divides(g, a) and _divides(g, b)
    assert g == _primitive(f)
    assert core._p_mul(g, qa) == a
    assert core._p_mul(g, qb) == b


def test_variable_inputs_use_the_heuristic(monkeypatch):
    calls = []
    heu = gcd._pk_heu_gcd
    monkeypatch.setattr(gcd, "_pk_heu_gcd", lambda *args: calls.append(1) or heu(*args))
    x, y = var("x"), var("y")
    assert (x**2 - y**2) / (x**2 + 2 * x * y + y**2) == (x - y) / (x + y)
    assert calls


@pytest.mark.parametrize("kernel", [exp, sqrt, sin])
def test_kernel_inputs_take_the_heuristic(monkeypatch, kernel):
    x, y = var("x"), var("y")
    factor = kernel(x) + y
    a = (factor * (y + 2)).num
    b = (factor * (x - 3 * y)).num
    pack, heu = gcd._pk_from_poly, gcd._pk_heu_gcd
    gens_seen, searched = [], []

    def spy(p, shifts):
        gens_seen.append(list(shifts))
        return pack(p, shifts)

    monkeypatch.setattr(gcd, "_pk_from_poly", spy)
    monkeypatch.setattr(gcd, "_pk_heu_gcd", lambda *args: searched.append(1) or heu(*args))
    whole = core._p_gcd(a, b)[2]
    monkeypatch.undo()
    g, qa, qb, _ = gcd_with_divisor(a, b)
    assert searched
    assert any(gen.kind == core.KERNEL for gens in gens_seen for gen in gens)
    assert whole
    assert _divides(g, a) and _divides(g, b)
    assert g == factor.num
    assert core._p_mul(g, qa) == a
    assert core._p_mul(g, qb) == b


_ATOMS = (var("x"), var("y"), sqrt(var("x") ** 2 + 1), sin(var("y")),
          exp(var("x")), exp(var("y")))
_atom_terms = st.lists(
    st.tuples(st.integers(-3, 3).filter(bool),
              st.lists(st.sampled_from(range(len(_ATOMS))), max_size=3)),
    min_size=1, max_size=3,
)


def _atom_poly(terms):
    total = integer(0)
    for c, picks in terms:
        term = integer(c)
        for i in picks:
            term = term * _ATOMS[i]
        total = total + term
    return total


@settings(max_examples=80, deadline=None)
@given(_atom_terms, _atom_terms, _atom_terms)
def test_free_ring_cofactors_hold_in_the_kernel_ring(f, u, v):
    # the products rewrite sqrt and sin squares and merge exp factors, so
    # a and b are rewrite-normal; the cofactors the heuristic takes from
    # its integer division multiply back without a rewrite
    f, u, v = _atom_poly(f), _atom_poly(u), _atom_poly(v)
    a, b = (f * u).num, (f * v).num
    if not (a and b):
        return
    g, qa, qb, _ = gcd_with_divisor(a, b)
    assert core._p_mul(g, qa) == a
    assert core._p_mul(g, qb) == b


def _seeded_gcd_pairs():
    """Planted-factor pairs, kernel-free with rational coefficients and
    over the kernel atoms, each with the four sign choices."""
    rng = random.Random(27)

    def terms():
        return [(rng.randint(-6, 6) or 1, *(rng.randint(0, 2) for _ in range(3)))
                for _ in range(rng.randint(1, 4))]

    def atom_terms():
        return [(rng.randint(-3, 3) or 1, [rng.randrange(len(_ATOMS)) for _ in range(3)])
                for _ in range(rng.randint(1, 3))]

    pairs = []
    for _ in range(30):
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        f, u, v = (core._p_scale(_poly(terms()), scale) for _ in range(3))
        pairs.append((core._p_mul(f, u), core._p_mul(f, v)))
        f, u, v = _atom_poly(atom_terms()), _atom_poly(atom_terms()), _atom_poly(atom_terms())
        pairs.append(((f * u).num, (f * v).num))
    return [(sa, sb) for a, b in pairs if a and b
            for sa in (a, core._p_neg(a)) for sb in (b, core._p_neg(b))]


def _up_to_sign(result):
    """A gcd's (a/g, b/g, whole) with the common sign that gives a/g a
    positive leading term."""
    qa, qb, whole = result
    if qa[core._lead(qa)] < 0:
        return core._p_neg(qa), core._p_neg(qb), whole
    return result


def test_unsigned_content_gives_the_gcd_of_the_signed_one(monkeypatch):
    # the gcd ignores the sign of its inputs and returns its cofactors up
    # to one common sign, so _pk_from_poly takes the content's magnitude
    pairs = _seeded_gcd_pairs()
    calls = []
    unsigned = gcd._pk_from_poly
    monkeypatch.setattr(gcd, "_pk_from_poly",
                        lambda p, shifts: calls.append(p) or unsigned(p, shifts))
    now = [_up_to_sign(core._p_gcd(a, b)) for a, b in pairs]
    # the heuristic ran, also on inputs whose leading term is negative
    negative = sum(p[core._lead(p)] < 0 for p in calls)
    assert negative > 50 and len(calls) - negative > 50
    signed = []
    monkeypatch.setattr(gcd, "_pk_from_poly",
                        lambda p, shifts: signed.append(p) or signed_pk_from_poly(p, shifts))
    assert now == [_up_to_sign(core._p_gcd(a, b)) for a, b in pairs]
    assert signed == calls


def test_prs_give_up_propagates_on_pool_31_draw_19(monkeypatch):
    """Pool 31, draw 19 used to hand the gcd an 85-term and a 60-term
    polynomial whose true gcd has 6 terms.  The pseudo-remainder sequence
    (PRS), the gcd before the heuristic ran on every input, tripped the
    size guard while taking a remainder's content, read the give-up as
    content 1 and returned a 567-term non-divisor after about 10 s.
    The pair came from the verify residuals built as a chain of
    fractions, which `linearization_residuals` no longer forms, so the
    chain is rebuilt here.  Addition now works over the gcd of the
    denominators, so the pair is rebuilt from the captured operands of
    each addition, as the cross products that the addition used to
    form."""
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
    fraction_chain_residuals(system, t)
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
    g, qa, qb, whole = gcd_with_divisor(a, b)
    assert whole
    assert _divides(g, a) and _divides(g, b)
    y, z, yp, zp = var("y"), var("z"), var("yp"), var("zp")
    assert g == ((2 * y * zp + 2 * yp * z - 1) ** 2).num
    assert len(g) == 6
    assert core._p_mul(g, qa) == a
    assert core._p_mul(g, qb) == b


def test_heuristic_giving_up_leaves_the_fraction_unreduced(monkeypatch):
    # with no evaluation point to try the heuristic returns nothing, the
    # gcd reports that it stopped early, and the fraction keeps its factor;
    # neither operand divides the other and neither has degree one, so
    # the division step leaves the pair to the heuristic
    monkeypatch.setattr(gcd, "_HEU_TRIES", 0)
    x = var("x")
    common = x**2 + x + 1
    e = common * (x**2 - 2) / (common * (x**2 + 3))
    assert core._p_gcd(e.num, e.den)[2] is False
    assert str(e) == "(x^4 + x^3 - x^2 - 2*x - 2)/(x^4 + x^3 + 4*x^2 + 3*x + 3)"
    assert (e - (x**2 - 2) / (x**2 + 3)).is_zero_literal()


def test_a_dividing_or_irreducible_operand_skips_the_search(monkeypatch):
    # an operand over its own monomial content, here sin(x) or z, either
    # divides the other operand, in whichever order they come, or is
    # irreducible by its degree one in x and divides nothing else
    calls = []
    search = gcd._pk_heu_gcd
    monkeypatch.setattr(gcd, "_pk_heu_gcd", lambda *args: calls.append(1) or search(*args))
    x, y, z = var("x"), var("y"), var("z")
    for num, den, g in ((x**2 - 1, x - 1, x - 1), ((x - 1) * sin(x), x - 1, x - 1),
                        (z * (x - 1), x**2 + y**2 + 1, integer(1))):
        assert gcd_with_divisor(num.num, den.num) == (g.num, (num / g).num, (den / g).num, True)
        assert gcd_with_divisor(den.num, num.num) == (g.num, (den / g).num, (num / g).num, True)
    assert (x**2 - 1) / (x - 1) == x + 1
    assert (x - 1) * sin(x) / (x - 1) == sin(x)
    assert calls == []


def test_degree_one_with_two_terms_on_each_side_goes_to_the_search():
    # (x + 1)(y + 1) has degree one in x and in y, with two terms on each
    # side of either, and is not irreducible: it shares y + 1 with b
    x, y, z = var("x"), var("y"), var("z")
    a, b = ((x + 1) * (y + 1)).num, ((y + 1) * (z + 3)).num
    assert gcd_with_divisor(a, b) == ((y + 1).num, (x + 1).num, (z + 3).num, True)


def test_the_common_monomial_cancels_past_the_term_guard():
    # the size guard reads the operands with their common monomial out:
    # past _GCD_TERM_LIMIT terms the gcd stops early, and x^2 still cancels
    x, y = var("x"), var("y")
    s = sum((y**k for k in range(gcd._GCD_TERM_LIMIT + 1)), integer(0))
    a, b = (x**2 * s).num, (x**2 * (y - 2)).num
    assert len(a) > gcd._GCD_TERM_LIMIT
    assert gcd_with_divisor(a, b) == ((x**2).num, s.num, (y - 2).num, False)


def test_generators_of_the_common_monomial_are_not_shared(monkeypatch):
    # x*(y + 1) and x*(z + 1) share x only in their common monomial: with
    # it out they share no generator, so the gcd is x and runs no search,
    # and seven such generators do not trip _GCD_GEN_LIMIT
    calls = []
    trial = gcd._pk_trial_gcd
    monkeypatch.setattr(gcd, "_pk_trial_gcd", lambda *args: calls.append(1) or trial(*args))
    x, y, z = var("x"), var("y"), var("z")
    seven = x
    for name in ("t1", "t2", "t3", "t4", "t5", "t6"):
        seven = seven * var(name)
    assert gcd._GCD_GEN_LIMIT < 7
    for m in (x, seven):
        a, b = (m * (y + 1)).num, (m * (z + 1)).num
        assert gcd_with_divisor(a, b) == (m.num, (y + 1).num, (z + 1).num, True)
    assert calls == []


def test_a_single_term_against_many_gives_the_monomial_gcd():
    # the single-term test comes before the size guard, so one term against
    # 200 gives their whole monomial gcd
    x, y = var("x"), var("y")
    s = sum((y**k for k in range(200)), integer(0))
    a, b = (x**2 * s).num, (3 * x**3 * y).num
    assert len(a) == 200
    assert gcd_with_divisor(a, b) == ((x**2).num, s.num, (3 * x * y).num, True)


@pytest.mark.parametrize("a, b, g", [
    ("3*x^2*y*sin(x)", "x*y^2 + x*sin(x) + 2*x", "x"),
    ("-2*y^3*exp(x)", "x^2*y + x*y^2", "y"),
    ("5*x^3*sqrt(x^2 + 1)", "x^2 + 1", "1"),
    ("x^2 + sin(y)", "z^2 - 3*z + exp(z)", "1"),
    ("x*y + ln(y)", "z*ln(z) - 2", "1"),
])
def test_a_single_term_or_no_shared_generator_packs_nothing(monkeypatch, a, b, g):
    # one term against anything, or two operands with no generator in
    # common, have only their common monomial as gcd: it is read from the
    # dicts, and a gcd of 1 returns the operands themselves
    a, b = parse(a).num, parse(b).num
    for p, q in ((a, b), (b, a)):
        assert gcd_with_divisor(p, q) == tuple_gcd(p, q)
        assert gcd_with_divisor(p, q)[0] == parse(g).num
    packed = []
    pack = gcd._pk_from_poly
    monkeypatch.setattr(gcd, "_pk_from_poly", lambda *args: packed.append(1) or pack(*args))
    for p, q in ((a, b), (b, a)):
        qp, qq, whole = core._p_gcd(p, q)
        assert whole
        if g == "1":
            assert qp is p and qq is q
    assert packed == []


def _gcd_with(name, f, a, b):
    """gcd_with_divisor(a, b) with f in place of the packed gcd's function name."""
    saved = getattr(gcd, name)
    setattr(gcd, name, f)
    try:
        return gcd_with_divisor(a, b)
    finally:
        setattr(gcd, name, saved)


# Atoms of the division step's property: v * t + q, with t a single term
# and q a polynomial in the atoms other than v, has degree one in v
_TRIAL_ATOMS = (var("x"), var("y"), var("z"), sqrt(var("x") + 2), exp(var("y")),
                sin(var("x")), ln(var("z")))
_trial_terms = st.lists(
    st.tuples(st.integers(-3, 3).filter(bool),
              st.lists(st.sampled_from(range(len(_TRIAL_ATOMS))), max_size=2)),
    min_size=1, max_size=3,
)


def _trial_poly(terms, skip=None):
    total = integer(0)
    for c, picks in terms:
        term = integer(c)
        for i in picks:
            if i != skip:
                term = term * _TRIAL_ATOMS[i]
        total = total + term
    return total


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("divides", "degree one", "degree one divides", "planted")),
       st.sampled_from(range(len(_TRIAL_ATOMS))), _trial_terms, _trial_terms, _trial_terms,
       st.booleans())
def test_division_step_changes_no_gcd(shape, v, f, u, w, swap):
    # with the step switched off every pair goes to the heuristic, whose
    # gcd is unique up to sign, so both give the same (g, a/g, b/g, whole)
    # once g's sign is fixed
    if shape.startswith("degree one"):
        a = _TRIAL_ATOMS[v] * _trial_poly(u[:1], skip=v) + _trial_poly(w, skip=v)
        b = _trial_poly(f) * (a if shape.endswith("divides") else _trial_poly(u))
    else:
        f, u, w = _trial_poly(f), _trial_poly(u), _trial_poly(w)
        a, b = (f * u, f) if shape == "divides" else (f * u, f * w)
    a, b = (b.num, a.num) if swap else (a.num, b.num)
    if not (a and b):
        return
    assert gcd_with_divisor(a, b) == _gcd_with("_pk_trial_gcd", lambda *args: None, a, b)


# One of x, y and ln(z) takes exponents up to 300 (up to 600 in a
# product), so fields are up to 11 bits wide; the other generators stay
# at 2 or less, and exp(y) and sqrt(x^2 + 1) at 1, so that each factor is
# rewrite-normal as every polynomial the kernel builds is.  The
# heuristic's integers grow with the product of the degrees in every
# variable, which keeps these pairs small.
_SMALL_GENS = (X, Y, LN_Z, core._kernel_gen("exp", var("y")),
               core._kernel_gen("sqrt", var("x") ** 2 + 1))
_SQUARES_REWRITE = frozenset(_SMALL_GENS[3:])
_wide_terms = st.lists(
    st.tuples(
        st.integers(-9, 9).filter(bool),
        st.integers(0, 300),
        st.lists(st.tuples(st.sampled_from(_SMALL_GENS), st.integers(1, 2)), max_size=2),
    ),
    min_size=1, max_size=3,
)
_scales = st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool)


def _wide_poly(terms, wide, scale) -> dict:
    acc: dict = {}
    for c, e, picks in terms:
        mono = {wide: e} if e else {}
        for g, k in picks:
            if g is not wide:
                mono[g] = min(mono.get(g, 0) + k, 1 if g in _SQUARES_REWRITE else 2)
        key = tuple(sorted(mono.items(), key=lambda t: t[0].skey))
        acc[key] = acc.get(key, 0) + Fraction(c) * scale
    return core._poly_from_dict(acc)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((X, Y, LN_Z)), _wide_terms, _wide_terms, _wide_terms, _scales, _scales)
def test_packed_gcd_matches_the_tuple_oracle(wide, f, u, v, su, sv):
    f = _wide_poly(f, wide, 1)
    a = core._p_mul(f, _wide_poly(u, wide, su))
    b = core._p_mul(f, _wide_poly(v, wide, sv))
    if not (a and b):
        return
    assert gcd_with_divisor(a, b) == tuple_gcd(a, b)


def test_packed_gcd_matches_the_tuple_oracle_on_wide_fields():
    # the property above on seeded pairs, each of which reaches the
    # heuristic with fields at least 8 bits wide
    rng = random.Random(32)
    reached = 0
    for _ in range(40):
        wide = rng.choice((X, Y, LN_Z))

        def poly(n):
            # a constant term keeps out a common monomial factor
            return _wide_poly([(rng.choice([-3, -1, 2, 5]), 0, [])] + [
                (rng.choice([-3, -1, 2, 5]), rng.randint(0, 300),
                 [(rng.choice(_SMALL_GENS), rng.randint(1, 2))]) for _ in range(n)], wide, 1)

        f, u, v = poly(2), poly(rng.randint(1, 3)), poly(rng.randint(1, 3))
        a, b = core._p_mul(f, u), core._p_mul(core._p_scale(f, Fraction(-2, 3)), v)
        gens = sorted(core._p_gens(a) | core._p_gens(b))
        if packed_layout(gens, a, b)[1] < 8:
            continue
        reached += 1
        assert gcd_with_divisor(a, b) == tuple_gcd(a, b)
        # the packed search alone, with the division step switched off
        assert _gcd_with("_pk_trial_gcd", lambda *args: None, a, b) == tuple_gcd(a, b)
    assert reached >= 20


def test_a_field_that_borrows_does_not_divide():
    # over (x, y) with 3-bit fields x^2 packs to 16 and x*y^2 to 10: their
    # difference 6 is positive, but its y field borrowed (0 - 2); read as
    # a key, 6 is y^6, so x^2 + x^2*y^2 would pass for x*y^2 * (y^6 + x)
    x, y = var("x"), var("y")
    f, d = (x**2 + y**2).num, (x * y**2).num
    shifts, w, guard = packed_layout([X, Y], f, d)
    assert (w, gcd._pk_from_poly(f, shifts)[1], gcd._pk_from_poly(d, shifts)[1]) == (
        3, {16: 1, 2: 1}, {10: 1})
    for p in ({16: 1, 2: 1}, {16: 1}, {16: 1, 18: 1}):
        assert gcd._pk_exact_div(p, {10: 1}, w, guard) is None
    assert poly_quotient(f, d) is None
    assert poly_quotient((x**2 + x**2 * y**2).num, d) is None
    assert zz_exact_div(zz_from_poly(f, [X, Y])[1], zz_from_poly(d, [X, Y])[1]) is None
    # and a divisor with more terms behind the same leading key
    assert poly_quotient(f, (x * y**2 + 1).num) is None
    assert poly_quotient((x * y**2 * (x + y)).num, d) == (x + y).num


def test_a_digit_past_its_field_rejects_the_candidate():
    # a field w bits wide holds exponents below 2^(w - 1), its guard bit:
    # with w = 2 the balanced 10-adic expansion of 23 = 2*10 + 3 fits, and
    # that of 123 needs exponent 2, so no such candidate divides an input
    assert gcd._pk_interpolate({0: 23}, 10, 0, 2) == {1: 2, 0: 3}
    assert gcd._pk_interpolate({0: 123}, 10, 0, 2) is None
    # the digits go into the field above the key's own, at shift 2
    assert gcd._pk_interpolate({1: 23}, 10, 2, 2) == {0b101: 2, 0b001: 3}


def test_exponent_past_the_degree_limit_stops_the_gcd(monkeypatch):
    # the heuristic's first point is raised to every exponent, here 2^64;
    # past _GCD_DEGREE_LIMIT the gcd stops early and evaluates nothing
    evaluate = gcd._pk_eval_first

    def bounded(f, x, s, powers):
        assert max(f) >> s <= gcd._GCD_DEGREE_LIMIT
        return evaluate(f, x, s, powers)

    monkeypatch.setattr(gcd, "_pk_eval_first", bounded)
    start = time.perf_counter()
    total = parse("1/(x^(2^64) - y) + 1/(x^(2^64) + y)")
    assert time.perf_counter() - start < 1
    assert (total - parse("2*x^(2^64)/((x^(2^64) - y)*(x^(2^64) + y))")).is_zero_literal()
    assert core._p_gcd(parse("x^(2^64) - y").num, parse("x^(2^64) + y").num)[2] is False
    # the limit itself is still evaluated; one past it is not
    for e, whole in ((gcd._GCD_DEGREE_LIMIT, True), (gcd._GCD_DEGREE_LIMIT + 1, False)):
        f = parse(f"x^{e} - y")
        g, _, _, found = gcd_with_divisor((f * (var("y") + 1)).num, (f * (var("y") + 2)).num)
        assert (g == f.num, found) == (whole, whole)


def test_a_point_past_the_bit_limit_stops_the_gcd(monkeypatch):
    # f = x^d*y^d*z^d + x*y + 1 shared by two operands: each level of the
    # heuristic evaluates at a point past the last level's coefficients,
    # so the integers grow with the product of the degrees (22.8 s at
    # d = 120 without the bound); past _GCD_BIT_LIMIT the gcd stops early
    evaluate = gcd._pk_eval_first

    def bounded(f, x, s, powers):
        assert (max(f) >> s) * x.bit_length() <= gcd._GCD_BIT_LIMIT
        return evaluate(f, x, s, powers)

    monkeypatch.setattr(gcd, "_pk_eval_first", bounded)
    x, y, z = var("x"), var("y"), var("z")
    for d, whole in ((40, True), (120, False)):
        f = x ** d * y ** d * z ** d + x * y + 1
        a, b = (f * (x + y + z + 1)).num, (f * (x - y + 2 * z)).num
        start = time.perf_counter()
        found = core._p_gcd(a, b)[2]
        assert time.perf_counter() - start < 1
        g, ca, cb, _ = gcd_with_divisor(a, b)
        assert found is whole
        assert (g == f.num) is whole
        assert core._p_mul(g, ca) == a and core._p_mul(g, cb) == b
