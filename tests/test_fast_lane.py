"""The polynomial fast lane of Expr arithmetic against the general path.

An operand whose denominator is the shared P_ONE object is a polynomial,
and +, -, *, scalar * and /, and a kernel-free diff act on its numerator
dict directly.  An operand whose denominator is an equal but distinct
copy of P_ONE misses the identity check and takes the general path
through _p_gcd, _mk_product and _mk.  Both must give the same canonical
pair, with every integral coefficient held as an int.

sum_of_products accumulates a sum of polynomial products into one dict,
and a sum of kernel-free reduced fractions over one common denominator
that one gcd reduces; every product looks its monomial pairs up in the
bounded memo _MEMO, and a miss merges the two monomials into the one
interned monomial of their product.  All must give what
the chained Expr operations give, and a sum holding a kernel, an operand
whose gcd stopped early, or a gcd of the sum's own that stops early must
run those operations in order.
"""

import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

from geolin.document import load_document
from geolin.geometry import Christoffel, riemann
from geolin.kernel import core, cos, exp, gcd, integer, ln, rational, sin, sqrt, sum_of_products, var
from geolin.transform import coefficients_from_transformation, normal_form
from helpers import kernel_free_mono_merge, random_invertible_map, random_polynomial

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
x, y = var("x"), var("y")
# each factor fires a rewrite inside _p_mul when it meets itself or its
# partner: exp(x)*exp(-x) = 1, sin^2 = 1 - cos^2, sqrt(x)^2 = x, sqrt(2)^2 = 2
KERNEL_FACTORS = (x, y, exp(x), exp(-x), exp(y), sin(x), cos(x), sqrt(x), sqrt(integer(2)))
# sums and differences of these two meet integral Fraction coefficients
HALVES = rational(1, 2) * x**2 + rational(1, 3) * x**3 * y
SCALARS = (0, 1, -1, 3, Fraction(3, 2), Fraction(-1, 3), Fraction(4, 2))


def _general(e):
    """e with its denominator 1 as a distinct dict, so no lane fires."""
    assert e.den is core.P_ONE
    return core.Expr(e.num, dict(e.den), _internal=True)


def _fraction_polynomial(rng):
    return sum((Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * x ** rng.randint(0, 2)
                * y ** rng.randint(0, 2) for _ in range(4)), integer(0))


def _kernel_polynomial(rng):
    acc = integer(0)
    for _ in range(3):
        term = rng.choice((integer(rng.randint(-4, 4)), rational(rng.randint(-4, 4), 2)))
        for _ in range(rng.randint(1, 2)):
            term = term * rng.choice(KERNEL_FACTORS)
        acc = acc + term
    return acc


def _operands(seed):
    rng = random.Random(seed)
    return [random_polynomial(rng, names=("x", "y", "z")), _fraction_polynomial(rng),
            _kernel_polynomial(rng), _kernel_polynomial(rng),
            HALVES, -HALVES + x**3 * y, integer(0), integer(5)]


def _assert_same(lane, general):
    assert lane.key() == general.key()
    assert str(lane) == str(general)
    for c in (*lane.num.values(), *lane.den.values()):
        assert c.denominator != 1 or c.__class__ is int, (str(lane), c)


OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("seed", range(8))
def test_lane_matches_the_general_path(op, seed):
    f = OPS[op]
    operands = _operands(seed)
    for a in operands:
        for b in operands:
            assert a.den is core.P_ONE and b.den is core.P_ONE
            _assert_same(f(a, b), f(a, _general(b)))
            _assert_same(f(a, b), f(_general(a), b))


@pytest.mark.parametrize("seed", range(8))
def test_scalar_lane_matches_the_general_path(seed):
    for a in _operands(seed):
        for q in SCALARS:
            general_q = _general(core.as_expr(q))
            _assert_same(a * q, a * general_q)
            _assert_same(q * a, general_q * a)
            if q:
                _assert_same(a / q, a / general_q)


def _diff_by_terms(e, name):
    """The partial derivative of a kernel-free polynomial as the sum of
    its terms' partials, every operation on the general path."""
    total = _general(core.ZERO)
    for m, c in core._terms(e.num):
        for g, k in m:
            if g.name != name:
                continue
            part = _general(core.as_expr(c * k))
            for h, j in m:
                part = part * _general(core._gen_expr(h) ** (j - 1 if h is g else j))
            total = _general(total + part)
    return total


@pytest.mark.parametrize("seed", range(8))
def test_kernel_free_diff_lane_matches_the_term_sum(seed):
    rng = random.Random(seed)
    for a in (random_polynomial(rng, names=("x", "y", "z"), degree=4, terms=6),
              _fraction_polynomial(rng), HALVES):
        for name in ("x", "y", "w"):
            _assert_same(a.diff(name), _diff_by_terms(a, name))


# x^2 + x + 1 over x^2 - 2 and x^2 + 3: neither product divides the other
# and neither has degree one in x, so their gcd takes the heuristic
COMMON, LEFT, RIGHT = x**2 + x + 1, x**2 - 2, x**2 + 3


def test_scaling_a_fraction_whose_gcd_stopped_early_takes_the_full_path(monkeypatch):
    monkeypatch.setattr(gcd, "_HEU_TRIES", 0)
    e = COMMON * LEFT * sin(x) / (COMMON * RIGHT)
    assert core._p_gcd(e.num, e.den)[2] is False
    assert str(e) == ("(sin(x)*x^4 + sin(x)*x^3 - sin(x)*x^2 - 2*sin(x)*x - 2*sin(x))"
                      "/(x^4 + x^3 + 4*x^2 + 3*x + 3)")
    three = _general(integer(3))
    _assert_same(e * 3, e * three)
    monkeypatch.undo()
    # with the heuristic back, the full normalization finds the factor
    for scaled in (e * 3, 3 * e, e * three):
        _assert_same(scaled, 3 * LEFT * sin(x) / RIGHT)
    _assert_same(e / 3, LEFT * sin(x) / (3 * RIGHT))


def _dens(e):
    yield e.den
    for p in (e.num, e.den):
        for g in core._p_gens(p):
            if g.kind == core.KERNEL:
                yield from _dens(g.arg)


def _assert_one_is_shared(exprs):
    checked = 0
    for e in exprs:
        for den in _dens(e):
            assert den is core.P_ONE or den != core.P_ONE, str(e)
            checked += 1
    assert checked


def test_a_denominator_cancelled_to_one_is_the_shared_one():
    # each sum's gcd returns its cofactor 1 as a fresh dict
    for e in (1 / x + (x - 1) / x, x / (x + 1) + 1 / (x + 1)):
        assert e.den is core.P_ONE, str(e)


def test_corpus_coefficients_share_the_one_denominator():
    for path in sorted(CORPUS.glob("*.ini")):
        _assert_one_is_shared(load_document(str(path)).coefficients.values())


def test_closure_coefficients_and_normal_forms_share_the_one_denominator():
    rng = random.Random(31)
    for _ in range(10):
        system = coefficients_from_transformation(random_invertible_map(rng))
        cubic, _ = normal_form(system)
        _assert_one_is_shared(system.entries().values())
        _assert_one_is_shared(cubic.entries().values())


def test_curvature_shares_the_one_denominator():
    rng = random.Random(1)
    slots = [(i, j, k) for i in (1, 2, 3)
             for j, k in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))]
    gamma = Christoffel.from_components(3, {
        slot: random_polynomial(rng, names=("x", "y", "z"), terms=2) for slot in slots})
    _assert_one_is_shared(riemann(gamma).entries)


WEIGHTS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6))


def _chained(terms):
    """The sum of w * a * b built by chained Expr operations."""
    total = integer(0)
    for w, a, b in terms:
        total = total + (a * b if b is not None else a) * w
    return total


def _sequential(terms):
    """The operations sum_of_products runs off the polynomial path."""
    total = integer(0)
    for w, a, b in terms:
        t = a if w in (1, -1) else a * abs(w)
        if b is not None:
            t = t * b
        total = total - t if w < 0 else total + t
    return total


def _random_terms(rng, operands):
    return [(rng.choice(WEIGHTS), rng.choice(operands),
             rng.choice((None, *operands))) for _ in range(rng.randint(1, 6))]


@pytest.mark.parametrize("seed", range(8))
def test_fused_sum_matches_the_chained_build(seed):
    rng = random.Random(seed)
    polynomials = [random_polynomial(rng, names=("x", "y", "z")), _fraction_polynomial(rng),
                   HALVES, integer(0), integer(5)]
    # exp(x)*exp(-x) = 1, sin^2 = 1 - cos^2 and sqrt(x)^2 = x fire in the products
    kernels = [_kernel_polynomial(rng), exp(x) + sin(x), exp(-x) - sin(x),
               sqrt(x) + cos(x), 2 * sqrt(x) - exp(y)]
    for operands in (polynomials, kernels, polynomials + kernels):
        for _ in range(6):
            terms = _random_terms(rng, operands)
            _assert_same(sum_of_products(terms), _chained(terms))


@pytest.mark.parametrize("seed", range(4))
def test_fused_sum_over_fractions_runs_the_operations_in_order(seed):
    rng = random.Random(seed)
    operands = [random_polynomial(rng) / (x + 1), (x * sin(y) - sin(y)) / (x - 1),
                sqrt(x) / x, _kernel_polynomial(rng), HALVES]
    for _ in range(6):
        terms = _random_terms(rng, operands)
        _assert_same(sum_of_products(terms), _sequential(terms))


# kernel-free denominators: D, E, D^2 (a multiple of D) and D*E
D = x + 2 * y + 1
E = x * y - 3


def _plain_fractions(rng):
    """Seeded reduced fractions over D (twice), E, D^2 and D*E."""
    return [random_polynomial(rng) / den for den in (D, D, E, D * D, D * E)]


def _count_fused(monkeypatch):
    """A list that grows by one each time the common-denominator path
    returns a sum instead of handing over to the chained operations."""
    fused, plain_sum = [], core._plain_sum

    def counted(terms, scale):
        out = plain_sum(terms, scale)
        if out is not None:
            fused.append(out)
        return out

    monkeypatch.setattr(core, "_plain_sum", counted)
    return fused


def _refuse_fused(monkeypatch):
    def refuse(terms, scale):
        raise AssertionError("the common-denominator path ran")

    monkeypatch.setattr(core, "_plain_sum", refuse)


def _assert_chained(terms):
    got, want = sum_of_products(terms), _chained(terms)
    assert got == want
    _assert_same(got, want)
    _assert_same(got, _sequential(terms))


@pytest.mark.parametrize("seed", range(8))
def test_fused_sum_over_plain_fractions_matches_the_chained_build(seed, monkeypatch):
    fused = _count_fused(monkeypatch)
    rng = random.Random(seed)
    operands = _plain_fractions(rng) + [random_polynomial(rng), HALVES, integer(0)]
    for _ in range(12):
        _assert_chained(_random_terms(rng, operands))
    assert fused


PLAIN_SUMS = {
    "shared denominator": [(1, (x - y) / D, None), (-2, (x * y) / D, None), (3, y / D, x)],
    "distinct denominators": [(1, x / D, None), (1, y / E, None), (-1, (x + y) / (D * E), y)],
    "D and D^2": [(1, x / D, None), (2, y / (D * D), None), (1, x / D, (y + 1) / D)],
    # the cofactor of the polynomial group grows with L from 1
    "polynomials before fractions": [(1, x**2 + y, None), (-3, HALVES, x),
                                     (1, (x - y) / D, None), (1, y / E, x)],
    # Fraction weights on and after the first fraction term
    "Fraction weights": [(2, x + y, None), (Fraction(1, 2), x / D, None),
                         (Fraction(-2, 3), y / E, None), (Fraction(5, 6), (x + 1) / (D * D), y)],
    "a zero operand": [(1, x / D, integer(0)), (3, integer(0), None),
                       (1, y / E, x / D), (-1, integer(0), y / E), (1, HALVES, None)],
}


@pytest.mark.parametrize("case", sorted(PLAIN_SUMS))
def test_fused_sum_cases_match_the_chained_build(case, monkeypatch):
    fused = _count_fused(monkeypatch)
    _assert_chained(PLAIN_SUMS[case])
    assert len(fused) == 1


def test_a_fused_sum_that_cancels_is_zero_and_runs_no_final_gcd(monkeypatch):
    f, g, h = (x - y) / D, (x * y + 1) / D, y / E
    cancelling = [
        [(1, f, None), (-1, f, None)],
        [(1, f, g), (-1, g, f), (Fraction(1, 2), g, f), (Fraction(-1, 2), f, g)],
        [(1, x, f), (-1, f * x, None), (2, x**2 - y, None), (-2, x**2 - y, None)],
        [(1, f, None), (1, h, None), (-1, f + h, None)],
    ]
    # a final reduction, the gcd of the sum and its normalization, raises
    monkeypatch.setattr(core, "_mk_coprime", None)
    for terms in cancelling:
        assert sum_of_products(terms) is core.ZERO
    # over one shared denominator no lcm gcd runs either
    monkeypatch.setattr(core, "_p_gcd", None)
    for terms in cancelling[:2]:
        assert sum_of_products(terms) is core.ZERO
    monkeypatch.undo()
    for terms in cancelling:
        _assert_chained(terms)


def test_a_kernel_operand_takes_the_chained_operations(monkeypatch):
    _refuse_fused(monkeypatch)
    rng = random.Random(3)
    fractions = _plain_fractions(rng)
    for kernel in (exp(x) / D, sqrt(x) + 1, sin(y) / E):
        terms = [(1, fractions[0], None), (Fraction(1, 2), kernel, fractions[2]),
                 (-1, fractions[3], x)]
        _assert_same(sum_of_products(terms), _sequential(terms))


def test_an_operand_whose_gcd_stopped_early_takes_the_chained_operations(monkeypatch):
    monkeypatch.setattr(gcd, "_HEU_TRIES", 0)
    partial = COMMON * LEFT / (COMMON * RIGHT)
    assert partial._plain is False
    assert str(partial) == "(x^4 + x^3 - x^2 - 2*x - 2)/(x^4 + x^3 + 4*x^2 + 3*x + 3)"
    monkeypatch.undo()
    _refuse_fused(monkeypatch)
    rng = random.Random(4)
    fractions = _plain_fractions(rng)
    for terms in ([(1, partial, None), (1, fractions[0], None)],
                  [(2, fractions[1], partial), (-1, fractions[2], y)]):
        _assert_same(sum_of_products(terms), _sequential(terms))


def _plain_sum_outputs(monkeypatch):
    """A list of what each call of the common-denominator path returned."""
    outputs, plain_sum = [], core._plain_sum

    def recorded(terms, scale):
        outputs.append(plain_sum(terms, scale))
        return outputs[-1]

    monkeypatch.setattr(core, "_plain_sum", recorded)
    return outputs


# past a limit of 2 terms: in "distinct denominators" the lcm gcd of
# D (3 terms) and E stops; "shared denominator" runs no lcm gcd, and the
# final cancel of its numerator x*y + x - y against D stops
@pytest.mark.parametrize("case", ["distinct denominators", "shared denominator"])
def test_a_fused_sum_whose_gcd_stops_takes_the_chained_operations(case, monkeypatch):
    terms = PLAIN_SUMS[case]
    want = sum_of_products(terms)
    outputs = _plain_sum_outputs(monkeypatch)
    monkeypatch.setattr(gcd, "_GCD_TERM_LIMIT", 2)
    got = sum_of_products(terms)
    _assert_same(got, _sequential(terms))
    assert outputs == [None]
    monkeypatch.undo()
    assert (got - want) is core.ZERO

def test_a_cold_memo_gives_the_warm_result():
    rng = random.Random(5)
    operands = [random_polynomial(rng, names=("x", "y", "z"), terms=6),
                _kernel_polynomial(rng), _kernel_polynomial(rng), HALVES]
    terms = [(w, a, b) for w, a, b in zip(WEIGHTS, operands * 2, operands[::-1] * 2)]
    pairs = [(a, b) for a in operands for b in operands]
    sum_of_products(terms)
    warm = [sum_of_products(terms)] + [a * b for a, b in pairs]
    core._MEMO.clear()
    cold = [sum_of_products(terms)]
    for a, b in pairs:
        core._MEMO.clear()
        cold.append(a * b)
    for c, w in zip(cold, warm):
        _assert_same(c, w)


def test_the_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(core, "_MEMO", {})
    monkeypatch.setattr(core, "_MEMO_CAP", 16)
    rng = random.Random(9)
    small = [random_polynomial(rng, names=("x", "y", "z"), terms=3) for _ in range(6)]
    for a in small:
        for b in small:
            p = a * b
            assert len(core._MEMO) <= 16
            _assert_same(p, a * _general(b))
    # 5 * 6 term pairs are more than the memo holds: they bypass it
    a = x + y + 2 * x * y + x**2 + 3 * y**3
    b = x - 2 * y + x**2 * y + y**2 + x**3 - 1
    assert len(a.num) * len(b.num) > 16
    before = dict(core._MEMO)
    _assert_same(a * b, a * _general(b))
    assert core._MEMO == before


def _random_monomial(rng, names):
    """A kernel-free monomial over a random subset of names, possibly empty."""
    chosen = sorted(rng.sample(names, rng.randint(0, len(names))))
    return core._mono(tuple((core._var_gen(name), rng.randint(1, 3)) for name in chosen))


@pytest.mark.parametrize("seed", range(4))
def test_kernel_free_monomials_merge_as_the_oracle(seed):
    rng = random.Random(seed)
    names = ["u", "v", "w", "x", "y", "z"]
    for _ in range(200):
        m1, m2 = _random_monomial(rng, names), _random_monomial(rng, names)
        mono, extras = core._mono_combine(m1, m2)
        assert mono is core._mono(kernel_free_mono_merge(m1, m2))
        assert not extras


# kernel-free factors and exp, sqrt, sin and ln generators; exp(x)*exp(y)
# merges into exp(x + y), sqrt(x)^2 and sin(x)^2 fire rewrites
MONOMIAL_FACTORS = (x, y, x**2, exp(x), exp(y), sqrt(x), sqrt(y + 1), sin(x), ln(x + 2))


@pytest.mark.parametrize("seed", range(4))
def test_an_equal_product_monomial_is_the_same_object(seed):
    rng = random.Random(seed)
    monomials = set()
    for _ in range(30):
        term = integer(1)
        for _ in range(rng.randint(0, 3)):
            term = term * rng.choice(MONOMIAL_FACTORS)
        monomials.update(term.num)
    monomials = sorted(monomials, key=core._term_sort_key)
    merged = 0
    for m1 in monomials:
        for m2 in monomials:
            mono, extras = core._mono_combine(m1, m2)
            keys = [g.skey for g, _ in mono]
            assert keys == sorted(set(keys))
            assert mono is core._mono(tuple(mono))
            assert core._mono_combine(m2, m1)[0] is mono
            if not extras:
                # the product dict holds that very object as its key
                assert core._p_mul({m1: 1}, {m2: 1}) == {mono: 1}
                merged += bool(m1 and m2)
    assert merged

