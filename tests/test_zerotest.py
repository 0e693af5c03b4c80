"""Zero test soundness, determinism, and the numeric evaluator."""

import json
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from geolin.kernel import (
    EvalDomainError,
    Verdict,
    ZeroTestConfig,
    as_expr,
    cos,
    eval_expr,
    exp,
    integer,
    is_zero,
    ln,
    parse,
    rational,
    sin,
    sqrt,
    var,
)
from geolin.kernel import zerotest
from geolin.kernel.core import KERNEL_NAMES
from helpers import fresh_stream_is_zero, from_digits, random_polynomial
from test_golden import CASES, run_case

x = var("x")
y = var("y")


def test_zero_verdict_is_structural_only():
    assert is_zero(x - x).verdict is Verdict.ZERO
    assert is_zero(exp(x) * exp(-x) - 1).verdict is Verdict.ZERO
    assert is_zero((x + 1) ** 2 - x**2 - 2 * x - 1).verdict is Verdict.ZERO


def test_soundness_guard_disguised_zeros():
    # mathematically zero but not canonically zero: must never be ZERO
    # (that would be unsound the other way) and never NONZERO
    double_angle = sin(2 * x) - 2 * sin(x) * cos(x)
    disguised = [double_angle, ln(exp(x)) - x, exp(ln(x + 2)) - x - 2]
    for e in disguised:
        r = is_zero(e)
        assert r.verdict is Verdict.UNDECIDED, (str(e), r)


def test_nonzero_constants_exact():
    r = is_zero(rational(1, 10**30))
    assert r.verdict is Verdict.NONZERO
    assert r.witness_value == "1/1000000000000000000000000000000"


def test_nonzero_with_witness():
    r = is_zero(x**2 - y)
    assert r.verdict is Verdict.NONZERO
    assert set(r.witness) == {"x", "y"}
    assert r.witness_value is not None


def test_kernel_constant_decided_numerically():
    assert is_zero(exp(integer(1)) - 3).verdict is Verdict.NONZERO
    assert is_zero(sqrt(integer(2)) - 1).verdict is Verdict.NONZERO


def test_determinism():
    e = x**3 - y + exp(x * y)
    a = is_zero(e)
    b = is_zero(e)
    assert a == b
    c = is_zero(e, ZeroTestConfig(seed=99))
    assert c.verdict is Verdict.NONZERO


def test_config_points_respected():
    cfg = ZeroTestConfig(points=3)
    r = is_zero(ln(exp(x)) - x, cfg)
    assert r.verdict is Verdict.UNDECIDED
    assert "3" in r.detail


def test_singular_points_resampled():
    # pole at a sample component is skipped, not fatal
    e = 1 / (x - 1) - y
    assert is_zero(e).verdict is Verdict.NONZERO


def test_eval_values():
    v, peak = eval_expr(exp(x) - 1, {"x": 1}, 128)
    assert abs(v - 1.7182818284590452) < 1e-12
    assert peak >= v


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        eval_expr(ln(x), {"x": -1})
    with pytest.raises(EvalDomainError):
        eval_expr(sqrt(x), {"x": -4})
    with pytest.raises(EvalDomainError):
        eval_expr(1 / x, {"x": 0})
    with pytest.raises(EvalDomainError):
        eval_expr(x + y, {"x": 1})


def test_eval_refuses_kernel_arguments_past_the_bound():
    big = 2 ** (2 ** 16 + 1)
    for kernel in (exp, sin, cos):
        with pytest.raises(EvalDomainError, match="past 2"):
            eval_expr(kernel(x), {"x": big})
        with pytest.raises(EvalDomainError):
            eval_expr(kernel(x), {"x": -big})
    v, _ = eval_expr(exp(x), {"x": 2 ** 60}, 64)
    assert mpmath.mag(v) > 2 ** 60
    assert eval_expr(ln(x), {"x": big})[0] > 0


def test_exp_towers_are_decided_or_undecided_without_raising():
    # the five-level tower once asked mpmath for an exponent of about
    # 10^15 bits and raised MemoryError; a sample whose exp argument is
    # past the bound is now drawn again like a pole
    four = is_zero(parse("exp(exp(exp(exp(x)))) - y"))
    assert four.verdict is Verdict.NONZERO
    assert four.witness == {"x": "41631/32768", "y": "87893/65536"}
    assert four.witness_value == "5.8447868879137e+887149818185140"
    five = is_zero(parse("exp(exp(exp(exp(exp(x))))) - y"))
    assert five.verdict is Verdict.NONZERO
    six = is_zero(parse("exp(exp(exp(exp(exp(exp(x)))))) - y"))
    assert six.verdict is Verdict.UNDECIDED


def test_eval_peak_tracks_cancellation():
    # ln(exp(x)) - x evaluates to rounding noise while the peak stays
    # around exp(x); the verdict logic depends on exactly this gap
    e = ln(exp(x)) - x
    v, peak = eval_expr(e, {"x": 1}, 256)
    assert abs(v) < 1e-60
    assert peak > 2


def _draws(seed, count):
    """The first count components the zero test draws for one variable."""
    rng = random.Random(seed)
    return [Fraction(rng.randint(0, 2 ** 16) + 2 ** 15, 2 ** 16) for _ in range(count)]


def _first_point(seed, names):
    """The first sample point the zero test draws over the sorted names."""
    rng = random.Random(seed)
    return {name: rational(rng.randint(0, 2 ** 16) + 2 ** 15, 2 ** 16) for name in names}


_NAME_SETS = (("x",), ("x", "y"), ("x", "y", "z"), ("y", "z"))
_CONFIGS = (ZeroTestConfig(), ZeroTestConfig(seed=1, points=3), ZeroTestConfig(seed=7, points=1))


def _zero_test_batch(seed):
    """Seeded (residual, config) pairs over interleaved name sets, seeds and
    point counts: polynomials, planted roots and poles, kernel residuals,
    kernel and rational constants, and the zero."""
    rng = random.Random(seed)
    batch = []
    for i in range(72):
        names = _NAME_SETS[i // 18]
        config = _CONFIGS[i // 6 % 3]
        first = _first_point(config.seed, names)
        head = var(names[0])
        poly = random_polynomial(rng, names=names, degree=3)
        kind = i % 6
        if kind == 0:
            e = poly
        elif kind == 1:
            # a pole at the first draw
            e = poly / (head - first[names[0]]) + head
        elif kind == 2:
            # a root at the first draw
            e = (head - first[names[0]]) * (poly + head)
        elif kind == 3:
            e = rng.choice((exp, sin, ln))(poly * poly + head) - var(names[-1])
        elif kind == 4:
            e = rng.choice((exp(integer(1)) - 3, sqrt(integer(2)) * sqrt(integer(3))
                            - sqrt(integer(6)), ln(exp(head)) - head))
        else:
            e = rng.choice((rational(rng.randint(-9, 9), rng.randint(1, 9)), head - head,
                            head ** 4097 - var(names[-1])))
        batch.append((e, config))
    return batch


def _fields(r):
    return r.verdict, r.witness, r.witness_value, r.detail


def test_sample_memo_agrees_with_fresh_streams(monkeypatch):
    batch = _zero_test_batch(26)
    expected = [_fields(fresh_stream_is_zero(e, config)) for e, config in batch]
    assert {v for v, *_ in expected} == set(Verdict)
    streams = {}
    monkeypatch.setattr(zerotest, "_STREAMS", streams)
    cold = []
    for e, config in batch:
        streams.clear()
        cold.append(_fields(is_zero(e, config)))
    warm = [_fields(is_zero(e, config)) for e, config in reversed(batch)][::-1]
    assert cold == expected
    assert warm == expected
    # each result owns its witness dict
    r = is_zero(*batch[0])
    r.witness.clear()
    assert _fields(is_zero(*batch[0])) == expected[0]


def test_sample_memo_is_thread_safe(monkeypatch):
    # more threads than most machines have cores, all starting from an
    # empty memo and switching often, so that they interleave in each call
    batch = _zero_test_batch(27)
    serial = [_fields(is_zero(e, config)) for e, config in batch]
    monkeypatch.setattr(zerotest, "_STREAMS", {})
    results = [None] * 4

    def run(slot):
        results[slot] = [_fields(is_zero(e, config)) for e, config in batch]

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * len(results)


def test_sample_memo_is_emptied_when_full(monkeypatch):
    monkeypatch.setattr(zerotest, "_STREAMS", {})
    cap = zerotest._STREAM_CAP
    e = x ** 2 - y
    for seed in range(cap + 2):
        config = ZeroTestConfig(seed=seed)
        assert _fields(is_zero(e, config)) == _fields(fresh_stream_is_zero(e, config))
        assert len(zerotest._STREAMS) == (seed + 1 if seed < cap else seed + 1 - cap)


def test_high_powers_stay_out_of_the_power_table(monkeypatch):
    monkeypatch.setattr(zerotest, "_STREAMS", {})
    e = x ** 4000 - y
    r = is_zero(e)
    assert _fields(r) == _fields(fresh_stream_is_zero(e))
    assert r.witness == {name: str(a) for name, a in _first_point(0, ("x", "y")).items()}
    (point,) = zerotest._STREAMS[0, ("x", "y")]
    assert point and all(exponent <= zerotest._POWER_CAP for _, exponent in point)


def test_kernel_free_nonzero_is_exact_whatever_the_tolerance():
    r = is_zero(x**2 - y, ZeroTestConfig(tolerance=1e300))
    assert r.verdict is Verdict.NONZERO
    assert r.detail == "nonzero at sample 1"


def test_config_tolerance_floor_follows_the_precision():
    assert ZeroTestConfig(precision_bits=120).tolerance == 1e-30
    assert ZeroTestConfig(precision_bits=53, tolerance=2.0 ** -33).precision_bits == 53
    for bad in (dict(precision_bits=119), dict(precision_bits=53, tolerance=2.0 ** -34),
                dict(tolerance=0.0), dict(tolerance=float("inf")), dict(points=1025)):
        with pytest.raises(ValueError):
            ZeroTestConfig(**bad)


def test_pole_at_a_sample_point_is_redrawn():
    first, second = _draws(0, 2)
    r = is_zero(1 / (x - rational(first.numerator, first.denominator)))
    assert r.verdict is Verdict.NONZERO
    assert r.witness == {"x": str(second)}
    assert r.detail == "nonzero at sample 1"
    assert float(r.witness_value) == pytest.approx(float(1 / (second - first)), rel=1e-14)


def test_poles_at_every_sample_exhaust_the_budget():
    den = integer(1)
    for d in _draws(0, 8):
        den = den * (x - rational(d.numerator, d.denominator))
    r = is_zero(1 / den, ZeroTestConfig(points=1))
    assert r.verdict is Verdict.UNDECIDED
    assert "budget" in r.detail


def test_only_kernel_residuals_reach_the_numeric_evaluator(monkeypatch):
    calls = []
    real = zerotest.eval_expr
    monkeypatch.setattr(zerotest, "eval_expr",
                        lambda e, *args: calls.append(e) or real(e, *args))
    e = x**2 - y / 3
    r = is_zero(e)
    assert calls == []
    # the witness value prints as the numeric evaluation of the same point did
    point = {name: Fraction(v) for name, v in r.witness.items()}
    assert r.witness_value == str(real(e, point, 256)[0])
    assert is_zero(exp(x) - y).verdict is Verdict.NONZERO
    assert calls == [exp(x) - y]
    # so do powers whose exact values would have about 2^68 bits
    huge = parse("x^(2^64)") - y
    assert is_zero(huge).verdict is Verdict.NONZERO
    assert calls[-1] == huge


def test_huge_rational_constant_prints_its_witness():
    r = is_zero(parse("2^8000*2^8000") / 3)
    assert r.verdict is Verdict.NONZERO
    num, den = r.witness_value.split("/")
    assert len(num) == 4817 and from_digits(num) == 2 ** 16000
    assert den == "3"


def _mpmath_str(p, q, precision_bits):
    """rational_str's reference: p / q rounded by mpmath and printed by it."""
    from mpmath.libmp import from_rational, round_nearest
    return str(mpmath.mpf(from_rational(p, q, precision_bits, round_nearest),
                          prec=precision_bits))


def _rational_str_cases(rng):
    # just under the tie in binary, so the nines are kept
    yield 9999999999999995, 10 ** 16, 256
    yield -9999999999999995, 10 ** 16, 53
    # rounds up through every nine and carries into a new leading digit
    yield 9999999999999996, 10 ** 16, 256
    yield 9999999999999996, 10 ** 16, 53
    for e in (3498, 3499, 3500, 3501, 4000):  # around and past the fallback
        yield 2 ** e + 1, 1, 256
        yield -1, 2 ** e + 1, 256
        yield 2 ** e * 10 ** 40 + 3, 10 ** 40, 128
    for _ in range(400):
        prec = rng.choice((53, 64, 128, 256, 512))
        yield rng.randint(-10 ** 6, 10 ** 6) or 1, rng.randint(1, 10 ** 6), prec
        yield rng.getrandbits(600) - 2 ** 599 or 1, rng.getrandbits(600) + 1, prec
        # near ties at the fifteenth digit
        lead = rng.randint(10 ** 14, 10 ** 15 - 1) * 10 + rng.choice((4, 5, 6))
        yield lead * 10 ** rng.randint(0, 30), 10 ** rng.randint(0, 40), prec
        # powers of ten and their neighbours, over shifted denominators
        yield 10 ** rng.randint(0, 40) + rng.randint(-3, 3) or 1, rng.choice(
            (1, 3, 7, 10 ** rng.randint(0, 30))) << rng.randint(0, 3000), prec


def test_rational_str_prints_as_mpmath_does():
    checked = 0
    for p, q, prec in _rational_str_cases(random.Random(83)):
        assert zerotest.rational_str(p, q, prec) == _mpmath_str(p, q, prec), (p, q, prec)
        checked += 1
    assert checked == 1619


_coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12)
_terms = st.lists(st.tuples(_coeff, st.integers(0, 4), st.integers(0, 4)),
                  min_size=1, max_size=6)
_component = st.integers(2 ** 15, 2 ** 16 + 2 ** 15)


def _poly(terms):
    p = integer(0)
    for c, i, j in terms:
        p = p + as_expr(c) * x**i * y**j
    return p


@settings(max_examples=100, deadline=None)
@given(_terms, _terms, _component, _component)
def test_exact_value_agrees_with_numeric_evaluation(num_terms, den_terms, a, b):
    num, den = _poly(num_terms), _poly(den_terms)
    if num.is_zero_literal() or den.is_zero_literal():
        return
    e = num / den
    p, q = zerotest._exact_at(e, zerotest._Point({"x": a, "y": b}))
    point = {"x": Fraction(a, 2 ** 16), "y": Fraction(b, 2 ** 16)}
    if q == 0:
        assert e.den.substitute({k: as_expr(v) for k, v in point.items()}) == 0
        return
    value, peak = eval_expr(e, point, 512)
    with mpmath.workprec(512):
        assert abs(mpmath.mpf(p) / q - value) <= mpmath.mpf(2) ** -480 * peak


def test_corpus_witnesses_replay_exactly(tmp_path):
    replayed = 0
    for _, command, document, gauge in CASES:
        _, out = run_case(command, document, gauge, tmp_path)
        if not out:
            continue
        for record in json.loads(out).get("conditions", []):
            if record["verdict"] != "nonzero" or not record["witness"]:
                continue
            if any(f"{name}(" in record["residual"] for name in KERNEL_NAMES):
                continue
            residual = parse(record["residual"])
            point = {k: as_expr(Fraction(v)) for k, v in record["witness"].items()}
            value = residual.substitute(point)
            assert value.is_rational() and not value.is_zero_literal(), record
            assert float(value.as_rational()) == pytest.approx(
                float(record["witness_value"]), rel=1e-14)
            replayed += 1
    assert replayed > 0


def test_root_and_pole_at_sample_points_are_redrawn(monkeypatch):
    # the first sample is a root of the residual and the second a pole;
    # the root counts as a sample, the pole does not, and neither witnesses
    scale = zerotest._SCALE
    draws = iter([{"x": scale}, {"x": scale * 5 // 4}, {"x": scale * 3 // 2}])
    monkeypatch.setattr(zerotest, "_sample_point", lambda rng, names: next(draws))
    # an empty memo, so that the three planted draws are the ones used
    monkeypatch.setattr(zerotest, "_STREAMS", {})
    r = is_zero((x - 1) / (x - rational(5, 4)))
    assert r.verdict is Verdict.NONZERO
    assert r.witness == {"x": "3/2"}
    assert r.detail == "nonzero at sample 2"
    assert float(r.witness_value) == 2
    assert [p.coords["x"] for p in zerotest._STREAMS[0, ("x",)]] == [
        scale, scale * 5 // 4, scale * 3 // 2]


@pytest.mark.parametrize("expr, detail", [
    (sqrt(integer(2)) * sqrt(integer(3)) - sqrt(integer(6)), "constant numerically small"),
    (exp(integer(2) ** 70000) - 1, "evaluation failed"),
], ids=["small", "failed"])
def test_kernel_constant_left_undecided(expr, detail):
    r = is_zero(expr)
    assert r.verdict is Verdict.UNDECIDED
    assert r.detail.startswith(detail)
