"""Zero test soundness, determinism, and the numeric evaluator."""

import pytest

from geolin.kernel import (
    EvalDomainError,
    Verdict,
    ZeroTestConfig,
    cos,
    eval_expr,
    exp,
    integer,
    is_zero,
    ln,
    rational,
    sin,
    sqrt,
    var,
)

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


def test_eval_peak_tracks_cancellation():
    # ln(exp(x)) - x evaluates to rounding noise while the peak stays
    # around exp(x); the verdict logic depends on exactly this gap
    e = ln(exp(x)) - x
    v, peak = eval_expr(e, {"x": 1}, 256)
    assert abs(v) < 1e-60
    assert peak > 2
