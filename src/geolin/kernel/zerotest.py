"""Sound probabilistic zero test over the exact kernel.

The test never lies in the ZERO direction: ZERO is returned only for the
canonical zero expression.  A nonzero rational constant is NONZERO by
exact inspection.  Everything else is sampled at deterministic
pseudorandom rational points.

The points a residual gets depend only on the seed and on its sorted
variable names, so each point is drawn once per process: _STREAMS maps
(seed, names) to the points drawn so far, each with its printed witness
and a table of its coordinate powers.  A point missing from the memo is
drawn by replaying the stream from a fresh generator, so the points, and
every verdict, witness and value, do not depend on the order of the
calls or on threads.  The memo holds at most _STREAM_CAP keys and is
emptied whole when full, and no power past _POWER_CAP is kept.

A residual free of kernels, of degree at most _EXACT_DEGREE, is
evaluated exactly, over plain ints: a sample where its denominator
vanishes is a pole and is drawn again, and a nonzero numerator proves
the residual nonzero.  By Schwartz (1980) and Zippel (1979) a
canonically nonzero polynomial vanishes at a random point of this grid
with probability about deg / 2^16 per coordinate, so the first sample
almost always decides.

Any other residual, one holding kernels (exp, ln, sin, cos, sqrt) or of
higher degree, is evaluated at high precision and judged relative to the
largest intermediate magnitude, so catastrophic cancellation cannot
spoof a NONZERO verdict into existence.  When every sample stays small
the answer is UNDECIDED, never ZERO.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from math import isfinite, lcm as _ilcm, log2
from typing import Optional

from .core import P_ONE, VAR, Expr, int_str
from .frozen import Frozen
from .numeric import EvalDomainError, eval_expr, rational_str


class Verdict(Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    UNDECIDED = "undecided"


class ZeroTestConfig(Frozen):
    """Knobs for the probabilistic zero test.

    points: number of sample points per decision.
    precision_bits: binary working precision of the numeric evaluator,
        and the precision the printed witness value is rounded to.
    tolerance: relative threshold against the peak intermediate magnitude.
    Kernel-free residuals up to degree 4096 are decided exactly, so only
    the rounding of their witness value depends on these two.
    seed: seed of the deterministic sample stream.
    Out-of-range knobs raise ValueError, a guard rather than a proof: below
    2^(20 - precision_bits) rounding alone could pass the tolerance.
    """

    points: int = 16
    precision_bits: int = 256
    tolerance: float = 1e-30
    seed: int = 0

    def __post_init__(self):
        n, bits, t = self.points, self.precision_bits, self.tolerance
        if not (1 <= n <= 1024 and 53 <= bits <= 65536):
            raise ValueError(f"zero test takes 1 to 1024 points at 53 to 65536 bits, "
                             f"got {n} points at {bits} bits")
        if not (isfinite(t) and t > 0 and log2(t) >= 20 - bits):
            raise ValueError(f"zero test tolerance must be finite and at least "
                             f"2^{20 - bits} at {bits} bits, got {t}")


DEFAULT_CONFIG = ZeroTestConfig()


class ZeroTestResult(Frozen):
    """Verdict of one zero test; a NONZERO one holds the witness point
    and the value printed there."""

    verdict: Verdict
    witness: Optional[dict] = None
    witness_value: Optional[str] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.verdict is Verdict.ZERO


_SCALE_BITS = 16
_SCALE = 1 << _SCALE_BITS
# exact values grow by about _SCALE_BITS + 1 bits per degree; past this
# degree a numeric evaluation is cheaper, and x^(2^64) is valid input
_EXACT_DEGREE = 1 << 12


def _sample_point(rng: random.Random, names) -> dict:
    """One sample point as {name: a}, standing for the component a / _SCALE.

    Components lie in [1/2, 3/2], away from the usual coordinate poles at 0.
    """
    return {name: rng.randint(0, _SCALE) + _SCALE // 2 for name in names}


# powers of a sample component up to this exponent are kept in its table
_POWER_CAP = 64


class _Point(dict):
    """A sample point, as the table of its coordinate powers.

    Keys are the (generator, exponent) pairs that monomials hold, values
    the power a^e of the point's component a; a missing pair is computed
    on lookup and kept when its exponent is at most _POWER_CAP.  coords
    is the point as {name: a}, witness its components printed as
    fractions, and values its components as Fractions for the numeric
    evaluator, built on first use.
    """

    __slots__ = ("coords", "witness", "values")

    def __init__(self, coords: dict):
        super().__init__()
        self.coords = coords
        self.witness = {name: str(Fraction(a, _SCALE)) for name, a in coords.items()}
        self.values = None

    def __missing__(self, pair):
        g, e = pair
        v = self.coords[g.name] ** e
        if e <= _POWER_CAP:
            self[pair] = v
        return v


# (seed, sorted names) -> tuple of the _Points drawn so far from that
# stream; emptied whole when it reaches _STREAM_CAP keys
_STREAMS: dict = {}
_STREAM_CAP = 1 << 8


def _resume(seed: int, names: tuple, count: int) -> random.Random:
    """A fresh random.Random(seed) past the first count points of the
    stream over names, so that no generator outlives the call using it."""
    rng = random.Random(seed)
    for _ in range(count):
        _sample_point(rng, names)
    return rng


def _remember(key, points: tuple) -> None:
    # a longer tuple replaces the old one, so a thread reading the old
    # tuple still reads a prefix of the same stream; a race between
    # threads here can only drop points from the memo, never change one
    if key not in _STREAMS and len(_STREAMS) >= _STREAM_CAP:
        _STREAMS.clear()
    _STREAMS[key] = points


def _plain_names(expr: Expr):
    """The set of expr's variable names when it holds no kernel and has
    degree at most _EXACT_DEGREE, else None."""
    gens = set()
    for p in (expr.num, expr.den):
        for m in p:
            d = 0
            for g, e in m:
                if g.kind != VAR:
                    return None
                gens.add(g)
                d += e
            if d > _EXACT_DEGREE:
                return None
    return {g.name for g in gens}


def _poly_at(p, point: _Point) -> tuple:
    """Exact value of a nonzero kernel-free polynomial at a sample point.

    Returns ints (v, w) with v / w the value: w is the lcm of the
    coefficient denominators times _SCALE^degree, which makes every term
    an integer.  The sum is exact, so the terms are taken in the dict's
    own order, and the running total is rescaled whenever a term of
    higher degree than any before it arrives.
    """
    lcm = 1
    for c in p.values():
        if c.__class__ is not int:
            lcm = _ilcm(lcm, c.denominator)
    total = 0
    degree = 0
    for m, c in p.items():
        if c.__class__ is int:
            v = c * lcm
        else:
            v = c.numerator * (lcm // c.denominator)
        d = 0
        for pair in m:
            v *= point[pair]
            d += pair[1]
        if d > degree:
            total <<= _SCALE_BITS * (d - degree)
            degree = d
        total += v << (_SCALE_BITS * (degree - d))
    return total, lcm << (_SCALE_BITS * degree)


def _exact_at(expr: Expr, point: _Point) -> tuple:
    """Ints (p, q) with p / q the value of a kernel-free expr at a sample
    point, as in _poly_at; q is 0 at a pole."""
    num, num_scale = _poly_at(expr.num, point)
    if expr.den is P_ONE:
        return num, num_scale
    den, den_scale = _poly_at(expr.den, point)
    return num * den_scale, den * num_scale


_CANONICAL_ZERO = ZeroTestResult(Verdict.ZERO, detail="canonical zero")


def is_zero(expr: Expr, config: ZeroTestConfig = DEFAULT_CONFIG) -> ZeroTestResult:
    """Classify an expression as ZERO, NONZERO, or UNDECIDED.

    ZERO is structural: only the canonical zero earns it.  NONZERO comes
    with a witness point and the value observed there.
    """
    if not expr.num:
        return _CANONICAL_ZERO
    if expr.is_rational():
        q = expr.as_rational()
        return ZeroTestResult(
            Verdict.NONZERO, {}, f"{int_str(q.numerator)}/{int_str(q.denominator)}",
            "nonzero rational constant",
        )
    names = _plain_names(expr)
    exact = names is not None
    if not exact:
        names = expr.variables()
    if not names:
        # constant built from kernels, e.g. exp(1) - 1; one evaluation decides
        try:
            value, peak = eval_expr(expr, {}, config.precision_bits)
        except EvalDomainError as err:
            return ZeroTestResult(Verdict.UNDECIDED, None, None, f"evaluation failed: {err}")
        if abs(value) > config.tolerance * peak:
            return ZeroTestResult(Verdict.NONZERO, {}, str(value), "nonzero kernel constant")
        return ZeroTestResult(Verdict.UNDECIDED, None, None, "constant numerically small")
    names = tuple(sorted(names))
    key = (config.seed, names)
    points = _STREAMS.get(key, ())
    rng = None
    budget = 8 * config.points
    accepted = 0
    drawn = 0
    while accepted < config.points:
        if drawn >= budget:
            return ZeroTestResult(Verdict.UNDECIDED, None, None,
                                  "sampling budget exhausted by singular points")
        if drawn == len(points):
            if rng is None:
                rng = _resume(config.seed, names, drawn)
            points = (*points, _Point(_sample_point(rng, names)))
            _remember(key, points)
        point = points[drawn]
        drawn += 1
        if exact:
            p, q = _exact_at(expr, point)
            if not q:
                continue
            accepted += 1
            if not p:
                continue
            value = rational_str(p, q, config.precision_bits)
        else:
            values = point.values
            if values is None:
                values = point.values = {name: Fraction(a, _SCALE)
                                         for name, a in point.coords.items()}
            try:
                value, peak = eval_expr(expr, values, config.precision_bits)
            except EvalDomainError:
                continue
            accepted += 1
            if not abs(value) > config.tolerance * peak:
                continue
            value = str(value)
        return ZeroTestResult(Verdict.NONZERO, dict(point.witness), value,
                              f"nonzero at sample {accepted}")
    return ZeroTestResult(Verdict.UNDECIDED, None, None,
                          f"small at all {config.points} samples")
