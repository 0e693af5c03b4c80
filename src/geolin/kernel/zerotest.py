"""Sound probabilistic zero test over the exact kernel.

The test never lies in the ZERO direction: ZERO is returned only for the
canonical zero expression.  A nonzero rational constant is NONZERO by
exact inspection.  Everything else is sampled at deterministic
pseudorandom rational points and judged at high precision relative to
the largest intermediate magnitude, so catastrophic cancellation cannot
spoof a NONZERO verdict into existence.  When every sample stays small
the answer is UNDECIDED, never ZERO.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .core import Expr
from .numeric import EvalDomainError, eval_expr


class Verdict(Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class ZeroTestConfig:
    """Knobs for the probabilistic zero test.

    points: number of sample points per decision.
    precision_bits: binary working precision of the evaluator.
    tolerance: relative threshold against the peak intermediate magnitude.
    seed: seed of the deterministic sample stream.
    """

    points: int = 16
    precision_bits: int = 256
    tolerance: float = 1e-30
    seed: int = 0


DEFAULT_CONFIG = ZeroTestConfig()


@dataclass(frozen=True)
class ZeroTestResult:
    verdict: Verdict
    witness: Optional[dict] = None
    witness_value: Optional[str] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.verdict is Verdict.ZERO


_SCALE = 1 << 16


def _sample_point(rng: random.Random, names) -> dict:
    # components in [1/2, 3/2], away from the usual coordinate poles at 0
    return {
        name: Fraction(rng.randint(0, _SCALE), _SCALE) + Fraction(1, 2)
        for name in names
    }


def is_zero(expr: Expr, config: ZeroTestConfig = DEFAULT_CONFIG) -> ZeroTestResult:
    """Classify an expression as ZERO, NONZERO, or UNDECIDED.

    ZERO is structural: only the canonical zero earns it.  NONZERO comes
    with a witness point and the value observed there.
    """
    if expr.is_zero_literal():
        return ZeroTestResult(Verdict.ZERO, detail="canonical zero")
    if expr.is_rational():
        q = expr.as_rational()
        return ZeroTestResult(
            Verdict.NONZERO,
            witness={},
            witness_value=f"{int(q.numerator)}/{int(q.denominator)}",
            detail="nonzero rational constant",
        )
    names = sorted(expr.variables())
    rng = random.Random(config.seed)
    if not names:
        # constant built from kernels, e.g. exp(1) - 1; one evaluation decides
        try:
            value, peak = eval_expr(expr, {}, config.precision_bits)
        except EvalDomainError as err:
            return ZeroTestResult(Verdict.UNDECIDED, detail=f"evaluation failed: {err}")
        if abs(value) > config.tolerance * peak:
            return ZeroTestResult(
                Verdict.NONZERO, witness={}, witness_value=str(value),
                detail="nonzero kernel constant",
            )
        return ZeroTestResult(Verdict.UNDECIDED, detail="constant numerically small")
    budget = 8 * config.points
    accepted = 0
    while accepted < config.points:
        if budget <= 0:
            return ZeroTestResult(
                Verdict.UNDECIDED,
                detail="sampling budget exhausted by singular points",
            )
        point = _sample_point(rng, names)
        budget -= 1
        try:
            value, peak = eval_expr(expr, point, config.precision_bits)
        except EvalDomainError:
            continue
        accepted += 1
        if abs(value) > config.tolerance * peak:
            witness = {name: str(point[name]) for name in names}
            return ZeroTestResult(
                Verdict.NONZERO,
                witness=witness,
                witness_value=str(value),
                detail=f"nonzero at sample {accepted}",
            )
    return ZeroTestResult(
        Verdict.UNDECIDED,
        detail=f"small at all {config.points} samples",
    )
