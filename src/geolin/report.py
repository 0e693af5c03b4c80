"""Condition reports: ordered residual records with an overall verdict.

Every checker in this package produces the same shape of answer: a list
of labelled residual expressions, each classified by the zero test, plus
an overall verdict.  PASS requires every residual to be canonically
zero.  A single NONZERO residual makes the whole report FAIL.  Anything
short of that (an UNDECIDED residual and no NONZERO one) leaves the
report UNDECIDED; an inconclusive zero test never upgrades to PASS.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .kernel import (
    DEFAULT_CONFIG,
    Expr,
    Verdict,
    ZeroTestConfig,
    ZeroTestResult,
    is_zero,
)
from .kernel.frozen import Frozen

PASS = "PASS"
FAIL = "FAIL"
UNDECIDED = "UNDECIDED"


class ConditionRecord(Frozen):
    """One labelled residual together with its zero-test outcome."""

    condition_id: str
    residual: Expr
    result: ZeroTestResult

    @property
    def verdict(self) -> Verdict:
        return self.result.verdict


class ConditionReport(Frozen):
    """Ordered condition records of one check.

    facts carries side information that does not influence the verdict,
    e.g. a metric determinant and whether it degenerates.
    """

    records: Tuple[ConditionRecord, ...]
    facts: Tuple[Tuple[str, str], ...] = ()

    @property
    def overall(self) -> str:
        verdicts = [r.verdict for r in self.records]
        if any(v is Verdict.NONZERO for v in verdicts):
            return FAIL
        if all(v is Verdict.ZERO for v in verdicts):
            return PASS
        return UNDECIDED

    def record(self, condition_id: str) -> ConditionRecord:
        for r in self.records:
            if r.condition_id == condition_id:
                return r
        raise KeyError(condition_id)

    def fact(self, key: str) -> Optional[str]:
        for k, v in self.facts:
            if k == key:
                return v
        return None


def evaluate_conditions(
    labelled: list,
    config: ZeroTestConfig = DEFAULT_CONFIG,
    facts: Tuple[Tuple[str, str], ...] = (),
) -> ConditionReport:
    """Run the zero test over (condition_id, residual) pairs in order."""
    records = tuple(
        ConditionRecord(cid, residual, is_zero(residual, config))
        for cid, residual in labelled
    )
    return ConditionReport(records=records, facts=facts)

