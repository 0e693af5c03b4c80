"""Exact expression kernel: canonical arithmetic, parsing, evaluation, zero test."""

from .core import (
    Expr,
    KernelDomainError,
    KernelError,
    ONE,
    ZERO,
    as_expr,
    cos,
    exp,
    _qnorm as exact_coefficient,
    integer,
    kernel_apply,
    ln,
    rational,
    sin,
    sqrt,
    sum_of_products,
    var,
)
from .parse import ParseError, parse
from .zerotest import DEFAULT_CONFIG, Verdict, ZeroTestConfig, ZeroTestResult, is_zero
from . import numeric  # the placeholder zerotest registered; its body has not run

__all__ = [
    "Expr",
    "KernelDomainError",
    "KernelError",
    "ONE",
    "ZERO",
    "as_expr",
    "cos",
    "exp",
    "exact_coefficient",
    "integer",
    "kernel_apply",
    "ln",
    "parse",
    "ParseError",
    "rational",
    "sin",
    "sqrt",
    "sum_of_products",
    "var",
    "EvalDomainError",
    "eval_expr",
    "DEFAULT_CONFIG",
    "Verdict",
    "ZeroTestConfig",
    "ZeroTestResult",
    "is_zero",
]


def __getattr__(name):
    # the numeric evaluator's names, read from it on first use (PEP 562)
    if name in ("EvalDomainError", "eval_expr"):
        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
