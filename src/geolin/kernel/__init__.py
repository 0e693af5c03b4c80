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
from .numeric import EvalDomainError, eval_expr
from .zerotest import DEFAULT_CONFIG, Verdict, ZeroTestConfig, ZeroTestResult, is_zero

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
