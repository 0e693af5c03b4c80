"""A stand-in for the part of gmpy2 that geolin uses, for hosts without it.

``mpq`` and ``mpz`` are types of their own, as in gmpy2: an ``mpq`` is not
a ``fractions.Fraction`` and an ``mpz`` is not an ``int``, so the kernel's
``c.__class__ is int`` tests and its ``int(c.numerator)`` conversions take
the branches they take with the real backend.  Values are exact: each
wraps a Fraction or an int and does its arithmetic through it.  Mixed
arithmetic with int, mpz and Fraction gives an mpq, integer division
gives an mpz, as gmpy2 does.  Floats are refused, and so is true division
of two mpz, which gmpy2 answers with a float.

Put this directory first on ``sys.path`` to run the kernel on it; see
``tests/test_mpq_backend.py``.
"""

import math
import numbers
import operator
from fractions import Fraction


def _plain(v):
    """The int or Fraction behind an operand, or None for foreign types."""
    if isinstance(v, (mpq, mpz)):
        return v._v
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        return v
    return None


def _wrap(v):
    if isinstance(v, tuple):
        return tuple(_wrap(x) for x in v)
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return mpz(v)
    if isinstance(v, Fraction):
        return mpq(v)
    return v


def _binary(op, reflected=False):
    def method(self, other):
        o = _plain(other)
        if o is None:
            return NotImplemented
        return _wrap(op(o, self._v) if reflected else op(self._v, o))
    return method


def _compare(op):
    def method(self, other):
        o = _plain(other)
        if o is None:
            return NotImplemented
        return op(self._v, o)
    return method


class _Number:
    __slots__ = ("_v",)

    def __hash__(self):
        return hash(self._v)

    def __bool__(self):
        return bool(self._v)

    def __int__(self):
        return int(self._v)

    def __float__(self):
        return float(self._v)

    def __neg__(self):
        return _wrap(-self._v)

    def __pos__(self):
        return self

    def __abs__(self):
        return _wrap(abs(self._v))

    def __str__(self):
        return str(self._v)

    def __pow__(self, n):
        n = _plain(n)
        if not isinstance(n, int):
            return NotImplemented
        return _wrap(self._v ** n)

    __eq__ = _compare(operator.eq)
    __ne__ = _compare(operator.ne)
    __lt__ = _compare(operator.lt)
    __le__ = _compare(operator.le)
    __gt__ = _compare(operator.gt)
    __ge__ = _compare(operator.ge)


for _name, _op in (("add", operator.add), ("sub", operator.sub), ("mul", operator.mul),
                   ("floordiv", operator.floordiv), ("mod", operator.mod),
                   ("divmod", divmod)):
    setattr(_Number, f"__{_name}__", _binary(_op))
    setattr(_Number, f"__r{_name}__", _binary(_op, reflected=True))


class mpz(_Number):
    """Exact integer, distinct from int."""

    __slots__ = ()

    def __init__(self, v=0):
        v = _plain(v)
        if not isinstance(v, int):
            raise TypeError("mpz() expects an integer")
        self._v = v

    def __index__(self):
        return self._v

    @property
    def numerator(self):
        return self

    @property
    def denominator(self):
        return mpz(1)

    def __repr__(self):
        return f"mpz({self._v})"


class mpq(_Number):
    """Exact rational, distinct from fractions.Fraction."""

    __slots__ = ()

    def __init__(self, num=0, den=None):
        n = _plain(num)
        d = 1 if den is None else _plain(den)
        if n is None or d is None:
            raise TypeError("mpq() expects exact rationals")
        self._v = Fraction(n) / d if den is not None else Fraction(n)

    def __truediv__(self, other):
        o = _plain(other)
        return NotImplemented if o is None else mpq(self._v / o)

    def __rtruediv__(self, other):
        o = _plain(other)
        return NotImplemented if o is None else mpq(o / self._v)

    @property
    def numerator(self):
        return mpz(self._v.numerator)

    @property
    def denominator(self):
        return mpz(self._v.denominator)

    def __repr__(self):
        return f"mpq({self._v.numerator},{self._v.denominator})"


numbers.Integral.register(mpz)
numbers.Rational.register(mpq)


def is_square(n):
    """True when the nonnegative integer n is a perfect square."""
    n = int(n)
    return n >= 0 and math.isqrt(n) ** 2 == n


def isqrt(n):
    """Integer square root, as an mpz."""
    return mpz(math.isqrt(int(n)))
