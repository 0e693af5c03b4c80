"""Exact multivariate rational expressions over opaque transcendental kernels.

The canonical form is a reduced pair of sparse polynomials with exact
coefficients.  A coefficient is a plain Python int whenever it is integral
and a fractions.Fraction only when it is not; every coefficient division
goes through _qdiv, which keeps that rule.  Generators are either named variables or kernel
applications (exp, ln, sin, cos, sqrt) whose arguments are themselves
canonical expressions.  Construction keeps every value normalized:

* the denominator is a primitive integer polynomial with positive leading
  coefficient and shares no detected polynomial factor with the numerator,
* exp kernels merge under multiplication and never remain in a denominator
  as a monomial factor,
* a polynomial sqrt argument is reduced to an integer coefficient
  polynomial, and squares of such sqrt kernels collapse to their
  arguments; an argument N/D with a nonconstant denominator stays whole,
  since sqrt(N/D) = sqrt(N*D)/D holds only where D > 0,
* squares of sin kernels always rewrite through the Pythagorean
  identity sin^2 = 1 - cos^2.

Monomials are interned like generators: a monomial is a Mono, a tuple
of (generator, exponent) pairs that _mono builds once per value, so
equal monomials are one object, and a polynomial dict, the memo and
every accumulator hash a monomial by its address.  Two monomials are
merged by one dict merge, which applies these rewrites.  Every monomial
product is memoized: _MEMO maps a pair of monomials to their merged
monomial, or to the monomial and the polynomials a rewrite left to
multiply in.  The memo holds at most _MEMO_CAP entries and is emptied
when full; a product with more term pairs than that skips it.  A fresh
merge returns the very object the memo holds, so the memo only saves
work.  The intern table drops, past _MONO_CAP entries, the monomials
that nothing else holds.

Every expression whose denominator is 1 holds the shared P_ONE object, so
an identity test tells a polynomial apart.  Sums, differences and
products of two polynomials, a polynomial times or divided by an int or
Fraction, and the partial derivative of a kernel-free polynomial act on
the numerator dicts directly: with a constant denominator the general
path would only wrap the numerator, so the result is the same pair.
sum_of_products builds a sum of weighted products of polynomials in one
accumulator dict, which _p_mul runs on an empty dict for one product.

Common factors are found by one polynomial gcd that returns only its
cofactors, with a common sign that the caller's normalization removes.
A single-term operand, or two that share no generator, cancel only their
common monomial, read from the dicts.  Every other pair goes to the
packed heuristic gcd of gcd.py, which a process compiles when the first
such pair reaches it.  Its divisor is verified by exact division; past a
size guard, or when the heuristic gives up, it cancels only the common
monomial factor and reports that it stopped early, which bounds the work
at the price of a form that may not be fully reduced.

No gcd runs whose answer the canonical form already fixes.  Kernel-free
reduced pairs live in Q[vars], a unique factorization domain, so for
operands a/b and c/d the products a*c and b*d are coprime once gcd(a, d)
and gcd(c, b) are cancelled; the same holds for quotients and for
num^n / den^n, and such a pair only moves its denominator's content and
sign (_mk_coprime).  A whole sum_of_products over such pairs is added
over the lcm of their denominators and reduced by one gcd, which a
numerator that cancels to zero skips; by uniqueness of the reduced form
this is the chained sum.  Kernels are excluded, since over them
sqrt(x) * (sqrt(x)/x) reduces to 1 only through the final gcd.  So is
every gcd that stops early, which may leave a common factor: an operand
built by one, and a cross or lcm gcd that stops on this operation, send
the result through the full path, and a sum_of_products through the
chained operations.  Each expression records whether its own gcd ran to
the end, and every gcd returns that flag (whole) beside its cofactors.
The operand check runs only when the result's denominator is not
constant.  A single sum a/b + c/d over unequal denominators skips no
gcd: it takes g = gcd(b, d) and the final gcd of a*(d/g) + c*(b/g) over
the lcm b*(d/g).

Equality is structural equality of the canonical pair.  Deciding whether a
canonically nonzero pair represents the zero function is delegated to the
probabilistic zero test, not to this module.
"""

from __future__ import annotations

from decimal import Decimal as _Decimal
from fractions import Fraction
from math import gcd as _igcd, isqrt as _isqrt, lcm as _ilcm
from operator import attrgetter
from sys import getrefcount as _getrefcount
from threading import Lock
from typing import Mapping, Optional

from ..lazy import lazy_module


def _qnorm(v):
    """An exact coefficient as an int when it is integral."""
    if v.__class__ is int or v.denominator != 1:
        return v
    return v.numerator


def _qdiv(a, b):
    """Exact coefficient quotient a / b: an int when it is integral.

    Every coefficient division goes through here, since int / int would
    give a float.
    """
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _qnorm(a / b)

VAR = 0
KERNEL = 1

KERNEL_NAMES = ("exp", "ln", "sin", "cos", "sqrt")


class KernelError(Exception):
    """Base class for errors raised by the expression kernel."""


class KernelDomainError(KernelError):
    """A kernel was applied to a constant outside its real domain."""


class Gen:
    """An interned generator: a named variable or a kernel application.

    Interning makes equality identity, so Gen keeps object's own __eq__
    and __hash__, and copy and pickle rebuild a generator through the
    intern table.  Monomials are interned too, so a monomial lookup hashes
    no generator: only _mono, on a monomial's first build, hashes its
    pairs.
    """

    __slots__ = ("kind", "name", "arg", "skey")

    def __init__(self, kind: int, name: str, arg: Optional["Expr"], skey):
        self.kind = kind
        self.name = name
        self.arg = arg
        self.skey = skey

    def __lt__(self, other: "Gen") -> bool:
        return self.skey < other.skey

    def __reduce__(self):
        if self.kind == VAR:
            return _var_gen, (self.name,)
        return _kernel_gen, (self.name, self.arg)

    def __repr__(self) -> str:
        if self.kind == VAR:
            return f"Gen({self.name})"
        return f"Gen({self.name}({self.arg}))"


_GEN_CACHE: dict = {}


def _var_gen(name: str) -> Gen:
    # kernels sort before variables, hence the leading 1 here
    skey = (1, name)
    g = _GEN_CACHE.get(skey)
    if g is None:
        g = _GEN_CACHE[skey] = Gen(VAR, name, None, skey)
    return g


def _kernel_gen(fname: str, arg: "Expr") -> Gen:
    skey = (0, fname, arg.key())
    g = _GEN_CACHE.get(skey)
    if g is None:
        g = _GEN_CACHE[skey] = Gen(KERNEL, fname, arg, skey)
    return g


# ---------------------------------------------------------------------------
# Sparse polynomial layer.  A polynomial is a dict from monomial to nonzero
# coefficient, never mutated once built; a monomial is an interned Mono, a
# tuple of (Gen, positive int exponent) pairs sorted by generator, and the
# constant monomial is the empty M_ONE.  The dict holds no term
# order.  Graded order (_term_sort_key, leading term first) is computed only
# where it is observed: printing and the structural key (_terms), the
# leading term of sign normalization (_lead), and the summation order of
# numeric evaluation, which fixes its rounding.
# Substitution, and differentiation of a polynomial that holds a kernel,
# also sum their terms in graded order: over kernels, or past a gcd that
# stops early, the form a sum reduces to can depend on that order, and
# equal polynomials must give equal results.  A kernel-free partial
# derivative gives each monomial its own term, so nothing merges.
# Products have one loop, _p_mul_into, which adds a weighted product into
# an accumulator dict in place; _p_mul and sum_of_products both run it,
# and it looks each monomial pair up in the bounded memo _MEMO, whose
# 2^14 entries hold a few MB.  Every key hashes by address, so a lookup
# costs the same whatever the monomial's length.
# ---------------------------------------------------------------------------


class Mono(tuple):
    """An interned monomial: a tuple of (Gen, positive int exponent) pairs
    sorted by generator, built only by _mono.

    Interning makes equality identity, so a polynomial dict hashes its
    keys by address, and copy and pickle rebuild a monomial through the
    intern table.
    """

    __slots__ = ()
    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    def __reduce__(self):
        return _mono, (tuple(self),)


# plain tuple of pairs -> the one live Mono of that value.  Once the table
# holds _MONO_CAP entries and twice the survivors of its last sweep, a
# miss first drops every monomial that only the table still holds, so its
# size stays within max(_MONO_CAP, twice the monomials live elsewhere).
# _MONO_LOCK keeps a lookup from racing a drop, which would let two live
# monomials of one value split a polynomial's term in two.
_MONOS: dict = {}
_MONO_CAP = 1 << 15
_MONO_LOCK = Lock()
_mono_live = 0


def _mono(pairs: tuple) -> Mono:
    """The interned monomial of a plain tuple of sorted (Gen, exponent) pairs."""
    _MONO_LOCK.acquire()
    try:
        m = _MONOS.get(pairs)
        if m is None:
            if len(_MONOS) >= _MONO_CAP and len(_MONOS) >= 2 * _mono_live:
                _mono_sweep()
            m = _MONOS[pairs] = Mono(pairs)
        return m
    finally:
        _MONO_LOCK.release()


def _mono_sweep() -> None:
    """Drop the monomials that only _MONOS holds; run under _MONO_LOCK."""
    global _mono_live
    table = _MONOS
    # the table's reference and the argument's own are the only two
    for key in [k for k in table if _getrefcount(table[k]) == 2]:
        del table[key]
    _mono_live = len(table)


M_ONE = _mono(())
P_ZERO: dict = {}
P_ONE: dict = {M_ONE: 1}


_SKEY = attrgetter("skey")


def _term_sort_key(mono):
    deg = 0
    for _, e in mono:
        deg += e
    return (-deg, tuple([(g.skey, -e) for g, e in mono]))


def _terms(p) -> list:
    """p's (monomial, coefficient) terms in graded order, leading term first."""
    return sorted(p.items(), key=lambda t: _term_sort_key(t[0]))


def _lead(p):
    """The leading monomial of a nonzero polynomial in graded order.

    Only the monomials of top total degree can lead, so the full sort key
    is built for those alone.
    """
    top, candidates = -1, None
    for mono in p:
        deg = 0
        for _, e in mono:
            deg += e
        if deg > top:
            top, candidates = deg, [mono]
        elif deg == top:
            candidates.append(mono)
    if len(candidates) == 1:
        return candidates[0]
    return min(candidates, key=_term_sort_key)


def _poly_from_dict(d: dict) -> dict:
    return {m: c if c.__class__ is int else _qnorm(c) for m, c in d.items() if c}


def _p_const(q) -> dict:
    if q == 0:
        return P_ZERO
    if q == 1:
        return P_ONE
    return {M_ONE: _qnorm(q)}


def _p_is_const(p) -> bool:
    return not p or (len(p) == 1 and M_ONE in p)


def _p_add(p1, p2) -> dict:
    if not p1:
        return p2
    if not p2:
        return p1
    acc = dict(p1)
    for m, c in p2.items():
        v = acc.get(m)
        if v is None:
            acc[m] = c
        else:
            v = v + c
            if v == 0:
                del acc[m]
            else:
                acc[m] = v if v.__class__ is int else _qnorm(v)
    return acc


def _p_neg(p) -> dict:
    return {m: -c for m, c in p.items()}


def _p_scale(p, q) -> dict:
    if q == 0:
        return P_ZERO
    if q == 1:
        return p
    return {m: _qnorm(c * q) for m, c in p.items()}


def _p_quo(p, q) -> dict:
    """p with every coefficient divided exactly by the nonzero scalar q."""
    if q == 1:
        return p
    return {m: _qdiv(c, q) for m, c in p.items()}


def _pyth_poly(arg: "Expr") -> dict:
    # 1 - cos(arg)^2
    g = _kernel_gen("cos", arg)
    return {M_ONE: 1, _mono(((g, 2),)): -1}


def _mono_combine(m1, m2):
    """Merge two monomials applying the kernel rewrite rules.

    Returns (mono, extras) where extras is a list of polynomials that still
    have to be multiplied in (arguments of collapsed sqrt squares, the
    Pythagorean replacement of sin squares).
    """
    if not m1:
        return m2, ()
    if not m2:
        return m1, ()
    merged = dict(m1)
    for g, e in m2:
        first = merged.get(g)
        merged[g] = e if first is None else first + e
    exp_arg = None
    extras = []
    out = []
    # when every generator of m2 is in m1, merged keeps m1's sorted order
    for g in merged if len(merged) == len(m1) else sorted(merged, key=_SKEY):
        e = merged[g]
        if g.kind == KERNEL:
            if g.name == "exp":
                contrib = g.arg if e == 1 else g.arg * e
                exp_arg = contrib if exp_arg is None else exp_arg + contrib
                continue
            if g.name == "sqrt" and e >= 2 and _p_is_const(g.arg.den):
                extras.extend([g.arg.num] * (e // 2))
                if not e % 2:
                    continue
                e = 1
            elif g.name == "sin" and e >= 2:
                extras.extend([_pyth_poly(g.arg)] * (e // 2))
                if not e % 2:
                    continue
                e = 1
        out.append((g, e))
    if exp_arg is not None and exp_arg.num:
        out.append((_kernel_gen("exp", exp_arg), 1))
        out.sort(key=lambda t: t[0].skey)
    return _mono(tuple(out)), extras


# (m1, m2) -> product monomial, or [mono, extras] when a rewrite fired;
# emptied when it reaches _MEMO_CAP entries
_MEMO: dict = {}
_MEMO_CAP = 1 << 14


def _p_mul_into(acc: dict, p1, p2, w=1) -> None:
    """Add w * p1 * p2 into the accumulator dict acc in place.

    acc may be left holding zero or integral Fraction coefficients, which
    _poly_from_dict clears.  Each monomial product is looked up in _MEMO
    first: a product whose kernels fired no rewrite is stored as its
    monomial, one that fired a rewrite as the list [mono, extras].  A
    product with more term pairs than the memo holds would only evict
    its own entries, so it merges every pair afresh.
    """
    if len(p1) == 1 and M_ONE in p1:
        p1, p2 = p2, p1
    if len(p2) == 1 and M_ONE in p2:
        # a constant side fires no rewrite, so it only scales the other
        w = w * p2[M_ONE]
        for m, c in p1.items():
            v = acc.get(m)
            acc[m] = c * w if v is None else v + c * w
        return
    memo = _MEMO if len(p1) * len(p2) <= _MEMO_CAP else None
    items2 = p2.items()
    for m1, c1 in p1.items():
        if w != 1:
            c1 = c1 * w
        for m2, c2 in items2:
            c = c1 * c2
            if memo is None or (mono := memo.get((m1, m2))) is None:
                mono, extras = _mono_combine(m1, m2)
                if extras:
                    mono = [mono, extras]
                if memo is not None:
                    if len(memo) >= _MEMO_CAP:
                        memo.clear()
                    memo[m1, m2] = mono
            if mono.__class__ is list:
                piece = {mono[0]: c}
                for ex in mono[1]:
                    piece = _p_mul(piece, ex)
                for m, cc in piece.items():
                    v = acc.get(m)
                    acc[m] = cc if v is None else v + cc
            else:
                v = acc.get(mono)
                acc[mono] = c if v is None else v + c


def _p_mul(p1, p2) -> dict:
    if not p1 or not p2:
        return P_ZERO
    # scaling by a constant side returns the other side itself for 1
    if len(p1) == 1 and M_ONE in p1:
        return _p_scale(p2, p1[M_ONE])
    if len(p2) == 1 and M_ONE in p2:
        return _p_scale(p1, p2[M_ONE])
    acc: dict = {}
    _p_mul_into(acc, p1, p2)
    return _poly_from_dict(acc)


def _p_pow(p, n: int) -> dict:
    """p ** n for n >= 1."""
    result = None
    base = p
    k = n
    while k:
        if k & 1:
            result = base if result is None else _p_mul(result, base)
        k >>= 1
        if k:
            base = _p_mul(base, base)
    return result


def _p_gens(p) -> set:
    s = set()
    for m in p:
        for g, _ in m:
            s.add(g)
    return s


def _mono_div(m1, m2):
    """Componentwise quotient m1 / m2 of monomials, where m2 divides m1."""
    d = dict(m1)
    for g, e in m2:
        have = d[g] - e
        if have:
            d[g] = have
        else:
            del d[g]
    return _mono(tuple(sorted(d.items(), key=lambda t: t[0].skey)))


def _mono_common(monos):
    """Componentwise gcd of an iterable of monomials."""
    it = iter(monos)
    common = dict(next(it))
    for m in it:
        if not common:
            break
        md = dict(m)
        for g in list(common):
            e = md.get(g, 0)
            if e < common[g]:
                if e == 0:
                    del common[g]
                else:
                    common[g] = e
    return _mono(tuple(sorted(common.items(), key=lambda t: t[0].skey)))


def _poly_abs_content(p):
    """Positive c with p / c primitive integer; an int if integral."""
    num_gcd = 0
    den_lcm = 1
    for c in p.values():
        if c.__class__ is int:
            num_gcd = _igcd(num_gcd, c)
        else:
            num_gcd = _igcd(num_gcd, c.numerator)
            den_lcm = _ilcm(den_lcm, c.denominator)
    return num_gcd if den_lcm == 1 else Fraction(num_gcd, den_lcm)


def _poly_rat_content(p):
    """Signed c with p / c primitive integer, positive leading; an int if integral."""
    content = _poly_abs_content(p)
    return -content if p[_lead(p)] < 0 else content


# the packed gcd, compiled when the first pair past _p_gcd's dict exits reaches it
_gcd = lazy_module("geolin.kernel.gcd")


def _p_gcd(a, b):
    """Cofactors of a polynomial gcd: (a/g, b/g, whole) for nonzero a, b.

    The cofactors are exact quotients by one common divisor g.  Their
    common sign is arbitrary: every caller ends in _mk_coprime, which
    divides by the denominator's signed content.  When one operand is a
    single term or they share no generator, g is their common monomial,
    read from the dicts.  Else the pair goes to gcd.packed_gcd.  whole is
    False when that search stopped early, and g may then leave a common
    factor behind.  A gcd of 1 returns a and b themselves.
    """
    if _p_is_const(a) or _p_is_const(b):
        return a, b, True
    if len(a) == 1 or len(b) == 1:
        mono = _mono_common([*a, *b])
        if not mono:
            return a, b, True
        return ({_mono_div(m, mono): c for m, c in a.items()},
                {_mono_div(m, mono): c for m, c in b.items()}, True)
    gens_a, gens_b = _p_gens(a), _p_gens(b)
    if gens_a.isdisjoint(gens_b):
        return a, b, True
    return _gcd.packed_gcd(a, b, sorted(gens_a | gens_b))


# ---------------------------------------------------------------------------
# Canonical rational pair.
# ---------------------------------------------------------------------------


def _poly_key(p):
    return tuple(
        (tuple((g.skey, e) for g, e in m), (c.numerator, c.denominator))
        for m, c in _terms(p)
    )


class Expr:
    """An immutable exact expression in canonical rational form."""

    # _plain: False once a kernel is seen or a gcd building the pair stopped
    # early, True once the pair is known to be reduced and free of kernels,
    # None until _is_plain first looks
    __slots__ = ("num", "den", "_key", "_plain")

    def __init__(self, num, den, _internal=False):
        if not _internal:
            raise TypeError("use the var/integer/rational constructors")
        self.num = num
        self.den = den
        self._key = None
        self._plain = None

    # -- construction helpers ------------------------------------------------

    def key(self):
        """Deterministic, hashable, totally ordered structural key."""
        k = self._key
        if k is None:
            k = (_poly_key(self.num), _poly_key(self.den))
            self._key = k
        return k

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            if isinstance(other, (int, Fraction)):
                return self == as_expr(other)
            return NotImplemented
        return self.num == other.num and self.den == other.den

    # -- predicates and views --------------------------------------------

    def is_zero_literal(self) -> bool:
        """True when this is the canonical zero pair."""
        return not self.num

    def is_rational(self) -> bool:
        """True when the expression is a bare rational constant."""
        return _p_is_const(self.num) and _p_is_const(self.den)

    def as_rational(self):
        """The exact rational value of a constant expression."""
        if not self.is_rational():
            raise KernelError("expression is not a rational constant")
        if not self.num:
            return 0
        return _qdiv(self.num[M_ONE], self.den[M_ONE])

    def variables(self) -> frozenset:
        """Names of all variables, including those inside kernel arguments."""
        names = set()
        _collect_vars(self.num, names)
        _collect_vars(self.den, names)
        return frozenset(names)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Expr:
            other = as_expr(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den is P_ONE and other.den is P_ONE:
            return _poly_expr(_p_add(self.num, other.num))
        if self.den == other.den:
            return _mk(_p_add(self.num, other.num), self.den)
        # over the least common denominator: b*d / gcd(b, d)
        qb, qd, _ = _p_gcd(self.den, other.den)
        num = _p_add(_p_mul(self.num, qd), _p_mul(other.num, qb))
        return _mk(num, _p_mul(self.den, qd))

    __radd__ = __add__

    def __neg__(self):
        e = Expr(_p_neg(self.num), self.den, _internal=True)
        e._plain = self._plain
        return e

    def __sub__(self, other):
        if other.__class__ is not Expr:
            other = as_expr(other)
            if other is NotImplemented:
                return NotImplemented
        if self.den is P_ONE and other.den is P_ONE:
            return _poly_expr(_p_add(self.num, _p_neg(other.num)))
        return self + (-other)

    def __rsub__(self, other):
        other = as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        cls = other.__class__
        if cls is not Expr:
            if (cls is int or cls is Fraction) and self.den is P_ONE:
                return _poly_expr(_p_scale(self.num, other))
            other = as_expr(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if self.den is P_ONE and other.den is P_ONE:
            return _poly_expr(_p_mul(self.num, other.num))
        # cross reduction keeps intermediate products small
        a, d2, whole = _p_gcd(self.num, other.den)
        b, d1, whole2 = _p_gcd(other.num, self.den)
        return _mk_product(_p_mul(a, b), _p_mul(d1, d2), whole and whole2, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        cls = other.__class__
        if cls is not Expr:
            if (cls is int or cls is Fraction) and other and self.den is P_ONE:
                return _poly_expr(_p_quo(self.num, other))
            other = as_expr(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.num:
            raise ZeroDivisionError("exact division by zero expression")
        if not self.num:
            return ZERO
        a, b, whole = _p_gcd(self.num, other.num)
        c, d, whole2 = _p_gcd(other.den, self.den)
        return _mk_product(_p_mul(a, c), _p_mul(d, b), whole and whole2, self, other)

    def __rtruediv__(self, other):
        other = as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponents must be integers")
        if n == 0:
            return ONE
        if n < 0:
            if not self.num:
                raise ZeroDivisionError("zero raised to a negative power")
            base = _mk_product(self.den, self.num, True, self)
            n = -n
        else:
            base = self
        if n == 1:
            return base
        return _mk_product(_p_pow(base.num, n), _p_pow(base.den, n), True, base)

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "Expr":
        """Exact partial derivative with respect to the named variable."""
        dn = _poly_diff(self.num, name)
        if _p_is_const(self.den):
            # a canonical constant denominator is 1
            return dn
        dd = _poly_diff(self.den, name)
        den_e = Expr(self.den, P_ONE, _internal=True)
        num_e = Expr(self.num, P_ONE, _internal=True)
        return (dn * den_e - num_e * dd) / (den_e * den_e)

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Simultaneous substitution of variables by expressions."""
        if not mapping:
            return self
        num_e = _poly_subst(self.num, mapping)
        den_e = _poly_subst(self.den, mapping)
        return num_e / den_e

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return _print_expr(self)

    def __repr__(self):
        return f"Expr({self})"

    def __reduce__(self):
        # a copy goes over the shared P_ONE again and keeps a stopped gcd
        return _mk_coprime, (self.num, self.den, self._plain is not False)


def _poly_expr(p) -> Expr:
    """The polynomial p over the shared denominator P_ONE."""
    return Expr(p, P_ONE, _internal=True) if p else ZERO


def sum_of_products(terms) -> Expr:
    """The sum of w * a * b over terms (w, a, b), with w an int or
    Fraction and b None for a term w * a.

    The weights are scaled to ints by the lcm of their denominators, which
    is divided out once at the end.  When every a and b is a polynomial,
    every product is accumulated into one dict.  When every a and b is
    plain (_is_plain: reduced and free of kernels), the products are added
    over the lcm of their denominators and reduced by one gcd: a rational
    function over Q has one reduced form with a normalized denominator, so
    this is the pair the chained operations give.  Otherwise, and when a
    gcd of that path stops early or at most one product is nonzero, the
    terms are added in order, each as a * |w| * b (a alone for w = 1 or
    -1), subtracted when w is negative: over kernels, or after a gcd
    stopped early, the reduced form can depend on the order of the
    operations.
    """
    scale = 1
    polynomial = True
    for w, a, b in terms:
        if a.den is not P_ONE or (b is not None and b.den is not P_ONE):
            polynomial = False
        if w.__class__ is not int:
            scale = _ilcm(scale, w.denominator)
    if polynomial:
        acc: dict = {}
        for w, a, b in terms:
            p, q = a.num, P_ONE if b is None else b.num
            if not p or not q:
                continue
            if w.__class__ is not int:
                w = w.numerator * (scale // w.denominator)
            elif scale != 1:
                w *= scale
            _p_mul_into(acc, p, q, w)
        return _poly_expr(_p_quo(_poly_from_dict(acc), scale))
    if all(_is_plain(a) and (b is None or _is_plain(b)) for _, a, b in terms):
        fused = _plain_sum(terms, scale)
        if fused is not None:
            return fused
    total = ZERO
    for w, a, b in terms:
        if not a.num or (b is not None and not b.num):
            continue
        t = a if w == 1 or w == -1 else a * abs(w)
        if b is not None:
            t = t * b
        total = total - t if w < 0 else total + t
    return total


def _plain_sum(terms, scale):
    """sum_of_products over plain operands, or None for the chained
    operations: when at most one product is nonzero, since that chain
    needs no final gcd, or when a gcd stops early."""
    live = [(w, a, ONE if b is None else b)
            for w, a, b in terms if a.num and (b is None or b.num)]
    if len(live) < 2:
        return None
    # [den, accumulated numerators over den], one per distinct denominator
    groups = []
    for w, a, b in live:
        den = b.den if a.den is P_ONE else a.den if b.den is P_ONE else _p_mul(a.den, b.den)
        for group in groups:
            if group[0] is den or group[0] == den:
                break
        else:
            group = [den, {}]
            groups.append(group)
        w = w * scale if w.__class__ is int else w.numerator * (scale // w.denominator)
        _p_mul_into(group[1], a.num, b.num, w)
    # L = lcm of the denominators, with the cofactor L/den of each
    lcm, cofactors = groups[0][0], [P_ONE]
    for den, _ in groups[1:]:
        if den == lcm:
            q_lcm = q_den = P_ONE
        else:
            q_lcm, q_den, whole = _p_gcd(lcm, den)
            if not whole:
                return None
        if q_den is not P_ONE:
            cofactors = [_p_mul(c, q_den) for c in cofactors]
            lcm = _p_mul(lcm, q_den)
        cofactors.append(q_lcm)
    acc: dict = {}
    for (_, part), cofactor in zip(groups, cofactors):
        part = _poly_from_dict(part)
        if part:
            _p_mul_into(acc, part, cofactor)
    num = _poly_from_dict(acc)
    if not num:
        return ZERO
    num, den, whole = _p_gcd(_p_quo(num, scale), lcm)
    if not whole:
        return None
    return _mk_coprime(num, den)


def _mk(num, den) -> Expr:
    """Normalize a raw polynomial pair into a canonical expression."""
    if not den:
        raise ZeroDivisionError("zero denominator in exact arithmetic")
    if not num:
        return ZERO
    if len(den) == 1 and M_ONE in den:
        # a constant denominator only moves its value into the numerator
        return Expr(_p_quo(num, den[M_ONE]), P_ONE, _internal=True)
    # pull exp kernels out of the denominator through its monomial content
    common = _mono_common(den)
    exp_gens = [(g, e) for g, e in common if g.kind == KERNEL and g.name == "exp"]
    if exp_gens:
        strip = tuple(exp_gens)
        den = {_mono_div(m, strip): c for m, c in den.items()}
        for g, e in exp_gens:
            inv_arg = -(g.arg * e) if e != 1 else -g.arg
            num = _p_mul(num, {_mono(((_kernel_gen("exp", inv_arg), 1),)): 1})
    # rationalize sqrt kernels sitting in a pure monomial denominator
    if len(den) == 1:
        (mono,) = den
        roots = [g for g, _ in mono
                 if g.kind == KERNEL and g.name == "sqrt" and _p_is_const(g.arg.den)]
        for g in roots:
            rp = {_mono(((g, 1),)): 1}
            num = _p_mul(num, rp)
            den = _p_mul(den, rp)
    num, den, whole = _p_gcd(num, den)
    return _mk_coprime(num, den, whole)


def _mk_product(num, den, whole, *operands) -> Expr:
    """Canonical num / den for a pair built from the given operands.

    The callers pass products or powers of the operands' cross-cancelled
    parts, which are coprime when every cross gcd ran to the end (whole)
    and every operand is plain, so the final gcd is skipped.
    """
    if whole and not _p_is_const(den) and all(_is_plain(e) for e in operands):
        return _mk_coprime(num, den)
    return _mk(num, den)


def _mk_coprime(num, den, whole=True) -> Expr:
    """Canonical expression from a pair with no common factor left to find.

    Only the denominator's rational content and sign move.  whole=False
    marks a pair whose gcd stopped early, so it may still share a factor.
    """
    c = _poly_rat_content(den)
    if c != 1:
        den = _p_quo(den, c)
        num = _p_quo(num, c)
    if len(den) == 1 and M_ONE in den:
        # the polynomial fast lane recognizes a denominator 1 by identity
        den = P_ONE
    e = Expr(num, den, _internal=True)
    if not whole:
        e._plain = False
    return e


def _is_plain(e) -> bool:
    """True when e's pair is reduced and holds no kernel.

    Kernels are excluded because their quotient ring is not a unique
    factorization domain, so coprime operands can still give a product
    that reduces.
    """
    plain = e._plain
    if plain is None:
        plain = all(g.kind == VAR for g in _p_gens(e.num)) and all(
            g.kind == VAR for g in _p_gens(e.den))
        e._plain = plain
    return plain


def _collect_vars(p, names: set):
    for m in p:
        for g, _ in m:
            if g.kind == VAR:
                names.add(g.name)
            else:
                names.update(g.arg.variables())


# ---------------------------------------------------------------------------
# Public constructors.
# ---------------------------------------------------------------------------

ZERO = Expr(P_ZERO, P_ONE, _internal=True)
ONE = Expr(P_ONE, P_ONE, _internal=True)


def as_expr(value) -> Expr:
    """Coerce ints, exact rationals, and expression text; floats rejected."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return NotImplemented
    if isinstance(value, str):
        from .parse import parse

        return parse(value)
    if isinstance(value, int):
        return Expr(_p_const(value), P_ONE, _internal=True)
    if isinstance(value, Fraction):
        return Expr(_p_const(value), P_ONE, _internal=True)
    if isinstance(value, float):
        raise TypeError("floats are not exact; use rational() instead")
    return NotImplemented


def integer(n: int) -> Expr:
    """Exact integer constant."""
    if not isinstance(n, int):
        raise TypeError("integer() expects an int")
    return Expr(_p_const(n), P_ONE, _internal=True)


def rational(p, q=1) -> Expr:
    """Exact rational constant p / q."""
    return as_expr(Fraction(p, q))


def _gen_expr(g: Gen) -> Expr:
    return Expr({_mono(((g, 1),)): 1}, P_ONE, _internal=True)


def var(name: str) -> Expr:
    """The expression consisting of a single named variable."""
    if not name or not isinstance(name, str):
        raise KernelError("variable names must be nonempty strings")
    return _gen_expr(_var_gen(name))


def exp(arg) -> Expr:
    """Opaque exponential kernel; exp(0) folds to 1."""
    arg = as_expr(arg)
    if not arg.num:
        return ONE
    return _gen_expr(_kernel_gen("exp", arg))


def ln(arg) -> Expr:
    """Opaque natural logarithm kernel; ln(1) folds to 0."""
    arg = as_expr(arg)
    if arg == ONE:
        return ZERO
    if arg.is_rational() and arg.as_rational() <= 0:
        raise KernelDomainError("ln of a nonpositive constant")
    return _gen_expr(_kernel_gen("ln", arg))


def sin(arg) -> Expr:
    """Opaque sine kernel; sin(0) folds to 0."""
    arg = as_expr(arg)
    if not arg.num:
        return ZERO
    return _gen_expr(_kernel_gen("sin", arg))


def cos(arg) -> Expr:
    """Opaque cosine kernel; cos(0) folds to 1."""
    arg = as_expr(arg)
    if not arg.num:
        return ONE
    return _gen_expr(_kernel_gen("cos", arg))


def sqrt(arg) -> Expr:
    """Opaque square root kernel.

    A polynomial argument has its rational content pulled out, so the
    stored kernel argument is an integer coefficient polynomial, and
    perfect square rational constants fold away completely.  An argument
    N/D with a nonconstant denominator is stored whole: sqrt(N*D)/D
    equals it only where D > 0, and the sign of D is not known.
    """
    arg = as_expr(arg)
    if not arg.num:
        return ZERO
    if not _p_is_const(arg.den):
        return _gen_expr(_kernel_gen("sqrt", arg))
    c = _poly_rat_content(arg.num)
    p0 = _p_quo(arg.num, c)
    u = c.numerator
    v = c.denominator
    w = u * v
    s = _isqrt(w) if w > 0 else 0
    if w > 0 and s * s == w:
        if p0 == P_ONE:
            return rational(s, v)
        inner = Expr(p0, P_ONE, _internal=True)
        g = _kernel_gen("sqrt", inner)
        return Expr({_mono(((g, 1),)): s}, P_ONE, _internal=True) / integer(v)
    if p0 == P_ONE:
        if w < 0:
            raise KernelDomainError("sqrt of a negative constant")
        inner = Expr(_p_const(w), P_ONE, _internal=True)
    else:
        inner = Expr(_p_scale(p0, w), P_ONE, _internal=True)
    g = _kernel_gen("sqrt", inner)
    return _gen_expr(g) / integer(v)


_KERNEL_BUILDERS = {"exp": exp, "ln": ln, "sin": sin, "cos": cos, "sqrt": sqrt}
_KERNEL_DERIVATIVES = {
    "exp": lambda g, da: _gen_expr(g) * da,
    "ln": lambda g, da: da / g.arg,
    "sqrt": lambda g, da: da / (integer(2) * _gen_expr(g)),
    "sin": lambda g, da: cos(g.arg) * da,
    "cos": lambda g, da: -(sin(g.arg) * da),
}


def kernel_apply(fname: str, arg) -> Expr:
    """Apply a named kernel, raising for unknown kernel names."""
    builder = _KERNEL_BUILDERS.get(fname)
    if builder is None:
        raise KernelError(f"unknown kernel function: {fname!r}")
    return builder(arg)


# ---------------------------------------------------------------------------
# Differentiation and substitution over the polynomial layer.
# ---------------------------------------------------------------------------


def _gen_diff(g: Gen, name: str) -> Expr:
    if g.kind == VAR:
        return ONE if g.name == name else ZERO
    da = g.arg.diff(name)
    if not da.num:
        return ZERO
    return _KERNEL_DERIVATIVES[g.name](g, da)


def _poly_diff(p, name: str) -> Expr:
    if all(g.kind == VAR for m in p for g, _ in m):
        # a monomial has one partial term, and distinct monomials give
        # distinct ones, so nothing merges
        d = {}
        for m, c in p.items():
            for i, (g, e) in enumerate(m):
                if g.name == name:
                    rest = m[:i] + ((g, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
                    d[_mono(rest)] = _qnorm(c * e)
                    break
        return _poly_expr(d)
    total = ZERO
    for m, c in _terms(p):
        for i, (g, e) in enumerate(m):
            dg = _gen_diff(g, name)
            if not dg.num:
                continue
            if e > 1:
                rest = m[:i] + ((g, e - 1),) + m[i + 1:]
            else:
                rest = m[:i] + m[i + 1:]
            base = Expr({_mono(rest): _qnorm(c * e)}, P_ONE, _internal=True)
            total = total + base * dg
    return total


def _poly_subst(p, mapping: Mapping[str, Expr]) -> Expr:
    total = ZERO
    for m, c in _terms(p):
        term = as_expr(c)
        for g, e in m:
            if g.kind == VAR:
                rep = mapping.get(g.name)
                base = rep if rep is not None else _gen_expr(g)
            else:
                new_arg = g.arg.substitute(mapping)
                base = kernel_apply(g.name, new_arg) if new_arg != g.arg else _gen_expr(g)
            term = term * base ** e
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Deterministic printing.  The parser in geolin.kernel.parse accepts every
# string produced here, and parsing the printed form reproduces the value.
# ---------------------------------------------------------------------------


def int_str(n) -> str:
    """The decimal digits of an integer, also past the interpreter's limit
    on str(int) (4300 digits by default), which is not lifted: it is
    process-wide."""
    try:
        return str(n)
    except ValueError:
        return str(_Decimal(n))


def _print_coeff(c) -> str:
    n = int_str(c.numerator)
    d = c.denominator
    if d == 1:
        return n
    return f"{n}/{int_str(d)}"


def _print_gen(g: Gen) -> str:
    if g.kind == VAR:
        return g.name
    return f"{g.name}({_print_expr(g.arg)})"


def _print_mono(m) -> str:
    parts = []
    for g, e in m:
        s = _print_gen(g)
        if e != 1:
            s = f"{s}^{e}"
        parts.append(s)
    return "*".join(parts)


def _print_poly(p) -> str:
    if not p:
        return "0"
    pieces = []
    for i, (m, c) in enumerate(_terms(p)):
        neg = c < 0
        mag = -c if neg else c
        if not m:
            body = _print_coeff(mag)
        elif mag == 1:
            body = _print_mono(m)
        else:
            body = f"{_print_coeff(mag)}*{_print_mono(m)}"
        if i == 0:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f" - {body}" if neg else f" + {body}")
    return "".join(pieces)


def _print_expr(e: Expr) -> str:
    num = _print_poly(e.num)
    if e.den == P_ONE:
        return num
    if len(e.num) > 1:
        num = f"({num})"
    return f"{num}/({_print_poly(e.den)})"
