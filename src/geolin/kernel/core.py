"""Exact multivariate rational expressions over opaque transcendental kernels.

The canonical form is a reduced pair of sparse polynomials with exact
rational coefficients.  Generators are either named variables or kernel
applications (exp, ln, sin, cos, sqrt) whose arguments are themselves
canonical expressions.  Construction keeps every value normalized:

* the denominator is a primitive integer polynomial with positive leading
  coefficient and shares no detected polynomial factor with the numerator,
* exp kernels merge under multiplication and never remain in a denominator
  as a monomial factor,
* squares of sqrt kernels collapse to their arguments, and sqrt arguments
  are reduced to integer coefficient polynomials,
* squares of sin kernels always rewrite through the Pythagorean
  identity sin^2 = 1 - cos^2.

Equality is structural equality of the canonical pair.  Deciding whether a
canonically nonzero pair represents the zero function is delegated to the
probabilistic zero test, not to this module.
"""

from __future__ import annotations

from fractions import Fraction as _Fraction
from math import gcd as _igcd, lcm as _ilcm
from typing import Iterable, Mapping, Optional

try:
    from gmpy2 import mpq as _Q, is_square as _is_square, isqrt as _isqrt
except ImportError:  # pragma: no cover
    from fractions import Fraction as _Q
    from math import isqrt as _isqrt

    def _is_square(n):
        r = _isqrt(n)
        return r * r == n


_Q0 = _Q(0)
_Q1 = _Q(1)
# exact rationals accepted as constants, whichever backend is active
_QTYPES = (type(_Q0), _Fraction)

VAR = 0
KERNEL = 1

KERNEL_NAMES = ("exp", "ln", "sin", "cos", "sqrt")


class KernelError(Exception):
    """Base class for errors raised by the expression kernel."""


class KernelDomainError(KernelError):
    """A kernel was applied to a constant outside its real domain."""


class Gen:
    """An interned generator: a named variable or a kernel application."""

    __slots__ = ("kind", "name", "arg", "skey", "_hash")

    def __init__(self, kind: int, name: str, arg: Optional["Expr"], skey):
        self.kind = kind
        self.name = name
        self.arg = arg
        self.skey = skey
        self._hash = hash(skey)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other

    def __lt__(self, other: "Gen") -> bool:
        return self.skey < other.skey

    def __repr__(self) -> str:
        if self.kind == VAR:
            return f"Gen({self.name})"
        return f"Gen({self.name}({self.arg}))"


_GEN_CACHE: dict = {}


def _var_gen(name: str) -> Gen:
    key = (VAR, name)
    g = _GEN_CACHE.get(key)
    if g is None:
        # kernels sort before variables, hence the leading 1 here
        g = Gen(VAR, name, None, (1, name))
        _GEN_CACHE[key] = g
    return g


def _kernel_gen(fname: str, arg: "Expr") -> Gen:
    key = (KERNEL, fname, arg.key())
    g = _GEN_CACHE.get(key)
    if g is None:
        g = Gen(KERNEL, fname, arg, (0, fname, arg.key()))
        _GEN_CACHE[key] = g
    return g


# ---------------------------------------------------------------------------
# Sparse polynomial layer.  A polynomial is a tuple of (monomial, coeff)
# terms; a monomial is a tuple of (Gen, positive int exponent) pairs sorted
# by generator.  Terms are kept in graded order, leading term first.
# ---------------------------------------------------------------------------

P_ZERO: tuple = ()


def _term_sort_key(mono):
    deg = 0
    for _, e in mono:
        deg += e
    return (-deg, tuple((g.skey, -e) for g, e in mono))


def _poly_from_dict(d: dict) -> tuple:
    items = [(m, c) for m, c in d.items() if c != 0]
    items.sort(key=lambda t: _term_sort_key(t[0]))
    return tuple(items)


def _p_const(q) -> tuple:
    if q == 0:
        return P_ZERO
    return (((), _Q(q)),)


P_ONE = _p_const(1)


def _p_is_const(p) -> bool:
    return not p or (len(p) == 1 and not p[0][0])


def _p_add(p1, p2) -> tuple:
    if not p1:
        return p2
    if not p2:
        return p1
    acc = dict(p1)
    for m, c in p2:
        v = acc.get(m)
        if v is None:
            acc[m] = c
        else:
            v = v + c
            if v == 0:
                del acc[m]
            else:
                acc[m] = v
    return _poly_from_dict(acc)


def _p_neg(p) -> tuple:
    return tuple((m, -c) for m, c in p)


def _p_scale(p, q) -> tuple:
    if q == 0:
        return P_ZERO
    if q == 1:
        return p
    return tuple((m, c * q) for m, c in p)


def _pyth_poly(arg: "Expr") -> tuple:
    # 1 - cos(arg)^2
    g = _kernel_gen("cos", arg)
    return _poly_from_dict({(): _Q1, ((g, 2),): -_Q1})


def _mono_combine(m1, m2):
    """Merge two monomials applying the kernel rewrite rules.

    Returns (mono, extras) where extras is a list of polynomials that still
    have to be multiplied in (arguments of collapsed sqrt squares, the
    Pythagorean replacement of sin squares).
    """
    merged: dict = {}
    for g, e in m1:
        merged[g] = e
    for g, e in m2:
        merged[g] = merged.get(g, 0) + e
    exp_arg = None
    extras = []
    out = []
    for g in sorted(merged):
        e = merged[g]
        if g.kind == KERNEL:
            if g.name == "exp":
                contrib = g.arg if e == 1 else g.arg * e
                exp_arg = contrib if exp_arg is None else exp_arg + contrib
                continue
            if g.name == "sqrt" and e >= 2:
                extras.extend([g.arg.num] * (e // 2))
                e %= 2
                if not e:
                    continue
            elif g.name == "sin" and e >= 2:
                extras.extend([_pyth_poly(g.arg)] * (e // 2))
                e %= 2
                if not e:
                    continue
        out.append((g, e))
    if exp_arg is not None and exp_arg.num:
        out.append((_kernel_gen("exp", exp_arg), 1))
        out.sort(key=lambda t: t[0].skey)
        return tuple(out), extras
    return tuple(out), extras


def _p_mul(p1, p2) -> tuple:
    if not p1 or not p2:
        return P_ZERO
    if p1 is P_ONE:
        return p2
    if p2 is P_ONE:
        return p1
    acc: dict = {}
    for m1, c1 in p1:
        for m2, c2 in p2:
            c = c1 * c2
            mono, extras = _mono_combine(m1, m2)
            if extras:
                piece = ((mono, c),)
                for ex in extras:
                    piece = _p_mul(piece, ex)
                for m, cc in piece:
                    v = acc.get(m)
                    acc[m] = cc if v is None else v + cc
            else:
                v = acc.get(mono)
                acc[mono] = c if v is None else v + c
    return _poly_from_dict(acc)


def _p_pow(p, n: int) -> tuple:
    if n == 0:
        return P_ONE
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
    for m, _ in p:
        for g, _ in m:
            s.add(g)
    return s


def _mono_div(m1, m2):
    """Componentwise monomial quotient m1 / m2, or None if not divisible."""
    d = dict(m1)
    for g, e in m2:
        have = d.get(g, 0) - e
        if have < 0:
            return None
        if have == 0:
            del d[g]
        else:
            d[g] = have
    out = sorted(d.items(), key=lambda t: t[0].skey)
    return tuple(out)


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
    return tuple(sorted(common.items(), key=lambda t: t[0].skey))


def _p_exact_div(p, d):
    """Exact polynomial quotient p / d, or None when division fails.

    Division is performed over the free monoid of generators; kernel
    rewrites firing inside intermediate products can make an honest
    multiple look indivisible, in which case None is returned and the
    caller must keep the unreduced pair.
    """
    if d is P_ONE or (_p_is_const(d) and d and d[0][1] == 1):
        return p
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    if not p:
        return P_ZERO
    if _p_is_const(d):
        inv = _Q1 / d[0][1]
        return _p_scale(p, inv)
    rem = dict(p)
    quo: dict = {}
    d_lead_m, d_lead_c = d[0]
    d_lead_key = _term_sort_key(d_lead_m)
    while rem:
        lt_m = min(rem, key=_term_sort_key)
        if _term_sort_key(lt_m) > d_lead_key:
            # every remaining term is below the divisor's lead
            return None
        t = _mono_div(lt_m, d_lead_m)
        if t is None:
            return None
        c = rem[lt_m] / d_lead_c
        prod = _p_mul(((t, c),), d)
        for m, cc in prod:
            v = rem.get(m, _Q0) - cc
            if v == 0:
                rem.pop(m, None)
            else:
                rem[m] = v
        if lt_m in rem:
            # a rewrite interfered with leading term cancellation
            return None
        v = quo.get(t)
        quo[t] = c if v is None else v + c
    return _poly_from_dict(quo)


def _p_degree_in(p, g) -> int:
    deg = 0
    for m, _ in p:
        for gg, e in m:
            if gg is g and e > deg:
                deg = e
    return deg


def _p_split_main(p, g) -> dict:
    """View p as a polynomial in g: maps exponent of g to coefficient poly."""
    out: dict = {}
    for m, c in p:
        e = 0
        rest = []
        for gg, ee in m:
            if gg is g:
                e = ee
            else:
                rest.append((gg, ee))
        coeff = out.setdefault(e, {})
        rm = tuple(rest)
        v = coeff.get(rm)
        coeff[rm] = c if v is None else v + c
    return {e: _poly_from_dict(d) for e, d in out.items() if any(c != 0 for c in d.values())}


def _p_join_main(g, coeffmap) -> tuple:
    acc: dict = {}
    for e, coeff in coeffmap.items():
        if e == 0:
            for m, c in coeff:
                v = acc.get(m)
                acc[m] = c if v is None else v + c
            continue
        gm = ((g, e),)
        for m, c in coeff:
            mono, extras = _mono_combine(m, gm)
            if extras:
                piece = ((mono, c),)
                for ex in extras:
                    piece = _p_mul(piece, ex)
                for mm, cc in piece:
                    v = acc.get(mm)
                    acc[mm] = cc if v is None else v + cc
            else:
                v = acc.get(mono)
                acc[mono] = c if v is None else v + c
    return _poly_from_dict(acc)


def _poly_rat_content(p):
    """Signed rational c with p / c primitive integer, positive leading."""
    num_gcd = 0
    den_lcm = 1
    for _, c in p:
        num_gcd = _igcd(num_gcd, abs(int(c.numerator)))
        den_lcm = _ilcm(den_lcm, int(c.denominator))
    content = _Q(num_gcd, den_lcm)
    if p[0][1] < 0:
        content = -content
    return content


def _p_primitive(p) -> tuple:
    if not p:
        return p
    c = _poly_rat_content(p)
    if c == 1:
        return p
    inv = _Q1 / c
    return _p_scale(p, inv)


def _p_content_in(p, g) -> tuple:
    """Polynomial content of p viewed in the main generator g."""
    parts = _p_split_main(p, g)
    content = P_ZERO
    for coeff in parts.values():
        content = _p_gcd(content, coeff)
        if _p_is_const(content) and content:
            return P_ONE
    return content


def _p_pseudo_rem(a, b, g):
    """Pseudo remainder of a by b with respect to the main generator g."""
    da = _p_degree_in(a, g)
    db = _p_degree_in(b, g)
    bb = _p_split_main(b, g)
    lb = bb[db]
    r = a
    dr = da
    while r and dr >= db:
        rr = _p_split_main(r, g)
        lr = rr.get(dr)
        if lr is None:
            dr -= 1
            continue
        # r <- lb * r - lr * g^(dr-db) * b
        shift = {e + dr - db: _p_mul(lr, coeff) for e, coeff in bb.items()}
        sub = _p_join_main(g, shift)
        r = _p_add(_p_mul(lb, r), _p_neg(sub))
        ndr = _p_degree_in(r, g)
        if ndr >= dr and r:
            # rewrites destroyed the cancellation, give up on this pair
            return None
        dr = ndr
    return r


_GCD_TERM_LIMIT = 150
_GCD_GEN_LIMIT = 6


def _p_gcd(a, b) -> tuple:
    """Best effort polynomial gcd, primitive with positive leading term.

    Complete on polynomials in plain variables of moderate size; degrades
    to the common monomial factor beyond the size guard, which keeps the
    worst case bounded at the price of weaker cancellation.
    """
    if not a:
        return _p_primitive(b)
    if not b:
        return _p_primitive(a)
    if _p_is_const(a) or _p_is_const(b):
        return P_ONE
    if len(a) == 1 or len(b) == 1:
        mono = _mono_common([m for m, _ in a] + [m for m, _ in b])
        if not mono:
            return P_ONE
        return ((mono, _Q1),)
    common = _p_gens(a) & _p_gens(b)
    if not common:
        return P_ONE
    # the monomial part factors out cheaply and keeps the PRS small
    mono = _mono_common([m for m, _ in a] + [m for m, _ in b])
    if mono:
        qa = _p_exact_div(a, ((mono, _Q1),))
        qb = _p_exact_div(b, ((mono, _Q1),))
        if qa is not None and qb is not None:
            inner = _p_gcd(qa, qb)
            return _p_primitive(_p_mul(((mono, _Q1),), inner))
    if (
        len(a) > _GCD_TERM_LIMIT
        or len(b) > _GCD_TERM_LIMIT
        or len(common) > _GCD_GEN_LIMIT
    ):
        return P_ONE
    main = min(
        common,
        key=lambda g: (min(_p_degree_in(a, g), _p_degree_in(b, g)), g.skey),
    )
    ca = _p_content_in(a, main)
    cb = _p_content_in(b, main)
    pa = _p_exact_div(a, ca)
    pb = _p_exact_div(b, cb)
    if pa is None or pb is None:
        return P_ONE
    cg = _p_gcd(ca, cb)
    if _p_degree_in(pa, main) < _p_degree_in(pb, main):
        pa, pb = pb, pa
    while True:
        r = _p_pseudo_rem(pa, pb, main)
        if r is None:
            return _p_primitive(cg)
        if not r:
            break
        content = _p_content_in(r, main)
        r = _p_exact_div(r, content)
        if r is None:
            return _p_primitive(cg)
        r = _p_primitive(r)
        pa, pb = pb, r
        if _p_degree_in(pb, main) == 0:
            return _p_primitive(cg)
    g = _p_primitive(pb)
    return _p_primitive(_p_mul(cg, g))


# ---------------------------------------------------------------------------
# Canonical rational pair.
# ---------------------------------------------------------------------------


def _poly_key(p):
    return tuple(
        (tuple((g.skey, e) for g, e in m), (int(c.numerator), int(c.denominator)))
        for m, c in p
    )


class Expr:
    """An immutable exact expression in canonical rational form."""

    __slots__ = ("num", "den", "_key", "_hash", "_str")

    def __init__(self, num, den, _internal=False):
        if not _internal:
            raise TypeError("use the var/integer/rational constructors")
        self.num = num
        self.den = den
        self._key = None
        self._hash = None
        self._str = None

    # -- construction helpers ------------------------------------------------

    def key(self):
        """Deterministic, hashable, totally ordered structural key."""
        k = self._key
        if k is None:
            k = (_poly_key(self.num), _poly_key(self.den))
            self._key = k
        return k

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.key())
            self._hash = h
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            if isinstance(other, (int, _QTYPES)):
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
            return _Q0
        return self.num[0][1] / self.den[0][1]

    def variables(self) -> frozenset:
        """Names of all variables, including those inside kernel arguments."""
        names = set()
        _collect_vars(self.num, names)
        _collect_vars(self.den, names)
        return frozenset(names)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            return _mk(_p_add(self.num, other.num), self.den)
        num = _p_add(_p_mul(self.num, other.den), _p_mul(other.num, self.den))
        return _mk(num, _p_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        e = Expr(_p_neg(self.num), self.den, _internal=True)
        return e

    def __sub__(self, other):
        other = as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        # cross reduction keeps intermediate products small
        a, d2 = _cross_reduce(self.num, other.den)
        b, d1 = _cross_reduce(other.num, self.den)
        return _mk(_p_mul(a, b), _p_mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("exact division by zero expression")
        if not self.num:
            return ZERO
        a, b = _cross_reduce(self.num, other.num)
        c, d = _cross_reduce(other.den, self.den)
        return _mk(_p_mul(a, c), _p_mul(d, b))

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
            base = _mk(self.den, self.num)
            n = -n
        else:
            base = self
        if n == 1:
            return base
        return _mk(_p_pow(base.num, n), _p_pow(base.den, n))

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "Expr":
        """Exact partial derivative with respect to the named variable."""
        dn = _poly_diff(self.num, name)
        if _p_is_const(self.den):
            return dn / _mk(self.den, P_ONE)
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
        s = self._str
        if s is None:
            s = _print_expr(self)
            self._str = s
        return s

    def __repr__(self):
        return f"Expr({self})"


def _mk(num, den) -> Expr:
    """Normalize a raw polynomial pair into a canonical expression."""
    if not den:
        raise ZeroDivisionError("zero denominator in exact arithmetic")
    if not num:
        return ZERO
    # pull exp kernels out of the denominator through its monomial content
    common = _mono_common([m for m, _ in den])
    exp_gens = [(g, e) for g, e in common if g.kind == KERNEL and g.name == "exp"]
    if exp_gens:
        strip = tuple(exp_gens)
        new_terms = []
        for m, c in den:
            q = _mono_div(m, strip)
            new_terms.append((q, c))
        den = _poly_from_dict(dict(new_terms))
        for g, e in exp_gens:
            inv_arg = -(g.arg * e) if e != 1 else -g.arg
            num = _p_mul(num, (((( _kernel_gen("exp", inv_arg), 1),), _Q1),))
    # rationalize sqrt kernels sitting in a pure monomial denominator
    if len(den) == 1:
        mono, _ = den[0]
        roots = [g for g, _ in mono if g.kind == KERNEL and g.name == "sqrt"]
        for g in roots:
            rp = (((g, 1),), _Q1)
            num = _p_mul(num, (rp,))
            den = _p_mul(den, (rp,))
    if not _p_is_const(den):
        g = _p_gcd(num, den)
        if not _p_is_const(g):
            qn = _p_exact_div(num, g)
            qd = _p_exact_div(den, g)
            if qn is not None and qd is not None:
                num, den = qn, qd
    c = _poly_rat_content(den)
    if c != 1:
        inv = _Q1 / c
        den = _p_scale(den, inv)
        num = _p_scale(num, inv)
    return Expr(num, den, _internal=True)


def _cross_reduce(num, den):
    """Cancel common factors between a numerator and a foreign denominator."""
    if _p_is_const(den) or _p_is_const(num):
        return num, den
    g = _p_gcd(num, den)
    if _p_is_const(g):
        return num, den
    qn = _p_exact_div(num, g)
    qd = _p_exact_div(den, g)
    if qn is None or qd is None:
        return num, den
    return qn, qd


def _collect_vars(p, names: set):
    for m, _ in p:
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
    if isinstance(value, _QTYPES):
        q = _Q(value)
        num = _p_const(q.numerator)
        den = _p_const(q.denominator)
        return _mk(num, den)
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
    return as_expr(_Q(p, q))


def var(name: str) -> Expr:
    """The expression consisting of a single named variable."""
    if not name or not isinstance(name, str):
        raise KernelError("variable names must be nonempty strings")
    g = _var_gen(name)
    return Expr(((((g, 1),), _Q1),), P_ONE, _internal=True)


def variables(names: str) -> list:
    """Split a whitespace separated name list into variable expressions."""
    return [var(n) for n in names.split()]


def exp(arg) -> Expr:
    """Opaque exponential kernel; exp(0) folds to 1."""
    arg = as_expr(arg)
    if not arg.num:
        return ONE
    g = _kernel_gen("exp", arg)
    return Expr(((((g, 1),), _Q1),), P_ONE, _internal=True)


def ln(arg) -> Expr:
    """Opaque natural logarithm kernel; ln(1) folds to 0."""
    arg = as_expr(arg)
    if arg == ONE:
        return ZERO
    if arg.is_rational() and arg.as_rational() <= 0:
        raise KernelDomainError("ln of a nonpositive constant")
    g = _kernel_gen("ln", arg)
    return Expr(((((g, 1),), _Q1),), P_ONE, _internal=True)


def sin(arg) -> Expr:
    """Opaque sine kernel; sin(0) folds to 0."""
    arg = as_expr(arg)
    if not arg.num:
        return ZERO
    g = _kernel_gen("sin", arg)
    return Expr(((((g, 1),), _Q1),), P_ONE, _internal=True)


def cos(arg) -> Expr:
    """Opaque cosine kernel; cos(0) folds to 1."""
    arg = as_expr(arg)
    if not arg.num:
        return ONE
    g = _kernel_gen("cos", arg)
    return Expr(((((g, 1),), _Q1),), P_ONE, _internal=True)


def sqrt(arg) -> Expr:
    """Opaque square root kernel with integer polynomial argument form.

    A rational function argument N/D is rewritten as sqrt(N*D)/D and the
    rational content of the product is pulled out, so the stored kernel
    argument is always an integer coefficient polynomial.  Perfect square
    rational constants fold away completely.
    """
    arg = as_expr(arg)
    if not arg.num:
        return ZERO
    prod = _p_mul(arg.num, arg.den)
    c = _poly_rat_content(prod)
    p0 = _p_scale(prod, _Q1 / c)
    u = int(c.numerator)
    v = int(c.denominator)
    w = u * v
    den_expr = Expr(arg.den, P_ONE, _internal=True)
    if w > 0 and _is_square(w):
        s = int(_isqrt(w))
        if p0 == P_ONE:
            return rational(s, v) / den_expr
        inner = Expr(p0, P_ONE, _internal=True)
        g = _kernel_gen("sqrt", inner)
        root = Expr(((((g, 1),), _Q(s)),), P_ONE, _internal=True)
        return root / (integer(v) * den_expr)
    if p0 == P_ONE:
        if w < 0:
            raise KernelDomainError("sqrt of a negative constant")
        inner = Expr(_p_const(w), P_ONE, _internal=True)
    else:
        inner = Expr(_p_scale(p0, _Q(w)), P_ONE, _internal=True)
    g = _kernel_gen("sqrt", inner)
    root = Expr(((((g, 1),), _Q1),), P_ONE, _internal=True)
    return root / (integer(v) * den_expr)


_KERNEL_BUILDERS = {"exp": exp, "ln": ln, "sin": sin, "cos": cos, "sqrt": sqrt}


def kernel_apply(fname: str, arg) -> Expr:
    """Apply a named kernel, raising for unknown kernel names."""
    builder = _KERNEL_BUILDERS.get(fname)
    if builder is None:
        raise KernelError(f"unknown kernel function: {fname!r}")
    return builder(arg)


# ---------------------------------------------------------------------------
# Differentiation and substitution over the polynomial layer.
# ---------------------------------------------------------------------------


def _gen_expr(g: Gen) -> Expr:
    return Expr(((((g, 1),), _Q1),), P_ONE, _internal=True)


def _gen_diff(g: Gen, name: str) -> Expr:
    if g.kind == VAR:
        return ONE if g.name == name else ZERO
    da = g.arg.diff(name)
    if not da.num:
        return ZERO
    if g.name == "exp":
        return _gen_expr(g) * da
    if g.name == "ln":
        return da / g.arg
    if g.name == "sqrt":
        return da / (integer(2) * _gen_expr(g))
    if g.name == "sin":
        return cos(g.arg) * da
    if g.name == "cos":
        return -(sin(g.arg) * da)
    raise KernelError(f"cannot differentiate kernel {g.name!r}")


def _poly_diff(p, name: str) -> Expr:
    total = ZERO
    for m, c in p:
        for i, (g, e) in enumerate(m):
            dg = _gen_diff(g, name)
            if not dg.num:
                continue
            if e > 1:
                rest = m[:i] + ((g, e - 1),) + m[i + 1:]
            else:
                rest = m[:i] + m[i + 1:]
            base = Expr(((rest, c * e),), P_ONE, _internal=True)
            total = total + base * dg
    return total


def _poly_subst(p, mapping: Mapping[str, Expr]) -> Expr:
    total = ZERO
    for m, c in p:
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


def _print_coeff(c) -> str:
    n = int(c.numerator)
    d = int(c.denominator)
    if d == 1:
        return str(n)
    return f"{n}/{d}"


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
    for i, (m, c) in enumerate(p):
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
