"""The packed polynomial gcd behind core._p_gcd, loaded on first use.

core._p_gcd settles a constant or single-term operand, and two operands
that share no generator, on the dicts; every other pair comes here, so a
process that never meets one never compiles this module.  Both operands
are packed once into one int per monomial, a bit field per generator with
each kernel a free variable, and their common monomial factor is the
fieldwise minimum of the keys.  Most other inputs are settled by one
exact division: one operand over its monomial content divides the other,
or is irreducible by its degree one in some variable and divides
neither.  The rest go to the heuristic gcd GCDHEU (Char, Geddes and
Gonnet, 1989).  A candidate counts only once it divides both inputs
exactly over the integers, so soundness never rests on the heuristic,
and since every polynomial here is rewrite-normal a divisor in the free
ring divides in the kernel ring with the same cofactors.  Over kernels
the quotient ring is not a unique factorization domain, and the gcd is a
verified common divisor rather than the greatest one.  Past a size guard
(terms, shared generators, or an exponent too large to raise an integer
to), or when the heuristic gives up, only the common monomial factor
cancels, which bounds the work at the price of a form that may not be
fully reduced; the gcd then reports that it stopped early.
"""

from __future__ import annotations

from math import gcd as _igcd, isqrt as _isqrt

from .core import _mono, _poly_abs_content, _qdiv, _qnorm

_GCD_TERM_LIMIT = 150
_GCD_GEN_LIMIT = 6
# largest exponent the heuristic gcd raises an integer to: the zero test's
_GCD_DEGREE_LIMIT = 1 << 12
# largest bit size of an evaluation point raised to a degree; each level's
# point exceeds the last level's values, which grow with all the degrees
_GCD_BIT_LIMIT = 1 << 20
# evaluation points tried by the heuristic gcd before it gives up
_HEU_TRIES = 6


def packed_gcd(a, b, gens):
    """core._p_gcd(a, b) for operands of two or more terms each that share
    a generator; gens are the generators of both, sorted.

    Both operands are packed once and their common monomial factor comes
    out of the keys first; the rest goes to _pk_trial_gcd, then to the
    heuristic gcd.  whole is False when the search stopped early: past
    the size guard (_GCD_TERM_LIMIT terms, _GCD_GEN_LIMIT shared
    generators, an exponent past _GCD_DEGREE_LIMIT), at a power of an
    evaluation point past _GCD_BIT_LIMIT bits, or when the heuristic gives
    up.  g is then only the common monomial factor, or 1, and may leave a
    common factor behind.  A gcd of 1 returns a and b themselves.
    """
    w = max([e for p in (a, b) for m in p for _, e in m]).bit_length() + 1
    n = len(gens)
    shifts = {g: w * (n - 1 - i) for i, g in enumerate(gens)}
    guard = ((1 << w * n) - 1) // ((1 << w) - 1) << (w - 1)  # each field's top bit
    ka, fa = _pk_from_poly(a, shifts)
    kb, fb = _pk_from_poly(b, shifts)
    low = _pk_monomial([*fa, *fb], w, guard)
    fa, fb = _pk_drop_monomial(fa, low), _pk_drop_monomial(fb, low)
    # the guards read the operands with the common monomial out, which
    # leaves their keys distinct, so each still has two or more terms
    mask = (1 << w) - 1
    da, db = _pk_degrees(fa, w, guard), _pk_degrees(fb, w, guard)
    degrees = [(da >> s & mask, db >> s & mask) for s in range(0, n * w, w)]
    shared = sum(1 for ea, eb in degrees if ea and eb)
    found, whole = None, True
    if shared:
        if (len(fa) <= _GCD_TERM_LIMIT and len(fb) <= _GCD_TERM_LIMIT
                and shared <= _GCD_GEN_LIMIT and max(map(max, degrees)) <= _GCD_DEGREE_LIMIT):
            found = _pk_trial_gcd(fa, fb, n, w, guard) or _pk_heu_gcd(fa, fb, n, w, guard)
        whole = found is not None
    # fa and fb share no monomial factor, so a divisor of one term is a unit
    if found and len(found[0]) > 1:
        _, fa, fb = found
    elif not low:
        return a, b, whole
    # A free-ring divisor divides in the kernel ring with the same
    # cofactors.  Every polynomial built here is rewrite-normal: sin and
    # constant-argument sqrt generators have exponent at most 1, and a
    # monomial holds at most one exp generator, with exponent 1.  Degrees
    # add under free multiplication, per generator and over all exp
    # generators together, so the factors of a normal polynomial are
    # normal and multiplying them back fires no rewrite.
    return _pk_to_poly(fa, shifts, w, ka), _pk_to_poly(fb, shifts, w, kb), whole


# Heuristic gcd (GCDHEU; Char, Geddes and Gonnet, 1989) on integer
# polynomials held as dicts from packed keys to ints (Monagan and Pearce,
# 2007): one bit field per generator, the first of the sorted generators
# most significant, each as wide as the operands' largest exponent plus a
# guard bit, so keys order as their exponent tuples do lexicographically,
# and with G the guard bits ((m | G) - d) & G == G says that no exponent
# of m is below d's.  Evaluating the first variable at an integer xi turns
# a gcd in n variables into one in n - 1, down to an integer gcd; balanced
# xi-adic expansion lifts the image gcd back into a candidate, and the next
# point is tried while it does not divide both inputs.  The first point is
# the bound of Char, Geddes and Gonnet's theorem, so a candidate dividing
# both is their gcd; the growth between tries follows sympy's
# dmp_zz_heu_gcd.  Kernels enter as free variables: the candidate is a gcd
# in the free ring, with cofactors checked there by exact division.
# Before the search, _pk_trial_gcd settles most inputs by that division
# alone, the classical trial-division shortcut (Geddes, Czapor and
# Labahn, 1992).  The gcd is unique up to sign, so both routes give the
# same cofactors up to one common sign.


def _pk_from_poly(p, shifts):
    """(k, f) with p = k * f, k > 0 and f a primitive integer polynomial on
    packed keys, each generator's field at shifts[generator].  The gcd
    ignores signs, so f's leading term may be negative."""
    k = _poly_abs_content(p)
    f = {}
    for m, c in p.items():
        key = 0
        for g, e in m:
            key |= e << shifts[g]
        f[key] = c if k == 1 else c // k if k.__class__ is int else _qdiv(c, k)
    return k, f


def _pk_to_poly(f, shifts, w, k=1) -> dict:
    """The polynomial k * f, f on packed keys with fields w bits wide."""
    mask = (1 << w) - 1
    return {_mono(tuple([(g, e) for g, s in shifts.items() if (e := m >> s & mask)])):
            c if k == 1 else _qnorm(c * k) for m, c in f.items()}


def _pk_trial_gcd(f, g, n, w, guard):
    """(h, f/h, g/h) for primitive packed integer polynomials with no
    common monomial factor, settled by one exact division, or None.

    Since the common monomial factor is 1, each generator of f's monomial
    content is missing from some term of g and so does not divide g;
    hence gcd(f, g) = gcd(s, g) with s = f over its monomial content.  If
    s divides g it is the gcd, and g is tried the same way, the shorter
    operand first.  Else gcd(s, g) is 1 when s is irreducible.  That
    holds when s has degree one in some v and its terms in v or its terms
    free of v are a single term: in any factorization one factor has
    degree zero in v and so divides both parts, hence the single term;
    s is primitive with no monomial factor, so that factor is a unit.
    Degree one alone is not enough: (x + 1)(y + 1) has two terms on each
    side of x.
    """
    low_f, low_g = _pk_monomial(f, w, guard), _pk_monomial(g, w, guard)
    s_f, s_g = _pk_drop_monomial(f, low_f), _pk_drop_monomial(g, low_g)
    tries = ((s_f, g, False), (s_g, f, True))
    for s, other, swapped in tries if len(f) <= len(g) else tries[::-1]:
        q = _pk_exact_div(other, s, w, guard)
        if q is not None:
            return (s, q, {low_g: 1}) if swapped else (s, {low_f: 1}, q)
    if _pk_linear_irreducible(s_f, n, w, guard) or _pk_linear_irreducible(s_g, n, w, guard):
        return {0: 1}, f, g
    return None


def _pk_drop_monomial(f, low) -> dict:
    """f with the monomial of key low, which divides every term, divided out."""
    return {m - low: c for m, c in f.items()} if low else f


def _pk_linear_irreducible(s, n, w, guard) -> bool:
    """Whether s, of degree one in some variable, has a single term in
    that variable or a single term free of it."""
    mask = (1 << w) - 1
    top = _pk_degrees(s, w, guard)
    for shift in range(0, n * w, w):
        if top >> shift & mask == 1:
            bit = 1 << shift
            with_v = sum(1 for m in s if m & bit)
            if with_v == 1 or with_v == len(s) - 1:
                return True
    return False


def _pk_heu_gcd(f, g, n, w, guard):
    """(h, f/h, g/h) for nonzero packed integer polynomials in n > 0 variables, or None."""
    k = _igcd(*f.values(), *g.values())
    if k != 1:
        f = {m: c // k for m, c in f.items()}
        g = {m: c // k for m, c in g.items()}
    # below 2 min(|f|, |g|) + 2 a candidate can divide both inputs and still
    # not be their greatest common divisor
    x = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    s = w * (n - 1)
    top = max(max(f), max(g)) >> s  # the degree in the first variable
    for _ in range(_HEU_TRIES):
        if x.bit_length() * top > _GCD_BIT_LIMIT:
            return None
        powers = {}
        ff = _pk_eval_first(f, x, s, powers)
        gg = _pk_eval_first(g, x, s, powers)
        if ff and gg:
            if n == 1:
                found = ({0: _igcd(ff[0], gg[0])},)
            else:
                found = _pk_heu_gcd(ff, gg, n - 1, w, guard)
                if found is None:
                    return None
            # every exponent of f and g fits below the guard bit, so a
            # candidate whose first exponent does not divides neither
            h = _pk_interpolate(found[0], x, s, 1 << (w - 1))
            if h is not None:
                c = _igcd(*h.values())
                h = {m: v // c for m, v in h.items()}
                if len(h) == 1 and h.get(0) == 1:
                    # a unit divides both, and past the bound it is their gcd
                    cf, cg = f, g
                else:
                    cf = _pk_exact_div(f, h, w, guard)
                    cg = _pk_exact_div(g, h, w, guard) if cf is not None else None
                if cg is not None:
                    return {m: v * k for m, v in h.items()}, cf, cg
        x = 73794 * x * _isqrt(_isqrt(x)) // 27011
    return None


def _pk_eval_first(f, x, s, powers) -> dict:
    """f at x in its first variable, the field at shift s; powers caches x ** e."""
    rest_mask = (1 << s) - 1
    out: dict = {}
    for m, c in f.items():
        e = m >> s
        p = powers.get(e)
        if p is None:
            p = powers[e] = x ** e
        rest = m & rest_mask
        out[rest] = out.get(rest, 0) + c * p
    return {m: c for m, c in out.items() if c}


def _pk_interpolate(h, x, s, limit):
    """Balanced x-adic expansion of h's coefficients as a new first
    variable at shift s, or None at an exponent of limit."""
    out = {}
    half = x // 2
    i = 0
    while h:
        if i == limit:
            return None
        rest = {}
        for m, c in h.items():
            r = c % x
            if r > half:
                r -= x
            if r:
                out[i << s | m] = r
            c = (c - r) // x
            if c:
                rest[m] = c
        h = rest
        i += 1
    return out


def _pk_monomial(keys, w, guard) -> int:
    """The key of the monomial content of keys: the fieldwise minimum."""
    low = guard - (guard >> (w - 1))  # every value bit set
    for m in keys:
        # guard bits of the fields where low >= m, then their value bits
        ge = ((low | guard) - m) & guard
        low ^= (low ^ m) & (ge - (ge >> (w - 1)))
    return low


def _pk_degrees(f, w, guard) -> int:
    """The key of f's degree in each variable: the fieldwise maximum."""
    top = 0
    for m in f:
        # guard bits of the fields where top >= m, then their value bits
        ge = ((top | guard) - m) & guard
        top = m ^ ((top ^ m) & (ge - (ge >> (w - 1))))
    return top


def _pk_exact_div(f, d, w, guard):
    """Exact quotient f / d over the integers on packed keys, or None.

    Lexicographic division; every quotient exponent must stay within the
    degree gap of f and d, which stops a failing division early.
    """
    gap = (_pk_degrees(f, w, guard) | guard) - _pk_degrees(d, w, guard)
    if gap & guard != guard:
        return None
    lead = max(d)
    lc = d[lead]
    rem = dict(f)
    quo = {}
    while rem:
        m = max(rem)
        # a borrow clears a guard bit: an exponent of t below 0 or past gap
        t = (m | guard) - lead
        if t & guard != guard or (gap - (t ^ guard)) & guard != guard:
            return None
        t ^= guard
        c, r = divmod(rem[m], lc)
        if r:
            return None
        quo[t] = c
        for dm, dc in d.items():
            mm = t + dm
            v = rem.get(mm, 0) - c * dc
            if v:
                rem[mm] = v
            else:
                del rem[mm]
    return quo
