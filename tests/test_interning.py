"""Interned monomials: one live Mono per value.

Every polynomial key is a Mono that core._mono returned, so an equal
monomial is the same object and a polynomial dict hashes its keys by
address.  Two live Monos of one value would split a term of a
polynomial into two keys, so the intern table may drop only what
nothing else holds, copies come back interned, and threads share the
table under its lock.
"""

import copy
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from geolin.kernel import KernelDomainError, core, cos, exp, integer, ln, parse, rational, sin, sqrt, var

ROOT = Path(__file__).resolve().parent.parent
x, y, z = var("x"), var("y"), var("z")


def _monomials(e, seen=None):
    """Every monomial of e's numerator and denominator, and of the
    arguments of its kernels, nested ones included."""
    seen = set() if seen is None else seen
    for p in (e.num, e.den):
        for m in p:
            yield m
            for g, _ in m:
                if g.kind == core.KERNEL and g not in seen:
                    seen.add(g)
                    yield from _monomials(g.arg, seen)


def _assert_interned(e):
    for m in _monomials(e):
        assert m.__class__ is core.Mono, m
        assert core._mono(tuple(m)) is m, m


_leaves = st.sampled_from([x, y, z, integer(2), rational(-1, 3)])
_unary = [exp, sin, cos, lambda a: sqrt(a * a + 1), lambda a: ln(a * a + 1),
          lambda a: a.diff("x"), lambda a: a.substitute({"y": x + 1}), lambda a: a ** 2]
_binary = [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b]
_exprs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(_unary), inner).map(lambda t: ("unary", *t)),
        st.tuples(st.sampled_from(_binary), inner, inner).map(lambda t: ("binary", *t)),
    ),
    max_leaves=6,
)


def _build(tree):
    if not isinstance(tree, tuple):
        return tree
    if tree[0] == "unary":
        return tree[1](_build(tree[2]))
    return tree[1](_build(tree[2]), _build(tree[3]))


@settings(max_examples=120, deadline=None)
@given(_exprs)
def test_every_key_the_public_api_builds_is_interned(tree):
    try:
        e = _build(tree)
    except (ZeroDivisionError, KernelDomainError):
        assume(False)
    _assert_interned(e)
    _assert_interned(parse(str(e)))


def test_copies_come_back_interned():
    exprs = [x**2 * y - 3, exp(x + y) / (1 + sin(z)), sqrt(x**2 + 1) * ln(y**2 + 1) + cos(x),
             parse("x^(2^64) - y"), core.ONE]
    for e in exprs:
        for c in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert c == e and (c - e) is core.ZERO
            assert sorted(map(id, c.num)) == sorted(map(id, e.num))
            assert c.den is core.P_ONE or c.den == e.den
            _assert_interned(c)
        for m in e.num:
            assert pickle.loads(pickle.dumps(m)) is m
            assert copy.deepcopy(m) is m and copy.copy(m) is m


def test_a_monomial_equals_only_itself():
    (m,) = (x * y).num
    pairs = tuple(m)
    assert core._mono(pairs) is m
    assert m != pairs and hash(m) != hash(pairs)
    assert m != core.Mono(pairs)
    assert pairs not in (x * y).num
    assert core.M_ONE is core._mono(()) and core.P_ONE == {core.M_ONE: 1}


def _run(code: str) -> str:
    """Run code in a fresh interpreter, where the intern table holds only
    what importing the kernel made, and return its output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


# products of these fire the sqrt, sin and exp rewrites
_OPERANDS = """
    import random
    from geolin.kernel import core, exp, sin, sqrt, var
    x, y, z = var("x"), var("y"), var("z")
    factors = (x, y, z, exp(x), exp(-y), sin(y), sqrt(z + 1))
    rng = random.Random(3)

    def operand():
        return sum(rng.randint(1, 5) * rng.choice(factors) ** rng.randint(1, 3)
                   * rng.choice(factors) for _ in range(3))
"""


def test_the_table_stays_within_its_cap():
    out = _run(_OPERANDS + """
    core._MEMO_CAP = 16
    core._MONO_CAP = 256
    values, sizes, window = set(), [], []
    for _ in range(200):
        p = operand() * operand()
        sizes.append(len(core._MONOS))
        values.update(tuple(m) for m in p.num)
        # products kept alive across later sweeps keep their monomials
        window = window[-4:] + [p]
        for q in window:
            for m in q.num:
                assert core._mono(tuple(m)) is m
    print(len(values), max(sizes))
    """)
    distinct, peak = map(int, out.split())
    # the table saw more monomials than it may hold, so it dropped some
    assert distinct > 256 >= peak


def test_two_threads_build_the_same_products():
    # without the memo and with a tiny cap, each thread keeps dropping and
    # rebuilding the monomials the other one looks up
    out = _run(_OPERANDS + """
    import sys, threading
    core._MEMO_CAP = 0
    core._MONO_CAP = 16
    pairs = [(operand(), operand()) for _ in range(20)]
    last, split = {}, []
    sweep, sweepers = core._mono_sweep, set()

    def counted_sweep():
        sweepers.add(threading.current_thread().name)
        sweep()

    def build():
        for _ in range(40):
            products = [a * b for a, b in pairs]
            split.extend(m for p in products for m in p.num if core._mono(tuple(m)) is not m)
        last[threading.current_thread().name] = products

    core._mono_sweep = counted_sweep
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=build, name=name) for name in ("t0", "t1")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Expr equality looks keys up by address: equal values split over
    # two live monomials would compare unequal
    assert last["t0"] == last["t1"] == [a * b for a, b in pairs]
    print(len(split), bool(sweepers & {"t0", "t1"}))
    """)
    # no key of a product was a monomial the table had dropped, and the
    # workers swept the table
    assert out.split() == ["0", "True"]
