"""The kernel on gmpy2's mpq backend, without gmpy2 installed.

The kernel takes its rationals from gmpy2 when it can import it and from
fractions otherwise, so on a host without gmpy2 the mpq branches never
run.  This test reruns the arithmetic test files in a fresh interpreter
with the stand-in module in ``tests/gmpy2_standin`` first on the path,
where an mpq is not a Fraction and an mpz is not an int.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
STANDIN = TESTS / "gmpy2_standin"
FILES = ("test_coefficients.py", "test_gcd.py", "test_kernel_core.py", "test_arith.py",
         "test_zerotest.py", "test_parse.py")

_RUN = """
import sys
import gmpy2
from geolin.kernel import core, parse
assert gmpy2.__file__.startswith(sys.argv[1]), gmpy2.__file__
assert core._Q is gmpy2.mpq
assert [type(c) for c in parse("x/2").num.values()] == [gmpy2.mpq]
import pytest
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def test_arithmetic_suites_pass_on_the_mpq_backend():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(STANDIN), str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, str(STANDIN), *(str(TESTS / f) for f in FILES)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
