"""Golden `--format json` output of the command-line front end.

Each case runs `geolin.cli.main` in-process and compares its exit code
and the exact bytes it prints with the files under `tests/golden/`:
`exit_codes.json` maps every case to its exit code, and `<case>.json`
holds the printed report of each case that prints one (input errors
print nothing).  The cases are every (corpus document, command) pair,
two inline connection documents under every command (the corpus has no
connection document), an inline `general-2` document whose map does not
straighten it (the corpus has no `verify-transform` FAIL), and the
`--gauge` option where it is accepted and where it is refused.

After a deliberate change of output, regenerate the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = ("check", "project", "lift", "verify-transform", "verify-metric",
            "riemann", "normal-form", "appendix")

# the plane connection lifted from corpus/lie-ex2.ini at its gauge, with
# that document's metric and map
GEODESIC2_DOC = """\
[system]
name = damped-growth-lift
kind = geodesic-2

[coefficients]
a = "y"
b = "1/y"
d = "-y^3"
e = "-y"
f = "2/y"

[metric]
p = "1 + x^2 - 2*x/y + 1/y^2"
q = "(1 + x^2)/y^2 - x/y^3"
r = "(1 + x^2)/y^4"

[transformation]
u = "x - 1/y"
v = "x^2/2 - x/y"
"""

# the connection lifted from corpus/sys-ex4.ini at the zero gauge, which
# is curved, with that document's map
GEODESIC3_DOC = """\
[system]
name = shared-cubic-lift
kind = geodesic-3

[coefficients]
G1_11 = "-1/x"
G1_13 = "-1/2"
G1_22 = "-x/y - x/y^2"
G2_22 = "1"
G2_23 = "-1/2"
G3_23 = "1"

[transformation]
u = "ln(x*y)"
v = "exp(y)"
w = "exp(y + z)"
"""

# corpus/sys-ex5.ini with sin(x) added to the map's second component:
# the map no longer straightens the pair, so verify-transform FAILs
GENERAL2_DOC = """\
[system]
name = tangled-pair
kind = general-2

[coefficients]
J2_2 = "x*y*z^2*exp(y*z)*(2 - y*z)"
J2_3 = "x*y^2*z*exp(y*z)*(2 - y*z)"
J3_2 = "exp(y*z)"
G3_23 = "-x*y*exp(y*z)"
Del2_222 = "2*x^2*z^3*exp(y*z)*(1 - y*z)"
Del2_223 = "2*x^2*y*z^2*exp(y*z)*(1 - y*z)"
Del2_233 = "2*x^2*y^2*z*exp(y*z)*(1 - y*z)"
Del2_333 = "2*x^2*y^3*exp(y*z)*(1 - y*z)"
Del3_222 = "-x*z^2*exp(y*z)"
Del3_223 = "-(2/3)*x*(1 + y*z)*exp(y*z)"
Del3_233 = "-(1/3)*x*y^2*exp(y*z)"
Lam2_22 = "x*z^2*exp(y*z)*(2 - y^2*z^2)"
Lam2_23 = "x*y*z*exp(y*z)*(4 - y*z - y^2*z^2)"
Lam2_33 = "x*y^2*exp(y*z)*(2 - y^2*z^2)"
Lam3_22 = "-2*z*exp(y*z)"
Lam3_23 = "-y*exp(y*z)"
Om2_2 = "2*y*z^2*exp(y*z)*(2 - y*z)"
Om2_3 = "2*y^2*z*exp(y*z)*(2 - y*z)"

[transformation]
u = "x*exp(y*z)"
v = "x*y^2*z^2 + sin(x)"
w = "y"
"""

INLINE = {"geodesic-2": GEODESIC2_DOC, "geodesic-3": GEODESIC3_DOC,
          "general-2": GENERAL2_DOC}

# (case name, command, document, gauge overrides)
GAUGE_CASES = [
    ("gauge.lie-ex1.lift", "lift", "lie-ex1", ["e=0"]),
    ("gauge.sys-ex3.lift", "lift", "sys-ex3", ["G1_12=x", "G3_33=0"]),
    ("gauge.sys-ex1.lift", "lift", "sys-ex1", ["G3_33=1"]),
    ("gauge.lie-ex2.appendix", "appendix", "lie-ex2", ["b=0"]),
    ("gauge.sys-ex4.appendix", "appendix", "sys-ex4", ["G3_33=0"]),
    ("gauge.sys-ex3-quad.appendix", "appendix", "sys-ex3-quad", ["G1_12=1"]),
    ("gauge.lie-ex1.verify-metric", "verify-metric", "lie-ex1", ["e=0"]),
    ("gauge.lie-ex1.check", "check", "lie-ex1", ["e=1"]),
    ("gauge.geodesic-3.check", "check", "geodesic-3", ["G3_33=1"]),
    ("gauge.geodesic-2.project", "project", "geodesic-2", ["b=1"]),
    ("gauge.geodesic-3.riemann", "riemann", "geodesic-3", ["G1_12=0"]),
    ("gauge.geodesic-2.verify-metric", "verify-metric", "geodesic-2", ["b=0"]),
    ("gauge.lie-ex2.verify-transform", "verify-transform", "lie-ex2", ["b=0"]),
    ("gauge.sys-ex5.normal-form", "normal-form", "sys-ex5", ["G3_33=1"]),
    ("gauge.lie-ex1.unknown-key", "lift", "lie-ex1", ["G3_33=1"]),
    ("gauge.lie-ex1.no-equals", "lift", "lie-ex1", ["e"]),
]


def _cases():
    cases = []
    for path in sorted(CORPUS.glob("*.ini")):
        for command in COMMANDS:
            cases.append((f"{path.stem}.{command}", command, path.stem, []))
    for name in INLINE:
        for command in COMMANDS:
            cases.append((f"{name}.{command}", command, name, []))
    return cases + GAUGE_CASES


CASES = _cases()


def _document_path(document: str, workdir: Path) -> Path:
    if document in INLINE:
        path = workdir / f"{document}.ini"
        path.write_text(INLINE[document], encoding="utf-8")
        return path
    return CORPUS / f"{document}.ini"


def run_case(command, document, gauge, workdir: Path):
    from geolin.cli import main

    argv = [command, str(_document_path(document, workdir)), "--format", "json"]
    for item in gauge:
        argv += ["--gauge", item]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _expected_exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_every_case_has_a_golden_exit_code():
    assert sorted(_expected_exit_codes()) == sorted(name for name, *_ in CASES)


@pytest.mark.parametrize("name,command,document,gauge", CASES,
                         ids=[case[0] for case in CASES])
def test_golden_output(name, command, document, gauge, tmp_path):
    code, out = run_case(command, document, gauge, tmp_path)
    assert code == _expected_exit_codes()[name]
    golden = GOLDEN / f"{name}.json"
    expected = golden.read_text(encoding="utf-8") if golden.exists() else ""
    assert out == expected


def test_the_verify_transform_fail_replays_its_witness():
    from geolin.kernel import eval_expr, parse

    report = json.loads((GOLDEN / "general-2.verify-transform.json").read_text(encoding="utf-8"))
    assert report["overall"] == "FAIL"
    assert _expected_exit_codes()["general-2.verify-transform"] == 1
    failing = [entry for entry in report["conditions"] if entry["verdict"] == "nonzero"]
    assert failing
    for entry in failing:
        point = {name: Fraction(text) for name, text in entry["witness"].items()}
        value, _ = eval_expr(parse(entry["residual"]), point, 512)
        assert abs(value) > 1e-30


def regenerate(workdir: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    codes = {}
    for name, command, document, gauge in CASES:
        code, out = run_case(command, document, gauge, workdir)
        codes[name] = code
        if out:
            (GOLDEN / f"{name}.json").write_text(out, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        regenerate(Path(scratch))
