import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from geolin.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def run(capsys, *argv):
    try:
        code = main([str(a) for a in argv])
    except SystemExit as stop:  # argparse: usage errors and -h
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def doc_path(name) -> str:
    return str(CORPUS / f"{name}.ini")


def _child_env(**extra) -> dict:
    """The environment of a child interpreter: src/ first on PYTHONPATH."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


class TestCheckCommand:
    def test_scalar_pass(self, capsys):
        code, out, _ = run(capsys, "check", doc_path("lie-ex1"))
        assert code == 0
        assert "overall: PASS" in out
        assert "[Eq3.1] zero" in out
        assert "[Eq3.2] zero" in out

    def test_scalar_fail_with_constant_witness(self, capsys):
        code, out, _ = run(capsys, "check", doc_path("lie-counter"))
        assert code == 1
        assert "[Eq3.2] nonzero: 6" in out
        assert "overall: FAIL" in out

    def test_linear_pair_anisotropic_fail(self, capsys):
        code, out, _ = run(capsys, "check", doc_path("sys-ex1"))
        assert code == 1
        assert "Eq55.3" in out
        assert "-w1 + w2" in out

    def test_linear_pair_isotropic_pass(self, capsys):
        code, out, _ = run(capsys, "check", doc_path("sys-ex1-iso"))
        assert code == 0

    def test_coupled_pair_fails_both_shapes(self, capsys):
        code, out, _ = run(capsys, "check", doc_path("sys-ex2"))
        assert code == 1
        code, out, _ = run(capsys, "check", doc_path("sys-ex2-cubic"))
        assert code == 1
        assert "[Eq51.4] nonzero: -1" in out

    def test_cubic_pairs_pass(self, capsys):
        for name in ("sys-ex3", "sys-ex4", "sys-ex3-quad"):
            code, out, _ = run(capsys, "check", doc_path(name))
            assert code == 0, name
            assert "overall: PASS" in out

    def test_general_pair_is_redirected(self, capsys):
        code, _, err = run(capsys, "check", doc_path("sys-ex5"))
        assert code == 3
        assert "normal-form" in err

    def test_geodesic_flatness(self, capsys, tmp_path):
        flat = tmp_path / "flat.ini"
        flat.write_text(
            '[system]\nname = flat\nkind = geodesic-2\n'
            '[coefficients]\na = "1"\nc = "1"\ne = "1"\n')
        code, out, _ = run(capsys, "check", flat)
        assert code == 0
        assert "[Eq9.1] zero" in out


class TestVerifyTransform:
    @pytest.mark.parametrize(
        "name", ["lie-ex1", "lie-ex2", "sys-ex3", "sys-ex4", "sys-ex5"])
    def test_corpus_maps_straighten(self, capsys, name):
        code, out, _ = run(capsys, "verify-transform", doc_path(name))
        assert code == 0
        assert "overall: PASS" in out
        assert "Eqr4.2" in out

    def test_missing_block(self, capsys):
        code, _, err = run(capsys, "verify-transform", doc_path("sys-ex1"))
        assert code == 3
        assert "transformation" in err

    def test_failing_candidate(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            '[system]\nname = bad\nkind = linear-2\n'
            '[coefficients]\nD2 = "z"\nD3 = "z"\n'
            '[transformation]\nu = "x"\nv = "y"\nw = "z"\n')
        code, out, _ = run(capsys, "verify-transform", bad)
        assert code == 1
        assert "witness" in out


class TestVerifyMetric:
    def test_worked_metric_passes(self, capsys):
        code, out, _ = run(capsys, "verify-metric", doc_path("lie-ex2"))
        assert code == 0
        assert "degenerate: no" in out
        for i in range(1, 7):
            assert f"[Eq11.{i}] zero" in out

    def test_degenerate_metric_still_passes_with_flag(self, capsys):
        code, out, _ = run(capsys, "verify-metric", doc_path("lie-ex1"))
        assert code == 0
        assert "determinant: 0" in out
        assert "degenerate: yes" in out

    def test_missing_metric_block(self, capsys):
        code, _, err = run(capsys, "verify-metric", doc_path("sys-ex1"))
        assert code == 3
        assert "metric" in err


class TestStructuralCommands:
    def test_lift_scalar_uses_gauge_block(self, capsys):
        code, out, _ = run(capsys, "lift", doc_path("lie-ex1"))
        assert code == 0
        assert "result kind: geodesic-2" in out
        assert "a = 1" in out
        assert "e = 1" in out

    def test_lift_gauge_override(self, capsys):
        code, out, _ = run(
            capsys, "lift", doc_path("lie-ex1"), "--gauge", "e=5")
        assert code == 0
        assert "a = 9" in out  # a = E1 + 2e
        assert "e = 5" in out

    def test_lift_pair_places_gauge(self, capsys):
        code, out, _ = run(capsys, "lift", doc_path("sys-ex3"))
        assert code == 0
        assert "result kind: geodesic-3" in out
        assert "G3_33 = 1" in out

    def test_project_flat_connection(self, capsys, tmp_path):
        flat = tmp_path / "flat.ini"
        flat.write_text(
            '[system]\nname = flat\nkind = geodesic-2\n'
            '[coefficients]\na = "1"\nc = "1"\ne = "1"\n')
        code, out, _ = run(capsys, "project", flat)
        assert code == 0
        assert "result kind: scalar-cubic" in out
        assert "E1 = -1" in out
        assert "E3 = 1" in out

    def test_project_rejects_equation_documents(self, capsys):
        code, _, err = run(capsys, "project", doc_path("lie-ex1"))
        assert code == 3
        assert "geodesic" in err

    def test_riemann_flat(self, capsys, tmp_path):
        flat = tmp_path / "flat.ini"
        flat.write_text(
            '[system]\nname = flat\nkind = geodesic-2\n'
            '[coefficients]\na = "1"\nc = "1"\ne = "1"\n')
        code, out, _ = run(capsys, "riemann", flat)
        assert code == 0
        assert "Eq6.R1_212" in out

    def test_riemann_curved(self, capsys, tmp_path):
        curved = tmp_path / "curved.ini"
        curved.write_text(
            '[system]\nname = curved\nkind = geodesic-3\n'
            '[coefficients]\nG1_22 = "x"\n')
        code, out, _ = run(capsys, "riemann", curved)
        assert code == 1


class TestNormalFormCommand:
    def test_tangled_pair_reports_inconsistency(self, capsys):
        code, out, _ = run(capsys, "normal-form", doc_path("sys-ex5"))
        assert code == 1
        assert "coefficients:" in out
        assert "[Eqr55.Lam3_23] nonzero" in out
        assert "det J" in out

    def test_kind_mismatch(self, capsys):
        code, _, err = run(capsys, "normal-form", doc_path("sys-ex3"))
        assert code == 3
        assert "general-2" in err


class TestAppendixCommand:
    def test_pair_with_witness_gauge(self, capsys):
        code, out, _ = run(capsys, "appendix", doc_path("sys-ex3"))
        assert code == 0
        assert "overall: PASS" in out

    def test_zero_gauge_override_fails(self, capsys):
        code, out, _ = run(
            capsys, "appendix", doc_path("sys-ex3"), "--gauge", "G3_33=0")
        assert code == 1
        assert "[EqA2.9] nonzero: 1/2" in out

    def test_scalar_gauge_table(self, capsys):
        code, out, _ = run(capsys, "appendix", doc_path("lie-ex1"))
        assert code == 0
        assert "[Eq9.2] zero" in out
        code, out, _ = run(
            capsys, "appendix", doc_path("lie-ex1"), "--gauge", "e=0")
        assert code == 1
        assert "[Eq9.2] nonzero: -1" in out


class TestReportFormats:
    def test_json_is_byte_deterministic(self, capsys):
        _, first, _ = run(capsys, "check", doc_path("sys-ex1"),
                          "--format", "json")
        _, second, _ = run(capsys, "check", doc_path("sys-ex1"),
                           "--format", "json")
        assert first == second

    def test_json_has_no_timing(self, capsys):
        _, out, _ = run(capsys, "check", doc_path("lie-ex1"),
                        "--format", "json")
        payload = json.loads(out)
        assert "elapsed" not in payload
        assert payload["overall"] == "PASS"
        assert payload["zero_test"] == {
            "points": 16, "precision_bits": 256,
            "tolerance": 1e-30, "seed": 0,
        }

    def test_json_witness_fields(self, capsys):
        _, out, _ = run(capsys, "check", doc_path("sys-ex1"),
                        "--format", "json")
        payload = json.loads(out)
        failing = [c for c in payload["conditions"]
                   if c["verdict"] == "nonzero"]
        assert failing
        assert "witness" in failing[0]
        assert "witness_value" in failing[0]
        passing = [c for c in payload["conditions"] if c["verdict"] == "zero"]
        assert all("witness" not in c for c in passing)

    def test_seed_moves_witness_not_verdict(self, capsys):
        _, base, _ = run(capsys, "check", doc_path("sys-ex1"),
                         "--format", "json")
        _, moved, _ = run(capsys, "check", doc_path("sys-ex1"),
                          "--format", "json", "--seed", "9")
        a, b = json.loads(base), json.loads(moved)
        assert a["overall"] == b["overall"] == "FAIL"
        wa = [c["witness"] for c in a["conditions"] if "witness" in c]
        wb = [c["witness"] for c in b["conditions"] if "witness" in c]
        assert wa != wb

    def test_text_has_timing_and_config(self, capsys):
        _, out, _ = run(capsys, "check", doc_path("lie-ex1"))
        assert "elapsed:" in out
        assert "zero test: points=16" in out

    def test_flag_echo_in_json(self, capsys):
        _, out, _ = run(capsys, "check", doc_path("lie-ex1"),
                        "--format", "json", "--zero-test-points", "4",
                        "--precision-bits", "128", "--seed", "3")
        payload = json.loads(out)
        assert payload["zero_test"]["points"] == 4
        assert payload["zero_test"]["precision_bits"] == 128
        assert payload["zero_test"]["seed"] == 3


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.ini")
        assert code == 3
        assert err

    @pytest.mark.parametrize("text, message, line", [
        ('[coefficients]\nE0 = "1"\n', "missing [system] section", None),
        ("[system]\nname = a\nkind = scalar-cubic\ncolour = red\n",
         "unknown [system] keys ['colour']", None),
        ("[system]\nname = a\n[coefficients\n", "unterminated section header", 3),
        ("[system]\nname a\n", "expected key = value", 2),
        ("[system]\nname = a\n2name = b\n", "bad key '2name'", 3),
    ], ids=["no-system", "system-key", "header", "no-equals", "bad-key"])
    def test_malformed_document_is_input_error(self, capsys, tmp_path, text,
                                               message, line):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        code, out, err = run(capsys, "check", bad)
        assert code == 3
        assert not out
        assert err.startswith("error: ") and message in err
        if line is not None:
            assert f"{bad}:{line}: {message}" in err

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        marked = tmp_path / "lie-ex2.ini"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(doc_path("lie-ex2")).read_bytes())
        plain = run(capsys, "check", doc_path("lie-ex2"), "--format", "json")
        assert run(capsys, "check", marked, "--format", "json") == plain
        assert plain[0] == 0

    def test_bad_gauge_flag(self, capsys):
        code, _, err = run(capsys, "appendix", doc_path("sys-ex3"),
                           "--gauge", "G3_33")
        assert code == 3
        assert "KEY=EXPR" in err

    def test_unknown_gauge_key(self, capsys):
        code, _, err = run(capsys, "appendix", doc_path("sys-ex3"),
                           "--gauge", "b=1")
        assert code == 3
        assert "unknown gauge key" in err

    @pytest.mark.parametrize("second", ["G1_12=0", " G1_12 =0"])
    def test_repeated_gauge_key(self, capsys, second):
        # a later value must not silently replace an earlier one
        code, out, err = run(capsys, "appendix", doc_path("sys-ex4"),
                             "--gauge", "G1_12=x", "--gauge", second)
        assert code == 3
        assert not out
        assert err == "error: --gauge sets 'G1_12' twice\n"

    def test_non_invertible_map_is_input_error(self, capsys, tmp_path):
        # both components are x: the residual vanishes, yet no point
        # transformation straightens anything
        bad = tmp_path / "degenerate.ini"
        bad.write_text(
            '[system]\nname = degenerate-map\nkind = scalar-cubic\n'
            '[coefficients]\nE0 = "x*y^2 + sin(y)"\n'
            '[transformation]\nu = "x"\nv = "x"\n')
        code, out, err = run(capsys, "verify-transform", bad)
        assert code == 3
        assert not out
        assert err == "error: Jacobian determinant is canonically zero\n"

    def test_domain_violation_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            '[system]\nname = bad\nkind = quadratic-2\n'
            '[coefficients]\nB2_22 = "x"\n')
        code, _, err = run(capsys, "check", bad)
        assert code == 3
        assert err

    def test_exponent_tower_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "tower.ini"
        bad.write_text(
            '[system]\nname = tower\nkind = linear-2\n'
            '[coefficients]\nD2 = "z^(2^9^9^9)"\n')
        code, _, err = run(capsys, "check", bad)
        assert code == 3
        assert "exponent tower" in err

    def test_huge_plain_exponent_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "exponent.ini"
        bad.write_text(
            '[system]\nname = exponent\nkind = linear-2\n'
            '[coefficients]\nD2 = "z^' + "7" * 5000 + '"\n')
        code, _, err = run(capsys, "check", bad)
        assert code == 3
        assert "exponent exceeds 2^64" in err
        assert "4300" not in err

    def test_huge_literal_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "literal.ini"
        bad.write_text(
            '[system]\nname = literal\nkind = linear-2\n'
            '[coefficients]\nD2 = "y*' + "7" * (10 ** 6 + 1) + '"\n')
        code, _, err = run(capsys, "check", bad)
        assert code == 3
        assert "number literal exceeds 1000000 digits (at offset 2)" in err

    def test_huge_literal_power_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "power.ini"
        bad.write_text(
            '[system]\nname = power\nkind = linear-2\n'
            '[coefficients]\nD2 = "(x+y+z+1)^100"\n')
        code, _, err = run(capsys, "check", bad)
        assert code == 3
        assert "terms" in err

    def test_huge_parsed_product_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "product.ini"
        bad.write_text(
            '[system]\nname = product\nkind = linear-2\n'
            '[coefficients]\nD2 = "(x+y+z+1)^16*(x+y+z+1)^16*(x+y+z+1)^8"\n')
        start = time.perf_counter()
        code, _, err = run(capsys, "check", bad)
        assert code == 3
        assert "product" in err
        # building the 12341-term product took about 7 s
        assert time.perf_counter() - start < 3

    def test_coefficient_past_the_int_limit_is_read(self, capsys, tmp_path):
        # int() refuses digit strings past 4300 digits, which once made this
        # document exit 3 with the interpreter's conversion message
        sevens = "7" * 5000
        big = tmp_path / "big.ini"
        big.write_text(
            '[system]\nname = big\nkind = linear-2\n'
            f'[coefficients]\nD2 = "{sevens}*y"\n')
        code, out, err = run(capsys, "check", big, "--format", "json")
        assert code == 1, err
        residuals = [c["residual"] for c in json.loads(out)["conditions"]]
        assert f"-{sevens}" in residuals

    @pytest.mark.parametrize("text", ["sqrt(-1)", "ln(0)"])
    def test_kernel_domain_error_is_input_error(self, capsys, tmp_path, text):
        bad = tmp_path / "domain.ini"
        bad.write_text(
            '[system]\nname = domain\nkind = scalar-cubic\n'
            f'[coefficients]\nE0 = "{text}"\n')
        code, out, err = run(capsys, "check", bad)
        assert code == 3
        assert not out
        assert err.startswith("error: ") and "constant" in err

    def test_kernel_domain_error_in_gauge_override(self, capsys):
        code, _, err = run(capsys, "lift", doc_path("lie-ex1"),
                           "--gauge", "b=ln(-2)")
        assert code == 3
        assert err.startswith("error: ln of a nonpositive constant")

    @pytest.mark.parametrize("text", [
        "(" * 200 + "x" + ")" * 200,
        "exp(" * 400 + "x" + ")" * 400,
    ], ids=["parentheses", "exp"])
    def test_deep_nesting_is_input_error(self, capsys, tmp_path, text):
        bad = tmp_path / "nested.ini"
        bad.write_text(
            '[system]\nname = nested\nkind = scalar-cubic\n'
            f'[coefficients]\nE0 = "{text}"\n')
        code, _, err = run(capsys, "check", bad)
        assert code == 3
        assert err.startswith("error: ") and "nesting exceeds 100 levels" in err

    def test_long_run_of_signs_is_read(self, capsys, tmp_path):
        signs = tmp_path / "signs.ini"
        signs.write_text(
            '[system]\nname = signs\nkind = scalar-cubic\n'
            '[coefficients]\nE0 = "' + "-" * 1000 + 'x"\n')
        code, out, _ = run(capsys, "check", signs, "--format", "json")
        assert code in (0, 1, 2)
        assert json.loads(out)["overall"]

    def test_exp_tower_ends_in_a_report(self, capsys, tmp_path):
        # evaluating the tower once raised OverflowError inside mpmath
        tower = tmp_path / "tower.ini"
        tower.write_text(
            '[system]\nname = tower\nkind = scalar-cubic\n'
            '[coefficients]\nE0 = "exp(exp(exp(exp(exp(x*y)))))"\n')
        code, out, _ = run(capsys, "check", tower, "--format", "json")
        assert code in (0, 1, 2)
        assert json.loads(out)["overall"]

    def test_gauge_on_gaugeless_command(self, capsys):
        code, _, err = run(capsys, "check", doc_path("lie-ex1"),
                           "--gauge", "b=1")
        assert code == 3
        assert "gauge" in err

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus", doc_path("lie-ex1")],
        ["check", doc_path("lie-ex1"), "--zero-test-points", "abc"],
    ], ids=["no-command", "unknown-command", "non-integer"])
    def test_usage_error_is_input_error(self, capsys, argv):
        # argparse's own exit status, 2, reads as UNDECIDED
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert not out
        assert err.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize("flag,value", [
        ("zero-test-points", "0"), ("zero-test-points", "2000"),
        ("precision-bits", "64"), ("precision-bits", "100000000"),
        ("tolerance", "-1"), ("tolerance", "nan"),
    ])
    def test_zero_test_flag_out_of_range(self, capsys, flag, value):
        code, out, err = run(capsys, "check", doc_path("lie-ex1"), f"--{flag}", value)
        assert code == 3
        assert not out
        assert err.startswith("error: zero test ")

    @pytest.mark.parametrize("argv", [["-h"], ["check", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: geolin")

    def test_rounding_is_not_a_witness(self, capsys, tmp_path):
        # at 64 and 100 bits with the default tolerance, rounding once
        # witnessed this zero function nonzero; those precisions are refused
        doc = tmp_path / "sqrt.ini"
        doc.write_text(
            '[system]\nname = sqrt\nkind = geodesic-2\n'
            '[coefficients]\na = "y*sqrt(2*y^2) - sqrt(2)*y^2"\n')
        code, out, _ = run(capsys, "check", doc, "--precision-bits", "128")
        assert code == 2
        assert "overall: UNDECIDED" in out


class TestClosedStdout:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name, want", [("lie-ex2", 0), ("lie-counter", 1)])
    def test_reader_closing_early_keeps_the_exit_code(self, name, want, fmt):
        # the reader closes its end before any output is written
        env = _child_env()
        proc = subprocess.Popen(
            [sys.executable, "-m", "geolin.cli", "check", doc_path(name), "--format", fmt],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == want
        assert err == b""


def _stderr_read_only():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.dup2(fd, 2)
    os.close(fd)


class TestProcessEntry:
    """`python -m geolin.cli` enters through run(), which flushes stdout and
    stderr after main() and ends with os._exit, skipping the teardown."""

    @staticmethod
    def cli(*argv, head=("-m", "geolin.cli")):
        # stdout is block-buffered, as by default, so an unflushed report is lost
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        return subprocess.run([sys.executable, *head, *argv], cwd=ROOT, env=env,
                              capture_output=True, timeout=60)

    @pytest.mark.parametrize("name, command", [
        ("sys-ex5", "normal-form"),  # the largest report; its zero test loads mpmath
        ("lie-counter", "check"),  # FAIL
        ("sys-ex4", "appendix"),  # PASS
    ])
    def test_report_and_code_match_the_golden(self, name, command):
        golden = ROOT / "tests" / "golden"
        case = f"{name}.{command}"
        done = self.cli(command, doc_path(name), "--format", "json")
        assert done.returncode == json.loads((golden / "exit_codes.json").read_text())[case]
        assert done.stdout == (golden / f"{case}.json").read_bytes()
        assert done.stderr == b""

    def test_input_error_prints_only_its_error_line(self):
        done = self.cli("project", doc_path("lie-ex2"))
        assert done.returncode == 3
        assert done.stdout == b""
        assert done.stderr == b"error: project applies to geodesic-2 or geodesic-3 documents\n"

    def test_a_stdout_closed_at_start_up_keeps_the_code(self):
        # with descriptor 1 closed the interpreter sets sys.stdout to None,
        # which print skips and run() does not flush
        done = subprocess.run(
            [sys.executable, "-m", "geolin.cli", "check", doc_path("lie-counter")],
            cwd=ROOT, env=_child_env(), stderr=subprocess.PIPE, timeout=60,
            preexec_fn=lambda: os.close(1))
        assert done.returncode == 1
        assert done.stderr == b""

    @pytest.mark.parametrize("start", [lambda: os.close(2), _stderr_read_only],
                             ids=["closed", "read-only"])
    def test_an_unwritable_stderr_keeps_the_input_error_code(self, start):
        # with descriptor 2 closed sys.stderr is None, and the error line
        # must not go to stdout; a read-only descriptor 2 fails the write,
        # which must not turn the input error into a FAIL
        done = subprocess.run(
            [sys.executable, "-m", "geolin.cli", "project", doc_path("lie-ex2")],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, timeout=60,
            preexec_fn=start)
        assert done.returncode == 3
        assert done.stdout == b""

    def test_exit_hooks_are_skipped(self):
        # atexit handlers run in the teardown that os._exit skips
        code = ("import atexit, sys; atexit.register(print, 'teardown'); "
                "sys.argv[1:] = ['check', 'corpus/lie-counter.ini', '--format', 'json']; "
                "from geolin.cli import run; run()")
        done = self.cli(head=("-c", code))
        assert done.returncode == 1
        assert done.stdout == (ROOT / "tests" / "golden" / "lie-counter.check.json").read_bytes()

    def test_a_profiler_still_prints_its_table(self):
        # cProfile sets a profile function (a sys.monitoring tool from
        # Python 3.12) and prints its table once the module has exited
        done = self.cli("check", doc_path("lie-ex2"), head=("-m", "cProfile", "-m", "geolin.cli"))
        assert done.returncode == 0, done.stderr
        out = done.stdout.decode()
        assert "overall: PASS" in out
        assert "function calls" in out and "ncalls  tottime" in out


class TestStartup:
    def test_mpmath_is_imported_only_by_evaluation(self):
        env = _child_env()
        code = textwrap.dedent("""
            import contextlib, io, sys
            import geolin.cli
            seen = ['mpmath' in sys.modules]
            sympy = ['sympy' in sys.modules]
            for cmd, doc in [('check', 'sys-ex2'), ('check', 'sys-ex3'),
                             ('verify-metric', 'lie-ex2'), ('normal-form', 'sys-ex5')]:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = geolin.cli.main([cmd, f'corpus/{doc}.ini', '--format', 'json'])
                seen += [code, 'mpmath' in sys.modules]
                sympy.append('sympy' in sys.modules)
            print(*seen)
            print(*sympy)
        """)
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        # sys-ex2 fails on a constant residual and sys-ex3 passes, both
        # decided without evaluation; verify-metric on lie-ex2 samples
        # exactly and prints its witness value in integer arithmetic;
        # normal-form on sys-ex5 evaluates kernel residuals
        assert lines[0].split() == ["False", "1", "False", "0", "False", "0", "False",
                                    "1", "True"]
        # sympy is a reference for idiom only: no import of geolin loads it
        assert lines[1].split() == ["False"] * 5

    def test_value_classes_generate_no_methods(self):
        # a frozen dataclass compiles six methods per class at import; the
        # value classes share Frozen's and are dataclasses only by fields,
        # registered when is_dataclass first reads them
        env = _child_env()
        code = textwrap.dedent("""
            import dataclasses, json, sys
            import geolin.cli, geolin.criteria, geolin.transform
            found = {}
            for name, module in sorted(sys.modules.items()):
                if name != 'geolin' and not name.startswith('geolin.'):
                    continue
                for cls in vars(module).values():
                    if (isinstance(cls, type) and cls.__module__ == name
                            and dataclasses.is_dataclass(cls)):
                        found[cls.__name__] = sorted(
                            {'__init__', '__repr__', '__eq__', '__hash__', '__setattr__',
                             '__delattr__'} & set(vars(cls)))
            print(json.dumps(found))
        """)
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        found = json.loads(done.stdout)
        assert {name: own for name, own in found.items() if own} == {}
        assert set(found) >= {
            "ZeroTestConfig", "ZeroTestResult", "ConditionRecord", "ConditionReport",
            "Metric", "Christoffel", "Riemann", "Geodesic2Coefficients", "ScalarCubic",
            "SystemCubic2", "ScalarGauge", "SystemGauge", "Quadratic2", "Linear2",
            "Transformation", "GeneralSystem2", "Kind", "SystemDocument"}

    def test_commands_run_only_the_modules_they_call(self):
        # with no bytecode cache a module costs its compile; import
        # geolin.cli registers transform, criteria, the packed gcd and the
        # numeric evaluator, as the benchmark tracer reads every module
        # its LAYERS names, but runs none of their bodies until a command
        # calls into it.  A body runs once per process, so each child runs
        # the commands named on its command line, in that order
        env = _child_env(PYTHONDONTWRITEBYTECODE="1")
        code = textwrap.dedent("""
            import contextlib, io, os, sys
            ran = []
            sys.addaudithook(lambda event, args: event == 'exec' and ran.append(
                os.path.basename(getattr(args[0], 'co_filename', ''))))
            sys.path.insert(0, 'bench')
            from tracer import LAYERS
            import geolin.cli
            deferred = ('criteria.py', 'gcd.py', 'numeric.py', 'transform.py')
            def bodies(step):
                print(step, *sorted(name for name in deferred if name in ran) or ['none'],
                      *[ran.count(name) for name in deferred])
            print(all(module in sys.modules for targets in LAYERS.values()
                      for module, _ in targets))
            bodies('import')
            for pair in sys.argv[1:]:
                cmd, doc = pair.split(':')
                with contextlib.redirect_stdout(io.StringIO()):
                    code = geolin.cli.main([cmd, f'corpus/{doc}.ini', '--format', 'json'])
                bodies(f'{cmd}:{code}')
        """)

        def run(*pairs):
            done = subprocess.run([sys.executable, "-c", code, *pairs], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            return done.stdout.splitlines()

        # sys-ex3 passes on exact samples with no witness to print;
        # verify-metric on lie-ex2 prints an exact witness value; only
        # normal-form on sys-ex5 meets a gcd past the dict exits
        assert run("lift:sys-ex4", "check:sys-ex3", "verify-metric:lie-ex2",
                   "normal-form:sys-ex5") == [
            "True",
            "import none 0 0 0 0",
            "lift:0 none 0 0 0 0",
            "check:0 criteria.py 1 0 0 0",
            "verify-metric:0 criteria.py numeric.py 1 0 1 0",
            "normal-form:1 criteria.py gcd.py numeric.py transform.py 1 1 1 1",
        ]
        # verify-metric reads neither criteria nor transform
        assert run("verify-metric:lie-ex2") == [
            "True",
            "import none 0 0 0 0",
            "verify-metric:0 numeric.py 0 0 1 0",
        ]

    def test_two_threads_load_a_deferred_module_once(self):
        # two threads behind a barrier read geolin.transform while its body
        # has not run: the body runs once, and both see the loaded module
        env = _child_env()
        code = textwrap.dedent("""
            import contextlib, io, os, sys, threading
            ran = []
            sys.addaudithook(lambda event, args: event == 'exec' and ran.append(
                os.path.basename(getattr(args[0], 'co_filename', ''))))
            import geolin.cli
            transform = sys.modules['geolin.transform']
            start, seen = threading.Barrier(2), []
            def touch():
                start.wait(timeout=30)
                seen.append((transform.GeneralSystem2, transform.Transformation))
            threads = [threading.Thread(target=touch) for _ in range(2)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            print(any(t.is_alive() for t in threads), len(seen), seen[0] == seen[1],
                  ran.count('transform.py'))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = geolin.cli.main(['normal-form', 'corpus/sys-ex5.ini', '--format', 'json'])
            with open('tests/golden/sys-ex5.normal-form.json', encoding='utf-8') as golden:
                print(code, out.getvalue() == golden.read(), ran.count('transform.py'))
        """)
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["False 2 True 1", "1 True 1"]

    def test_dataclasses_load_on_first_introspection(self):
        # import geolin.cli loads no dataclasses (nor the inspect, ast, dis
        # and tokenize it imports); a value class registers with it when
        # first read, and then fields, replace, asdict and match work
        env = _child_env()
        code = textwrap.dedent("""
            import sys, threading
            import geolin.cli
            from geolin.kernel.frozen import Frozen
            print(*sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')
                          if m in sys.modules) or ['none'])
            from geolin.geometry import Christoffel
            from geolin.kernel import Verdict, ZeroTestResult, var
            from geolin.report import ConditionRecord
            from geolin.transform import Transformation
            result = ZeroTestResult(Verdict.NONZERO, witness_value='1')
            try:
                result.detail = 'd'
            except Exception as err:
                print(type(err).__module__, type(err).__name__)
            import dataclasses
            # two threads reading one cold class, and its cold base, at once
            start, seen = threading.Barrier(2), []
            def read():
                start.wait(timeout=30)
                seen.append(dataclasses.fields(Christoffel))
            threads = [threading.Thread(target=read) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            print(len(seen), seen[0] == seen[1], [f.name for f in seen[0]])
            changed = ZeroTestResult(Verdict.NONZERO, witness_value='1', detail='d')
            print(dataclasses.replace(result, detail='d') == changed,
                  result.__replace__(detail='d') == changed)
            record = dataclasses.asdict(ConditionRecord('Eq1', var('x'), result))
            print(str(record.pop('residual')) == 'x', record == {'condition_id': 'Eq1', 'result': {
                'verdict': Verdict.NONZERO, 'witness': None, 'witness_value': '1', 'detail': ''}})
            match Transformation((var('u'), var('v'))):
                case Transformation(components):
                    print(len(components))
            def walk(cls):
                for sub in cls.__subclasses__():
                    yield sub
                    yield from walk(sub)
            print(dataclasses.is_dataclass(Frozen),
                  all(tuple(f.name for f in dataclasses.fields(cls)) == cls._field_names
                      and dataclasses.is_dataclass(cls) for cls in walk(Frozen)),
                  len(list(walk(Frozen))))
        """)
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "none",
            "dataclasses FrozenInstanceError",
            "2 True ['dim', 'entries']",
            "True True",
            "True True",
            "2",
            "False True 19",
        ]
