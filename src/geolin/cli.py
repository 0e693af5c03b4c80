"""Command-line front end.

Every invocation reads one system description document, runs one
command against it, and prints a report.  Exit status encodes the
verdict:  0 all conditions hold, 1 some condition is witnessed
nonzero, 2 undecided, 3 the input was unusable.

The JSON report format is byte-deterministic for fixed inputs, flags,
and seed; wall-clock timing appears only in the text format.

A CLI process (`python -m geolin.cli`, the `geolin` script) enters
through run(), which flushes stdout and stderr after main() and ends
with os._exit: the interpreter's teardown (clearing every module, a
full garbage collection, freeing each object) is work the operating
system does anyway.  Under a profiler, a tracer or `python -i` the
process exits normally, so their exit hooks still run.  Library
callers use main(argv), which returns the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, NoReturn, Optional, Tuple

from .document import KINDS, DocumentError, SystemDocument, load_document
from .geometry import GeometryError, is_flat, metric_pde_residuals
from .kernel import DEFAULT_CONFIG, KernelDomainError, ParseError, ZeroTestConfig, parse
from .lazy import lazy_module
from .projection import project
from .report import FAIL, PASS, UNDECIDED, ConditionReport

transform = lazy_module("geolin.transform")  # loaded by verify-transform

_EXIT_BY_OVERALL = {PASS: 0, FAIL: 1, UNDECIDED: 2}
_INPUT_ERROR = 3


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = ZeroTestConfig(
            points=args.zero_test_points,
            precision_bits=args.precision_bits,
            tolerance=args.tolerance,
            seed=args.seed,
        )
        doc = load_document(args.file)
        overrides = _parse_gauge_overrides(args.gauge)
        _, handler, takes_gauge = _COMMANDS[args.command]
        if overrides and not takes_gauge:
            raise DocumentError(f"{args.command} does not use a gauge")
        payload, code = handler(doc, config, doc.gauge(overrides))
    # document, transform and coefficient-domain errors are ValueErrors
    except (ValueError, ParseError, KernelDomainError, GeometryError,
            OSError) as err:
        if sys.stderr is not None:  # None when descriptor 2 was closed at start-up
            try:
                print(f"error: {err}", file=sys.stderr)
            except OSError:  # descriptor 2 is not writable: the code still tells
                pass
        return _INPUT_ERROR
    payload["zero_test"] = {
        "points": config.points,
        "precision_bits": config.precision_bits,
        "tolerance": config.tolerance,
        "seed": config.seed,
    }
    text = (json.dumps(payload, indent=2) if args.format == "json"
            else _render_text(payload, time.perf_counter() - started))
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader closed stdout: drop the rest, keep the code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 3, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_INPUT_ERROR, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geolin",
        description="Exact linearizability checks for second-order ODE systems.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("file", help="system description document")
    shared.add_argument("--zero-test-points", type=int, metavar="N",
                        default=DEFAULT_CONFIG.points,
                        help="sample points for the probabilistic zero test")
    shared.add_argument("--precision-bits", type=int, metavar="B",
                        default=DEFAULT_CONFIG.precision_bits,
                        help="working precision for evaluating residuals that "
                             "hold exp, ln, sin, cos or sqrt (or have degree "
                             "over 4096), and for rounding the printed witness "
                             "value; other residuals are evaluated exactly")
    shared.add_argument("--tolerance", type=float, default=DEFAULT_CONFIG.tolerance, metavar="T",
                        help="relative smallness threshold at sample points, "
                             "for the residuals evaluated at working precision")
    shared.add_argument("--seed", type=int, default=DEFAULT_CONFIG.seed, metavar="S",
                        help="seed for sample point generation")
    shared.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format")
    shared.add_argument("--gauge", action="append", default=[],
                        metavar="KEY=EXPR",
                        help="override one gauge entry (repeatable)")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="command")
    for name, (blurb, _, _) in _COMMANDS.items():
        commands.add_parser(name, parents=[shared], help=blurb,
                            description=blurb)
    return parser


def _parse_gauge_overrides(pairs) -> Dict[str, object]:
    overrides = {}
    for item in pairs:
        key, sep, text = item.partition("=")
        if not sep or not key:
            raise DocumentError(f"--gauge expects KEY=EXPR, got {item!r}")
        key = key.strip()
        if key in overrides:
            raise DocumentError(f"--gauge sets {key!r} twice")
        overrides[key] = parse(text.strip())
    return overrides


def _base_payload(doc: SystemDocument, command: str) -> dict:
    return {"document": doc.name, "kind": doc.kind, "command": command}


def _condition_entries(report: ConditionReport):
    entries = []
    for record in report.records:
        entry = {
            "id": record.condition_id,
            "residual": str(record.residual),
            "verdict": record.result.verdict.value,
        }
        if record.result.witness is not None:
            entry["witness"] = dict(record.result.witness)
        if record.result.witness_value is not None:
            entry["witness_value"] = record.result.witness_value
        entries.append(entry)
    return entries


def _report_payload(doc: SystemDocument, command: str,
                    report: ConditionReport,
                    coefficients: Optional[dict] = None) -> Tuple[dict, int]:
    payload = _base_payload(doc, command)
    if coefficients is not None:
        payload["coefficients"] = coefficients
    payload["conditions"] = _condition_entries(report)
    if report.facts:
        payload["facts"] = {key: value for key, value in report.facts}
    payload["overall"] = report.overall
    return payload, _EXIT_BY_OVERALL[report.overall]


def _result_payload(doc: SystemDocument, command: str, result_kind: str,
                    value) -> Tuple[dict, int]:
    payload = _base_payload(doc, command)
    payload["result_kind"] = result_kind
    payload["coefficients"] = KINDS[result_kind].table(value)
    return payload, 0


def _cmd_check(doc, config, gauge):
    if doc.spec.check is None:
        raise DocumentError(
            "a general-2 pair has no direct invariant test; reduce it "
            "with the normal-form command first")
    return _report_payload(doc, "check", doc.spec.check(doc.system(), config))


def _connection(doc: SystemDocument, command: str):
    if doc.spec.connection is None:
        raise DocumentError(
            f"{command} applies to geodesic-2 or geodesic-3 documents")
    return doc.spec.connection(doc.system())


def _cmd_project(doc, config, gauge):
    equations = project(_connection(doc, "project"))
    return _result_payload(doc, "project", doc.spec.counterpart, equations)


def _lift(doc: SystemDocument, gauge):
    spec = doc.spec
    if spec.lift is None:
        raise DocumentError("lift applies to equation documents, not connections")
    return spec.lift(spec.equations(doc.system()), gauge)


def _cmd_lift(doc, config, gauge):
    return _result_payload(doc, "lift", doc.spec.counterpart, _lift(doc, gauge))


def _cmd_verify_transform(doc, config, gauge):
    candidate = doc.transformation()
    if candidate is None:
        raise DocumentError("verify-transform needs a [transformation] block")
    report = transform.verify_linearizing_transformation(doc.system(), candidate, config)
    return _report_payload(doc, "verify-transform", report)


def _cmd_verify_metric(doc, config, gauge):
    metric = doc.metric()
    if metric is None:
        raise DocumentError("verify-metric needs a [metric] block")
    # a metric block exists only on scalar-cubic and geodesic-2 documents
    coef = doc.system() if doc.spec.connection else _lift(doc, gauge)
    report = metric_pde_residuals(coef, metric, config)
    return _report_payload(doc, "verify-metric", report)


def _cmd_riemann(doc, config, gauge):
    report = is_flat(_connection(doc, "riemann"), config)
    return _report_payload(doc, "riemann", report)


def _cmd_normal_form(doc, config, gauge):
    if doc.spec.normal_form is None:
        raise DocumentError("normal-form applies to general-2 documents")
    cubic, report = doc.spec.normal_form(doc.system(), config)
    return _report_payload(doc, "normal-form", report,
                           coefficients=KINDS["cubic-2"].table(cubic))


def _cmd_appendix(doc, config, gauge):
    spec = doc.spec
    if spec.appendix is None:
        raise DocumentError(
            "appendix applies to equation documents with a gauge")
    report = spec.appendix(spec.equations(doc.system()), gauge, config)
    return _report_payload(doc, "appendix", report)


# command name -> (help text, handler, whether --gauge applies)
_COMMANDS = {
    "check": ("run the linearizability test matching the document kind",
              _cmd_check, False),
    "project": ("rewrite a geodesic system as explicit equations",
                _cmd_project, False),
    "lift": ("reconstruct a connection from the equations and a gauge",
             _cmd_lift, True),
    "verify-transform": ("substitute the document's map and test the result",
                         _cmd_verify_transform, False),
    "verify-metric": ("test the document's metric against the lifted system",
                      _cmd_verify_metric, True),
    "riemann": ("evaluate all curvature components of a connection",
                _cmd_riemann, False),
    "normal-form": ("reduce a general pair to cubic shape with a consistency report",
                    _cmd_normal_form, False),
    "appendix": ("evaluate the full integrability table on an explicit gauge",
                 _cmd_appendix, True),
}


def _render_text(payload: dict, elapsed: float) -> str:
    lines = [
        f"document: {payload['document']} ({payload['kind']})",
        f"command: {payload['command']}",
    ]
    if "result_kind" in payload:
        lines.append(f"result kind: {payload['result_kind']}")
    if "coefficients" in payload:
        lines.append("coefficients:")
        for key, text in payload["coefficients"].items():
            lines.append(f"  {key} = {text}")
    for entry in payload.get("conditions", ()):
        lines.append(
            f"  [{entry['id']}] {entry['verdict']}: {entry['residual']}")
        if "witness_value" in entry:
            point = entry.get("witness") or {}
            at = " ".join(f"{k}={v}" for k, v in point.items())
            suffix = f" at {at}" if at else ""
            lines.append(f"      witness value {entry['witness_value']}{suffix}")
    if "facts" in payload:
        lines.append("facts:")
        for key, value in payload["facts"].items():
            lines.append(f"  {key}: {value}")
    if "overall" in payload:
        lines.append(f"overall: {payload['overall']}")
    config = payload["zero_test"]
    lines.append(
        "zero test: points={points} precision_bits={precision_bits} "
        "tolerance={tolerance} seed={seed}".format(**config))
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines)


def run() -> NoReturn:
    """Process entry: main()'s code as the exit status, without teardown.

    Usage errors and --help leave through argparse's SystemExit.
    """
    code = main()
    # from Python 3.12 cProfile registers a sys.monitoring tool (ids 0-5)
    # in place of a profile function
    monitoring = getattr(sys, "monitoring", None)
    if (sys.flags.inspect or sys.getprofile() or sys.gettrace()
            or monitoring and any(map(monitoring.get_tool, range(6)))):
        sys.exit(code)
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the descriptor was closed at start-up
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
