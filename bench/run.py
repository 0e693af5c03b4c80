"""geolin benchmark: closure, invariants and corpus-cli workloads.

Usage (from the repository root):

    python3 bench/run.py --workload closure --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each run starts fresh worker interpreters (bench/worker.py), checks every
verdict, and prints one line per metric followed, as the last line, by a
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 a separate
traced run reports per-layer calls and self times (see bench/NOTES.md).
With --workload all the metric names carry the workload as a prefix.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 5
# Wall-clock cap for one run; the contract allows 180 s per run.
RUN_BUDGET_S = 170.0
# item_tail_ms takes the highest of these percentiles that leaves at
# least ten items beyond it
TAIL_GRID = (99, 95, 90, 80, 75, 70, 50)
UNITS = {"wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms", "item_max_s": "s",
         "setup_s": "s"}

sys.path.insert(0, str(BENCH))
from speed import PROCESS_NOMINAL_S, SpeedSamples  # noqa: E402
from tracer import LAYERS  # noqa: E402
from worker import DEFAULT_DRAW_SEED, MIN_PASSES, WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """A worker crashed, timed out or printed no result."""


def stamp() -> dict:
    """What the numbers depend on besides the code under test."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    # detected from outside the package: the kernel falls back to
    # fractions.Fraction when gmpy2 cannot be imported
    backend = "gmpy2" if importlib.util.find_spec("gmpy2") else "fractions.Fraction"
    return {
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit or "unknown",
    }


def _deadline_left(deadline: float) -> float:
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_BUDGET_S:.0f} s")
    return left


def worker(args, workload: str, deadline: float, *extra: str) -> dict:
    argv = [sys.executable, str(WORKER), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--draw-seed", str(args.draw_seed), *extra]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=_deadline_left(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the {RUN_BUDGET_S:.0f} s run budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def setup_seconds(args, workload: str, deadline: float):
    """Median wall time of fresh processes that only set up, measured and
    at nominal host speed.

    closure and invariants: interpreter start, import geolin, build the
    inputs.  corpus-cli: interpreter start and import geolin.cli, as each
    CLI invocation pays it."""
    if workload == "corpus-cli":
        argv = [sys.executable, "-c", "import geolin.cli"]
    else:
        argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
                "--draw-seed", str(args.draw_seed), "--setup-only"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    speed = SpeedSamples(PROCESS_NOMINAL_S, window=4)
    probes = []
    for _ in range(SETUP_PROBES):
        speed.reference_process()
        started = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              timeout=_deadline_left(deadline))
        probes.append((started, perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"{workload} set-up exited {proc.returncode}: "
                             f"{proc.stderr.decode()[-2000:]}")
    return (statistics.median(t1 - t0 for t0, t1 in probes),
            statistics.median((t1 - t0) * speed.scale(t0, t1) for t0, t1 in probes))


def tail(values):
    """(percentile, nearest-rank value) for the highest grid percentile
    with at least ten values beyond it."""
    ordered = sorted(values)
    for pct in TAIL_GRID:
        rank = max(1, math.ceil(pct / 100 * len(ordered)))
        if len(ordered) - rank >= 10 or pct == TAIL_GRID[-1]:
            return pct, ordered[rank - 1]


def end_to_end(args, workload: str, deadline: float):
    setup = setup_seconds(args, workload, deadline)
    result = worker(args, workload, deadline)
    # Times are at nominal host speed (see speed.py); the measured ones are
    # printed beside them.  Each input's time is the median of its repeats,
    # and wall_s the median pass.
    figures = {}
    for k, kind in enumerate(("measured", "nominal")):
        per_item = [statistics.median(times[k] for times in runs)
                    for runs in result["items"].values()]
        pct, tail_s = tail(per_item)
        figures[kind] = {
            "wall_s": statistics.median(p[k] for p in result["passes"]),
            "item_p50_ms": statistics.median(per_item) * 1000,
            "item_tail_ms": tail_s * 1000,
            "item_max_s": max(per_item),
            "setup_s": setup[k],
        }
    metrics = {name: (value, UNITS[name]) for name, value in figures["nominal"].items()}
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    runs = [len(times) for times in result["items"].values()]
    notes = ["measured: " + ", ".join(f"{name} {value:.6g}"
                                      for name, value in figures["measured"].items()),
             f"{len(runs)} items, each timed by the median of its {min(runs)} to {max(runs)} "
             f"runs; wall_s is the median of {len(result['passes'])} passes; "
             f"item_tail_ms is p{pct}; {result['speed_samples']} speed samples",
             f"failed_share = {result['failed']}/{result['attempted']} = "
             f"{result['failed'] / result['attempted']:.4f}"]
    return result, metrics, notes


def per_layer(args, workload: str, deadline: float):
    passes = str(MIN_PASSES[workload])
    plain = worker(args, workload, deadline, "--passes", passes)
    traced = worker(args, workload, deadline, "--passes", passes, "--trace")
    summary = traced["trace"]
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    zero_calls = calls.get("kernel.zerotest.is_zero", 0)
    attempts = counts.get("zero_test_evals", 0)
    useful = attempts - counts.get("zero_test_domain_errors", 0)
    metrics.update({
        "kernel.core.residual_terms": (counts.get("residual_terms", 0), "count"),
        "kernel.numeric.eval.domain_errors": (counts.get("domain_errors", 0), "count"),
        "kernel.zerotest.is_zero.zero": (counts.get("verdict.zero", 0), "count"),
        "kernel.zerotest.is_zero.nonzero": (counts.get("verdict.nonzero", 0), "count"),
        "kernel.zerotest.is_zero.undecided": (counts.get("verdict.undecided", 0), "count"),
        "kernel.zerotest.is_zero.evals_per_call": (attempts / zero_calls if zero_calls else 0.0,
                                                   "count/call"),
        "kernel.zerotest.is_zero.useful_share": (useful / attempts if attempts else 1.0, "share"),
        "cli.import_s": (statistics.median(summary["import_s"]), "s"),
        "trace.overhead_share": (sum(p[1] for p in traced["passes"])
                                 / sum(p[1] for p in plain["passes"]) - 1, "share"),
    })
    item_total = summary["total_s"].get("bench.item") or sum(p[0] for p in traced["passes"])
    notes = [f"{summary['spans']} spans over {passes} traced passes; "
             f"inclusive time as a share of the traced item time:"]
    for layer in LAYERS:
        if calls.get(layer):
            notes.append(f"  {layer:26s} calls {calls[layer]:8d}  self {self_s[layer]:9.3f} s  "
                         f"inclusive {summary['total_s'].get(layer, 0.0):9.3f} s "
                         f"({summary['total_s'].get(layer, 0.0) / item_total:6.1%})")
    # a traced run checks the verdicts of both of its passes
    merged = dict(traced, attempted=plain["attempted"] + traced["attempted"],
                  failed=plain["failed"] + traced["failed"],
                  failures=plain["failures"] + traced["failures"])
    return merged, metrics, notes


def run_workload(args, workload: str) -> dict:
    deadline = perf_counter() + RUN_BUDGET_S
    measure = per_layer if args.trace else end_to_end
    result, metrics, notes = measure(args, workload, deadline)
    pool = f", draw pool seed {args.draw_seed}" if workload == "closure" else ""
    print(f"== {workload} (seed {args.seed}{pool}, {'traced' if args.trace else 'end to end'})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    for line in notes:
        print(f"  {line}")
    for key, value in result["info"].items():
        print(f"  {key}: {value}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--draw-seed", type=int, default=DEFAULT_DRAW_SEED,
                        help="closure: seed of the draw pool (criterion 9 uses 31)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "geolin" / "__init__.py").is_file():
        print(f"error: no geolin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("stamp: " + json.dumps(stamp()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(args, name) for name in names}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
