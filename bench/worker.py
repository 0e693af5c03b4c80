"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script as a child process so that every run
begins from a cold interpreter, set-up can be timed from the outside,
and the peak RSS belongs to the workload alone.  The last line of
standard output is a JSON object with the per-pass and per-item times
(each as [measured seconds, seconds at nominal host speed], see
speed.py), the correctness tallies and, for a traced run, the span
summary.

Each workload is a closed loop with one client: the next item starts
only after the previous verdict is in.  Every pass runs the same inputs
(in a seeded order); another pass starts only while the previous pass
still fits into the time left, and never before the workload's minimum
number of passes is done.  Item times are kept per input, so run.py can
take the median of each input's repeats.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from speed import PROCESS_NOMINAL_S, DrawTimeout, SpeedSamples, Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

WORKLOADS = ("closure", "invariants", "corpus-cli")
# Minimum passes per run: one closure pass (about 30 s on 2 vCPUs); three
# invariants and corpus passes, so each input has a median of three and
# each corpus pair's JSON is compared byte for byte.
MIN_PASSES = {"closure": 1, "invariants": 3, "corpus-cli": 3}
INVARIANT_CASES = 50
# The closure pool: criterion 9's 50 draws from seed 31 unless --draw-seed
# picks another pool.  A draw still running after DRAW_LIMIT_S is stopped
# and counted as failed.
DEFAULT_DRAW_SEED = 31
CLOSURE_DRAWS = 50
DRAW_LIMIT_S = 60.0
# Per pool seed, the draws whose normal form is PASS (15 of 50 on pool 31,
# as criterion 9 and the baseline record).  Normal-form verdicts are exact,
# so a draw whose verdict differs is a wrong verdict.  For a pool not
# listed, each draw's first verdict is the reference for its repeats.
NORMAL_FORM_PASS = {31: frozenset({0, 2, 17, 20, 24, 25, 28, 30, 33, 34, 35, 36, 44, 46, 47})}
# A closure pass outlasts a run's time, so after it each draw runs again
# while its runs so far total less than this, up to MAX_DRAW_RUNS runs.
DRAW_REPEAT_BUDGET_S = 0.4
MAX_DRAW_RUNS = 3
CLI_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 20


class Run:
    """Tallies of one run: pass and item times, attempts and failures."""

    def __init__(self, workload: str, seconds: float, passes: int, speed: SpeedSamples):
        self.workload = workload
        self.seconds = seconds
        self.fixed_passes = passes
        self.speed = speed
        self.started = perf_counter()
        self.passes = []
        self.items = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.info = {}

    def mark(self):
        return perf_counter(), self.speed.spent

    def _interval(self, mark):
        t0, spent0 = mark
        return t0, perf_counter(), self.speed.spent - spent0

    def record(self, item: str, mark):
        self.items.setdefault(item, []).append(self._interval(mark))

    def end_pass(self, mark):
        self.passes.append(self._interval(mark))

    def fail(self, label: str, why: str):
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"{label}: {why}")

    def another_pass(self) -> bool:
        done = len(self.passes)
        if self.fixed_passes:
            return done < self.fixed_passes
        if done < MIN_PASSES[self.workload]:
            return True
        t0, t1, _ = self.passes[-1]
        return t1 - t0 <= self.seconds - (perf_counter() - self.started)

    def _seconds(self, interval):
        t0, t1, paused = interval
        measured = t1 - t0 - paused
        return [measured, measured * self.speed.scale(t0, t1)]

    def result(self, trace, rss_kb: int) -> dict:
        return {
            "workload": self.workload,
            "passes": [self._seconds(p) for p in self.passes],
            "items": {k: [self._seconds(i) for i in v] for k, v in self.items.items()},
            "speed_samples": len(self.speed.took),
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "info": self.info,
            "peak_rss_mb": rss_kb / 1024.0,
            "trace": trace,
        }


# -- closure ----------------------------------------------------------------

def closure_setup(args):
    from inputs import closure_maps
    return closure_maps(args.draw_seed, CLOSURE_DRAWS)


def run_closure(args, run: Run, maps, tracer):
    import geolin.criteria as criteria
    import geolin.kernel as kernel
    import geolin.transform as transform
    from geolin.kernel import Verdict
    from geolin.report import PASS

    def draw(t):
        system = transform.coefficients_from_transformation(t)
        labelled = transform.linearization_residuals(system, t)
        verdicts = [kernel.is_zero(residual).verdict for _, residual in labelled]
        cubic, report = transform.normal_form(system)
        checked = criteria.check_cubic2(cubic).overall if report.overall == PASS else None
        return verdicts, report.overall, checked

    known = NORMAL_FORM_PASS.get(args.draw_seed)
    expected = {i: i in known for i in range(len(maps))} if known is not None else {}

    def timed_draw(index) -> bool:
        """Run one draw under the draw limit; True when its normal form is PASS."""
        run.attempted += 1
        label = f"draw {index} (seed {args.draw_seed})"
        mark = run.mark()
        run.speed.deadline = mark[0] + DRAW_LIMIT_S
        try:
            outcome = tracer.item(draw, maps[index]) if tracer else draw(maps[index])
        except DrawTimeout:
            outcome = f"stopped at the {DRAW_LIMIT_S:g} s draw limit"
        except Exception as err:
            outcome = f"raised {err!r}"
        finally:
            run.speed.deadline = None
        run.record(str(index), mark)
        if isinstance(outcome, str):
            run.fail(label, outcome)
            return False
        verdicts, overall, checked = outcome
        passed = overall == PASS
        problems = []
        if any(v is not Verdict.ZERO for v in verdicts):
            problems.append("verify residual not ZERO: " + ",".join(v.value for v in verdicts))
        if passed != expected.setdefault(index, passed):
            problems.append(f"normal form {overall}, expected "
                            f"{'PASS' if expected[index] else 'not PASS'}")
        if passed and checked != PASS:
            problems.append(f"normal form PASS but check_cubic2 {checked}")
        if problems:
            run.fail(label, "; ".join(problems))
        return passed

    order_rng = random.Random(args.seed)
    while run.another_pass():
        order = list(range(len(maps)))
        order_rng.shuffle(order)
        mark = run.mark()
        consistent = sum(timed_draw(index) for index in order)
        run.end_pass(mark)
    run.info["normal_form_pass"] = consistent
    if not args.passes:
        for index in order:
            runs = run.items[str(index)]
            while sum(t1 - t0 for t0, t1, _ in runs) < DRAW_REPEAT_BUDGET_S \
                    and len(runs) < MAX_DRAW_RUNS:
                timed_draw(index)


# -- invariants -------------------------------------------------------------

def invariants_setup(args):
    from inputs import invariant_cases
    return invariant_cases(args.seed, INVARIANT_CASES)


def run_invariants(args, run: Run, cases, tracer):
    import geolin.criteria as criteria
    import geolin.geometry as geometry
    import geolin.projection as projection
    from geolin.kernel import Verdict
    from geolin.kernel.numeric import eval_expr

    replay = inspect.unwrap(eval_expr)  # witness replays stay out of the trace

    def case_run(case):
        report = criteria.check_cubic2(case.pair)
        pair_back = projection.project(projection.lift_system(case.pair, case.pair_gauge))
        lifted = projection.lift_scalar(case.scalar, case.scalar_gauge)
        scalar_back = projection.project(lifted.as_christoffel())
        bianchi = geometry.first_bianchi_residuals(geometry.riemann(case.connection))
        return report, pair_back, scalar_back, bianchi

    def verify(label, case, outcome):
        if isinstance(outcome, Exception):
            run.fail(label, f"raised {outcome!r}")
            return
        report, pair_back, scalar_back, bianchi = outcome
        problems = []
        if pair_back != case.pair:
            problems.append("project(lift_system(pair)) differs from the pair")
        if scalar_back != case.scalar:
            problems.append("project(lift_scalar(cubic)) differs from the cubic")
        if not all(r.is_zero_literal() for r in bianchi):
            problems.append("a first Bianchi residual is not the canonical zero")
        for record in report.records:
            verdict, residual = record.result.verdict, record.residual
            if residual.is_zero_literal() != (verdict is Verdict.ZERO):
                problems.append(f"{record.condition_id}: {verdict.value} on a "
                                f"{'zero' if residual.is_zero_literal() else 'nonzero'} residual")
            elif verdict is Verdict.UNDECIDED:
                problems.append(f"{record.condition_id}: undecided on a polynomial residual")
            elif verdict is Verdict.NONZERO:
                point = {k: Fraction(v) for k, v in (record.result.witness or {}).items()}
                value, _ = replay(residual, point, 512)
                if not abs(value) > 1e-30:
                    problems.append(f"{record.condition_id}: witness replays to {value}")
        if problems:
            run.fail(label, "; ".join(problems))

    order_rng = random.Random(args.seed)
    while run.another_pass():
        order = list(range(len(cases)))
        order_rng.shuffle(order)
        outcomes = []
        pass_mark = run.mark()
        for index in order:
            mark = run.mark()
            case = cases[index]
            try:
                outcomes.append(tracer.item(case_run, case) if tracer else case_run(case))
            except Exception as err:
                outcomes.append(err)
            run.record(str(index), mark)
        run.end_pass(pass_mark)
        # verdicts are checked after the pass, outside its time
        for index, outcome in zip(order, outcomes):
            run.attempted += 1
            verify(f"pass {len(run.passes)} case {index}", cases[index], outcome)
    run.info["nonzero_records_per_pass"] = sum(
        r.verdict is Verdict.NONZERO for outcome in outcomes
        if not isinstance(outcome, Exception) for r in outcome[0].records)


# -- corpus-cli -------------------------------------------------------------

def corpus_pairs():
    from corpus_expected import EXPECTED
    return sorted(EXPECTED)


def run_corpus_cli(args, run: Run, pairs, traced: bool):
    from corpus_expected import mismatches

    env = dict(os.environ, PYTHONPATH=str(SRC))
    if traced:
        head = [sys.executable, str(ROOT / "bench" / "cli_traced.py")]
    else:
        head = [sys.executable, "-m", "geolin.cli"]
    first_output = {}
    summaries = []
    order_rng = random.Random(args.seed)
    while run.another_pass():
        order = list(pairs)
        order_rng.shuffle(order)
        pass_mark = run.mark()
        for document, command in order:
            run.attempted += 1
            label = f"{command} {document}"
            argv = head + [command, f"corpus/{document}.ini", "--format", "json"]
            run.speed.reference_process()
            mark = run.mark()
            try:
                proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                      timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                run.record(label, mark)
                run.fail(label, f"no verdict within {CLI_TIMEOUT_S} s")
                continue
            run.record(label, mark)
            problems = []
            try:
                payload = json.loads(proc.stdout)
            except ValueError:
                payload = {}
                problems.append(f"output is not JSON: {proc.stderr.decode()[-300:]!r}")
            problems += mismatches(document, command, proc.returncode, payload)
            seen = first_output.setdefault((document, command), proc.stdout)
            if seen != proc.stdout:
                problems.append("JSON differs from an earlier invocation")
            if traced and proc.stderr:
                summaries.append(json.loads(proc.stderr.decode().splitlines()[-1]))
            if problems:
                run.fail(label, "; ".join(problems))
        run.end_pass(pass_mark)
    return summaries


def merge_summaries(summaries) -> dict:
    merged = {"spans": 0, "calls": {}, "self_s": {}, "total_s": {}, "counts": {},
              "import_s": []}
    for s in summaries:
        merged["spans"] += s["spans"]
        for key in ("calls", "self_s", "total_s", "counts"):
            for name, value in s[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["import_s"].append(s["import_s"])
    return merged


# -- entry point ------------------------------------------------------------

SETUPS = {"closure": closure_setup, "invariants": invariants_setup}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0,
                        help="run exactly this many passes instead of filling --seconds")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="import geolin, build the inputs and exit")
    parser.add_argument("--draw-seed", type=int, default=DEFAULT_DRAW_SEED)
    args = parser.parse_args(argv)

    if args.workload == "corpus-cli":
        inputs = corpus_pairs()
    else:
        import_started = perf_counter()
        import geolin.cli  # noqa: F401  (loads every geolin module)
        import_s = perf_counter() - import_started
        inputs = SETUPS[args.workload](args)
    if args.setup_only:
        return 0

    trace = None
    if args.workload == "corpus-cli":
        run = Run(args.workload, args.seconds, args.passes,
                  SpeedSamples(PROCESS_NOMINAL_S, window=4))
        summaries = run_corpus_cli(args, run, inputs, args.trace)
        if args.trace:
            trace = merge_summaries(summaries)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        speed = Speedometer()
        run = Run(args.workload, args.seconds, args.passes, speed)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        runner = run_closure if args.workload == "closure" else run_invariants
        speed.start()
        try:
            runner(args, run, inputs, tracer)
        finally:
            speed.stop()
        if tracer:
            trace = tracer.summary()
            trace["import_s"] = [import_s]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(run.result(trace, rss_kb)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
