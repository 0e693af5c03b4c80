"""Host speed sampling, so that run-to-run drift in machine speed cancels.

A benchmark host that shares its cores with other tenants can swing in
speed by up to 1.8x within a minute: a fixed Fraction loop took 10 ms
and 19 ms in the same run.  Repeats remove short stalls but not that
drift.  So every run times a fixed reference, independent of geolin, all
through the run, and scales each measured interval by the reference's
nominal time over its mean time around that interval.  That gives the
interval's duration at the host's nominal speed.

Two references, one per kind of work:

* in-process work (closure, invariants): an interval timer runs a 2 ms
  chunk of sparse polynomial products over Fraction, the kernel's kind
  of work, every PERIOD_S of wall time.  Time spent in the chunk is
  subtracted from the work it interrupted.  The same timer enforces the
  closure draw limit.
* fresh processes (corpus-cli invocations, set-up probes): a bare
  ``python -c pass`` process runs before each one.  The start-up of a
  process does not follow the in-process chunk.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.1
# durations of the references at nominal speed: about the 10th percentile
# measured on a 2-vCPU 2.0 GHz Xeon virtual machine with Python 3.11.7
CHUNK_NOMINAL_S = 0.002
PROCESS_NOMINAL_S = 0.045


def _poly(rng, terms):
    return {tuple(rng.randint(0, 3) for _ in range(3)):
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(terms)}


_RNG = random.Random(5)
_P, _Q = _poly(_RNG, 10), _poly(_RNG, 10)


def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return out


def reference_chunk():
    return _pmul(_pmul(_P, _Q), _Q)


class DrawTimeout(BaseException):
    """Raised inside a closure draw that runs past its limit.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it."""


class SpeedSamples:
    """Reference timings taken through a run.

    scale(t0, t1) is the nominal reference time over the mean reference
    time in [t0, t1], widened to the `window` samples nearest its middle
    when fewer fall inside; 1 when there are no samples.
    """

    def __init__(self, nominal: float, window: int):
        self.nominal = nominal
        self.window = window
        self.at = []
        self.took = []
        self.spent = 0.0

    def add(self, t0: float, t1: float):
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def scale(self, t0: float, t1: float) -> float:
        if not self.took:
            return 1.0
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi - lo < self.window:
            mid = bisect.bisect_left(self.at, (t0 + t1) / 2)
            lo = max(0, min(mid - self.window // 2, len(self.at) - self.window))
            hi = min(len(self.at), lo + self.window)
        window = self.took[lo:hi]
        return self.nominal / (sum(window) / len(window))

    def reference_process(self):
        """Time one bare interpreter start-up; it counts as spent."""
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        t1 = perf_counter()
        self.add(t0, t1)
        self.spent += t1 - t0


class Speedometer(SpeedSamples):
    """Interval timer that samples the reference chunk and enforces a
    deadline; `spent` is the time the samples took."""

    def __init__(self):
        super().__init__(CHUNK_NOMINAL_S, window=10)
        self.deadline = None

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame):
        if self.deadline is not None and perf_counter() > self.deadline:
            self.deadline = None
            raise DrawTimeout()
        enabled = gc.isenabled()
        gc.disable()  # keep the chunk from triggering the program's collections
        try:
            t0 = perf_counter()
            reference_chunk()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.add(t0, t1)
        self.spent += perf_counter() - t0
