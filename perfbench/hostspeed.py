"""Host-speed meter: rescale measured times to a fixed reference speed.

The benchmark's host is a share of a machine whose per-core speed steps
between states (about 1.5x apart) that last from under a second to several
seconds.  Process CPU time moves with wall time, so neither clock cancels
it.  The meter times a short loop of exact `Fraction` arithmetic, the kind of
work groundlab spends its time on, on a timer signal while a workload runs,
and rescales each interval by the loop's speed around it:

    scaled(s, e) = sum over the meter's samples in [s, e] of
                   (time since the previous sample, less the loop itself)
                   * REF_LOOP_S / (loop time of the bracketing samples)

so a workload that does the same interpreter work reads the same scaled time
whether the host was fast or slow while it ran.  REF_LOOP_S is the loop's
time on a core in its fast state, on the host the figures in README.md come
from; scaled seconds are seconds at that speed.  Parent and child processes
share one core (run.py pins them) so the loop sees the speed the workload
sees.  Parent and change are compared on one host, so the reference speed
only sets the scale.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

LOOP_N = 500             # terms of the speed loop's harmonic sum
REF_LOOP_S = 0.0014      # the loop's time that scaled seconds refer to
PERIOD_S = 0.05          # timer period between two speed samples


def speed_loop(n: int = LOOP_N) -> float:
    """Seconds to sum 1/1 + ... + 1/n exactly.  Of the loops tried (integer
    arithmetic, dict lookups, tuple building, Fraction sums) this one's time
    tracked the workloads' time best across the host's speed states."""
    clock = time.perf_counter
    t0 = clock()
    total = Fraction(0)
    for i in range(1, n + 1):
        total += Fraction(1, i)
    return clock() - t0


class SpeedMeter:
    """Samples `speed_loop` every PERIOD_S seconds of wall time on SIGALRM.

    Samples are (start, end) perf_counter pairs.  `scaled(s, e)` gives the
    time the interval [s, e] would have taken at the reference speed, with
    the meter's own loops taken out; `own(s, e)` the loop time inside it.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts: list = []
        self.ends: list = []
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        speed_loop()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def sample(self):
        """Take one sample now, outside the timer."""
        self._tick(None, None)

    def start(self) -> "SpeedMeter":
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def _loop_s(self, k: int) -> float:
        return self.ends[k] - self.starts[k]

    def own(self, s: float, e: float) -> float:
        """Meter time that falls inside [s, e]."""
        return sum(max(0.0, min(e, b) - max(s, a))
                   for a, b in zip(self.starts, self.ends))

    def scaled(self, s: float, e: float) -> float:
        """[s, e] at the reference speed, the meter's own loops left out.

        Each stretch of workload time between two samples is scaled by the
        mean loop time of the two samples that bracket it.
        """
        if len(self.starts) < 2:
            raise ValueError("speed meter took fewer than two samples")
        total = 0.0
        first = max(1, bisect.bisect_right(self.starts, s))
        for k in range(first, len(self.starts) + 1):
            if k == len(self.starts):
                lo, hi = self.ends[k - 1], e   # past the last sample
                ref = self._loop_s(k - 1)
            else:
                lo, hi = self.ends[k - 1], self.starts[k]
                ref = (self._loop_s(k - 1) + self._loop_s(k)) / 2
            lo, hi = max(lo, s), min(hi, e)
            if hi > lo:
                total += (hi - lo) * REF_LOOP_S / ref
            if k < len(self.starts) and self.starts[k] >= e:
                break
        return total
