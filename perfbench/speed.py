"""The machine's speed while a pass runs, for timings that do not drift
with it.

The reference machine is a shared 2-vCPU VM whose speed is bimodal: a
pure-Python loop runs either near its fastest or 1.5 to 1.9 times slower,
switching every second or so and at times staying slow for minutes.  A
median over passes, or the best of them, still drifts with it from run to
run by more than the benchmark's bounds.

So while a worker runs, a timer signal every ``PERIOD_S`` seconds runs a
fixed probe of rational arithmetic in the worker's own thread, and records
when it ran and how long it took.  A job's time at reference speed is its
measured time, less the probes that ran inside it, times the mean of
``REFERENCE_S / probe time`` over the probes within ``WINDOW_S`` of the
job: the time the job would have taken had the probe run at
``REFERENCE_S`` throughout.  A change to quadorbits moves the job's
time and not the probe's, so it moves the scaled time by the same share.
"""

from __future__ import annotations

import bisect
import signal
import time
from math import gcd

PERIOD_S = 0.02
WINDOW_S = 0.1
# the probe's time at the fast speed of the reference machine (2-vCPU
# Intel Xeon VM, Python 3.11.7): the unit the scaled times are given in
REFERENCE_S = 130e-6


class _Rational:
    """A minimal rational number: the probe's arithmetic has the shape of
    quadorbits' Fraction and polynomial code (a method call, a gcd and a
    new object per operation, and hashing into a set), which the slow spells
    slow about as much, whereas plain integer loops slow less."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int = 1):
        g = gcd(n, d)
        self.n, self.d = n // g, d // g

    def __add__(self, other):
        return _Rational(self.n * other.d + other.n * self.d,
                         self.d * other.d)

    def __mul__(self, other):
        return _Rational(self.n * other.n, self.d * other.d)

    def __hash__(self):
        return hash((self.n, self.d))

    def __eq__(self, other):
        return self.n == other.n and self.d == other.d


def probe_work() -> int:
    s, seen = _Rational(0), set()
    for i in range(1, 70):
        s = s + _Rational(1, i) * _Rational(i + 1, 3)
        seen.add(_Rational(s.n % 97, i))
    return len(seen)


class SpeedProbe:
    """Samples the probe's time on a timer while started, and on demand."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        probe_work()  # the first run pays for nothing the others do not

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(factor, probe time inside [t0, t1]) of an interval: a time
        measured over the interval, less the probe time, times the factor
        is that time at reference speed."""
        i = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        j = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if i == j:  # no probe near the interval: take the nearest one
            mid = (t0 + t1) / 2
            i = min((k for k in (i - 1, i) if 0 <= k < len(self.starts)),
                    key=lambda k: abs(self.starts[k] - mid))
            j = i + 1
        window = self.durations[i:j]
        factor = sum(REFERENCE_S / d for d in window) / len(window)
        a = bisect.bisect_left(self.starts, t0)
        b = bisect.bisect_left(self.starts, t1)
        return factor, sum(self.durations[a:b])
