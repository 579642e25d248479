"""Host-speed calibration: a fixed kernel timed at intervals during a pass.

On a shared host the speed of pure-Python code drifts by up to 1.5x, in
phases of seconds and regimes of minutes, while the process gets all of
its CPU time.  Two runs of identical work minutes apart then differ by
more than any useful bound.  The benchmark therefore times a fixed
kernel of exact rational arithmetic and small-object churn (the kinds of
work toricgit does) every INTERVAL_S during each pass, from a timer
signal, so the samples are spread evenly in time however long the ops
are.  The time spent in samples is taken out of every op timing
(Calibration.clock), and a pass's times are reported in reference
seconds: host seconds times REFERENCE_S over the pass's mean sample
time.  The kernel is the
benchmark's own code, so a change to the library does not move it.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Kernel seconds on the reference host (2 vCPUs of an Intel Xeon, Python
# 3.11.7) in a quiet phase; a reference second is a host second there.
REFERENCE_S = 0.006
# One sample per INTERVAL_S.  The host's speed changes from one 0.1 s to
# the next, so many short samples estimate a pass's mean speed better
# than a few long ones.  This costs about 7% of a pass.
INTERVAL_S = 0.1

_rng = random.Random(20080924)
_MATRICES = [
    [[Fraction(_rng.randint(-9, 9)) for _ in range(7)] for _ in range(7)] for _ in range(3)
]


def kernel():
    """Fixed work in two parts, like toricgit's: Gauss-Jordan elimination
    of three 7x7 rational matrices, then building, sorting and rendering
    a dict of small tuples and frozensets."""
    for matrix in _MATRICES:
        a = [row[:] for row in matrix]
        n = len(a)
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                continue
            a[col], a[piv] = a[piv], a[col]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col] / a[col][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    d = {}
    for i in range(1200):
        d[(i % 97, i % 89, i)] = frozenset((i, i + 1, i * 7 % 13))
    keys = sorted(d, key=lambda k: (k[2] % 31, k))
    json.dumps([[list(k), sorted(d[k])] for k in keys[:200]])


class Calibration:
    """Kernel samples of one pass, taken from SIGALRM between start() and
    stop()."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0  # host seconds spent in samples
        self._previous = None

    def sample(self, *_signal_args):
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        self.samples.append(took)
        self.spent_s += took

    def start(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def clock(self):
        """perf_counter() with the time spent in samples taken out."""
        while True:
            spent = self.spent_s
            now = perf_counter()
            if self.spent_s == spent:  # no sample ran in between
                return now - spent

    def scale(self):
        """Reference seconds per host second over the samples so far."""
        return REFERENCE_S / statistics.fmean(self.samples)
