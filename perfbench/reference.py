"""A fixed numpy kernel that runs no csdyn code, timed to track core speed.

On a shared host the speed of a core drifts by up to half over seconds to
minutes, and the drift scales every single-threaded computation about alike.
The runner samples this kernel before, after and during everything it
measures (Clock) and reports *reference-core seconds*: wall seconds scaled by
KERNEL_REF_S / k, where k is the harmonic mean of the samples.  The kernel mixes the costs the
workloads have: a pure-Python loop (interpreter overhead, which dominates the
scalar adaptive integrations of the certificates), RK4 steps on a 32-row
numpy batch (per-call overhead) and on a 4096-row batch (per-row arithmetic).
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

# The kernel's time on the two-core machine the benchmark was tuned on, in
# its slower state; any constant works, as long as runs that are compared use
# the same one.
KERNEL_REF_S = 0.003

_SMALL = np.linspace(0.0, 1.0, 32 * 2).reshape(32, 2)
_LARGE = np.linspace(0.0, 1.0, 4096 * 2).reshape(4096, 2)


def _rhs(y):
    return np.stack([y[:, 1], -np.sin(2.0 * math.pi * y[:, 0]) - 0.5 * y[:, 1]], axis=1)


def _rk4(y, h, steps):
    for _ in range(steps):
        k1 = _rhs(y)
        k2 = _rhs(y + 0.5 * h * k1)
        k3 = _rhs(y + 0.5 * h * k2)
        k4 = _rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def kernel_seconds():
    """Wall seconds of one run of the kernel (a few milliseconds)."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(10000):
        acc += math.sin(i * 1e-3) * 1.0001
    _rk4(_SMALL, 0.01, 10)
    _rk4(_LARGE, 0.01, 2)
    return perf_counter() - t0


def kernel_sample(runs=3):
    """Median kernel time over a few runs; one run alone scatters by ~13 %."""
    return statistics.median(kernel_seconds() for _ in range(runs))


def reference_seconds(wall_s, kernel_s):
    """Wall seconds converted to reference-core seconds."""
    return wall_s * KERNEL_REF_S / kernel_s


class Clock:
    """Times calls in reference-core seconds.

    The kernel is sampled right before and after each call and, for a dense
    call, every INTERVAL_S during it from a SIGALRM handler on the calling
    thread, so that a call of several seconds is scaled by the core speed
    over its whole length, not only at its ends.  The handler's own time is
    taken out of the call's wall time.  A call whose work runs in other
    processes is timed with dense=False: the samples would then measure
    contention with those processes, not the core.  A sample taken after
    one call serves as the next call's first when that call starts within
    FRESH_S.
    """

    INTERVAL_S = 0.1
    FRESH_S = 0.05

    def __init__(self):
        self._last = None           # (kernel seconds, perf_counter when taken)

    def sample(self):
        self._last = (kernel_sample(), perf_counter())
        return self._last[0]

    def time(self, fn, dense=True):
        """Run fn(); return (its result, wall s, reference-core s, kernel s)."""
        if self._last is None or perf_counter() - self._last[1] > self.FRESH_S:
            self.sample()
        samples, spent = [self._last[0]], [0.0]

        def on_alarm(signum, frame):
            t = perf_counter()
            samples.append(kernel_seconds())
            spent[0] += perf_counter() - t

        if dense:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        t0 = perf_counter()
        try:
            out = fn()
        finally:
            if dense:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            wall = perf_counter() - t0 - spent[0]
        samples.append(self.sample())
        # work done is the integral of core speed, 1/k, over the call
        kernel = statistics.harmonic_mean(samples)
        return out, wall, reference_seconds(wall, kernel), kernel
