"""Host speed sampled while jobs run, to take a shared host's slow spells out of job times.

On a host whose cores are shared with other machines the same job runs
anywhere from 1x to 2x its quiet time, in spells from milliseconds to
minutes, and no job of several seconds escapes them: its fastest repeat in
a run is still as slow as the spell the run fell into.

While jobs run, an interval timer interrupts the process every INTERVAL_S
and times a fixed reference kernel: small complex matrix products and scalar
updates driven from a Python loop, the mix of the package's hot loops.  On
the reference host this kernel's time tracked the time of repeated
homotopy, factor and census jobs through 1x-2x slow spells with a
log-log slope of 0.95-0.98 (a solve-based kernel gave 0.70 on homotopy;
pure Python arithmetic, 1.26 on factor).  If the kernel takes d
seconds where it takes REF_S on the reference host, work proceeds at
REF_S / d of the reference speed, so a job measured at t seconds (the
kernel's own time taken out) would take

    t * mean(REF_S / d)

seconds at the reference speed, the mean taken over the samples within
PAD_S of the job.  The kernel runs no code of the package, so the scaling
does not depend on the package: a change to the package moves this figure
as it moves the job's time.

Set-up includes importing numpy, so the sampler cannot run during it; set-up
is scaled by spot_rate(), the kernel timed back to back right after it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.02
# the kernel's typical time, in the handler, on a quiet core of the
# reference host (a 2-core x86-64 VM), so that figures read close to that
# host's quiet seconds; on another host they scale with its speed
REF_S = 0.0002
# a job shorter than a few intervals holds few samples, so the samples
# shortly before and after it count too
PAD_S = 0.25
KERNEL_STEPS = 40
SPOT_S = 0.2


def _reference_operands():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    b = rng.standard_normal(4) + 0j
    return A, b


def reference_kernel(A, b):
    """Small complex matrix products, norms and scalar updates in a Python loop."""
    x = b
    c = 1.0 + 0.0j
    for _ in range(KERNEL_STEPS):
        y = A @ x
        n = float(np.abs(y).max())
        x = y / n + b
        c = c * 1.0001 + 1j * n
    return x, c


class HostSpeed:
    """Samples the reference kernel on SIGALRM between start() and stop()."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.times = []  # midpoint of each sample, increasing
        self.kernel_s = []  # kernel time of each sample
        self.spent = 0.0  # total time spent in the handler
        self._operands = _reference_operands()
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame):
        # a tick that lands while a sample runs would nest inside it: skip it
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_kernel(*self._operands)
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.kernel_s.append(end - start)
        self.spent += time.perf_counter() - start
        self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def rate(self, start, end, pad=PAD_S):
        """Mean speed relative to the reference over samples within pad of [start, end]."""
        if not self.times:
            raise ValueError("no host speed samples")
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        if lo == hi:  # none near: the nearest sample stands in
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            if lo + 1 < len(self.times) and self.times[lo + 1] - end < start - self.times[lo]:
                lo += 1
            hi = lo + 1
        return float(np.mean([REF_S / d for d in self.kernel_s[lo:hi]]))


def spot_rate():
    """Mean speed relative to the reference over the next SPOT_S seconds."""
    operands = _reference_operands()
    rates = []
    end = time.perf_counter() + SPOT_S
    while not rates or time.perf_counter() < end:
        start = time.perf_counter()
        reference_kernel(*operands)
        rates.append(REF_S / (time.perf_counter() - start))
    return float(np.mean(rates))
