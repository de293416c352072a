"""Machine-speed reference that end-to-end times are scaled by.

On a shared two-vCPU Xeon virtual machine the CPU speed was seen to change
by up to 1.9x within seconds, and differently from minute to minute (other
tenants on the same cores), far more than the regressions the benchmark
must catch.  A fixed reference loop is therefore timed a few times before
every job and, from a timer signal, every SAMPLE_EVERY_S while a job runs;
the time the in-job samples take is left out of the job's latency.  The
loop does the same kind of work as the library (interpreted arithmetic,
math.fsum and small numpy reductions) but calls none of its code, so a
change to the library cannot move it.

A job's scaled time is its wall time times the mean of REFERENCE_MS over the
loop time of each sample within WINDOW_S of the job (its own samples before
and during it, and the next job's before it): its time on a machine where
the loop takes REFERENCE_MS.  The mean of speeds, because the samples during
a job are evenly spaced in time, so it is the job's mean speed; a sample
stretched by a preemption adds a speed near zero, as the preemption slowed
the job.  On the same golden Iris chain across ten runs it cut the spread
(IQR over median) from 0.14, with the median loop time, to 0.05.  The window
is that narrow because the speed switches between two levels within seconds:
on runs of one identical job, a one-second window gave the third slowest
scaled time 1.1 to 1.4 times the median, a 10 ms window 1.06 to 1.10.  A
slower library still reads slower; a slower machine reads the same.
"""

import bisect
import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_MS = 2.0          # the scale: the loop's time on the reference machine
ITERATIONS = 1500
BEFORE_JOB = 3              # loop samples taken before each job
SAMPLE_EVERY_S = 0.05       # and one per this much time while it runs
WINDOW_S = 0.01


class ReferenceLoop:
    def __init__(self):
        self._table = np.random.default_rng(0).normal(size=(25, 4))

    def __call__(self) -> float:
        """Wall seconds one run of the loop takes now."""
        table = self._table
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(ITERATIONS):
            acc += math.fsum((i * 0.5, acc * 1e-9, 1.0))
            if i % 10 == 0:
                acc += float(((table - table[i % 25]) ** 2).sum(axis=1).min())
        elapsed = time.perf_counter() - t0
        if not math.isfinite(acc):
            raise ArithmeticError("reference loop diverged")
        return elapsed

    def sample(self, out: list) -> float:
        """Append (midpoint time, seconds) of one loop run to out; return the
        seconds it took."""
        t0 = time.perf_counter()
        seconds = self()
        out.append((t0 + seconds / 2, seconds))
        return seconds

    @contextmanager
    def sampling(self, out: list, every: float = SAMPLE_EVERY_S):
        """Sample into out every `every` seconds, from SIGALRM, while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample(out))
        signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def scale(samples) -> float:
    """Factor that turns a wall time into reference-machine time: the mean
    speed, relative to the reference, of (time, seconds) loop samples."""
    return statistics.fmean(REFERENCE_MS / 1e3 / seconds for _, seconds in samples)


def job_scales(samples: list[tuple[float, float]], spans: list[tuple[float, float]]) -> list[float]:
    """Scale of each job (start, end) from the loop samples, in time order,
    taken within WINDOW_S of it or during it."""
    times = [t for t, _ in samples]
    out = []
    for start, end in spans:
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        out.append(scale(samples[lo:hi]))
    return out
