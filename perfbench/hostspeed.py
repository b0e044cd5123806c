"""Host speed reference: timings scaled to a fixed speed of the host.

The benchmark runs on a few cores of a shared host, whose speed changes by
up to a factor of two over seconds to minutes as its neighbours come and go:
the same job, doing the same work, takes 13 ms in one minute and 27 ms in the
next, in CPU time as much as in wall time.  No choice of clock removes that,
and taking the fastest repeat does not either, because a slow phase can last
a whole run.

So the timed loop interleaves a small fixed reference kernel with the jobs
(Python loops over tiny numpy arrays plus a few 40x40 products and solves,
like the package itself) and records how long each run of it took.  Each
job's time is then scaled by the mean reference time around it:

    adjusted = measured * REFERENCE_S / mean(reference times near the job)

which is the time the job would have taken on a host that runs the kernel in
REFERENCE_S.  The kernel is benchmark code that no change to the package
touches, so a faster or slower package moves the adjusted times in full,
while a slower host moves the job and the kernel alike and cancels out.
The mean, not the median, is taken because a job's time is the sum of its
slow and fast stretches; on repeated runs of identical work the mean scaled
the throughput and the median job time about twice as steadily.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Typical mean time of one reference_kernel() call on the recorded baseline
# host (2-vCPU KVM Xeon at 2.0 GHz, Python 3.11, numpy 2.4); it only sets
# the scale of the adjusted times.
REFERENCE_S = 1.6e-3
WINDOW_S = 0.5          # reference samples within this much of a job count
MIN_SAMPLES = 8         # widen the window until it holds this many
SHARE = 0.05            # reference time spent per unit of measured time
_SMALL = np.arange(36.0).reshape(6, 6) / 36.0
_LARGE = np.random.default_rng(0).standard_normal((40, 40))
_SOLVE = _LARGE[:8, :8] + 10.0 * np.eye(8)


def reference_kernel() -> float:
    a = _SMALL.copy()
    s = 0.0
    for i in range(120):
        b = a @ a.T
        s += float(b[i % 6, (i * 7) % 6])
        a[i % 6, i % 5] += 1e-9
        s += sum(k * k for k in range(20))
    m = _LARGE.copy()
    for _ in range(30):
        m = m @ _LARGE / 40.0
        s += float(np.abs(m).max())
        s += float(np.linalg.solve(_SOLVE, m[:8, 0]).sum())
    return s


def scale(seconds: float, reference: float) -> float:
    """`seconds` measured where the kernel took `reference` seconds, scaled
    to a host where it takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference


class SpeedLog:
    """Reference-kernel timings taken between the timed pieces of work."""

    def __init__(self):
        self.mid: list[float] = []
        self.seconds: list[float] = []

    def sample(self, measured_s: float = 0.0, minimum: int = 2) -> None:
        """Run the kernel `minimum` times, or more, so that the reference
        time spent is SHARE of `measured_s`."""
        spent = 0.0
        count = 0
        while count < minimum or spent < SHARE * measured_s:
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
            self.mid.append(0.5 * (t0 + t1))
            self.seconds.append(t1 - t0)
            spent += t1 - t0
            count += 1

    def reference_near(self, start: float, end: float) -> float:
        """Mean reference time within WINDOW_S of [start, end], the window
        widened until it holds MIN_SAMPLES samples (or all of them)."""
        width = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.mid, start - width)
            hi = bisect.bisect_right(self.mid, end + width)
            if hi - lo >= min(MIN_SAMPLES, len(self.mid)):
                return statistics.fmean(self.seconds[lo:hi])
            width *= 2

    def adjust(self, seconds: float, start: float, end: float) -> float:
        """`seconds` measured within [start, end], scaled to REFERENCE_S."""
        return scale(seconds, self.reference_near(start, end))

    def mean(self) -> float:
        return statistics.fmean(self.seconds)
