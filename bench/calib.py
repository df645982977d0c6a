"""Host-speed calibration for the timing metrics.

The benchmark runs on a few vCPUs of a shared host whose speed for one
thread changes by up to 1.45x, and a 30-second run can sit wholly at the
slow level.  So the timed work is interleaved with a fixed reference kernel
written here, from the standard library only: `Calibrator` runs the kernel
every `PERIOD_S` of wall time from a SIGALRM timer, and the ratio of the
kernel's duration on a reference machine (`REFERENCE_S`) to its mean
duration in this run, raised to the workload's `SENSITIVITY`, rescales the
run's times to that reference speed.  Each tick runs the kernel twice and
times only the second run, which finds its code and data in the CPU
caches, so that the program's own memory traffic leaks little into the
scale.  The kernel never calls the package, so a
change to the program moves the rescaled times and a change of host speed
does not.  The time the handler spends is accumulated in `spent`, which
callers subtract from what they time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

# Mean duration of one `burst` on a 2-vCPU Intel Xeon (2.1 GHz) VM with
# CPython 3.11.7 at the host's fast level, so that rescaled times read as
# seconds on that machine: the second burst of a timer tick, and a burst
# of a back-to-back loop, which runs faster.
REFERENCE_S = 0.00036
REFERENCE_LOOP_S = 0.00027
PERIOD_S = 0.04
# An op's factor comes from the ticks within WINDOW_S of it, widened until
# there are at least MIN_TICKS.
WINDOW_S = 0.5
MIN_TICKS = 20
# How much of the kernel's slow-down each workload shares: the slope of a
# log-log fit of its time on kernel time, over ten to twenty runs of it
# that spanned the host's speeds (correlation 0.98-0.99): the slow level
# costs `sweep` as much as it costs the kernel, `verify` and `queries`
# less.  Interpreter set-up was fitted from 30 starts.
SENSITIVITY = {"verify": 0.85, "queries": 0.73, "sweep": 1.0, "setup": 0.7}


def burst() -> int:
    """Fixed pure-Python work in the shape of the package's hot paths:
    Fraction arithmetic and floors, a standard-word recurrence, slicing and
    dict/set lookups."""
    x = Fraction(1, 1)
    for a in (2, 1, 3, 1, 2, 4, 1, 1, 5, 2, 1, 3):
        x = a + 1 / x
    acc = 0
    y = x
    for n in range(1, 40):
        acc += (n * y) // 1
        y = y * Fraction(n + 1, n + 2) + x
    prev, cur = "1", "0"
    for a in (1, 2, 1, 3, 1, 2, 1, 1):
        prev, cur = cur, cur * a + prev
    seen: dict[str, int] = {}
    for i in range(0, min(len(cur) - 8, 300)):
        seen[cur[i:i + 8]] = i
    return acc.numerator % 97 + len(seen) + len(set(cur[::3]))


@contextmanager
def gc_paused():
    """Keep the collector out of the kernel's time: a collection there
    would scan the caller's heap, which belongs to the program."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def mean_burst_s(count: int) -> float:
    """Mean duration of `count` back-to-back bursts after a warm-up one."""
    with gc_paused():
        burst()
        start = time.perf_counter()
        for _ in range(count):
            burst()
        return (time.perf_counter() - start) / count


class Calibrator:
    """Samples host speed from a SIGALRM timer while the `with` block runs.

    Each tick is recorded as (time, kernel duration), the time read from
    `clock`: the caller's own clock when it sets one, so that the samples
    can be matched to the ops it timed."""

    def __init__(self, sensitivity: float):
        self.sensitivity = sensitivity
        self.clock = time.perf_counter
        self.spent = 0.0
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        at = self.clock()
        start = time.perf_counter()
        with gc_paused():
            burst()
            warm = time.perf_counter()
            burst()
            end = time.perf_counter()
        self.samples.append((at, end - warm))
        self.spent += end - start

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor that takes times measured in this run to reference speed."""
        return to_reference(self.samples, REFERENCE_S, self.sensitivity)

    def scale_between(self, start: float, end: float) -> float:
        """The factor for an op timed from `start` to `end`, from the ticks
        within `WINDOW_S` of it, or more when those are too few."""
        times = [at for at, _ in self.samples]
        margin = WINDOW_S
        while True:
            lo = bisect.bisect_left(times, start - margin)
            hi = bisect.bisect_right(times, end + margin)
            if hi - lo >= MIN_TICKS or (lo == 0 and hi == len(times)):
                return to_reference(self.samples[lo:hi], REFERENCE_S, self.sensitivity)
            margin *= 2


def to_reference(samples, reference_s: float, sensitivity: float) -> float:
    """(reference / mean kernel time) ** sensitivity, or 1 without samples."""
    if not samples:
        return 1.0
    mean = sum(d for _, d in samples) / len(samples)
    return (reference_s / mean) ** sensitivity
