"""Host speed correction for the benchmark's timings.

The benchmark shares a few cores of a host whose speed moves by a factor
of up to two from one second to the next, in steps that then hold for
seconds, and CPU time moves with wall time, so neither clock alone is
steady.  A fixed piece of work that does not call the program is therefore
timed alongside the operations, and every operation's wall time is
multiplied by the calibration's reference time over the calibration's time
measured during or right next to the operation.  The result is the time the
operation would take on a host where the calibration takes its reference
time, a typical time of it on the shared 2-vCPU x86-64 container where the
benchmark was written.  A faster program gives proportionally lower
corrected times; a faster or slower host does not.

Two clocks exist, one per kind of operation:

* :class:`SampledClock`, for the in-process workloads, times a small piece
  of pure-Python work in the style of the program (bitmask scans, tuple and
  frozenset building, dict counting) from a ``SIGALRM`` handler every
  ``PERIOD_S``, so that long operations are sampled all through; the
  handler's own time is taken out of the operation it interrupted;
* :class:`SpawnClock`, for the ``cli`` workload, whose operations are child
  processes and slow down with process start-up rather than with in-process
  work, times ``python -c pass`` between operations.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import subprocess
import sys
import time

_rng = random.Random("perfbench-hostspeed-1")
_WIDTH = 96
_NAMES = tuple(f"e{i}" for i in range(_WIDTH))
_INDEX = {name: i for i, name in enumerate(_NAMES)}
_MASKS = tuple(_rng.getrandbits(_WIDTH) for _ in range(8))


def python_ms() -> float:
    """Wall time of the fixed pure-Python calibration work, in ms."""
    t0 = time.perf_counter()
    counts = {}
    acc = 0
    for mask in _MASKS:
        ids = tuple(e for i, e in enumerate(_NAMES) if mask >> i & 1)
        key = frozenset(ids[::3])
        counts[key] = counts.get(key, 0) + 1
        for other in _MASKS[:6]:
            common = mask & other
            acc += sum(1 for e in ids if common >> _INDEX[e] & 1)
    return (time.perf_counter() - t0) * 1000.0


def spawn_ms() -> float:
    """Wall time of starting and ending ``python -c pass``, in ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True)
    return (time.perf_counter() - t0) * 1000.0


class SampledClock:
    """Times operations in this process, sampling ``python_ms`` every
    ``PERIOD_S`` from a timer signal while it is entered."""

    REFERENCE_MS = 0.6
    PERIOD_S = 0.05
    # samples up to this far outside an operation still describe it
    WINDOW_S = 0.1

    def __init__(self):
        self.sample_at = []
        self.samples = []
        self.overhead = 0.0
        self.ops = []
        self.old_handler = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(python_ms())
        self.sample_at.append(t0)
        self.overhead += time.perf_counter() - t0

    def __enter__(self):
        self.old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.old_handler)
        self._sample(None, None)

    def start(self):
        return time.perf_counter(), self.overhead

    def stop(self, started):
        t0, overhead0 = started
        t1 = time.perf_counter()
        self.ops.append((t0, t1, t1 - t0 - (self.overhead - overhead0)))

    def corrected(self) -> list:
        """Each operation's time, in seconds at the reference speed."""
        out = []
        for t0, t1, net in self.ops:
            lo = bisect.bisect_left(self.sample_at, t0 - self.WINDOW_S)
            hi = bisect.bisect_right(self.sample_at, t1 + self.WINDOW_S)
            near = self.samples[lo:hi] or self.samples[max(lo - 1, 0):lo + 1]
            out.append(net * self.REFERENCE_MS / statistics.median(near))
        return out

    def median_ms(self) -> float:
        return statistics.median(self.samples)


class SpawnClock:
    """Times child-process operations, timing ``spawn_ms`` whenever
    ``INTERVAL_S`` has passed since the last calibration; each operation
    is scaled by the mean of the calibrations just before and after it."""

    REFERENCE_MS = 75.0
    INTERVAL_S = 0.5

    def __init__(self):
        self.samples = []
        self.last = 0.0
        self.pending = []
        self.done = []

    def __enter__(self):
        self._flush()
        return self

    def __exit__(self, *exc):
        if self.pending:
            self._flush()

    def _flush(self):
        now = spawn_ms()
        if self.pending:
            factor = self.REFERENCE_MS / ((self.samples[-1] + now) / 2.0)
            self.done += [x * factor for x in self.pending]
            self.pending = []
        self.samples.append(now)
        self.last = time.perf_counter()

    def start(self):
        return time.perf_counter()

    def stop(self, started):
        self.pending.append(time.perf_counter() - started)
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self._flush()

    def corrected(self) -> list:
        return self.done

    def median_ms(self) -> float:
        return statistics.median(self.samples)
