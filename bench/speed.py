"""Times in seconds at a fixed reference speed.

On a shared machine a core's speed drifts: other tenants of the host
slow it by up to half, in bursts and states that last from milliseconds
to minutes. Raw wall times then spread far more between runs than any
change worth measuring. So the benchmark times a short pure-Python
reference kernel in the measured thread itself and rescales:

    reference seconds = raw seconds * nominal kernel seconds / kernel seconds

The nominal kernel times are those of an uncontended 2.0 GHz Xeon vCPU,
so on a quiet core of that kind reference seconds equal wall seconds.

Every time is read from now(), the thread's CPU clock: for this
single-threaded, CPU-bound work it is wall time less the time the thread
did not run, such as time the host's hypervisor gave its vCPU to another
guest (steal), which a kernel timed before or after cannot see.

Two ways of sampling the kernel:
- SpeedClock, for long intervals: a SIGALRM handler times the kernel
  every PERIOD seconds; each moment of an interval is rescaled by the
  sample nearest to it, and the handler's own time is left out.
- Bracketing, for short calls: the kernel runs just before and just
  after the call, which catches bursts a few milliseconds long.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import tracemalloc
from fractions import Fraction
from time import thread_time as now

PERIOD = 0.1
SAMPLE_LOOPS = 400           # about 1.5 ms: one SIGALRM speed sample
SAMPLE_NOMINAL_S = 0.0015
BRACKET_LOOPS = 50           # about 0.2 ms: run before and after each query call
BRACKET_NOMINAL_S = 0.00017
_THREE_SEVENTHS = Fraction(3, 7)
_HALF = Fraction(1, 2)


def reference_kernel(loops: int) -> int:
    """Small-Fraction arithmetic, integer arithmetic, tuple building and
    dict stores: the mix of the package's interpreter-bound loops."""
    table = {}
    total = 0
    for i in range(1, loops):
        table[i & 63] = (Fraction(i, i + 1) * _THREE_SEVENTHS + _HALF, i)
        for j in range(6):
            total += (i * j) % 7
    return total


def kernel_seconds(loops: int = SAMPLE_LOOPS) -> float:
    start = now()
    reference_kernel(loops)
    return now() - start


class SpeedClock:
    """Speed samples taken while started; converts raw intervals."""

    def __init__(self):
        self._starts = []    # sample start times, increasing
        self._ends = []
        self._mids = []      # _mids[i]: boundary between samples i and i+1
        self._slowness = []  # kernel seconds / SAMPLE_NOMINAL_S
        self._busy = False

    def _sample(self, *_):
        # under tracemalloc (traced runs only) the kernel's allocations are
        # traced and it runs slower than the code around it: take no sample
        if self._busy or tracemalloc.is_tracing():
            return
        self._busy = True
        start = now()
        reference_kernel(SAMPLE_LOOPS)
        end = now()
        if self._ends:
            self._mids.append((self._ends[-1] + start) / 2)
        self._starts.append(start)
        self._ends.append(end)
        self._slowness.append((end - start) / SAMPLE_NOMINAL_S)
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # ignore, not default: a SIGALRM still pending must not end the process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._sample()

    def _smoothed(self, i) -> float:
        # median of three neighbouring samples damps one noisy kernel time
        return statistics.median(self._slowness[max(0, i - 1):i + 2])

    def busy(self, a: float, b: float) -> float:
        """Time the sampler itself ran inside the raw interval [a, b]."""
        i = bisect.bisect_left(self._ends, a)
        total = 0.0
        while i < len(self._starts) and self._starts[i] < b:
            total += max(0.0, min(b, self._ends[i]) - max(a, self._starts[i]))
            i += 1
        return total

    def reference_seconds(self, a: float, b: float) -> float:
        """Duration of the raw interval [a, b] at the reference speed: each
        moment is rescaled by the sample nearest to it, and time spent in
        the sampler is left out."""
        last = len(self._starts) - 1
        i = bisect.bisect_right(self._mids, a)
        total = 0.0
        while True:
            lo = a if i == 0 else max(a, self._mids[i - 1])
            hi = b if i == last else min(b, self._mids[i])
            busy = max(0.0, min(hi, self._ends[i]) - max(lo, self._starts[i]))
            total += (hi - lo - busy) / self._smoothed(i)
            if i == last or self._mids[i] >= b:
                return total
            i += 1
