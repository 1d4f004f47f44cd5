"""A speed gauge that corrects measured times for the machine's current speed.

On a shared host the same run's wall time drifts by up to 2x over minutes,
because the CPU the process gets is slower or faster from one moment to the
next. A reference run on another CPU does not follow that drift, so the
gauge interleaves a fixed reference kernel with the measured code in the
same thread: every ``INTERVAL_S`` a SIGALRM handler times one run of the
kernel. The mean kernel time over a measured section tells how fast the
machine was during it, stalls included, and

    corrected = (elapsed - time spent in the handler) * REFERENCE_S / mean

is the section's time on a machine where the kernel takes ``REFERENCE_S``.
The kernel is pure-Python backtracking over small sets and ints, the kind of
interpreter work the solver does, and it never changes with the program: a
faster program reads faster and a faster machine does not.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.01
# mean kernel time on the machine the baseline was recorded on
# (Intel Xeon, 2 vCPUs, Python 3.11.7)
REFERENCE_S = 0.00045


def _queens(n: int) -> int:
    def place(row: int, cols: set, d1: set, d2: set) -> int:
        if row == n:
            return 1
        count = 0
        for col in range(n):
            if col in cols or row - col in d1 or row + col in d2:
                continue
            cols.add(col)
            d1.add(row - col)
            d2.add(row + col)
            count += place(row + 1, cols, d1, d2)
            cols.discard(col)
            d1.discard(row - col)
            d2.discard(row + col)
        return count

    return place(0, set(), set(), set())


def kernel() -> int:
    return _queens(6) + _queens(6)


class SpeedGauge:
    """Context manager sampling the kernel while the measured code runs.

    Only one gauge may be active at a time; it owns SIGALRM while active
    and puts the previous handler back on exit.
    """

    def __init__(self) -> None:
        self.samples = 0
        self.kernel_s = 0.0  # summed kernel times
        self.spent_s = 0.0  # summed time inside the handler

    def _tick(self, _signum, _frame) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples += 1
        self.kernel_s += t1 - t0
        self.spent_s += perf_counter() - t0

    def __enter__(self) -> "SpeedGauge":
        kernel()  # warm the kernel's code before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """``perf_counter`` less the time spent in the handler so far."""
        return perf_counter() - self.spent_s

    @property
    def factor(self) -> float:
        """REFERENCE_S over the mean kernel time: below 1 on a slow machine.

        Multiply a time measured on ``clock`` under the gauge by it."""
        return REFERENCE_S * self.samples / self.kernel_s if self.samples else 1.0
