"""Host-speed calibration sampled in the benchmark's own process.

The shared 2-CPU hosts this benchmark runs on change speed by up to
1.5x, within seconds and over minutes, as neighbouring tenants come and
go, so raw host seconds from two runs minutes apart differ by more than
any sensible regression bound.  While an iteration runs, a timer
interrupts it every ``every_s`` seconds for a short burst of a fixed
calibration unit.  The bursts sample the speed of the same core, in the
same process, over the same interval the workload ran in; scaling a raw
time by ``REFERENCE_UNIT_S / mean unit time`` of the bursts around it
gives host seconds at the reference speed.  On a 2-CPU Xeon container
the raw run times of ``hyperscale-20k`` and ``paper-week`` iterations
correlated with the unit's speed at -0.97 to -0.99.
``serve-lossy-churn`` correlates less (-0.66 to -0.94): its checkpoint
and re-fit windows are bound by memory and disk, which the unit does
not exercise.

Burst time is taken back out of every timing through :meth:`virtual`,
a clock that stands still while a burst runs.

The unit mixes interpreter work with small-array NumPy calls, the
profile of the allocators and the engine loop.  It is fixed code in
the benchmark, so no change to the program under test can move it.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager
from typing import List, Tuple

import numpy as np

#: Seconds one calibration unit takes at the reference host speed
#: (about the median on a 2-CPU Intel Xeon container).
REFERENCE_UNIT_S = 1.0e-3


def _unit(rows: np.ndarray) -> float:
    acc = 0.0
    n = rows.shape[0]
    for i in range(160):
        a = rows[i % n]
        b = rows[(7 * i + 3) % n]
        c = a + b
        acc += float(c.max()) + float(np.dot(a, b))
        if c[0] > c[-1]:
            acc -= 1.0
    m = rows @ rows.T
    acc += float(np.sort(m, axis=1)[:, -1].sum())
    return acc


class Calibrator:
    """Timer-driven calibration bursts and the clock that skips them.

    Args:
        every_s: interval between bursts while :meth:`sampling`.
        burst_s: length of one burst (whole units; at least one).
    """

    def __init__(
        self,
        every_s: float = 0.1,
        burst_s: float = 0.008,
        clock=time.perf_counter,
    ):
        self._clock = clock
        self._every = every_s
        self._burst = burst_s
        self._rows = np.random.default_rng(0).random((48, 24))
        #: ``(start, end, units, unit seconds)`` per burst, in order.
        self.bursts: List[Tuple[float, float, int, float]] = []
        self._ends: List[float] = []
        self._paused: List[float] = [0.0]

    def burst(self, seconds: float = None) -> None:
        """Run calibration units for about ``seconds``."""
        clock = self._clock
        start = clock()
        end = start + (self._burst if seconds is None else seconds)
        units, busy = 0, 0.0
        while True:
            t0 = clock()
            _unit(self._rows)
            t1 = clock()
            units += 1
            busy += t1 - t0
            if t1 >= end:
                break
        self.bursts.append((start, t1, units, busy))
        self._ends.append(t1)
        self._paused.append(self._paused[-1] + (t1 - start))

    @contextmanager
    def sampling(self):
        """Interrupt the enclosed code with a burst every ``every_s``."""

        def on_alarm(signum, frame):
            self.burst()
            signal.setitimer(signal.ITIMER_REAL, self._every)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self._every)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def virtual(self, t: float) -> float:
        """``t`` minus all burst time before it (bursts do not overlap)."""
        i = bisect.bisect_left(self._ends, t)
        paused = self._paused[i]
        if i < len(self.bursts) and self.bursts[i][0] < t:
            paused += t - self.bursts[i][0]  # ``t`` falls inside burst i
        return t - paused

    def speed(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Host speed over ``[start, end]`` relative to the reference.

        Uses the bursts that began inside the interval (all of them if
        none did); ``> 1`` means faster than the reference host.
        """
        chosen = [b for b in self.bursts if start <= b[0] <= end]
        chosen = chosen or self.bursts
        units = sum(b[2] for b in chosen)
        busy = sum(b[3] for b in chosen)
        return REFERENCE_UNIT_S * units / busy
