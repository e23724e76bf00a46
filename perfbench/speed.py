"""The machine's speed while a child runs, to scale its times to a fixed speed.

The machine the benchmark was defined on is shared: its speed swings
between two levels nearly twice apart, for seconds to minutes at a time,
and CPU time moves with wall time.  A :class:`Speedometer` measures that
speed all through a child: every PERIOD_S seconds a timer signal
interrupts the program between two bytecodes and times a fixed piece of
pure-Python work, a *tick*, that shares no code or data with the program.
Each tick gives the speed at its moment as REFERENCE_TICK_S / (its time),
averaged over SMOOTH ticks on either side.  :meth:`Speedometer.clock`
integrates that speed over time, leaving the ticks out: it runs at the
pace of a machine on which a tick takes REFERENCE_TICK_S.  A time measured
on it is the time the same work would take at that speed; it is additive,
so the self time of a span is its scaled duration minus its children's.
A change to the program moves a scaled time as it moves the wall time; a
change of the machine's speed moves the ticks with it and cancels out.  On
the defining machine a tick took about 110-120 us at its fastest and up to
220 us at its slowest; the batch of `large-graph-queries` queries took
0.56-1.08 s in wall time and 0.47-0.53 s scaled over the same two minutes.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

_clock = time.perf_counter

#: Seconds between ticks; a tick costs about 1% of the run.
PERIOD_S = 0.02
#: Scaled times are times at the speed at which one tick takes this long.
REFERENCE_TICK_S = 100e-6
#: Ticks on either side of a tick that its speed is averaged with.
SMOOTH = 2


def tick_work() -> int:
    """The fixed work of a tick: integer arithmetic only, so that it
    allocates nothing the garbage collector tracks."""
    m, x = 12345, 0
    for i in range(400):
        m = (m * 1103515245 + 12345) & 0x7FFFFFFF
        x ^= m >> (i & 7)
        x = (x << 1) & 0xFFFFFFFF
    return x


class Speedometer:
    def __init__(self):
        self.at: list[float] = []  # start of each tick, perf_counter
        self.took: list[float] = []
        self._busy = False
        self._ends: list[float] = []
        self._speed: list[float] = []
        self._scaled: list[float] = []  # scaled time from the first tick to each tick

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = _clock()
        tick_work()
        self.took.append(_clock() - start)
        self.at.append(start)
        self._busy = False

    def start(self) -> None:
        tick_work()  # the first run of a fresh interpreter is slower: untimed
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop ticking and prepare :meth:`clock`."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.took:
            raise RuntimeError("the speedometer recorded no tick")
        raw = [REFERENCE_TICK_S / t for t in self.took]
        self._speed = [
            statistics.fmean(raw[max(k - SMOOTH, 0) : k + SMOOTH + 1]) for k in range(len(raw))
        ]
        self._ends = [a + t for a, t in zip(self.at, self.took)]
        self._scaled = [0.0]
        for k in range(len(self.at) - 1):
            between = self.at[k + 1] - self._ends[k]
            self._scaled.append(self._scaled[-1] + between * self._speed_after(k))

    def _speed_after(self, k: int) -> float:
        if k + 1 == len(self._speed):
            return self._speed[k]
        return (self._speed[k] + self._speed[k + 1]) / 2

    def clock(self, t: float) -> float:
        """Scaled time from the first tick to perf_counter time ``t``."""
        k = bisect.bisect_right(self.at, t) - 1
        if k < 0:
            return (t - self.at[0]) * self._speed[0]
        if t <= self._ends[k]:  # inside a tick
            return self._scaled[k]
        return self._scaled[k] + (t - self._ends[k]) * self._speed_after(k)

    def scale(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` of perf_counter time, without the
        ticks in it, at the reference speed."""
        return self.clock(end) - self.clock(start)
