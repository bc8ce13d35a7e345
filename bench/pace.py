"""Host pace: how fast this process's vCPU runs right now, sampled as it works.

On a shared host a vCPU runs the same code up to twice as slowly for
seconds to minutes at a time, while the guest sees neither steal time
nor a gap between CPU and wall time (bench/README.md, "Noise").  A
second process on the other vCPU does not see the same slowdown, and a
calibration run before or after a search misses changes in between.  So
the pace is sampled inside the measured process, while it runs: a timer
interrupts it every TICK_S, and each tick times KERNEL_LOOPS turns of a
fixed pure-Python loop.

The mean tick time over an interval, divided by NOMINAL_S, is the
interval's slowdown: 1.0 is the reference speed, 1.3 a host on which
the kernel runs 30% slower.  Code slows by a power of that: a workload
whose time goes as slowdown ** e has its times divided by
slowdown ** e, which gives reference seconds, the time the same work
takes on a host whose tick time is NOMINAL_S.  The kernel is fixed code
of the benchmark's own, so a change to the program moves its times in
full and leaves the pace alone.

`Pace.clock` is `time.perf_counter` less the time spent in ticks, so
intervals read from it hold only the measured program's own work.
"""
from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter

TICK_S = 0.01            # timer interval
KERNEL_LOOPS = 1500      # about 1% of the interval at the reference speed
NOMINAL_S = 100e-6       # tick time that defines the reference speed
MIN_TICKS = 20           # fewer ticks in an interval: top up after it


def kernel() -> int:
    x = 0
    for i in range(KERNEL_LOOPS):
        x += i * i % 7
    return x


class Pace:
    def __init__(self):
        self.ticks = []          # (end of tick on perf_counter, tick seconds)
        self.spent = 0.0         # seconds inside ticks so far
        self._busy = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:           # a tick delayed past the next one
            return
        self._busy = True
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.ticks.append((end, end - start))
        self.spent += end - start
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        return perf_counter() - self.spent

    def slowdown(self, since: float) -> float:
        """Mean tick time since `since` (a perf_counter reading) over NOMINAL_S.

        An interval too short to hold MIN_TICKS ticks is topped up by
        ticks run back to back now, just after it.
        """
        times = [t for end, t in self.ticks if end > since]
        while len(times) < MIN_TICKS:
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        return fmean(times) / NOMINAL_S
