"""How fast the host runs right now, measured by a short fixed probe.

On a 2-vCPU Intel Xeon virtual machine whose host also runs other
machines' work, a fixed pure-Python loop took anywhere from 76 to 142 ms
within one minute, and one tensor product, (1,4)x(1,5) over GF(3), from 1.9
to 3.9 s.  CPU time tracked wall time, so the slowdown sits in the shared
hardware, not in scheduling, and no clock of the process can see past it.
The benchmark therefore reports its times in reference seconds: a timed
interval, less the time the probe itself took, multiplied by REFERENCE_S
over the mean time the probe took in and around the interval.  A change to
the engine moves the interval and not the probe; a neighbour's load moves
both.

While a pass runs, a timer signal runs the probe every TICK_S, inside cases
as well as between them, and the probe's time is taken out of the case it
interrupted.  While a process pool is live (the engine's ``parallel_map``)
the probe is skipped: its workers would share the cores with it, and the
probe would measure the engine's own load.  Such stretches take their speed
from the samples just before and after them.

Over seven runs each of that tensor product and of verify's Thm8.6 check at
(5,2), in fresh processes, the probe's scaling cut the spread of their times
from 1.7x (slowest over fastest) to about 1.1x.  Probes of one kind of work
each (integer arithmetic, lookups in tables of 2^10 to 2^19 keys, Fraction
sums, allocation) tracked one of the two less well than the mix below.

    python3 perfbench/speed.py      # the probe's time now, ten samples
"""

from __future__ import annotations

import gc
import signal
import statistics
import threading
import time

KEYS = 1 << 12
ITERS = 600
# About the probe's median time, in seconds, on the machine of BASELINE.json
# (2-vCPU Intel Xeon, Python 3.11.7).  It only sets the unit: reference
# seconds read as seconds on that machine when the probe runs this fast.
REFERENCE_S = 0.0010
TICK_S = 0.1
# A case's speed is the mean probe time within WINDOW_S of it, or over the
# MIN_SAMPLES nearest probes when fewer fall in that window.
WINDOW_S = 0.5
MIN_SAMPLES = 5
# setup_s is scaled by the probe run for this long just before the worker
# starts and just after it is ready.
SETUP_SAMPLE_S = 0.1


def _mix(acc: int, value: int) -> int:
    return (acc * 31 + value) % 4093


class SpeedProbe:
    """A fixed mix of the interpreter work the engine does: lookups of small
    tuple keys with function calls, building and dropping small dicts, lists
    and frozensets, and hashing nested tuples.  Of the single kinds tried,
    each tracked one engine workload best and another worst; the mix tracked
    both.  It runs with the garbage collector off, so its time does not
    depend on how much the engine holds in memory."""

    def __init__(self) -> None:
        self._table = {(i, i % 7): i for i in range(KEYS)}
        self.seconds()  # first touch of the table; not a sample

    def seconds(self) -> float:
        table = self._table
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            x = acc = 0
            for _ in range(ITERS):
                acc = _mix(acc, table.get((x, x % 7), 1))
                x = (x * 5 + 1) % KEYS  # one cycle through every key
            for _ in range(ITERS // 8):
                d = {}
                for j in range(8):
                    d[(x, j)] = [x, j]
                    x = (x * 5 + 1) % KEYS
                acc = _mix(acc, len(frozenset(d)))
            for i in range(ITERS):
                acc = _mix(acc, hash((x, (x, i & 3))) & 1023)
                x = (x * 5 + 1) % KEYS
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        if acc < 0:  # keeps the result live
            raise ArithmeticError(acc)
        return elapsed


def batch(probe: SpeedProbe, seconds: float) -> list[float]:
    """Run the probe back to back for about ``seconds``, at least once."""
    end = time.perf_counter() + seconds
    took = [probe.seconds()]
    while time.perf_counter() < end:
        took.append(probe.seconds())
    return took


class Timeline:
    """Probe samples over a pass, and the factor that turns an interval's
    measured seconds into reference seconds.  Inside ``with timeline:`` the
    probe runs on entry, every TICK_S from a timer signal, and on exit;
    ``paused`` is the time it has taken."""

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.samples: list[tuple[float, float]] = []  # (perf_counter mid-point, probe s)
        self.paused = 0.0
        self._previous = None

    def _record(self) -> None:
        start = time.perf_counter()
        took = self.probe.seconds()
        now = time.perf_counter()
        self.samples.append((now - took / 2, took))
        self.paused += now - start

    def _tick(self, signum, frame) -> None:
        if threading.active_count() == 1:  # else a process pool is live
            self._record()

    def __enter__(self) -> "Timeline":
        self._record()  # so that a pass shorter than TICK_S has samples too
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._record()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second over [start, end]."""
        by_distance = sorted((max(start - t, t - end, 0.0), s) for t, s in self.samples)
        near = [s for d, s in by_distance if d <= WINDOW_S]
        if len(near) < MIN_SAMPLES:
            near = [s for _, s in by_distance[:MIN_SAMPLES]]
        return REFERENCE_S / statistics.fmean(near)


if __name__ == "__main__":
    probe = SpeedProbe()
    samples = [probe.seconds() for _ in range(10)]
    print(" ".join(f"{s * 1000:.3f}" for s in samples),
          f"ms; median {statistics.median(samples) * 1000:.3f} ms,"
          f" reference {REFERENCE_S * 1000:.3f} ms")
