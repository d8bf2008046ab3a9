"""A clock of CPU time at a fixed reference speed of the machine.

The benchmark runs on shared virtual machines.  Their speed changes by up
to 1.7x within seconds as other tenants load the same cores, and the host
takes the virtual CPU away for whole stretches of wall time.  Two runs of
the same code can therefore differ in wall time by more than any useful
regression bound.

``SpeedClock`` removes both effects.  It advances with the process's CPU
time (its own plus that of children it has waited for), so stretches in
which the process does not run do not count.  And every ``PERIOD_S`` of
wall time a SIGALRM handler runs a fixed pure-Python probe (dict updates on
tuple keys, integer and Fraction arithmetic: the kind of work the engine
does), all in the standard library so that no change to qhilb changes it.
The probe's CPU time relative to ``REFERENCE_PROBE_S`` is the machine's
current slowdown, and the clock advances by CPU time divided by it.
(A CPU-time timer, ITIMER_PROF, cannot drive the probe: while one is
armed, Linux updates the process CPU clock only at scheduler ticks.)  A
reading of ``now()`` is thus "CPU seconds this would have taken at the
reference speed".  The probes' own time is left out of every reading.

The probe runs in the one benchmark thread, between bytecodes; it costs
about 1% of the time, and nothing it allocates outlives it.  The CPU time
of all threads counts, so work spread over threads or processes shows as
its total CPU time, not as its elapsed time; ``raw()`` gives the wall time
for that comparison.
"""

from __future__ import annotations

import gc
import resource
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
PROBE_REPEATS = 3
# Minimum probe CPU time on an idle 2.0 GHz Xeon vCPU, Python 3.11.7.
REFERENCE_PROBE_S = 4.0e-5

_KEYS = tuple((i % 7, i % 5, i % 3) for i in range(64))
_FRACS = tuple(Fraction(i, i + 1) for i in range(1, 9))


def probe():
    """The fixed unit of interpreter work whose duration measures speed."""
    table = {}
    acc = 0
    for key in _KEYS:
        table[key] = table.get(key, 0) + 1
        acc += key[0] * key[1] - key[2]
    total = Fraction(0)
    for i, frac in enumerate(_FRACS, 1):
        total += frac * Fraction(1, i)
    return acc, total


def cpu_time():
    """CPU time of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class SpeedClock:
    """Reference-speed CPU clock driven by SIGALRM; one per process."""

    def __init__(self):
        self._state = (0.0, 0.0, 1.0)  # (CPU time, clock reading, rate)
        self.probe_cpu_s = 0.0
        self.probe_wall_s = 0.0
        self.samples = []  # slowdown of each probe
        self._old_handler = None

    def _slowdown(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            clock = time.process_time
            best = None
            for _ in range(PROBE_REPEATS):
                t0 = clock()
                probe()
                took = clock() - t0
                if best is None or took < best:
                    best = took
        finally:
            if was_enabled:
                gc.enable()
        slowdown = max(best, 1e-7) / REFERENCE_PROBE_S
        self.samples.append(slowdown)
        return slowdown

    def _on_tick(self, signum, frame):
        wall0 = time.perf_counter()
        start = cpu_time()
        cpu0, reading0, rate = self._state
        reading = reading0 + (start - cpu0) * rate
        slowdown = self._slowdown()
        end = cpu_time()
        self.probe_cpu_s += end - start
        self._state = (end, reading, 1.0 / slowdown)
        self.probe_wall_s += time.perf_counter() - wall0

    def start(self):
        slowdown = self._slowdown()
        self._state = (cpu_time(), 0.0, 1.0 / slowdown)
        self._old_handler = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None

    def now(self):
        cpu0, reading0, rate = self._state
        return reading0 + (cpu_time() - cpu0) * rate

    def raw(self):
        """Wall time without the probes' own time."""
        return time.perf_counter() - self.probe_wall_s

    def cpu(self):
        """CPU time without the probes' own time."""
        return cpu_time() - self.probe_cpu_s
