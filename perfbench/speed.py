"""Machine-speed probe, so that job times can be read at one speed.

The benchmark runs on a few cores of a shared host.  Other tenants slow
the same work down by up to twice, in stretches from a fraction of a
second to minutes, which no number of repeats inside one run averages
out.  So the speed is probed before and after every timed call and,
through a SIGALRM interval timer, every INTERVAL_S while it runs.  The
probe is a fixed piece of plain Fraction arithmetic from exact.py, the
kind of work linfiso itself does, and imports nothing from linfiso, so a
change to linfiso cannot move it.  A call's time, less the probes run
inside it, is scaled by REFERENCE_S over the probes' mean time (a
harmonic mean, since the probes sample the call evenly in time), which
reads it at the speed where one probe takes REFERENCE_S."""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import exact

# A fixed 9 x 8 rational matrix of rank 8; one Gauss-Jordan pass over
# it takes 2 to 3.5 ms in CPython 3.11 on an Intel Xeon vCPU.  A 7 x 6
# one, at 0.8 ms, followed the speed of the LP jobs half as closely.
_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, (i + j) % 4 + 1) for j in range(8)]
           for i in range(9)]

# The probe's time at the speed times are reported at: about its fastest
# on an Intel Xeon vCPU with CPython 3.11.  Only ratios between runs on
# one machine are compared, so the exact value matters little.
REFERENCE_S = 0.002

# Probe period inside a call; the probes cost about a tenth of it.
INTERVAL_S = 0.025


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    exact.rank(_MATRIX)
    return time.perf_counter() - start


class Meter:
    """Times calls at reference speed.  The probe after one call serves
    as the probe before the next when no more than INTERVAL_S lies
    between them, so back-to-back short calls cost one probe each."""

    def __init__(self):
        self._last = None  # (probe seconds, when it ended)

    def _probe(self):
        seconds = probe()
        self._last = (seconds, time.perf_counter())
        return seconds

    def timed(self, call, sample=True):
        """Runs call(); returns (its result, raw seconds, scaled seconds).
        Raw seconds leave out the probes run inside the call.  With
        sample false, the speed is probed only before and after the
        call, so that nothing runs inside it (a traced pass times its
        spans itself)."""
        fresh = self._last is not None and time.perf_counter() - self._last[1] <= INTERVAL_S
        probes = [self._last[0] if fresh else self._probe()]

        def on_alarm(signum, frame):
            probes.append(probe())

        if sample:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - start
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        raw = elapsed - sum(probes[1:])
        probes.append(self._probe())
        return result, raw, raw * REFERENCE_S * sum(1 / p for p in probes) / len(probes)
