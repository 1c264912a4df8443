"""Work time at reference speed.

On a virtual machine with a shared host, the speed of the same
single-threaded work swings by up to 1.6 times within seconds, with process
CPU time swinging with wall time.  `Meter` therefore samples the host's
speed while it runs: every SAMPLE_EVERY_S a timer signal interrupts the
work and times a fixed reference loop.  The work between two samples counts
as its seconds times REF_S / (the reference time at the start of that
stretch), and the sampling itself does not count.  A metered time is thus
in units of REF_S-long reference loops: it reads as seconds on a host where
one loop takes REF_S, and as a fixed share of the raw seconds on any other
(about 0.5 on a host where the loop takes 10 ms).  The loop does exact
rational and dict arithmetic, like the exact half of specball, and small
complex matrix work in numpy, like its numeric half, and touches no
specball code.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

import numpy as np

REF_S = 0.005
SAMPLE_EVERY_S = 0.1

_MATRICES = [0.3 * (g[0] + 1j * g[1]) for g in np.random.default_rng(0).normal(size=(4, 2, 3, 3))]
_I3 = np.eye(3)


def _reference() -> tuple:
    """Exact rational and dict arithmetic, like the exact half of specball,
    then small complex matrices in numpy, like its numeric half; the two
    parts take about the same time."""
    acc: dict[int, Fraction] = {}
    x = 1
    for _ in range(1000):
        x = (x * 1103515245 + 12345) % 2147483648
        k = x % 97
        acc[k] = acc.get(k, 0) + Fraction(x % 13, 7)
    z = 0j
    for _ in range(7):
        for A in _MATRICES:
            B = A @ A - 0.5 * A
            z += np.roots(np.poly(B))[0] + np.linalg.inv(_I3 - B)[0, 0]
    return acc, z


def calibrate() -> float:
    """Seconds one reference loop takes now.  The cyclic garbage collector is
    off meanwhile: a collection costs time in proportion to the workload's
    heap, which says nothing about the host's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """A clock of work seconds at reference speed; use as a context manager
    around the timed work, and read it with `now`."""

    def __init__(self):
        self._scaled = 0.0
        self._t = 0.0
        self._ref = REF_S
        self.ref_s: list[float] = []  # every sample's reference time
        self.sampling_s = 0.0  # raw seconds spent sampling

    def _calibrate(self) -> None:
        t0 = time.perf_counter()
        self._ref = calibrate()
        self.ref_s.append(self._ref)
        self._t = time.perf_counter()
        self.sampling_s += self._t - t0

    def _sample(self, signum, frame):
        self._scaled += (time.perf_counter() - self._t) * REF_S / self._ref
        self._calibrate()

    def __enter__(self) -> "Meter":
        self._calibrate()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """Work seconds at reference speed since the meter started."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._scaled + (time.perf_counter() - self._t) * REF_S / self._ref
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
