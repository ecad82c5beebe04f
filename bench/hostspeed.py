"""Host-speed sampler: times a small fixed kernel of the benchmark's own during a run.

The benchmark runs on a shared 2 vCPU host whose speed drifts: one fixed
unit of heraldsim work swings between about 1x and 1.8x its fastest time,
in periods of a few seconds to many minutes, with process CPU time tracking
wall time (the vCPU is slowed, not descheduled).  Interpreter-bound code
slows by about the same factor as ``kernel`` below, which mixes pure-Python
dict updates with small complex ``einsum`` calls, as the program's Fock and
tomography layers do.  Over 10 s windows a fixed unit's median time spread
0.31 (IQR / median) while its time divided by the kernel's spread 0.03-0.08.

A ``HostSpeed`` sampler runs the kernel from a SIGALRM handler every
``INTERVAL_S`` seconds of a measured loop.  A job's time is then its wall
time minus the kernel time spent inside it, divided by ``slowdown``: the
kernel's mean time in that interval over ``KERNEL_NOMINAL_S``.  Times so
corrected read in seconds of a host on which the kernel takes
``KERNEL_NOMINAL_S``; the kernel never touches the program, so a change to
heraldsim cannot change the correction.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Kernel time on the reference host (2 vCPU Xeon): 1.4 ms in its fast
# periods, 2.3 ms in its slow ones.
KERNEL_NOMINAL_S = 2.0e-3
INTERVAL_S = 0.2

_A = np.random.default_rng(0).standard_normal((16, 4, 4)) + 1j


def kernel() -> None:
    acc: dict = {}
    for k in range(2500):
        key = (k % 97, k % 89)
        acc[key] = acc.get(key, 0.0) + k * 1e-3
    x = _A
    for _ in range(40):
        x = np.einsum("nij,njk->nik", x, _A) / 4.0


class HostSpeed:
    """Kernel samples of one run: start time, wall time and CPU time of each."""

    def __init__(self):
        self.starts: list[float] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self, *_) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        kernel()
        self.starts.append(t0)
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)

    def burst(self, n: int = 10) -> None:
        """Sample back to back, outside the timer (around a subprocess, say)."""
        for _ in range(n):
            self.sample()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, t0: float, t1: float) -> slice:
        return slice(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))

    def spent(self, t0: float, t1: float, cpu: bool = False) -> float:
        """Kernel wall (or CPU) time that began in [t0, t1)."""
        return sum((self.cpu if cpu else self.wall)[self._window(t0, t1)])

    def slowdown(self, t0: float | None = None, t1: float | None = None) -> float:
        """Mean kernel time in [t0, t1) over the nominal; the whole run's if none fell there."""
        wall = self.wall if t0 is None else self.wall[self._window(t0, t1)]
        return statistics.fmean(wall or self.wall) / KERNEL_NOMINAL_S
