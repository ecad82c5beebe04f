"""One set-up probe: import heraldsim.cli in this fresh interpreter.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's sources.
Prints one JSON object: the import's wall time, the time spent in this
script's own kernel, and the host slowdown the kernel saw just before and
after the import, on the same vCPU.  The kernel is pure Python so that it
imports nothing the program would.
"""

import time

# The kernel's time on the reference host (2 vCPU Xeon) in a fast period.
KERNEL_NOMINAL_S = 1.0e-3
BURST = 10


def kernel() -> None:
    acc = {}
    for k in range(2500):
        key = (k % 97, k % 89)
        acc[key] = acc.get(key, 0.0) + k * 1e-3


def burst() -> list[float]:
    times = []
    for _ in range(BURST):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


before = burst()
t0 = time.perf_counter()
import heraldsim.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0
after = burst()
samples = before + after

import json  # noqa: E402  (after the import, which may pull it in itself)

print(json.dumps({
    "import_s": import_s,
    "kernel_s": sum(samples),
    "slowdown": sum(samples) / len(samples) / KERNEL_NOMINAL_S,
}))
