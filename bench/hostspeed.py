"""A reading of how fast the shared host runs this process right now.

On a shared virtual machine the same code runs 20–50% slower for minutes
at a time, and every job of a run slows together. ``probe`` times a fixed
piece of work that never changes with the program: a pure-Python loop
(the interpreter), building and sorting 20 000 small Python objects (the
allocator and a scattered heap, as in loading and matching), and a sort
of a 2 MB array (numpy on memory). A run probes before every job, and
``scale`` turns the median probe of a stretch into the factor that brings
that stretch's times to a host on which the probe takes ``NOMINAL_S``. A program change cannot move the probe, so a slower
program still reads slower; a slower host mostly does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A round figure inside the range of the probe's median time on the
# reference host of bench/README.md (2 vCPUs, Python 3.11, numpy 2.4):
# 0.009 s in its fastest stretches, 0.015-0.02 s in slow ones. Scaled
# times read in seconds of that host at this speed.
NOMINAL_S = 0.012

_DATA = np.random.default_rng(0).random(1 << 18)


def probe() -> float:
    """Seconds for the fixed reference work."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    table = {i: (i, str(i)) for i in range(20_000)}
    sorted(table.values(), key=lambda row: -row[0])
    np.sort(_DATA)
    return time.perf_counter() - start


def scale(probes: list[float]) -> float:
    """Factor from this stretch's times to times on the reference host."""
    return NOMINAL_S / statistics.median(probes)
