"""Machine-speed reference for normalising times.

On a shared 2-core virtual machine (Intel Xeon) the speed of a fixed
computation drifted by 20-40 % over minutes.  A fixed reference
computation, timed next to every pass, slows down with it: over 90 s of drift the reference and lagot's
``solve_mk`` and ``harness.verify`` correlated at 0.94-0.97, and their ratio
varied 3-4 times less than either alone.  End-to-end times are therefore
reported at reference speed: raw seconds times ``REF_SECONDS`` over the
reference's own time measured around them.  The reference never calls
lagot, so a change to lagot moves the normalised times as it moves the raw
ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# nominal time of one reference_work() call; normalised times read as
# seconds on a machine where the reference takes this long
REF_SECONDS = 0.004
SAMPLE_REPEATS = 3


def reference_work() -> float:
    """Small numpy operations inside Python loops with dict and tuple work,
    the mix of lagot's inner loops; deterministic."""
    cost = np.random.default_rng(12345).random((30, 30))
    total, seen = 0.0, {}
    for _ in range(60):
        u = cost.min(axis=1)
        v = (cost - u[:, None]).min(axis=0)
        reduced = cost - u[:, None] - v[None, :]
        for i, j in np.argwhere(reduced < 0.05)[:25]:
            key = (int(i), int(j))
            seen[key] = seen.get(key, 0) + 1
        total += float(reduced.sum())
    return total + len(seen)


def sample() -> float:
    """Median time of a few reference calls: one speed reading."""
    times = []
    for _ in range(SAMPLE_REPEATS):
        t0 = perf_counter()
        reference_work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns raw seconds measured between two readings into
    seconds at reference speed."""
    return REF_SECONDS / ((before + after) / 2.0)
