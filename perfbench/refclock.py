"""The host-speed reference that the benchmark's times are scaled by.

On a shared host the speed of the same pure-Python loop swings by up to 2x
for seconds at a time, and drifts by 10-15 % between runs a minute apart;
CPU time swings with it, so the cause is contention for the core, not
descheduling.  A galkappa verdict swings the same way.  The worker
therefore also times a fixed loop of standard-library Fraction arithmetic,
which shares no code with galkappa, throughout every pass over the deck,
and takes its fastest run in a pass as that pass's floor.  Times are
reported scaled by REF_NOMINAL_S / floor: milliseconds as they would read
on a host whose floor is REF_NOMINAL_S.  A change to galkappa moves its
verdicts and leaves the loop alone, so it still shows in full.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REF_NOMINAL_S = 0.006  # the loop's floor on the 2-core host the benchmark was built on


def reference_seconds() -> float:
    """Wall time of one run of the reference loop, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 1500):
            acc += Fraction(1, k % 97 + 1) * Fraction(k % 13 + 1, 7)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def floor_seconds(repeats: int) -> float:
    """Fastest of `repeats` runs of the reference loop."""
    return min(reference_seconds() for _ in range(repeats))
