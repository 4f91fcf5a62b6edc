"""The reference kernel: fixed pure-Python work that every time is divided by.

The machine this benchmark was written on changes speed in phases, some
lasting tens of seconds and some a fraction of one, and the same call can
take twice as long in a slow phase.  An operation's wall time divided by the
kernel's time at the same moment cancels most of that; multiplied by
``NOMINAL_S`` it reads as seconds again ("reference seconds").  The kernel
uses tuples, a set, sorting and string joins, like the code under test, runs
for under a millisecond, and imports nothing from ``cumulants``.  Never
change it without changing ``NOMINAL_S`` and saying so: every reference time
is relative to it.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: Kernel time that one reference second stands for: a round figure for the
#: kernel's time in the faster phases of the machine it was written on
#: (CPython 3.11, 2 vCPUs, where it measured 0.5 to 0.9 ms).
NOMINAL_S = 0.0005


def reference_kernel() -> int:
    seen = set()
    for i in range(150):
        seen.add(tuple((i * j + 7) % 1009 for j in range(9)))
    rows = sorted(seen, reverse=True)
    text = "|".join(",".join(map(str, row)) for row in rows)
    return len(text)


def kernel_seconds() -> float:
    """Wall time of one kernel call, with the garbage collector paused: a
    collection would scan whatever heap the caller holds, which measures the
    caller, not the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
