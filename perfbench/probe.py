"""Host-speed probe: a fixed, stdlib-only block of exact Fraction arithmetic.

The host this benchmark runs on drifts in speed over phases of tens of
seconds, and the drift moves process CPU time as much as wall time.  Timing
this fixed probe next to each measured interval, and scaling the interval by
PROBE_REF_S / probe time, cancels most of that drift.  PROBE_REF_S is the
median probe time measured when the benchmark was created (Python 3.11.7 on
a 2-vCPU x86-64 VM); host-adjusted times are therefore in "seconds on that
host at its median speed".  Never change the probe body or PROBE_REF_S
without re-measuring every baseline.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

PROBE_REF_S = 0.0050

_TERMS = 120
_REPEATS = 5


def _probe_work() -> Fraction:
    acc = Fraction(0)
    for _ in range(_REPEATS):
        acc = Fraction(0)
        for k in range(1, _TERMS):
            acc += Fraction(1, k * k) - Fraction(1, k * (k + 1) * (k + 2))
    return acc


def probe() -> float:
    """Seconds taken by one run of the fixed probe workload.

    The cyclic garbage collector is off while it runs, so a collection of
    the measured program's garbage or caches never lands in the probe (the
    probe's own temporaries are freed by reference counting)."""
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_work()
        return time.perf_counter() - start
    finally:
        gc.enable()
