"""Calibrated timing: every timed call is bracketed by a fixed reference kernel.

On a small shared machine a fixed pure-Python loop can run 1.5-2x slower for
seconds at a time, and its CPU time tracks its wall time, so raw seconds do
not repeat from run to run. The kernel below does the same kind of work as the
library (small exact ``Fraction`` elimination and dict accumulation), so its
time at the moment of a call measures how fast this process is running then.
A call's calibrated time is

    raw * NOMINAL_S / mean(kernel before, kernel after)

that is, the time the call would have taken on a machine on which the kernel
takes exactly ``NOMINAL_S``. The kernel does not import symfunc; it only
needs ``fractions``, so the cold-CLI children can run it before they import
the library.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# About the median kernel pass on the reference machine (2 vCPU, Python
# 3.11.7), so that calibrated times read close to raw ones there. Any fixed
# value would do: calibrated times are expressed on its scale.
NOMINAL_S = 0.0007

_N = 4
_HILBERT = [[Fraction(1, i + j + 1) for j in range(_N)] for i in range(_N)]
# Part lists whose pairwise concatenations the kernel sorts and accumulates.
_PARTS = [(3, 2, 2, 1), (4, 1, 1), (2, 2, 2), (5, 1)]


def _invert(a):
    d = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(a)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def kernel():
    """One pass of the reference work; returns (inverse, accumulator) so a
    test can check that the work was really done."""
    inv = _invert(_HILBERT)
    acc: dict = {}
    for _ in range(2):
        for i, a in enumerate(_PARTS):
            for j, b in enumerate(_PARTS):
                key = tuple(sorted(a + b, reverse=True))
                c = acc.get(key, 0) + inv[i][j]
                if c:
                    acc[key] = c
                else:
                    acc.pop(key, None)
    return inv, acc


def probe(clock=time.perf_counter) -> float:
    """Raw seconds of the kernel: the median of three passes, so that one
    pass hit by an interrupt does not set the calibration."""
    times = []
    for _ in range(3):
        t0 = clock()
        kernel()
        times.append(clock() - t0)
    return sorted(times)[1]


def warm_up(passes: int = 8) -> None:
    """Let the interpreter specialise the kernel before its times count."""
    for _ in range(passes):
        kernel()


def calibrate(raw: float, k_before: float, k_after: float,
              nominal: float = NOMINAL_S) -> float:
    return raw * nominal / ((k_before + k_after) / 2)


class Sample:
    """One timed call: its result or exception, raw and calibrated seconds,
    and the calibration factor (nominal / mean kernel) used."""

    __slots__ = ("result", "error", "raw", "calibrated", "factor", "start")

    def __init__(self, result, error, raw, k_before, k_after, start):
        self.result = result
        self.error = error
        self.raw = raw
        self.factor = NOMINAL_S / ((k_before + k_after) / 2)
        self.calibrated = raw * self.factor
        self.start = start


def timed(fn, *args, clock=time.perf_counter) -> Sample:
    """Run ``fn(*args)`` between two kernel passes with the garbage collector
    paused. An exception from ``fn`` is caught and kept in the sample, so a
    failing operation still has both brackets."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        k_before = probe(clock)
        result = error = None
        t0 = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # the caller decides whether this is a failure
            error = exc
        raw = clock() - t0
        k_after = probe(clock)
    finally:
        if was_enabled:
            gc.enable()
    return Sample(result, error, raw, k_before, k_after, t0)
