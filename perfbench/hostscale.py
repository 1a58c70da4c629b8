"""Host-speed normalisation by an interleaved reference slice.

On a shared host the speed of the CPU drifts by tens of percent over a few
minutes, so raw seconds from two runs of the same code disagree.  The
harness therefore times a fixed slice of pure-Python dict and integer work
(harness code, never package code) before the first operation and after
every operation, and rescales each operation's duration by

    REF_NOMINAL_S / ref_local

where ``ref_local`` is the median of the slices within ``WINDOW`` positions
of the operation.  Scaled durations stay in seconds, at the nominal host
speed on which one slice takes ``REF_NOMINAL_S``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: What one reference slice takes on the nominal host, by definition.
REF_NOMINAL_S = 0.010

#: Loop rounds of one slice; about 10 ms on a 2-core x86-64 cloud VM
#: running CPython 3.11.
REF_ROUNDS = 32000

#: How many slices on each side of an operation make its local reference.
WINDOW = 5


def reference_slice() -> float:
    """Run the fixed slice once; returns its wall-clock duration in seconds."""
    started = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for index in range(REF_ROUNDS):
        key = (index * 40503) & 1023
        acc = (acc + table.get(key, index)) & 0xFFFFFFFF
        table[key] = acc ^ index
    elapsed = perf_counter() - started
    if acc < 0:  # never true; keeps the loop's result live
        raise AssertionError(acc)
    return elapsed


def local_references(slices: list[float], count: int) -> list[float]:
    """The local reference of each of ``count`` operations.

    Operation ``i`` ran between ``slices[i]`` and ``slices[i + 1]``; its
    reference is the median of the slices up to ``WINDOW`` places away.
    """
    if len(slices) < count + 1:
        raise ValueError(f"{count} operations need {count + 1} slices, got {len(slices)}")
    return [
        statistics.median(slices[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
        for i in range(count)
    ]


def percentile(values: list[float], fraction: float) -> float:
    """The ``fraction`` quantile (0 < fraction < 1) of at least two values."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]
