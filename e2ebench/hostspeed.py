"""Host-speed normalisation of measured times.

A shared host's CPU speed drifts: on a 2-vCPU Xeon VM a fixed pure-Python
loop runs up to 40% slower for tens of seconds at a time, and every time the
benchmark measures drifts with it, so runs minutes apart disagree by more
than any useful regression bound.  Each timed call is therefore bracketed
by a fixed kernel and its time is reported scaled by ``REFERENCE_S / kernel
time``: the time the call would have taken had the host run the kernel in
``REFERENCE_S``.  A slower program moves the
scaled time; a slower host slows the call and the kernel alike and cancels.
On that VM this cut the spread of one pass of ``qlosure-cold`` from +-20%
to +-5%.  Runs keep their raw times in the record.

This holds only while nothing else competes for the CPU.  ``serve-mixed``
therefore runs the kernel only between segments of its request stream, when
the server is idle: a kernel run during the stream shares the two vCPUs
with the server, and its time tracked the server's own load (a slower
router in the server lowered the scaled hit latency by 39%).
"""

from __future__ import annotations

import statistics
import time

ITERATIONS = 40_000
#: The kernel's time on an unloaded 2-vCPU Intel Xeon VM: the unit in which
#: scaled times are expressed.
REFERENCE_S = 0.0035


def kernel_seconds() -> float:
    """Wall time of one run of the fixed pure-Python kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def calibrate() -> float:
    """The median of three kernel runs: one reading with less jitter."""
    return statistics.median(kernel_seconds() for _ in range(3))


def scale(before: float, after: float) -> float:
    """The factor that scales a time measured between two kernel runs."""
    return 2 * REFERENCE_S / (before + after)
