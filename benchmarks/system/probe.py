"""Host-speed calibration probe.

A fixed, deterministic slice of the three things the simulator's hot
loop is made of -- heap push/pop of ``(time, seq, obj)`` tuples, method
calls on a ``__slots__`` object, and dict stores -- so its wall time
tracks how fast *this host, right now* runs that kind of Python.  Every
timed pass of the benchmark is bracketed by two readings and reported in
reference-seconds (see ``run.py``).

Deliberately imports nothing from ``repro``: a change to the library can
never change what one probe reading means.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["PROBE_REF_S", "probe", "to_reference"]

#: Median probe reading on the host the benchmark was defined on
#: (2 shared cores, CPython 3.11).  Pinned: reference-seconds are "what
#: the pass would have taken on a host that runs the probe in exactly
#: this long", so the constant only sets the scale of the numbers.
PROBE_REF_S = 0.0250

_ITERATIONS = 55_000


class _Cell:
    __slots__ = ("count", "last")

    def __init__(self) -> None:
        self.count = 0
        self.last = 0.0

    def touch(self, value: float) -> None:
        self.count += 1
        self.last = value


def probe() -> float:
    """Run the fixed probe workload once; returns its wall seconds."""
    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop
    cell = _Cell()
    touch = cell.touch
    table: dict = {}
    started = time.perf_counter()
    for i in range(64):
        push(heap, (float(i), i, cell))
    seq = 64
    for _ in range(_ITERATIONS):
        when, _, obj = pop(heap)
        touch(when)
        table[seq & 1023] = obj
        # 7/13 is not dyadic: the due times never collapse onto a grid,
        # so the heap keeps doing real sift work.
        push(heap, (when + 1.0 + (seq % 7) / 13.0, seq, obj))
        seq += 1
    elapsed = time.perf_counter() - started
    if cell.count != _ITERATIONS or len(heap) != 64:
        raise RuntimeError("calibration probe lost work")
    return elapsed


def to_reference(raw_s: float, probe_before: float, probe_after: float) -> float:
    """``raw_s`` rescaled to the reference host: a pass that ran while
    the probe read slower than :data:`PROBE_REF_S` is credited back in
    proportion."""
    return raw_s * PROBE_REF_S / ((probe_before + probe_after) / 2.0)
