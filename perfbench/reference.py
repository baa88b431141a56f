"""A fixed pure-Python reference workload that measures host speed.

The benchmark's host is a shared 2-vCPU KVM guest. Neighbours slow each
vCPU by up to 2x, independently and within a quarter of a second, and
raw host time of one simulation point drifted by up to 50% across five
minutes of back-to-back runs. Timing a short slice of this loop between
stretches of simulation measures the speed of the CPU the benchmark is
pinned to at that moment, and host times are reported scaled to
:data:`NOMINAL_S`: ``wall * NOMINAL_S / slice``.

The loop imitates the simulator's work (a heap-ordered event loop that
reads objects from a table) but shares no code with :mod:`repro`, so no
change to the simulator can move it.
"""

from __future__ import annotations

import heapq
import math
import time

#: Events each half of a reference slice processes.
EVENTS = 1_000

#: Host seconds one slice takes on the guest when neighbours leave it
#: alone (Intel Xeon Sapphire Rapids, 2.1 GHz, 2 vCPUs, CPython 3.11):
#: the 10th percentile of 4000 back-to-back slices, whose median was
#: 0.000857 s. Scaled times are host seconds at this speed.
NOMINAL_S = 0.000813

#: Table sizes of the two halves of a slice: one fits in L1 cache, the
#: other (about 6 MB of tuples) spills out of a core's L2, as the
#: simulator's live objects do. Neighbours slow the two differently, and
#: their geometric mean tracked the simulator better than either alone
#: (per-process medians of one point spread 4% against 6.5% and 7.7%).
SMALL_TABLE = 64
LARGE_TABLE = 65_536

_tables: dict[int, list[tuple[int, float]]] = {}


def _loop(events: int, size: int) -> float:
    table = _tables.get(size)
    if table is None:
        table = _tables[size] = [(i, float(i)) for i in range(size)]
    heap: list = []
    seq = 0
    for pid in range(256):
        seq += 1
        heapq.heappush(heap, ((pid % 7 + 1) * 0.001, seq, pid))
    index = 12345
    total = 0.0
    for _ in range(events):
        now, _, pid = heapq.heappop(heap)
        index = (index * 1103515245 + 12345) & (size - 1)
        total += table[index][1]
        seq += 1
        heapq.heappush(heap, (now + (pid % 7 + 1) * 0.001, seq, pid))
    return total


def _half(size: int) -> float:
    start = time.perf_counter()
    _loop(EVENTS, size)
    return time.perf_counter() - start


def seconds() -> float:
    """One reference slice: the geometric mean of the host seconds its
    two halves take right now."""
    return math.sqrt(_half(SMALL_TABLE) * _half(LARGE_TABLE))


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` host seconds at NOMINAL_S speed, given the slices timed
    just before and just after them."""
    return wall * NOMINAL_S * 2 / (before + after)


def warm_seconds() -> float:
    """:func:`seconds` after one untimed slice has brought the loop's
    table back into cache, for use after another process ran."""
    seconds()
    return seconds()


class Meter:
    """Times a stretch of work as segments separated by reference slices.

    :meth:`mark` ends a segment. Each segment's host seconds are scaled
    by the mean of the slices timed just before and just after it, so
    the host's speed is sampled every few tens of milliseconds, about
    as often as neighbours change it.
    """

    def __init__(self) -> None:
        self.wall = 0.0  # raw host seconds of all segments
        self.scaled = 0.0  # the same at NOMINAL_S speed
        self._slice = seconds()
        self._start = time.perf_counter()

    def mark(self) -> None:
        segment = time.perf_counter() - self._start
        after = seconds()
        self.wall += segment
        self.scaled += scale(segment, self._slice, after)
        self._slice = after
        self._start = time.perf_counter()
