"""Schedule perturbation for the simulation kernel's pending-event heap.

The kernel keeps its pending events in one binary heap owned by
:class:`~repro.simul.core.Environment` and ordered by the total key
``(time, priority, seq)``.  On a plain run the environment drives
:mod:`heapq` on that list directly; this module holds the one
alternative pop order, used only by the ordering analysis.
"""

from __future__ import annotations

import typing
from heapq import heappop, heappush

from repro.simul.rng import RandomStreams

#: A scheduled entry: ``(time, priority, seq, event)``.  ``seq`` is
#: unique, so tuple comparison never reaches the event object.
Entry = typing.Tuple[float, int, int, object]


class PermutedScheduler:
    """Schedule-perturbation pop: a seeded choice inside each tie class.

    Wraps the environment's heap and pops a *seeded random member of the
    head's tie class* instead of the lowest insertion sequence, while
    preserving every cross-class ordering guarantee.  A tie class is the
    set of queued entries sharing one ``(time, priority)`` key — exactly
    the entries whose relative order the kernel resolves by insertion
    sequence, i.e. the only ordering freedom a real concurrent system
    would have.

    This is the mechanism behind ``crayfish verify-order`` (a DPOR-lite
    schedule fuzzer): if an experiment's exports are byte-identical for
    every permutation seed, no result can depend on same-timestamp pop
    order.  Causality is respected by construction — an entry scheduled
    while a tie class is draining only joins the class *after* the entry
    that created it was popped, so a perturbed schedule is always one a
    legal scheduler could have produced.

    The tie members that were not chosen go back onto the heap, so the
    heap always holds every pending entry and the environment's run loop
    can keep testing its head directly.  Pushes need no wrapping.

    Determinism: for a fixed seed the perturbed pop sequence is a pure
    function of the push sequence.
    """

    __slots__ = ("_heap", "_rng")

    def __init__(self, heap: list[Entry], seed: int) -> None:
        self._heap = heap
        self._rng = RandomStreams(seed).stream("tie-permutation")

    def pop(self) -> Entry:
        heap = self._heap
        entry = heappop(heap)
        time, priority = entry[0], entry[1]
        if not heap or heap[0][0] != time or heap[0][1] != priority:
            return entry
        # Heap pops come out in seq order, so the class is seq-sorted.
        ties = [entry]
        while heap and heap[0][0] == time and heap[0][1] == priority:
            ties.append(heappop(heap))
        entry = ties.pop(int(self._rng.integers(len(ties))))
        for other in ties:
            heappush(heap, other)
        return entry
