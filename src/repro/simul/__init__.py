"""Deterministic discrete-event simulation kernel.

A small, SimPy-flavoured kernel: an :class:`~repro.simul.core.Environment`
owns a binary heap of pending events, driven through :mod:`heapq`;
*processes* are Python generators that yield events (timeouts, resource
requests, store gets...) and are resumed when those events fire. Ties in
time are broken by a monotonically increasing sequence number, which
makes every simulation fully deterministic. The ordering analysis can
swap in a seeded tie permutation
(:class:`~repro.simul.scheduler.PermutedScheduler`).

Fire-and-forget service waits can reuse pooled Timeout objects
(:meth:`~repro.simul.core.Environment.service_timeout`).

The kernel is the substrate for every simulated system in this repository:
the message broker, the stream processors, and the serving services.
"""

from repro.simul.core import Environment
from repro.simul.events import AllOf, AnyOf, Event, Timeout
from repro.simul.process import Interrupt, Process
from repro.simul.resources import Resource, Store
from repro.simul.monitor import Counter, TimeSeries
from repro.simul.rng import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Process",
    "Interrupt",
    "Resource",
    "Store",
    "Counter",
    "TimeSeries",
    "RandomStreams",
]
