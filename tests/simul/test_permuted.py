"""PermutedScheduler, kernel_overrides scoping, and abandoned conditions."""

from heapq import heapify, heappush

import pytest

from repro.simul.core import Environment, kernel_overrides
from repro.simul.events import NORMAL, URGENT
from repro.simul.process import Interrupt
from repro.simul.scheduler import PermutedScheduler


def _tie_entries(n, time=1.0, priority=NORMAL):
    return [(time, priority, seq, f"e{seq}") for seq in range(n)]


def _permuted(entries, seed):
    heap = []
    for entry in entries:
        heappush(heap, entry)
    return heap, PermutedScheduler(heap, seed)


def _pop_all(heap, sched):
    out = []
    while heap:
        out.append(sched.pop())
    return out


# -- permutation mechanics ---------------------------------------------------


def test_permuted_preserves_cross_class_order():
    heap, sched = _permuted(
        _tie_entries(4, time=1.0, priority=URGENT)
        + _tie_entries(4, time=1.0, priority=NORMAL)
        + _tie_entries(3, time=2.0),
        seed=1,
    )
    popped = _pop_all(heap, sched)
    keys = [(e[0], e[1]) for e in popped]
    assert keys == sorted(keys)  # (time, priority) order is inviolable


def test_permuted_shuffles_within_tie_class():
    """Across a handful of seeds, at least one must deviate from
    insertion order — otherwise the harness proves nothing."""
    orders = set()
    for seed in range(1, 6):
        heap, sched = _permuted(_tie_entries(8), seed=seed)
        orders.add(tuple(e[2] for e in _pop_all(heap, sched)))
    assert any(order != tuple(range(8)) for order in orders)


def test_permuted_deterministic_for_fixed_seed():
    def run():
        heap, sched = _permuted(_tie_entries(10), seed=7)
        return [e[2] for e in _pop_all(heap, sched)]

    assert run() == run()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permuted_identical_across_backends(seed):
    """The perturbed pop sequence is a pure function of (push trace,
    seed) — the layout of the backing heap must not leak through."""
    entries = _tie_entries(6, 1.0) + _tie_entries(6, 2.0) + [(1.0, URGENT, 100, "u")]

    def run(heap):
        sched = PermutedScheduler(heap, seed)
        return [e[2] for e in _pop_all(heap, sched)]

    pushed, __ = _permuted(reversed(entries), seed)
    heapified = list(entries)
    heapify(heapified)
    assert pushed != heapified  # two genuinely different layouts
    assert run(pushed) == run(heapified)


def test_permuted_mid_tick_push_joins_live_pool():
    """An entry pushed at the draining timestamp is poppable this tick
    (causality allows it: the plain heap would surface it too)."""
    heap, sched = _permuted(_tie_entries(3, time=1.0), seed=1)
    first = sched.pop()
    heappush(heap, (1.0, NORMAL, 50, "late"))
    rest = _pop_all(heap, sched)
    assert first[0] == 1.0
    assert {e[2] for e in rest} == ({0, 1, 2, 50} - {first[2]})
    assert all(e[0] == 1.0 for e in rest)


def test_permuted_empty_pop_raises():
    heap, sched = _permuted([], seed=1)
    with pytest.raises(IndexError):
        sched.pop()


def test_permuted_len_counts_pooled_entries():
    """Unchosen tie members go back onto the heap, so its length (what
    the run loop tests) always counts every pending entry."""
    heap, sched = _permuted(_tie_entries(4), seed=1)
    assert len(heap) == 4
    sched.pop()
    assert len(heap) == 3
    assert heap[0][0] == 1.0


# -- kernel_overrides --------------------------------------------------------


def _tie_order():
    """Fire order of eight same-time events in a fresh Environment."""
    env = Environment()
    fired = []
    for tag in range(8):
        event = env.event()
        event.callbacks.append(lambda e, tag=tag: fired.append(tag))
        event.succeed()
    env.run()
    return fired


def test_kernel_overrides_forces_backend_and_restores():
    """perturb_seed swaps in the permuted pop only inside the block."""
    with kernel_overrides(perturb_seed=2):
        perturbed = _tie_order()
    assert sorted(perturbed) == list(range(8))
    assert perturbed != list(range(8))
    assert _tie_order() == list(range(8))


def test_kernel_overrides_nesting_restores_outer():
    with kernel_overrides(perturb_seed=2):
        perturbed = _tie_order()
        with kernel_overrides():
            assert _tie_order() == list(range(8))
        assert _tie_order() == perturbed

    with kernel_overrides(perturb_seed=3):
        reseeded = _tie_order()
    with kernel_overrides(perturb_seed=2):
        with kernel_overrides(perturb_seed=3):
            assert _tie_order() == reseeded
        assert _tie_order() == perturbed
    assert _tie_order() == list(range(8))


def test_kernel_overrides_perturbed_run_preserves_order_free_results():
    """An order-free workload must land on identical state under any
    permutation seed — the harness's soundness direction."""

    def run(seed=None):
        with kernel_overrides(perturb_seed=seed):
            env = Environment()
            done = []

            def worker(k):
                yield env.timeout(1.0)
                yield env.timeout(0.5)
                done.append((env.now, k))

            for k in range(5):
                env.process(worker(k))
            env.run(until=3.0)
        return sorted(done)

    baseline = run(None)
    assert baseline and all(run(seed) == baseline for seed in (1, 2, 3))


# -- abandoned-condition regression -----------------------------------------


def test_interrupted_condition_detaches_from_shared_event():
    """An any_of waiter interrupted mid-wait must remove its _check from
    the still-pending shared event — the callback-leak class the
    tie-race work closed for abandoned (not just decided) conditions."""
    env = Environment()
    shared = env.event()

    def waiter():
        try:
            yield env.any_of([shared, env.timeout(10.0)])
        except Interrupt:
            yield env.timeout(0.1)

    def killer(victim):
        yield env.timeout(1.0)
        victim.interrupt("stop waiting")

    victim = env.process(waiter())
    env.process(killer(victim))
    env.run(until=5.0)
    assert shared.callbacks == []  # no dead _check left behind
