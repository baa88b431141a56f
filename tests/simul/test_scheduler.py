"""Kernel edge semantics of the heap-ordered event loop."""

import pytest

from repro.config import SPS_NAMES, ExperimentConfig
from repro.core.runner import ExperimentRunner
from repro.errors import SimulationError
from repro.simul import Environment
from repro.simul.core import kernel_overrides
from repro.simul.events import NORMAL, URGENT

#: Kernel paths the order-free edge semantics must hold on: the plain
#: heap binding, and the seeded tie-permuting pop ``verify-order`` uses.
#: The same-time ordering cases are specific to the plain heap.
KERNELS = ["heap", "permuted"]


def _env(kind):
    if kind == "heap":
        return Environment()
    with kernel_overrides(perturb_seed=1):
        return Environment()


@pytest.mark.parametrize("kind", KERNELS)
def test_peek_tracks_minimum(kind):
    env = _env(kind)
    assert env.peek() == float("inf")
    late, early, now = env.event(), env.event(), env.event()
    env.schedule(late, NORMAL, 7.0)
    env.schedule(early, NORMAL, 2.0)
    env.schedule(now, URGENT)
    assert env.peek() == 0.0
    env.step()
    assert now.processed
    assert env.peek() == 2.0


def test_pop_empty_raises_index_error():
    # The bound pop is heapq's: an empty queue raises IndexError, which
    # step() turns into a SimulationError.
    env = Environment()
    with pytest.raises(IndexError):
        env._pop()
    with pytest.raises(SimulationError, match="no more events"):
        env.step()


@pytest.mark.parametrize("kind", ["heap"])
def test_same_time_events_fire_in_priority_then_insertion_order(kind):
    env = _env(kind)
    order = []
    first = env.event()
    second = env.event()
    urgent = env.event()
    first.callbacks.append(lambda e: order.append("first"))
    second.callbacks.append(lambda e: order.append("second"))
    urgent.callbacks.append(lambda e: order.append("urgent"))
    first.succeed()
    second.succeed()
    urgent.succeed(priority=URGENT)
    env.run()
    assert order == ["urgent", "first", "second"]


@pytest.mark.parametrize("kind", ["heap"])
def test_same_time_timeouts_fire_in_creation_order(kind):
    env = _env(kind)
    fired = []

    def proc(tag):
        yield env.timeout(3.0)
        fired.append(tag)

    for tag in ("a", "b", "c", "d"):
        env.process(proc(tag))
    env.run()
    assert fired == ["a", "b", "c", "d"]


@pytest.mark.parametrize("kind", KERNELS)
def test_run_until_already_processed_event_returns_immediately(kind):
    env = _env(kind)
    timeout = env.timeout(1.0, value="tick")
    env.run(until=10)
    assert timeout.processed
    # No pending events are consumed and the clock does not move.
    sentinel = env.timeout(100.0)
    assert env.run(until=timeout) == "tick"
    assert env.now == 10.0
    assert not sentinel.processed


@pytest.mark.parametrize("kind", KERNELS)
def test_failed_event_without_watcher_escalates_from_step(kind):
    env = _env(kind)

    def crasher():
        yield env.timeout(1.0)
        raise ValueError("unwatched crash")

    env.process(crasher())
    with pytest.raises(ValueError, match="unwatched crash"):
        env.run()


@pytest.mark.parametrize("kind", KERNELS)
def test_run_until_deadline_advances_clock_past_empty_queue(kind):
    env = _env(kind)

    def proc():
        yield env.timeout(2.0)

    env.process(proc())
    env.run(until=50)
    # The queue drained at t=2 but the clock still lands on the deadline.
    assert env.now == 50.0
    assert env.peek() == float("inf")


@pytest.mark.parametrize("kind", KERNELS)
def test_run_until_event_never_fired_raises(kind):
    env = _env(kind)
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=env.event())


def _assert_every_pop_was_scheduled(sps, monkeypatch):
    scheduled, popped = [0], [0]
    envs = {}
    schedule, step = Environment.schedule, Environment.step

    def counting_schedule(self, *args, **kwargs):
        scheduled[0] += 1
        envs[id(self)] = self
        schedule(self, *args, **kwargs)

    def counting_step(self):
        popped[0] += 1
        step(self)

    monkeypatch.setattr(Environment, "schedule", counting_schedule)
    monkeypatch.setattr(Environment, "step", counting_step)
    ExperimentRunner(
        ExperimentConfig(sps=sps, serving="onnx", model="ffnn", ir=40.0, duration=0.3)
    ).run()
    queued = sum(len(env._queue) for env in envs.values())
    assert popped[0] > 0
    assert scheduled[0] == popped[0] + queued


@pytest.mark.parametrize("sps", SPS_NAMES)
def test_every_popped_event_went_through_schedule(sps, monkeypatch):
    """No bypass: the events a run pops, plus those still queued at its
    end, are exactly those ``Environment.schedule`` queued — the one
    place kernel events are counted."""
    _assert_every_pop_was_scheduled(sps, monkeypatch)


@pytest.mark.parametrize("sps", SPS_NAMES)
def test_every_popped_event_went_through_schedule_perturbed(sps, monkeypatch):
    """The same accounting on the tie-permuting pop, where the
    producer's and sinks' spawned processes interleave differently."""
    with kernel_overrides(perturb_seed=1):
        _assert_every_pop_was_scheduled(sps, monkeypatch)


@pytest.mark.parametrize("kind", KERNELS)
def test_spawned_process_that_returns_costs_one_event(kind):
    env = _env(kind)
    count, ran = [0], []
    schedule = env.schedule

    def counted(*args, **kwargs):
        count[0] += 1
        schedule(*args, **kwargs)

    env.schedule = counted

    def body():
        ran.append(env.now)
        return
        yield

    assert env.spawn(body()) is None
    env.run()
    assert ran == [0.0]
    # The init event only: no completion event for a handle nobody holds.
    assert count[0] == 1
    handled = env.process(body())
    env.run()
    assert handled.processed and count[0] == 3


@pytest.mark.parametrize("kind", KERNELS)
def test_spawned_process_that_raises_escalates_at_the_same_time(kind):
    def crasher(env):
        yield env.timeout(1.5)
        raise ValueError("spawned crash")

    times = {}
    for start in ("process", "spawn"):
        env = _env(kind)
        getattr(env, start)(crasher(env))
        with pytest.raises(ValueError, match="spawned crash"):
            env.run()
        times[start] = env.now
    assert times == {"process": 1.5, "spawn": 1.5}


def test_spawn_and_process_start_in_the_same_pop_order():
    """Both start through one URGENT init event at the same heap slot,
    so interleaved spawns and processes run in creation order."""
    entries = {}
    order = []

    def body(tag):
        order.append(tag)
        return
        yield

    for start in ("process", "spawn"):
        env = Environment()
        for tag in range(4):
            (env.spawn if tag % 2 else getattr(env, start))(body((start, tag)))
        entries[start] = [(t, p, s) for t, p, s, __ in env._queue]
        env.run()
    assert entries["process"] == entries["spawn"]
    assert order == [(s, t) for s in ("process", "spawn") for t in range(4)]


def test_spawned_processes_run_under_perturbation():
    ran = []

    def body(env, tag):
        yield env.timeout(1.0)
        ran.append(tag)

    with kernel_overrides(perturb_seed=1):
        env = Environment()
    for tag in range(6):
        env.spawn(body(env, tag))
    env.run()
    assert sorted(ran) == list(range(6))
    assert env.peek() == float("inf")
