"""Unit tests for simulation monitors and random streams."""

import zlib

import numpy as np
import pytest

from repro.simul import Counter, Environment, RandomStreams, TimeSeries


def _env_at(times, fn):
    """Run ``fn(env)`` after advancing the clock to each time in order."""
    env = Environment()

    def proc():
        last = 0.0
        for t in times:
            yield env.timeout(t - last)
            fn(env)
            last = t

    env.process(proc())
    env.run()
    return env


def test_counter_rates():
    env = Environment()
    counter = Counter(env, "requests")

    def proc():
        for __ in range(10):
            counter.increment()
            yield env.timeout(1)

    env.process(proc())
    env.run()
    assert counter.total == 10
    assert counter.count_between(0, 5) == 5
    assert counter.rate_between(0, 10) == pytest.approx(1.0)


def test_counter_rejects_negative():
    env = Environment()
    counter = Counter(env)
    with pytest.raises(ValueError):
        counter.increment(-1)


def test_counter_empty_window_rejected():
    env = Environment()
    counter = Counter(env)
    with pytest.raises(ValueError):
        counter.rate_between(5, 5)


def test_counter_bulk_increment_is_compact():
    """increment(n) stores one (time, cumulative) pair, not n entries."""
    env = Environment()
    counter = Counter(env)
    counter.increment(1_000_000)
    counter.increment(500_000)  # same timestamp: merged in place
    assert counter.total == 1_500_000
    assert len(counter._times) == 1
    assert counter.count_between(0.0, 1.0) == 1_500_000


def test_counter_zero_increment_stores_nothing():
    env = Environment()
    counter = Counter(env)
    counter.increment(0)
    assert counter.total == 0
    assert counter._times == []
    assert counter.count_between(0.0, 1.0) == 0


def test_counter_window_boundaries():
    """count_between is inclusive of start, exclusive of end."""
    env = Environment()
    counter = Counter(env)

    def proc():
        for amount in (2, 3, 5):
            counter.increment(amount)
            yield env.timeout(1)

    env.process(proc())
    env.run()
    # Increments at t=0 (2), t=1 (3), t=2 (5).
    assert counter.count_between(0.0, 1.0) == 2
    assert counter.count_between(1.0, 2.0) == 3
    assert counter.count_between(0.0, 2.0) == 5
    assert counter.count_between(2.0, 10.0) == 5
    assert counter.count_between(0.0, 10.0) == 10
    assert counter.count_between(5.0, 10.0) == 0
    assert counter.rate_between(0.0, 2.0) == pytest.approx(2.5)


def test_timeseries_window():
    env = Environment()
    series = TimeSeries(env, "latency")

    def proc():
        for i in range(5):
            series.record(float(i * 10))
            yield env.timeout(2)

    env.process(proc())
    env.run()
    assert len(series) == 5
    assert series.window(2, 6) == [(2.0, 10.0), (4.0, 20.0)]
    assert series.values_after(6) == [30.0, 40.0]


def _recorded_series():
    env = Environment()
    series = TimeSeries(env, "depth")

    def proc():
        for i in range(5):
            series.record(float(i * 10))
            yield env.timeout(2)

    env.process(proc())
    env.run()
    return series  # samples: (0,0) (2,10) (4,20) (6,30) (8,40)


def test_timeseries_last_before():
    series = _recorded_series()
    assert series.last_before(0.0) is None  # strictly before: t=0 excluded
    assert series.last_before(0.1) == 0.0
    assert series.last_before(2.0) == 0.0
    assert series.last_before(2.1) == 10.0
    assert series.last_before(100.0) == 40.0


def test_timeseries_last_before_empty():
    env = Environment()
    series = TimeSeries(env, "empty")
    assert series.last_before(10.0) is None


def test_timeseries_mean_between():
    series = _recorded_series()
    # [2, 6) covers the samples at t=2 and t=4.
    assert series.mean_between(2.0, 6.0) == pytest.approx(15.0)
    assert series.mean_between(0.0, 100.0) == pytest.approx(20.0)
    # Start-inclusive, end-exclusive.
    assert series.mean_between(4.0, 6.0) == pytest.approx(20.0)


def test_timeseries_mean_between_empty_window_is_nan():
    import math

    series = _recorded_series()
    assert math.isnan(series.mean_between(2.5, 3.5))


def test_timeseries_mean_between_rejects_inverted_window():
    series = _recorded_series()
    with pytest.raises(ValueError):
        series.mean_between(5.0, 5.0)


def test_random_streams_reproducible():
    a = RandomStreams(seed=7)
    b = RandomStreams(seed=7)
    assert a.stream("x").random() == b.stream("x").random()


def test_random_streams_independent_names():
    streams = RandomStreams(seed=7)
    assert streams.stream("x").random() != streams.stream("y").random()


def test_lognormal_factor_zero_sigma_is_identity():
    streams = RandomStreams(seed=7)
    assert streams.lognormal_factor("noise", sigma=0.0) == 1.0


def test_lognormal_factor_positive():
    streams = RandomStreams(seed=7)
    factor = streams.lognormal_factor("noise", sigma=0.3)
    assert factor > 0


def _reference_keyed_factor(seed, name, sigma, key):
    """The keyed-noise formula without caching: a fresh root
    SeedSequence, name crc32 and default_rng on every call."""
    child = np.random.SeedSequence(
        entropy=np.random.SeedSequence(seed).entropy,
        spawn_key=(
            zlib.crc32(f"{name}.keyed".encode("utf-8")),
            zlib.crc32(str(int(key)).encode("utf-8")),
        ),
    )
    return float(np.random.default_rng(child).lognormal(mean=0.0, sigma=sigma))


#: The original cases first, then a sweep of small keys both sides of
#: zero and keys whose text is long.
KEYED_KEYS = (-3, 0, 1, 41, 2**40, *range(-5, 300), 10**12)


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**64 + 1, 2**70 + 3])
def test_keyed_lognormal_factor_matches_reference_formula(seed):
    """The draw replays SeedSequence and PCG64 seeding on Python ints;
    it must not move a single bit of any draw against the installed
    NumPy: goldens depend on these floats. Multi-word seeds take the
    unpadded and partly padded entropy paths."""
    streams = RandomStreams(seed=seed)
    for name in ("serving.service", "netsim.rtt"):
        for key in KEYED_KEYS:
            for sigma in (0.05, 0.3):
                assert streams.keyed_lognormal_factor(
                    name, sigma, key
                ) == _reference_keyed_factor(seed, name, sigma, key)


def test_keyed_draws_are_a_pure_function_of_seed_name_and_key():
    """The per-name cache carries no draw history: names drawn in
    blocks, interleaved, or in reverse on fresh streams give the same
    floats, and the reference's."""
    seed = 11
    names = ("serving.service", "netsim.rtt", "broker.append")
    keys = (*range(-5, 40), 2**40, 10**12)

    def draws(order):
        streams = RandomStreams(seed=seed)
        return {
            (name, key): streams.keyed_lognormal_factor(name, 0.2, key)
            for name, key in order
        }

    blocks = [(name, key) for name in names for key in keys]
    interleaved = [(name, key) for key in keys for name in names]
    expected = {
        (name, key): _reference_keyed_factor(seed, name, 0.2, key)
        for name, key in blocks
    }
    assert draws(blocks) == expected
    assert draws(interleaved) == expected
    assert draws(blocks[::-1]) == expected


def test_keyed_streams_of_different_seeds_share_no_state():
    first, second = RandomStreams(seed=3), RandomStreams(seed=2**70 + 3)
    for key in range(50):
        for seed, streams in ((3, first), (2**70 + 3, second)):
            assert streams.keyed_lognormal_factor(
                "serving.service", 0.3, key
            ) == _reference_keyed_factor(seed, "serving.service", 0.3, key)
