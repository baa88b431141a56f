#!/usr/bin/env python3
"""End-to-end host-time benchmark of the Crayfish simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload saturate-embedded --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's points (one per stream processor) run
one after another, once untimed to warm up and then round after round
until ``--seconds`` have passed (at least three rounds), and the
end-to-end metrics are the medians over rounds. Host times are scaled to
a nominal host speed, measured by reference slices timed between short
stretches of each point's simulation (see reference.py and metered());
the raw seconds are printed alongside. With
``--trace 1`` the workload runs once plain and twice under ``cProfile``,
and the per-layer metrics split the profiled host time across the
``repro`` layers. Either way every point's result is checked (finite,
non-empty, and the same digest on every repetition of the seed), and the
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--inject-event-ns N`` adds N ns of busy host time to every kernel
event; it exists to prove that the bounds catch a real slowdown.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import json
import math
import os
import pathlib
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
import typing

# Sibling modules; none of them imports repro.
import layers
import reference
import workloads

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = (
    ("wall_s", "s"),
    *((f"wall_s.{engine}", "s") for engine in workloads.ENGINES),
    ("host_us_per_batch", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

COUNTS = (
    ("simul.events", "count"),
    ("simul.events_per_batch", "ratio"),
    ("simul.ns_per_event", "ns"),
    ("simul.rng.keyed_draws", "count"),
    ("simul.rng.self_s", "s"),
    ("broker.appends", "count"),
    ("broker.fetches", "count"),
    ("serving.requests", "count"),
    ("netsim.rpc_round_trips", "count"),
    ("tracing.spans", "count"),
    ("metrics.samples", "count"),
    ("core.batches_produced", "count"),
    ("core.batches_completed", "count"),
)

PROFILE = (
    ("profile.wall_s", "s"),
    ("profile.overhead_ratio", "ratio"),
    ("profile.accounted_share", "ratio"),
    ("profile.counts_repeat", "bool"),
)

PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in layers.LAYERS),
    *((f"{layer}.share", "ratio") for layer in layers.LAYERS),
    *COUNTS,
    *PROFILE,
)

#: Fresh processes timed from spawn to the first simulated event.
SETUP_SAMPLES = 7
#: Timed rounds run even when ``--seconds`` is shorter than that.
MIN_ROUNDS = 3
#: Spans of simulated time a metered point is split into.
CHUNKS = 16
#: Profiled self time must account for the profiled wall time this well.
ACCOUNTING_TOLERANCE = 0.05

_LATENCY_FIELDS = ("mean", "p50", "p95", "p99", "maximum")


def classify(result: typing.Any) -> list[str]:
    """Why a point's result is invalid; empty when it is valid."""
    reasons = []
    if not math.isfinite(result.throughput):
        reasons.append(f"non-finite throughput {result.throughput!r}")
    for name in _LATENCY_FIELDS:
        value = getattr(result.latency, name)
        if not math.isfinite(value):
            reasons.append(f"non-finite latency.{name} {value!r}")
    if result.completed <= 0:
        reasons.append("completed no batches")
    if result.completed > result.produced:
        reasons.append(
            f"completed {result.completed} > produced {result.produced} batches"
        )
    return reasons


def digest(result: typing.Any, seed: int) -> str:
    """sha256 of the point's canonical result record."""
    from repro.core.results_io import result_record

    text = json.dumps(
        result_record(result, seed=seed), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quartiles(values: typing.Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Sample(typing.NamedTuple):
    wall: float  # raw host seconds
    scaled: float  # host seconds at the reference speed
    completed: int  # simulated batches completed


class Checker:
    """Counts attempted and failed point runs; keeps each point's first
    valid result and its digest, which every repetition must match."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.first: dict[str, typing.Any] = {}

    def run(self, point: workloads.Point, profiler: typing.Any = None):
        """Run one point; its :class:`Sample`, or None when it failed.

        Unprofiled, the point is metered in segments (see
        :func:`metered`); profiled, it is timed whole.
        """
        self.attempted += 1
        gc.collect()
        try:
            if profiler is None:
                meter = reference.Meter()
                with metered(meter):
                    result = point.run()
                meter.mark()
                wall, scaled = meter.wall, meter.scaled
            else:
                start = time.perf_counter()
                profiler.enable()
                try:
                    result = point.run()
                finally:
                    profiler.disable()
                wall = scaled = time.perf_counter() - start
        except Exception:  # a crashing point is a counted failure
            traceback.print_exc()
            self.failed += 1
            return None
        reasons = classify(result)
        point_digest = digest(result, self.seed)
        first = self.digests.setdefault(point.engine, point_digest)
        if first != point_digest:
            reasons.append(f"digest {point_digest} differs from {first}")
        if reasons:
            print(f"FAILED {result.label}: {'; '.join(reasons)}", file=sys.stderr)
            self.failed += 1
            return None
        self.first.setdefault(point.engine, result)
        return Sample(wall, scaled, result.completed)


@contextlib.contextmanager
def metered(meter: reference.Meter) -> typing.Iterator[None]:
    """Split the simulation loop into :data:`CHUNKS` equal spans of
    simulated time and end a meter segment after each.

    ``Environment.run(until=t)`` handles every event due by ``t`` and
    then sets the clock to ``t``; running it to successive deadlines
    handles the same events in the same order, which the digest check
    confirms on every ``--trace 1`` run (its profiled rounds are not
    split).
    """
    from repro.simul.core import Environment

    original = Environment.run

    def run(self, until=None):
        if isinstance(until, (int, float)):
            start = self.now
            for i in range(1, CHUNKS):
                original(self, start + (until - start) * i / CHUNKS)
                meter.mark()
        return original(self, until)

    Environment.run = run
    try:
        yield
    finally:
        Environment.run = original


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: assemble the first point and stop at its first event."""
    sys.path.insert(0, str(SRC))
    from repro.simul.core import Environment

    class Ready(Exception):
        pass

    def first_event(self, until=None):
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        raise Ready

    Environment.run = first_event
    try:
        workloads.build(workload, seed)[0].run()
    except Ready:
        return
    raise RuntimeError("the first point never reached the simulation loop")


def setup_times(workload: str, seed: int) -> list[float]:
    """Host seconds from process spawn to the first simulated event."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = reference.warm_seconds()
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        # Time the host only once the child has exited: it shares the CPU.
        samples.append(reference.scale(elapsed, before, reference.warm_seconds()))
    return samples


def inject_event_cost(ns: int) -> None:
    """Add ``ns`` of busy host time to every ``Environment.schedule``."""
    from repro.simul.core import Environment

    schedule = Environment.schedule

    def slowed(self, *args, **kwargs):
        deadline = time.perf_counter_ns() + ns
        while time.perf_counter_ns() < deadline:
            pass
        schedule(self, *args, **kwargs)

    Environment.schedule = slowed


def run_round(points, checker: Checker, profiler: typing.Any = None) -> dict[str, Sample]:
    """Run every point once; the samples of those that passed."""
    done = {}
    for point in points:
        sample = checker.run(point, profiler)
        if sample is not None:
            done[point.engine] = sample
    return done


def end_to_end(rounds: list[dict[str, Sample]], setup: list[float]) -> dict[str, list[float]]:
    """Samples of every end-to-end metric (one per round for timings)."""
    samples: dict[str, list[float]] = {"wall_s": [], "host_us_per_batch": []}
    for engine in workloads.ENGINES:
        samples[f"wall_s.{engine}"] = [r[engine].scaled for r in rounds if engine in r]
    for done in rounds:
        if len(done) < len(workloads.ENGINES):
            continue  # a failed point leaves the round incomplete
        wall = sum(sample.scaled for sample in done.values())
        completed = sum(sample.completed for sample in done.values())
        samples["wall_s"].append(wall)
        samples["host_us_per_batch"].append(wall / completed * 1e6)
    samples["setup_s"] = setup
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples["peak_rss_mb"] = [peak_kib / 1024.0]
    return samples


def measure(args: argparse.Namespace, checker: Checker) -> dict[str, float]:
    """``--trace 0``: repeat the panel for ``--seconds``; end-to-end medians."""
    setup = setup_times(args.workload, args.seed)
    points = workloads.build(args.workload, args.seed)
    if args.inject_event_ns:
        inject_event_cost(args.inject_event_ns)
    run_round(points, checker)  # untimed warm-up: lazy imports and caches
    rounds: list[dict[str, Sample]] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(points, checker))
    report_points(points, len(rounds), checker)
    samples = end_to_end(rounds, setup)
    values = {}
    for name, unit in END_TO_END:
        q1, median, q3 = quartiles(samples[name] or [0.0])
        values[name] = median
        print(
            f"metric {name} = {median:.6g} {unit}  "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])})"
        )
    raw = [sum(s.wall for s in r.values()) for r in rounds]
    print(f"raw host seconds per round, unscaled: median {statistics.median(raw):.6g}")
    return values


def report_points(points, rounds: int, checker: Checker) -> None:
    print(f"timed rounds {rounds}")
    for point in points:
        result = checker.first.get(point.engine)
        if result is not None:
            print(
                f"point {result.label} duration={point.config.duration} "
                f"completed={result.completed} produced={result.produced} "
                f"throughput={result.throughput:.1f} "
                f"digest={checker.digests[point.engine]}"
            )
    print(
        f"run_failure_rate = {checker.failed / max(checker.attempted, 1):.4f} "
        f"({checker.failed}/{checker.attempted} point runs)"
    )


def profile(args: argparse.Namespace, checker: Checker) -> tuple[dict[str, float], bool]:
    """``--trace 1``: per-layer split from a profiled run, plus its checks."""
    from repro.broker.kafka_cluster import BrokerCluster
    from repro.netsim.protocols import RpcChannel
    from repro.simul.core import Environment
    from repro.simul.rng import RandomStreams

    points = workloads.build(args.workload, args.seed)
    plain = run_round(points, checker)  # also warms caches
    plain_wall = sum(sample.wall for sample in plain.values())
    plain_scaled = sum(sample.scaled for sample in plain.values())
    first, again = cProfile.Profile(), cProfile.Profile()
    profiled = run_round(points, checker, first)
    run_round(points, checker, again)
    stats = pstats.Stats(first).stats
    wall = sum(sample.wall for sample in profiled.values())
    # Every repetition matched the first result's digest, so the first
    # results stand for the profiled ones.
    results = list(checker.first.values())

    values: dict[str, float] = {}
    split = layers.split_self_time(stats)
    total = sum(split.values())
    for layer in layers.LAYERS:
        values[f"{layer}.self_s"] = split[layer]
        values[f"{layer}.share"] = split[layer] / total if total else 0.0

    events = layers.call_count(stats, Environment.schedule)
    completed = sum(r.completed for r in results)
    values["simul.events"] = events
    values["simul.events_per_batch"] = events / completed if completed else 0.0
    values["simul.ns_per_event"] = plain_scaled / events * 1e9 if events else 0.0
    values["simul.rng.keyed_draws"] = layers.call_count(
        stats, RandomStreams.keyed_lognormal_factor
    )
    values["simul.rng.self_s"] = layers.inclusive_time(
        stats, RandomStreams.keyed_lognormal_factor
    )
    values["broker.appends"] = layers.call_count(stats, BrokerCluster.append)
    values["broker.fetches"] = layers.call_count(
        stats, BrokerCluster.fetch
    ) + layers.call_count(stats, BrokerCluster.fetch_many)
    values["serving.requests"] = sum(r.inference_requests for r in results)
    values["netsim.rpc_round_trips"] = layers.call_count(
        stats, RpcChannel.round_trip_costs
    )
    values["tracing.spans"] = sum(
        r.trace.span_count for r in results if r.trace is not None
    )
    values["metrics.samples"] = sum(
        len(series)
        for r in results
        if r.telemetry is not None
        for series in r.telemetry.series().values()
    )
    values["core.batches_produced"] = sum(r.produced for r in results)
    values["core.batches_completed"] = completed

    accounted = total / wall if wall else 0.0
    repeats = layers.call_counts(stats) == layers.call_counts(pstats.Stats(again).stats)
    values["profile.wall_s"] = wall
    values["profile.overhead_ratio"] = wall / plain_wall if plain_wall else 0.0
    values["profile.accounted_share"] = accounted
    values["profile.counts_repeat"] = 1.0 if repeats else 0.0
    accounting_ok = abs(1.0 - accounted) <= ACCOUNTING_TOLERANCE
    print(
        f"profile accounting: layers sum to {total:.4f} s of {wall:.4f} s "
        f"profiled ({accounted:.2%}) -> {'ok' if accounting_ok else 'FAILED'}"
    )
    print(
        f"profile call counts repeat across two profiled runs -> "
        f"{'ok' if repeats else 'FAILED'}"
    )
    for name, unit in PER_LAYER:
        print(f"metric {name} = {values[name]:.6g} {unit}")
    return values, accounting_ok and repeats


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-event-ns", type=int, default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    sys.path.insert(0, str(SRC))
    # Neighbours slow each vCPU independently, so the reference slices
    # must time the CPU the simulation runs on: pin this process, and
    # the set-up probes that inherit its affinity, to one CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    checker = Checker(args.seed)
    if args.trace:
        values, checks_ok = profile(args, checker)
        units = dict(PER_LAYER)
    else:
        values, checks_ok = measure(args, checker), True
        units = dict(END_TO_END)
    summary = {
        "correct": checks_ok and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
