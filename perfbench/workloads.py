"""The benchmark's workloads: which simulation points each one runs.

A workload is a fixed panel of points, one per stream processor, run one
after another in a single process (a closed loop with one client). Every
point uses the ``ffnn`` model, so the simulator's per-batch overhead, not
model arithmetic, dominates host time. Simulated durations differ per
engine because host time per simulated second differs by about 10x
across engines; each is sized so that one point takes roughly a third
of a host second on a 2-CPU x86 host, so that one run holds many rounds
and their medians repeat within the benchmark's bounds. Spark's
saturating point is longer because its first micro-batches complete
only after about half a simulated second.

Nothing here imports :mod:`repro` at module level: the configs are built
inside :func:`build`, so constructing them counts as set-up time.
"""

from __future__ import annotations

import dataclasses
import typing

ENGINES = ("flink", "kafka_streams", "spark_ss", "ray")

#: Sustainable throughput (events per simulated second) of each engine in
#: the standalone no-broker pipeline: ``ExperimentConfig(sps=<engine>,
#: serving="onnx", mp=1, use_broker=False, duration=6.0, seed=0)``, run
#: saturating, reading ``result.throughput``. Pinned as constants so the
#: burst schedule, an input of this workload, does not move when the
#: simulated model moves.
BURST_RATES = {
    "flink": 1823.1,
    "kafka_streams": 3516.2,
    "spark_ss": 20174.7,
    "ray": 141.3,
}

#: Paced input rate (events/s) of ``external-2n-observed``: below the
#: saturating capacity of every engine there (Ray, the slowest, sustains
#: about 675 events/s with tf_serving on 2 nodes at mp=4).
OBSERVED_RATE = 500.0

#: Burst duration and time between bursts (simulated seconds) of
#: ``bursts-direct``; short enough that every point sees a full cycle.
BURST_BD = 0.25
BURST_TBB = 0.5

#: Simulated duration of each engine's point, per workload.
DURATIONS = {
    "saturate-embedded": {
        "flink": 0.4, "kafka_streams": 0.3, "spark_ss": 0.6, "ray": 1.5,
    },
    "external-2n-observed": {
        "flink": 2.0, "kafka_streams": 2.0, "spark_ss": 3.0, "ray": 2.0,
    },
    "bursts-direct": {
        "flink": 3.0, "kafka_streams": 1.5, "spark_ss": 1.0, "ray": 20.0,
    },
}

#: Why each workload exists, one line each (also in BENCHMARK.json).
WHY = {
    "saturate-embedded": (
        "sustainable throughput over Kafka with onnx at mp=8: widest event "
        "queues and heaviest broker traffic, so kernel/broker/engine changes show"
    ),
    "external-2n-observed": (
        "paced latency run over tf_serving on a 2-node cluster with tracing "
        "and metrics on: the only one exercising serving.external, netsim, cluster"
    ),
    "bursts-direct": (
        "periodic bursts at 110%/70% of pinned rates without a broker at mp=1: "
        "narrow queue, growing and draining backlog; a broker change shows no change"
    ),
}

WORKLOAD_NAMES = tuple(DURATIONS)


@dataclasses.dataclass(frozen=True)
class Point:
    """One simulation point: a config plus the runner's run() options."""

    engine: str
    config: typing.Any
    observed: bool = False

    def run(self) -> typing.Any:
        from repro.core.runner import ExperimentRunner

        runner = ExperimentRunner(self.config)
        if self.observed:
            return runner.run(trace=True, metrics=True)
        return runner.run()


def build(workload: str, seed: int) -> tuple[Point, ...]:
    """The workload's points, in run order, with ``seed`` as config seed."""
    from repro.cluster.spec import ClusterSpec
    from repro.config import ExperimentConfig, WorkloadKind

    durations = DURATIONS[workload]
    points = []
    for engine in ENGINES:
        common = dict(sps=engine, model="ffnn", seed=seed, duration=durations[engine])
        if workload == "saturate-embedded":
            config = ExperimentConfig(serving="onnx", mp=8, **common)
        elif workload == "external-2n-observed":
            config = ExperimentConfig(
                serving="tf_serving",
                mp=4,
                ir=OBSERVED_RATE,
                cluster=ClusterSpec(nodes=2),
                **common,
            )
        else:
            config = ExperimentConfig(
                serving="onnx",
                mp=1,
                use_broker=False,
                workload=WorkloadKind.PERIODIC_BURSTS,
                ir=BURST_RATES[engine],
                bd=BURST_BD,
                tbb=BURST_TBB,
                **common,
            )
        points.append(
            Point(engine, config, observed=workload == "external-2n-observed")
        )
    return tuple(points)
