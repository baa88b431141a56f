"""Tests of the benchmark harness itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The unit tests are fast. The end-to-end tests run the benchmark command
(each about 20-30 s on a 2-CPU host): every workload must report every
end-to-end metric with its unit, the profiled run must account for its
wall time, and an injected per-event slowdown must cross the bounds.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import subprocess
import sys
import types

import pytest

import layers
import run
import workloads

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Busy host time added per kernel event by the gate self-test. On
#: ``bursts-direct`` a kernel event costs the simulator about 4 us, so
#: this adds about half again to its host time.
INJECTED_NS = 3000


@pytest.mark.parametrize(
    "filename, layer",
    [
        ("/x/src/repro/simul/core.py", "simul"),
        ("/x/src/repro/broker/kafka_cluster.py", "broker"),
        ("/x/src/repro/core/runner.py", "core"),
        ("/x/src/repro/sps/api.py", "sps"),
        ("/x/src/repro/sps/gateways.py", "sps"),
        ("/x/src/repro/sps/flink/engine.py", "sps.flink"),
        ("/x/src/repro/sps/kafka_streams/engine.py", "sps.kafka_streams"),
        ("/x/src/repro/sps/spark/engine.py", "sps.spark"),
        ("/x/src/repro/sps/ray_actors/engine.py", "sps.ray_actors"),
        ("/x/src/repro/serving/base.py", "serving"),
        ("/x/src/repro/serving/costs.py", "serving"),
        ("/x/src/repro/serving/embedded/library.py", "serving.embedded"),
        ("/x/src/repro/serving/external/server.py", "serving.external"),
        ("/x/src/repro/netsim/protocols.py", "netsim"),
        ("/x/src/repro/cluster/serving.py", "cluster"),
        ("/x/src/repro/tracing/spans.py", "tracing"),
        ("/x/src/repro/metrics/registry.py", "metrics"),
        ("/x/src/repro/nn/zoo/ffnn.py", "nn"),
        ("/x/src/repro/config.py", "other"),
        ("/x/src/repro/store/db.py", "other"),
        ("/x/src/repro/faults/resilience.py", "other"),
        ("/repro/src/repro/simul/rng.py", "simul"),
        ("/usr/lib/python3/site-packages/numpy/random/_pickle.py", "numpy"),
        ("/usr/lib/python3.11/dataclasses.py", "other"),
        ("<frozen importlib._bootstrap>", "other"),
        ("perfbench/run.py", "other"),
    ],
)
def test_layer_of(filename, layer):
    assert layer in layers.LAYERS
    assert layers.layer_of(filename) == layer


def test_split_self_time_charges_builtins_to_their_callers():
    simul = ("/x/repro/simul/core.py", 10, "step")
    broker = ("/x/repro/broker/partition.py", 5, "append")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    draw = ("~", 0, "<method 'lognormal' of 'numpy.random._generator.Generator' objects>")
    stats = {
        simul: (1, 1, 2.0, 5.0, {}),
        broker: (1, 1, 1.0, 1.5, {}),
        push: (3, 3, 0.75, 0.75, {simul: (2, 2, 0.5, 0.5), broker: (1, 1, 0.25, 0.25)}),
        draw: (1, 1, 0.5, 0.5, {simul: (1, 1, 0.5, 0.5)}),
    }
    split = layers.split_self_time(stats)
    assert split["simul"] == 2.5
    assert split["broker"] == 1.25
    assert split["numpy"] == 0.5
    assert math.isclose(sum(split.values()), sum(e[2] for e in stats.values()))


def test_metric_and_workload_names_follow_the_rule():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
    assert not NAME.fullmatch("wall s") and not NAME.fullmatch(".hidden")


def test_benchmark_json_matches_the_harness():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, workloads.WHY[name]) for name in workloads.WORKLOAD_NAMES
    ]
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _result(**changes):
    latency = types.SimpleNamespace(mean=0.1, p50=0.1, p95=0.2, p99=0.3, maximum=0.4)
    fields = dict(throughput=100.0, latency=latency, completed=10, produced=12)
    fields.update(changes)
    return types.SimpleNamespace(**fields)


def test_classify_accepts_a_valid_result():
    assert run.classify(_result()) == []


@pytest.mark.parametrize(
    "changes, reason",
    [
        (dict(throughput=math.nan), "non-finite throughput"),
        (dict(throughput=math.inf), "non-finite throughput"),
        (dict(completed=0), "completed no batches"),
        (dict(completed=13), "completed 13 > produced 12"),
        (
            dict(latency=types.SimpleNamespace(
                mean=math.nan, p50=math.nan, p95=math.nan, p99=math.nan, maximum=math.nan
            )),
            "non-finite latency.p99",
        ),
    ],
)
def test_classify_flags_invalid_results(changes, reason):
    reasons = run.classify(_result(**changes))
    assert any(reason in r for r in reasons), reasons


# -- end to end: these run the benchmark command -------------------------


def _bench(workload, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", *extra],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    digests = [l.split("digest=")[1] for l in lines if l.startswith("point ")]
    return json.loads(lines[-1]), digests


_runs: dict = {}


def _cached(workload, *extra):
    key = (workload, *extra)
    if key not in _runs:
        _runs[key] = _bench(workload, *extra)
    return _runs[key]


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_every_workload_reports_every_end_to_end_metric(workload):
    summary, digests = _cached(workload, "--trace", "0")
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 4 * len(workloads.ENGINES)
    assert len(digests) == len(workloads.ENGINES)
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == dict(
        run.END_TO_END
    )
    for name, metric in summary["metrics"].items():
        assert metric["value"] > 0, name


def test_profiled_run_accounts_for_its_wall_time():
    summary, _ = _cached("external-2n-observed", "--trace", "1")
    assert summary["correct"] and summary["failed"] == 0
    metrics = {name: m["value"] for name, m in summary["metrics"].items()}
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == dict(
        run.PER_LAYER
    )
    assert abs(1 - metrics["profile.accounted_share"]) <= run.ACCOUNTING_TOLERANCE
    assert metrics["profile.counts_repeat"] == 1.0
    assert metrics["profile.overhead_ratio"] > 1.0
    assert math.isclose(sum(metrics[f"{l}.share"] for l in layers.LAYERS), 1.0)
    for name in ("tracing.spans", "metrics.samples", "netsim.rpc_round_trips",
                 "serving.requests", "broker.appends", "simul.rng.keyed_draws"):
        assert metrics[name] > 0, name


def test_injected_event_cost_crosses_the_bounds():
    base, base_digests = _cached("bursts-direct", "--trace", "0")
    slow, slow_digests = _bench(
        "bursts-direct", "--trace", "0", "--inject-event-ns", str(INJECTED_NS)
    )
    assert slow["correct"] and slow_digests == base_digests
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for name in ("wall_s", "host_us_per_batch"):
        worse = slow["metrics"][name]["value"] / base["metrics"][name]["value"] - 1
        assert worse > bounds[name], (name, worse, bounds[name])
