"""Golden pin of the producer → broker-append → SPS-sink hot path.

``verify-order`` proves tie-order independence for paced runs at mp=1
only; saturating runs and runs at mp>=2 are tie-order sensitive, so a
change that reorders a single event there moves their results. This
file pins exactly those runs, so a hot-path change that claims to be
bit-identical is checked byte for byte:

- one short saturating Kafka run per engine (onnx, ffnn, mp=8): every
  aggregate of its result record plus a digest of its latency and
  backlog series;
- one traced 2-node tf_serving run: its sorted span list (name, attrs,
  start, end), which fixes every broker/serving span boundary and the
  node each one is attributed to.

Bless deliberate changes with::

    PYTHONPATH=src python -m pytest tests/core/test_golden_hotpath.py --update-golden
"""

import hashlib
import json
import math
import pathlib

import pytest

from repro.cluster.spec import ClusterSpec
from repro.config import SPS_NAMES, ExperimentConfig
from repro.core.results_io import result_record
from repro.core.runner import ExperimentRunner

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "golden"
    / "hotpath_golden.json"
)

#: Simulated seconds per saturating point: Spark needs ~0.5 s before its
#: first micro-batches complete; the others complete hundreds by 0.3 s.
DURATIONS = {"flink": 0.4, "kafka_streams": 0.3, "spark_ss": 0.6, "ray": 0.6}

SATURATING = ExperimentConfig(
    sps="flink", serving="onnx", model="ffnn", mp=8, seed=3, duration=0.4
)

TRACED = ExperimentConfig(
    sps="flink",
    serving="tf_serving",
    model="ffnn",
    mp=2,
    ir=50.0,
    duration=0.5,
    cluster=ClusterSpec(nodes=2),
)

AGGREGATES = (
    "throughput",
    "latency",
    "completed",
    "produced",
    "duplicates",
    "inference_requests",
    "measure_start",
    "measure_end",
)


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _saturating_record(sps: str) -> dict:
    config = SATURATING.replace(sps=sps, duration=DURATIONS[sps])
    record = result_record(ExperimentRunner(config).run())
    pinned = {key: record[key] for key in AGGREGATES}
    pinned["series_sha256"] = _digest(record["series"])
    pinned["backlog_series_sha256"] = _digest(record["backlog_series"])
    return pinned


def _span_rows() -> list:
    tracer = ExperimentRunner(TRACED).run(trace=True).trace
    rows = [
        [span.name, sorted(span.attrs.items()), span.start, span.end]
        for trace_id in tracer.trace_ids()
        for span in tracer.spans(trace_id)
    ]
    rows.sort(
        key=lambda row: (
            row[2],
            math.inf if row[3] is None else row[3],
            row[0],
            json.dumps(row[1]),
        )
    )
    return rows


def measure() -> dict:
    return {
        "saturating": {
            "base": SATURATING.canonical_dict(),
            "durations": DURATIONS,
            "runs": {sps: _saturating_record(sps) for sps in SPS_NAMES},
        },
        "traced": {"config": TRACED.canonical_dict(), "spans": _span_rows()},
    }


def canonical_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_golden_hotpath(update_golden):
    current = json.loads(canonical_text(measure()))
    if update_golden:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(canonical_text(current))
        pytest.skip(f"golden results refreshed at {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH}; generate it with pytest --update-golden"
    )
    stored = json.loads(GOLDEN_PATH.read_text())
    assert stored["saturating"]["base"] == current["saturating"]["base"], (
        "golden base config drifted; refresh with --update-golden"
    )
    for sps, expected in stored["saturating"]["runs"].items():
        assert current["saturating"]["runs"][sps] == expected, (
            f"saturating {sps} run changed: expected {expected}, got "
            f"{current['saturating']['runs'][sps]} — if intentional, "
            "re-bless with --update-golden"
        )
    assert stored["traced"]["config"] == current["traced"]["config"]
    expected_spans = stored["traced"]["spans"]
    actual_spans = current["traced"]["spans"]
    assert len(actual_spans) == len(expected_spans)
    for expected, actual in zip(expected_spans, actual_spans):
        assert actual == expected, f"span changed: {expected} -> {actual}"
    assert canonical_text(stored) == canonical_text(current)
