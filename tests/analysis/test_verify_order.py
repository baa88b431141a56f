"""Schedule-perturbation proof harness: tie-order independence per engine."""

import dataclasses

import pytest

from repro.analysis.order import verify_engine_order, verify_order
from repro.cluster.spec import ClusterSpec
from repro.config import SPS_NAMES, ExperimentConfig

SMALL = ExperimentConfig(
    sps="flink", serving="onnx", model="ffnn", ir=30.0, duration=0.6
)


@pytest.mark.parametrize("sps", SPS_NAMES)
def test_engine_order_independent_on_both_backends(sps):
    """Both pop paths: the plain heap pop, run twice, must repeat byte
    for byte, and the seeded permuted pop must not move a single export
    byte away from it."""
    verdict = verify_engine_order(
        dataclasses.replace(SMALL, sps=sps),
        permutations=2,
        sanitize=False,
    )
    assert verdict.baseline_repeats
    assert verdict.identical, f"{sps} order-dependent: {verdict.mismatched}"
    assert [p.seed for p in verdict.permutations] == [1, 2]


def test_clustered_two_nodes_order_independent():
    config = dataclasses.replace(
        SMALL,
        sps="kafka_streams",
        duration=0.5,
        cluster=ClusterSpec(nodes=2),
        use_broker=True,
        partitions=32,
    )
    verdict = verify_engine_order(config, permutations=2, sanitize=False)
    assert verdict.identical, f"clustered mismatch: {verdict.mismatched}"


def test_direct_pipeline_order_independent():
    """The broker-less pipeline: the producer's deliveries are spawned
    processes that return without ever yielding."""
    verdicts = verify_order(
        dataclasses.replace(SMALL, duration=0.4, use_broker=False),
        engines=SPS_NAMES,
        permutations=1,
        sanitize=False,
    )
    assert [v.sps for v in verdicts] == list(SPS_NAMES)
    for verdict in verdicts:
        assert verdict.baseline_repeats
        assert verdict.identical, f"{verdict.sps} order-dependent: {verdict.mismatched}"


def test_verify_order_covers_requested_engines():
    verdicts = verify_order(
        dataclasses.replace(SMALL, duration=0.4),
        engines=("flink", "ray"),
        permutations=1,
        sanitize=False,
    )
    assert [v.sps for v in verdicts] == ["flink", "ray"]
    assert all(v.identical for v in verdicts)


def test_verdict_reports_baseline_digests():
    verdict = verify_engine_order(
        dataclasses.replace(SMALL, duration=0.4),
        permutations=1,
        sanitize=False,
    )
    names = [name for name, __ in verdict.baseline]
    assert "results.json" in names
    assert all(len(digest) == 64 for __, digest in verdict.baseline)


def test_permutation_seed_zero_rejected():
    with pytest.raises(ValueError):
        verify_engine_order(SMALL, permutations=0)
