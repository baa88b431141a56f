"""CLI coverage for ``crayfish cluster`` and the scale-out presets."""

import pytest

from repro.cli import main


def test_cluster_run_command(capsys):
    code = main(
        [
            "cluster", "run", "--nodes", "2", "--ir", "50",
            "--duration", "1", "--placement",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "flink/onnx/ffnn@2n" in out
    assert "throughput" in out
    assert "node-0" in out and "node-1" in out


def test_cluster_run_population(capsys):
    code = main(
        [
            "cluster", "run", "--nodes", "2", "--duration", "1",
            "--users", "5000", "--events-per-user-per-day", "864",
            "--diurnal-period", "20",
            "--flash-crowd", "0.2:0.2:3",
        ]
    )
    assert code == 0
    assert "throughput" in capsys.readouterr().out


def test_cluster_run_rejects_bad_flash_crowd(capsys):
    code = main(
        [
            "cluster", "run", "--nodes", "1", "--duration", "1",
            "--users", "10", "--flash-crowd", "nope",
        ]
    )
    assert code == 2
    assert "AT:DURATION:MULTIPLIER" in capsys.readouterr().err


def test_cluster_run_friendly_config_error(capsys):
    code = main(
        [
            "cluster", "run", "--nodes", "2", "--duration", "1",
            "--tasks-per-node", "4", "--partitions", "4",
        ]
    )
    assert code == 2
    assert "partitions" in capsys.readouterr().err


def test_cluster_capacity_search_command(capsys):
    code = main(
        [
            "cluster", "capacity-search",
            "--node-counts", "1,2", "--mp", "1",
            "--duration", "0.5", "--seeds", "0",
            "--start-rate", "200", "--tolerance", "0.4",
            "--max-probes", "5", "--slo-p95", "0.5",
            "--no-cache", "--verbose",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "sustainable" in out
    assert "probe" in out
    assert "monotonically" in out


def test_matrix_accepts_scaleout_preset(capsys):
    code = main(
        [
            "matrix", "--preset", "scaleout", "--duration", "0.25",
            "--seeds", "0", "--no-cache",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "matrix preset 'scaleout'" in out
    assert "1n" in out and "3n" in out


def test_verify_order_clustered(capsys):
    code = main(
        [
            "verify-order", "--sps", "flink", "--nodes", "2",
            "--permutations", "1", "--ir", "50", "--duration", "1",
        ]
    )
    assert code == 0
    assert "order-independent" in capsys.readouterr().out


def test_cluster_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["cluster"])
