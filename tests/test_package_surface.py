"""Public-API surface checks: imports, __all__, and version metadata."""

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.calibration",
    "repro.config",
    "repro.errors",
    "repro.simul",
    "repro.netsim",
    "repro.broker",
    "repro.nn",
    "repro.nn.zoo",
    "repro.nn.formats",
    "repro.nn.gnn",
    "repro.serving",
    "repro.serving.state",
    "repro.serving.embedded",
    "repro.serving.external",
    "repro.serving.external.autoscaler",
    "repro.serving.external.batching",
    "repro.serving.external.multi_model",
    "repro.sps",
    "repro.sps.gateways",
    "repro.sps.flink.fault_tolerance",
    "repro.faults",
    "repro.faults.plan",
    "repro.faults.summary",
    "repro.faults.resilience",
    "repro.faults.injectors",
    "repro.faults.recovery",
    "repro.faults.report",
    "repro.core",
    "repro.core.runner",
    "repro.core.sweep",
    "repro.matrix",
    "repro.matrix.engine",
    "repro.matrix.cache",
    "repro.matrix.fingerprint",
    "repro.matrix.presets",
    "repro.store",
    "repro.store.db",
    "repro.store.migrations",
    "repro.store.record",
    "repro.store.queries",
    "repro.store.report",
    "repro.store.importers",
    "repro.core.scenarios",
    "repro.core.analyzer",
    "repro.core.dataset",
    "repro.core.results_io",
    "repro.core.validation",
    "repro.core.probe",
    "repro.core.ascii_chart",
    "repro.analysis",
    "repro.analysis.core",
    "repro.analysis.pragmas",
    "repro.analysis.rules",
    "repro.analysis.report",
    "repro.analysis.sanitizer",
    "repro.analysis.order",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_cleanly(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} has no module docstring"


@pytest.mark.parametrize(
    "module_name",
    ["repro", "repro.simul", "repro.netsim", "repro.broker", "repro.nn",
     "repro.nn.zoo", "repro.nn.formats", "repro.serving", "repro.sps",
     "repro.core", "repro.store"],
)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{module_name}.{name}"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_import_order_is_cycle_free():
    """Importing the engine layer before the framework layer must work
    (regression for the repro.sps <-> repro.core import cycle)."""
    import subprocess
    import sys

    code = "import repro.sps; import repro.core; import repro.nn; print('ok')"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_top_level_lazy_exports():
    import repro

    assert repro.ExperimentConfig is not None
    assert repro.run_experiment is not None
    with pytest.raises(AttributeError):
        __ = repro.not_a_thing
    with pytest.raises(AttributeError):
        __ = importlib.import_module("repro.core").not_a_thing
