"""Split a cProfile run's self time across the simulator's layers.

A layer is the ``repro`` subpackage that owns the code (``sps`` and
``serving`` are split one level further), plus ``numpy`` and ``other``.
Self time of a C builtin (``list.append``, ``heapq.heappush``...) belongs
to the layer that called it, using the per-caller split cProfile keeps;
a builtin of NumPy's belongs to ``numpy``.
"""

from __future__ import annotations

import pathlib
import typing

LAYERS = (
    "simul",
    "broker",
    "core",
    "sps",
    "sps.flink",
    "sps.kafka_streams",
    "sps.spark",
    "sps.ray_actors",
    "serving",
    "serving.embedded",
    "serving.external",
    "netsim",
    "cluster",
    "tracing",
    "metrics",
    "nn",
    "numpy",
    "other",
)

_PLAIN = {"simul", "broker", "core", "netsim", "cluster", "tracing", "metrics", "nn"}
_SPLIT = {
    "sps": {"flink", "kafka_streams", "spark", "ray_actors"},
    "serving": {"embedded", "external"},
}

#: pstats key of a function: (filename, first line, name).
FuncKey = tuple[str, int, str]


def layer_of(filename: str) -> str:
    """The layer owning the code in ``filename``."""
    parts = pathlib.PurePath(filename).parts
    if "repro" in parts:
        last = max(i for i, part in enumerate(parts) if part == "repro")
        inner = parts[last + 1 :]
        if len(inner) < 2:
            return "other"  # config.py, calibration.py, errors.py, ...
        package = inner[0]
        if package in _PLAIN:
            return package
        if package in _SPLIT:
            if len(inner) > 2 and inner[1] in _SPLIT[package]:
                return f"{package}.{inner[1]}"
            return package
        return "other"  # matrix, store, faults, analysis: off the run path
    if "numpy" in parts:
        return "numpy"
    return "other"


def _is_builtin(key: FuncKey) -> bool:
    return key[0] == "~"


def _builtin_layer(key: FuncKey) -> str | None:
    return "numpy" if "numpy" in key[2] else None


def split_self_time(stats: dict) -> dict[str, float]:
    """Seconds of self time per layer from a ``pstats.Stats.stats`` dict."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for key, (_cc, _nc, tottime, _ct, callers) in stats.items():
        if not _is_builtin(key):
            totals[layer_of(key[0])] += tottime
            continue
        owner = _builtin_layer(key)
        if owner is not None or not callers:
            totals[owner or "other"] += tottime
            continue
        for caller, edge in callers.items():
            if _is_builtin(caller):
                layer = _builtin_layer(caller) or "other"
            else:
                layer = layer_of(caller[0])
            totals[layer] += edge[2]
    return totals


def key_of(function: typing.Callable) -> FuncKey:
    """The pstats key of a Python function."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def call_count(stats: dict, function: typing.Callable) -> int:
    """How many times the profiled run called ``function``."""
    entry = stats.get(key_of(function))
    return entry[1] if entry is not None else 0


def inclusive_time(stats: dict, function: typing.Callable) -> float:
    """Seconds spent inside ``function`` and everything it called."""
    entry = stats.get(key_of(function))
    return entry[3] if entry is not None else 0.0


def call_counts(stats: dict) -> dict[FuncKey, int]:
    """Every profiled function's call count, for the repeat check."""
    return {key: entry[1] for key, entry in stats.items()}
