"""Schedule-perturbation proof harness (``crayfish verify-order``).

Determinism (same inputs, same outputs) does not prove order
*independence*: results may be reproducible only because the scheduler
happens to resolve event ties the same way every run. This harness
attacks that directly, DPOR-lite: it re-runs an experiment under a
seeded :class:`~repro.simul.scheduler.PermutedScheduler` — which pops a
pseudo-random member of each ``(time, priority)`` tie class instead of
the lowest insertion sequence, while still respecting causality (an
event scheduled mid-tick only becomes poppable after its creator ran) —
and byte-diffs all serialized exports against the unperturbed baseline.

The unperturbed baseline runs twice first, so the harness also proves
plain determinism. Exports rather than in-memory objects are compared
because they are exactly the surface a reader of the paper's numbers
sees: the results JSON, the OpenMetrics exposition, the scraped metrics
timeline and the Chrome trace. Byte-identical exports across
permutations are a *proof* that no tie-order dependency reaches any
published surface. A diff is a CONFIRMED ordering hazard in the named
artifacts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import typing

from repro.analysis.sanitizer import determinism_sanitizer
from repro.config import ExperimentConfig, SPS_NAMES
from repro.core.results_io import result_to_dict
from repro.core.runner import ExperimentRunner
from repro.metrics.export import openmetrics_text, timeline_rows
from repro.simul.core import kernel_overrides
from repro.tracing.export import chrome_trace

#: Artifact names, in report order.
ARTIFACTS = ("results.json", "metrics.txt", "metrics.jsonl", "trace.json")


def run_fingerprints(
    config: ExperimentConfig, sanitize: bool = True
) -> dict[str, bytes]:
    """Execute one fully instrumented run and serialize its artifacts."""
    guard = determinism_sanitizer() if sanitize else contextlib.nullcontext()
    with guard:
        result = ExperimentRunner(config).run(trace=True, metrics=True)
    timeline = "\n".join(
        json.dumps(row, sort_keys=True) for row in timeline_rows(result.telemetry.scraper)
    )
    return {
        "results.json": json.dumps(
            result_to_dict(result), sort_keys=True
        ).encode(),
        "metrics.txt": openmetrics_text(result.telemetry.registry).encode(),
        "metrics.jsonl": timeline.encode(),
        "trace.json": json.dumps(
            chrome_trace(result.trace), sort_keys=True
        ).encode(),
    }


@dataclasses.dataclass(frozen=True)
class PermutationResult:
    """Byte-comparison of one perturbed run against the baseline."""

    seed: int
    #: Artifacts whose bytes differ from the unperturbed baseline.
    mismatched: tuple[str, ...]

    @property
    def identical(self) -> bool:
        return not self.mismatched


@dataclasses.dataclass(frozen=True)
class OrderVerdict:
    """Outcome of the perturbation proof for one engine."""

    sps: str
    #: sha256 of each baseline artifact (unperturbed heap order).
    baseline: tuple[tuple[str, str], ...]
    permutations: tuple[PermutationResult, ...]
    #: True when a second unperturbed run matched the first byte for byte.
    baseline_repeats: bool

    @property
    def identical(self) -> bool:
        return self.baseline_repeats and all(
            p.identical for p in self.permutations
        )

    @property
    def mismatched(self) -> tuple[str, ...]:
        out = []
        if not self.baseline_repeats:
            out.append("repeated baseline")
        for perm in self.permutations:
            for name in perm.mismatched:
                out.append(f"seed={perm.seed}: {name}")
        return tuple(out)


def _digest(artifacts: dict[str, bytes]) -> dict[str, str]:
    return {
        name: hashlib.sha256(artifacts[name]).hexdigest() for name in ARTIFACTS
    }


def verify_engine_order(
    config: ExperimentConfig,
    permutations: int = 3,
    sanitize: bool = True,
) -> OrderVerdict:
    """Perturbation-proof one engine config.

    Runs the unperturbed baseline twice (the repeat must already match:
    that is plain determinism), then ``permutations`` seeded
    tie-permutation runs, each byte-compared to the baseline.
    """
    if permutations < 1:
        raise ValueError(f"permutations must be >= 1, got {permutations}")
    reference = run_fingerprints(config, sanitize=sanitize)
    baseline_repeats = run_fingerprints(config, sanitize=sanitize) == reference
    results: list[PermutationResult] = []
    for seed in range(1, permutations + 1):
        with kernel_overrides(perturb_seed=seed):
            perturbed = run_fingerprints(config, sanitize=sanitize)
        mismatched = tuple(
            name for name in ARTIFACTS if perturbed[name] != reference[name]
        )
        results.append(PermutationResult(seed=seed, mismatched=mismatched))
    digests = tuple(sorted(_digest(reference).items()))
    return OrderVerdict(
        sps=config.sps,
        baseline=digests,
        permutations=tuple(results),
        baseline_repeats=baseline_repeats,
    )


def verify_order(
    base: ExperimentConfig,
    engines: typing.Sequence[str] = SPS_NAMES,
    permutations: int = 3,
    sanitize: bool = True,
) -> list[OrderVerdict]:
    """The full gate: the perturbation proof for each requested engine."""
    verdicts = []
    for sps in engines:
        config = dataclasses.replace(base, sps=sps)
        verdicts.append(
            verify_engine_order(
                config, permutations=permutations, sanitize=sanitize
            )
        )
    return verdicts
