"""Command-line interface: run single experiments or scenario presets.

Examples::

    crayfish run --sps flink --serving onnx --model ffnn
    crayfish run --sps kafka_streams --serving tf_serving --mp 8
    crayfish latency --sps flink --serving onnx --bsz 128
    crayfish bursts --sps flink --serving onnx
    crayfish list
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
import typing

from repro import calibration  # noqa: F401 - ensures constants import cleanly
from repro.config import (
    ExperimentConfig,
    MODEL_NAMES,
    SERVING_TOOLS,
    SPS_NAMES,
    WorkloadKind,
)
from repro.core.report import format_ms, format_rate, format_table
from repro.core.runner import run_experiment
from repro.core.scenarios import (
    measure_closed_loop_latency,
    measure_sustainable_throughput,
    run_burst_scenario,
)


def _add_sut_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sps", default="flink", choices=SPS_NAMES)
    parser.add_argument("--serving", default="onnx", choices=SERVING_TOOLS)
    parser.add_argument("--model", default="ffnn", choices=MODEL_NAMES)
    parser.add_argument("--bsz", type=int, default=1, help="points per event")
    parser.add_argument("--mp", type=int, default=1, help="inference workers")
    parser.add_argument("--gpu", action="store_true", help="enable the GPU model")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=5.0, help="simulated seconds")
    parser.add_argument(
        "--async-io", type=int, default=0, dest="async_io",
        help="Flink async I/O in-flight window for external calls (0=blocking)",
    )
    parser.add_argument(
        "--server-workers", type=int, default=None, dest="server_workers",
        help="external server workers (default: = mp)",
    )
    parser.add_argument(
        "--json", default=None, dest="json_path",
        help="also write the result(s) as JSON to this path",
    )


def _config_from(args: argparse.Namespace, **extra: typing.Any) -> ExperimentConfig:
    return ExperimentConfig(
        sps=args.sps,
        serving=args.serving,
        model=args.model,
        bsz=args.bsz,
        mp=args.mp,
        gpu=args.gpu,
        seed=args.seed,
        duration=args.duration,
        async_io=args.async_io,
        server_workers=args.server_workers,
        **extra,
    )


def _export_artifact(
    path: str | None,
    writer: typing.Callable[[str], typing.Any],
    label: str,
    note: str = "",
) -> None:
    """Write one export artifact and report where it landed.

    Shared by ``crayfish trace`` and ``crayfish metrics``: ensures the
    output's parent directory exists, invokes ``writer(path)``, and
    prints a uniform "written to" line. ``path=None`` skips the export
    (an optional artifact the user did not ask for).
    """
    if path is None:
        return
    target = pathlib.Path(path)
    if str(target.parent) not in ("", "."):
        target.parent.mkdir(parents=True, exist_ok=True)
    writer(str(target))
    suffix = f" {note}" if note else ""
    print(f"{label} written to {target}{suffix}")


def _maybe_dump(args: argparse.Namespace, results) -> None:
    if getattr(args, "json_path", None):
        from repro.core.results_io import save_results

        save_results(results, args.json_path)
        print(f"results written to {args.json_path}")


def _cmd_run(args: argparse.Namespace) -> int:
    import contextlib

    config = _config_from(args, ir=args.ir)
    with contextlib.ExitStack() as stack:
        if args.sanitize:
            from repro.analysis.sanitizer import determinism_sanitizer

            stack.enter_context(determinism_sanitizer())
        result = run_experiment(config)
    rows = [
        ("throughput (events/s)", format_rate(result.throughput)),
        ("mean latency (ms)", format_ms(result.latency.mean)),
        ("p95 latency (ms)", format_ms(result.latency.p95)),
        ("completed batches", result.completed),
    ]
    print(format_table(["metric", "value"], rows, title=config.label()))
    _maybe_dump(args, [result])
    # Recording happens dead last — after the simulation and every
    # export — so the sanitizer and determinism checks never see it.
    _record_results(_open_store(args), [result], kind="run")
    return 0


def _add_matrix_exec_args(parser: argparse.ArgumentParser) -> None:
    """Worker-pool and result-cache knobs shared by sweep/matrix."""
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes to fan grid points x seeds across",
    )
    parser.add_argument(
        "--cache-dir", default=".crayfish-cache", dest="cache_dir",
        help="content-addressed result cache directory",
    )
    parser.add_argument(
        "--no-cache", action="store_true", dest="no_cache",
        help="bypass the result cache entirely",
    )


def _open_cache(args: argparse.Namespace):
    """The result cache selected by ``--cache-dir`` / ``--no-cache``."""
    if getattr(args, "no_cache", False) or not getattr(args, "cache_dir", None):
        return None
    from repro.matrix import ResultCache

    return ResultCache(args.cache_dir)


def _add_store_args(parser: argparse.ArgumentParser) -> None:
    """Results-database recording knob shared by run-producing commands."""
    parser.add_argument(
        "--store", default=None, dest="store_path", metavar="DB",
        help="record results into this SQLite results database "
        "(default: $CRAYFISH_STORE when set; recording stays off otherwise)",
    )


def _open_store(args: argparse.Namespace):
    """The results store selected by ``--store`` / CRAYFISH_STORE, or None.

    Recording is strictly opt-in: with neither the flag nor the
    environment variable set this returns None, and every export stays
    byte-identical to a build without the store subsystem.
    """
    from repro.store import open_store

    path = getattr(args, "store_path", None) or os.environ.get(
        "CRAYFISH_STORE"
    )
    return open_store(path)


def _record_results(store, results, kind: str, label: str | None = None) -> None:
    """Record finished results and say where they went; closes the store."""
    if store is None:
        return
    with store:
        for result in results:
            store.record_result(result, kind=kind, label=label)
    noun = "run" if len(results) == 1 else "runs"
    print(f"recorded {len(results)} {noun} into {store.path}")


def _add_db_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db", default=None,
        help="results database path "
        "(default: $CRAYFISH_STORE or .crayfish-store.sqlite)",
    )


def _db_path(args: argparse.Namespace) -> str:
    from repro.store import DEFAULT_STORE_PATH

    return (
        args.db or os.environ.get("CRAYFISH_STORE") or DEFAULT_STORE_PATH
    )


def _require_db(args: argparse.Namespace) -> str | None:
    """The query commands need an existing database; None + error if absent."""
    path = _db_path(args)
    if not os.path.exists(path):
        print(
            f"error: no results database at {path} — record runs with "
            "--store or backfill one with `crayfish store import`",
            file=sys.stderr,
        )
        return None
    return path


def _add_filter_args(parser: argparse.ArgumentParser) -> None:
    """Row filters shared by ``history``/``trend``/``pareto``."""
    _add_db_arg(parser)
    parser.add_argument("--sps", default=None, choices=SPS_NAMES)
    parser.add_argument("--serving", default=None, choices=SERVING_TOOLS)
    parser.add_argument("--model", default=None, choices=MODEL_NAMES)
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument(
        "--kind", default=None,
        help="run kind: run, sweep, matrix, capacity, chaos, bench, golden",
    )
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable JSON output instead of the table",
    )


def _history_filter(args: argparse.Namespace):
    from repro.store import HistoryFilter

    return HistoryFilter(
        sps=args.sps,
        serving=args.serving,
        model=args.model,
        nodes=args.nodes,
        kind=args.kind,
        limit=args.limit,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.sweep import sweep
    from repro.errors import ConfigError

    base = _config_from(args, ir=args.ir)
    values = [int(v) for v in args.values.split(",")]
    rows = []

    def progress(overrides, results):
        rows.append(
            (
                overrides[args.field],
                format_rate(sum(r.throughput for r in results) / len(results)),
                format_ms(sum(r.latency.mean for r in results) / len(results)),
            )
        )

    cache = _open_cache(args)
    store = _open_store(args)
    try:
        points = sweep(
            base,
            grid={args.field: values},
            seeds=(args.seed, args.seed + 1),
            hook=progress,
            jobs=args.jobs,
            cache=cache,
            store=store,
        )
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if store is not None:
            store.close()
    print(
        format_table(
            [args.field, "events/s", "mean latency (ms)"],
            rows,
            title=f"{base.label()} sweep over {args.field}",
        )
    )
    if cache is not None:
        print(f"cache {args.cache_dir}: {cache.stats.summary()}")
    if store is not None:
        print(f"recorded sweep into {store.path}")
    _maybe_dump(args, [r for point in points for r in point.results])
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.core.results_io import (
        save_records_jsonl,
        save_results_csv,
        save_run_meta,
    )
    from repro.errors import ConfigError
    from repro.matrix import (
        format_matrix_table,
        grid_points,
        matrix_meta,
        preset,
        preset_names,
        run_matrix,
    )

    if args.list_presets:
        for name in preset_names():
            spec = preset(name)
            print(
                f"{name}: {spec.description} "
                f"[{spec.task_count} tasks, seeds {spec.seeds}]"
            )
        return 0
    spec = preset(args.preset)
    base = spec.base
    if args.duration is not None:
        base = base.replace(duration=args.duration)
    seeds = (
        spec.seeds
        if args.seeds is None
        else tuple(int(s) for s in args.seeds.split(","))
    )
    cache = _open_cache(args)
    total = len(grid_points(spec.grid))
    emitted = []

    def progress(overrides, results):
        emitted.append(overrides)
        label = (
            " ".join(f"{key}={overrides[key]}" for key in sorted(overrides))
            or base.label()
        )
        throughput = sum(r.throughput for r in results) / len(results)
        latency = sum(r.latency.mean for r in results) / len(results)
        print(
            f"  [{len(emitted)}/{total}] {label}: "
            f"{format_rate(throughput)} events/s, "
            f"{format_ms(latency)} ms mean latency"
        )

    store = _open_store(args)
    try:
        report = run_matrix(
            base,
            spec.grid,
            seeds=seeds,
            jobs=args.jobs,
            cache=cache,
            hook=progress,
            store=store,
            store_kind="matrix",
        )
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if store is not None:
            store.close()
    print()
    print(
        format_matrix_table(
            report, spec.grid, title=f"matrix preset {spec.name!r}"
        )
    )
    from_cache = report.tasks - report.executed
    print(
        f"tasks: {report.tasks} total, {report.executed} executed, "
        f"{from_cache} from cache (jobs={args.jobs})"
    )
    if cache is not None:
        print(
            f"cache {args.cache_dir}: {cache.stats.summary()} "
            f"[code fingerprint {cache.fingerprint}]"
        )
    if store is not None:
        print(f"recorded matrix into {store.path}")
    _export_artifact(
        args.jsonl,
        lambda p: save_records_jsonl(report.records, p),
        "result records JSONL",
    )
    if args.jsonl:
        # Execution metadata (incl. cache hit/miss/invalidation stats)
        # rides in a sidecar: the record lines must stay byte-identical
        # between cold and warm runs, the cache traffic cannot.
        sidecar = save_run_meta(args.jsonl, matrix_meta(report, spec.grid))
        print(f"matrix metadata written to {sidecar}")
    _export_artifact(
        args.csv,
        lambda p: save_results_csv(report.results, p),
        "result CSV",
    )
    _maybe_dump(args, report.results)
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    config = _config_from(args, ir=args.ir, workload=WorkloadKind.CLOSED_LOOP)
    aggregate, __ = measure_closed_loop_latency(config, seeds=(args.seed, args.seed + 1))
    print(
        f"{config.label()}  bsz={config.bsz}: "
        f"{format_ms(aggregate.mean)} ms/batch (std {format_ms(aggregate.std)})"
    )
    return 0


def _cmd_bursts(args: argparse.Namespace) -> int:
    config = _config_from(args, bd=args.bd, tbb=args.tbb)
    st = measure_sustainable_throughput(config, seeds=(args.seed,)).mean
    outcome = run_burst_scenario(config, st, bursts=args.bursts, seed=args.seed)
    print(f"{config.label()}: sustainable throughput {format_rate(st)} events/s")
    for i, report in enumerate(outcome.reports):
        recovered = (
            f"{report.recovery_time:.2f}s"
            if report.recovery_time is not None
            else "not recovered"
        )
        print(
            f"  burst {i + 1} @ {report.burst_start:.0f}s: recovery {recovered}, "
            f"peak latency {format_ms(report.peak_latency)} ms"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.report import format_breakdown
    from repro.core.runner import ExperimentRunner
    from repro.tracing.analysis import bottleneck_ranking
    from repro.tracing.export import save_chrome_trace, save_spans_csv
    from repro.tracing.spans import TraceOptions

    config = _config_from(args, ir=args.ir)
    options = TraceOptions(
        sample_every=args.sample_every, max_traces=args.max_traces
    )
    result = ExperimentRunner(config).run(trace=options)
    tracer = result.trace
    finished = tracer.finished_trace_ids()
    print(
        f"{config.label()}: traced {len(finished)} records "
        f"({tracer.span_count} spans, {tracer.dropped} dropped by cap)"
    )
    if not finished:
        print("no record completed within the run; nothing to analyze")
        return 1
    print()
    print(format_breakdown(tracer))
    print()
    ranked = bottleneck_ranking(tracer, top=3)
    print("bottleneck ranking:")
    for rank, stat in enumerate(ranked, start=1):
        print(
            f"  {rank}. {stat.stage}: {stat.share * 100:.1f}% of latency "
            f"({format_ms(stat.mean)} ms/record)"
        )
    print()
    _export_artifact(
        args.out,
        lambda p: save_chrome_trace(tracer, p),
        "Chrome trace",
        note="(open in chrome://tracing)",
    )
    _export_artifact(args.csv, lambda p: save_spans_csv(tracer, p), "span CSV")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.core.runner import ExperimentRunner
    from repro.metrics import MetricsOptions
    from repro.metrics.dashboard import render_dashboard
    from repro.metrics.export import save_metrics_jsonl, save_openmetrics

    config = _config_from(args, ir=args.ir)
    options = MetricsOptions(scrape_interval=args.scrape_interval)
    result = ExperimentRunner(config).run(metrics=options)
    telemetry = result.telemetry
    scraper = telemetry.scraper
    print(
        f"{config.label()}: scraped {len(telemetry.registry)} instruments "
        f"{scraper.scrapes} times (every {args.scrape_interval}s simulated)"
    )
    print()
    print(render_dashboard(scraper, title=config.label()))
    print()
    _export_artifact(
        args.openmetrics,
        lambda p: save_openmetrics(telemetry.registry, p),
        "OpenMetrics exposition",
    )
    _export_artifact(
        args.jsonl, lambda p: save_metrics_jsonl(scraper, p), "metrics timeline"
    )
    return 0


FAULT_CHOICES = (
    "server-crash",
    "partition",
    "network",
    "straggler",
    "engine-crash",
)


def _chaos_config(args: argparse.Namespace) -> ExperimentConfig:
    """Build the faulted configuration for one ``crayfish chaos`` run."""
    from repro.faults import (
        FaultPlan,
        NetworkDegradation,
        PartitionOutage,
        ResiliencePolicy,
        ServerCrash,
        StragglerReplica,
    )

    extra: dict[str, typing.Any] = {"ir": args.ir}
    if args.fault == "engine-crash":
        extra["checkpoint_interval"] = args.checkpoint_interval
        extra["failure_times"] = (args.at,)
        extra["recovery_time"] = args.fault_duration
    else:
        if args.fault == "server-crash":
            plan = FaultPlan(
                server_crashes=(
                    ServerCrash(at=args.at, downtime=args.fault_duration),
                )
            )
        elif args.fault == "partition":
            plan = FaultPlan(
                partition_outages=(
                    PartitionOutage(
                        at=args.at,
                        duration=args.fault_duration,
                        partitions=tuple(range(args.partitions_hit)),
                    ),
                )
            )
        elif args.fault == "network":
            plan = FaultPlan(
                network_degradations=(
                    NetworkDegradation(
                        at=args.at,
                        duration=args.fault_duration,
                        extra_latency=args.extra_latency,
                        error_rate=args.error_rate,
                    ),
                )
            )
        else:  # straggler
            plan = FaultPlan(
                stragglers=(
                    StragglerReplica(
                        at=args.at,
                        duration=args.fault_duration,
                        slowdown=args.slowdown,
                    ),
                )
            )
        extra["fault_plan"] = plan
    if not args.no_resilience and args.fault != "engine-crash":
        extra["resilience"] = ResiliencePolicy(
            timeout=args.timeout,
            retries=args.retries,
            backoff_base=args.backoff_base,
        )
    return _config_from(args, **extra)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.report import run_chaos_scenario

    config = _chaos_config(args)
    outcome = run_chaos_scenario(config)
    summary = outcome.faulted.faults
    rows = [
        ("baseline goodput (events/s)", format_rate(outcome.baseline.throughput)),
        ("faulted goodput (events/s)", format_rate(outcome.faulted.throughput)),
        ("goodput ratio", f"{outcome.goodput_ratio:.3f}"),
        ("completed / produced", f"{outcome.faulted.completed} / {outcome.faulted.produced}"),
        ("duplicates (replays)", outcome.faulted.duplicates),
    ]
    if outcome.recovery is not None:
        recovered = (
            f"{outcome.recovery.recovery_time:.2f}s"
            if outcome.recovery.recovery_time is not None
            else "not within run"
        )
        rows.append(("latency recovery", recovered))
        rows.append(("peak latency (ms)", format_ms(outcome.recovery.peak_latency)))
    if summary is not None:
        rows.append(("faults injected", summary.faults_injected))
        rows.append(("retries / timeouts", f"{summary.retries} / {summary.timeouts}"))
        rows.append(("shed / fallbacks", f"{summary.shed} / {summary.fallbacks}"))
        if summary.engine_restarts:
            rows.append(
                ("engine restarts / checkpoints",
                 f"{summary.engine_restarts} / {summary.checkpoints}"),
            )
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"{config.label()} chaos: {args.fault} @ {args.at}s",
        )
    )
    _maybe_dump(args, [outcome.baseline, outcome.faulted])
    _record_results(
        _open_store(args), [outcome.baseline, outcome.faulted], kind="chaos"
    )
    return 0


def _add_cluster_shape_args(parser: argparse.ArgumentParser) -> None:
    """Deployment-shape knobs shared by ``cluster run``/``capacity-search``."""
    parser.add_argument(
        "--nodes", type=int, default=2, help="simulated machines in the cluster"
    )
    parser.add_argument(
        "--racks", type=int, default=1,
        help="racks the nodes spread over (cross-rack hops pay LAN latency)",
    )
    parser.add_argument(
        "--cpus-per-node", type=int, default=16, dest="cpus_per_node",
        help="CPU slots per machine (placement refuses to oversubscribe)",
    )
    parser.add_argument(
        "--tasks-per-node", type=int, default=None, dest="tasks_per_node",
        help="SPS task slots per node (default: = mp)",
    )
    parser.add_argument(
        "--replicas-per-node", type=int, default=1, dest="replicas_per_node",
        help="external serving replicas per node (behind the load balancer)",
    )
    parser.add_argument(
        "--partitions", type=int, default=None,
        help="broker partitions (default: enough for every task slot)",
    )


def _add_population_args(parser: argparse.ArgumentParser) -> None:
    """Population-workload knobs for ``cluster run``."""
    parser.add_argument(
        "--users", type=int, default=0,
        help="simulated population size; 0 keeps the plain --ir workload",
    )
    parser.add_argument(
        "--distribution", default="zipf", choices=("zipf", "lognormal"),
        help="per-user rate distribution",
    )
    parser.add_argument(
        "--zipf-exponent", type=float, default=1.1, dest="zipf_exponent",
        help="power-law exponent for the zipf distribution",
    )
    parser.add_argument(
        "--sigma", type=float, default=1.0,
        help="log-scale dispersion for the lognormal distribution",
    )
    parser.add_argument(
        "--events-per-user-per-day", type=float, default=50.0,
        dest="events_per_user_per_day",
        help="mean events per user per simulated day",
    )
    parser.add_argument(
        "--diurnal-amplitude", type=float, default=0.3,
        dest="diurnal_amplitude",
        help="diurnal swing in [0, 1): 0 is flat",
    )
    parser.add_argument(
        "--diurnal-period", type=float, default=86_400.0,
        dest="diurnal_period",
        help="diurnal period in simulated seconds (compress for short runs)",
    )
    parser.add_argument(
        "--rate-scale", type=float, default=1.0, dest="rate_scale",
        help="multiplier on the aggregate offered rate",
    )
    parser.add_argument(
        "--flash-crowd", action="append", default=[], dest="flash_crowds",
        metavar="AT:DURATION:MULTIPLIER",
        help="layer a flash-crowd burst on top (repeatable)",
    )


def _cluster_spec_from_args(args: argparse.Namespace):
    from repro.cluster.spec import ClusterSpec

    return ClusterSpec(
        nodes=args.nodes,
        racks=args.racks,
        cpus_per_node=args.cpus_per_node,
        tasks_per_node=args.tasks_per_node,
        replicas_per_node=args.replicas_per_node,
    )


def _population_from_args(args: argparse.Namespace):
    from repro.cluster.spec import FlashCrowd, PopulationSpec
    from repro.errors import ConfigError

    if args.users <= 0:
        return None
    crowds = []
    for text in args.flash_crowds:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"--flash-crowd wants AT:DURATION:MULTIPLIER, got {text!r}"
            )
        crowds.append(
            FlashCrowd(
                at=float(parts[0]),
                duration=float(parts[1]),
                multiplier=float(parts[2]),
            )
        )
    return PopulationSpec(
        users=args.users,
        distribution=args.distribution,
        zipf_exponent=args.zipf_exponent,
        sigma=args.sigma,
        events_per_user_per_day=args.events_per_user_per_day,
        diurnal_amplitude=args.diurnal_amplitude,
        diurnal_period=args.diurnal_period,
        flash_crowds=tuple(sorted(crowds, key=lambda c: c.at)),
        rate_scale=args.rate_scale,
    )


def _cluster_partitions(args: argparse.Namespace, spec) -> int:
    """Default partition count: at least one per source task slot."""
    if args.partitions is not None:
        return args.partitions
    per_node = spec.tasks_per_node if spec.tasks_per_node else args.mp
    return max(32, per_node * spec.nodes)


def _cluster_config(args: argparse.Namespace, **extra) -> ExperimentConfig:
    spec = _cluster_spec_from_args(args)
    return _config_from(
        args,
        cluster=spec,
        use_broker=True,
        partitions=_cluster_partitions(args, spec),
        **extra,
    )


def _cmd_cluster_run(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError

    try:
        population = _population_from_args(args)
        if population is not None:
            config = _cluster_config(args, population=population)
        else:
            config = _cluster_config(args, ir=args.ir)
        result = run_experiment(config)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rows = [
        ("throughput (events/s)", format_rate(result.throughput)),
        ("mean latency (ms)", format_ms(result.latency.mean)),
        ("p95 latency (ms)", format_ms(result.latency.p95)),
        ("completed batches", result.completed),
    ]
    print(format_table(["metric", "value"], rows, title=config.label()))
    if args.placement:
        from repro.cluster import PlacementPlan
        from repro.config import is_embedded

        plan = PlacementPlan.from_spec(
            config.cluster,
            base_tasks=config.mp,
            external_serving=not is_embedded(config.serving),
        )
        print()
        print(plan.describe())
    _maybe_dump(args, [result])
    _record_results(_open_store(args), [result], kind="cluster")
    return 0


def _cmd_cluster_capacity(args: argparse.Namespace) -> int:
    from repro.cluster import SloPolicy, capacity_curve
    from repro.errors import ConfigError

    node_counts = tuple(int(n) for n in args.node_counts.split(","))
    seeds = tuple(int(s) for s in args.seeds.split(","))
    slo = SloPolicy(p95_latency=args.slo_p95, min_goodput=args.min_goodput)
    cache = _open_cache(args)

    def probe_progress(point):
        verdict = "sustained" if point.sustained else "broken"
        print(
            f"  probe {format_rate(point.rate)} events/s: {verdict} "
            f"(goodput {format_rate(point.throughput)}, "
            f"p95 {format_ms(point.p95)} ms)"
        )

    def size_progress(nodes, result):
        print(
            f"{nodes} node(s): {format_rate(result.capacity)} events/s "
            f"sustainable after {len(result.probes)} probes"
        )

    store = _open_store(args)
    try:
        config = _cluster_config(args, ir=None)
        curve = capacity_curve(
            config,
            node_counts=node_counts,
            slo=slo,
            size_hook=size_progress,
            seeds=seeds,
            start_rate=args.start_rate,
            tolerance=args.tolerance,
            max_probes=args.max_probes,
            jobs=args.jobs,
            cache=cache,
            hook=probe_progress if args.verbose else None,
            store=store,
        )
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if store is not None:
            store.close()
    rows = [
        (nodes, format_rate(result.capacity), len(result.probes))
        for nodes, result in curve.points
    ]
    print()
    print(
        format_table(
            ["nodes", "sustainable events/s", "probes"],
            rows,
            title=(
                f"capacity search: {args.sps}/{args.serving}/{args.model} "
                f"SLO p95<={args.slo_p95 * 1000:.0f}ms"
            ),
        )
    )
    verdict = (
        "capacity scales monotonically with node count"
        if curve.monotonic
        else "WARNING: capacity is NOT monotonic over node counts"
    )
    print(verdict)
    if cache is not None:
        print(f"cache {args.cache_dir}: {cache.stats.summary()}")
    if store is not None:
        print(f"recorded capacity search into {store.path}")
    return 0 if curve.monotonic else 1


def _lint_rule_selection(args: argparse.Namespace) -> list[str]:
    """Resolve --select/--ignore to rule names. Raises ValueError on an
    unknown rule in either list."""
    from repro.analysis.core import rule_names

    known = set(rule_names())
    base = set(args.select.split(",")) if args.select else set(known)
    ignored = set(args.ignore.split(",")) if args.ignore else set()
    unknown = sorted((base | ignored) - known)
    if unknown:
        raise ValueError(f"unknown lint rule(s): {', '.join(unknown)}")
    return sorted(base - ignored)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.core import lint_paths, make_rules
    from repro.analysis.report import (
        render_json,
        render_suppressions,
        render_text,
    )

    if args.rules:
        for rule in make_rules():
            print(f"{rule.name}: {rule.description}")
        return 0
    try:
        reports = lint_paths(args.paths, rules=make_rules(_lint_rule_selection(args)))
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.list_suppressions:
        print(render_suppressions(reports))
        return 0
    if args.check_suppressions:
        return _check_suppressions(args.suppressions_file, args.paths, reports)
    if args.format == "json":
        print(render_json(reports))
    else:
        print(render_text(reports, show_suppressed=args.show_suppressed))
    return 0 if all(r.clean for r in reports) else 1


def _check_suppressions(target: str, paths, reports) -> int:
    """Suppression-inventory freshness gate (``--check-suppressions``).

    A stale inventory is actionable, not just nonzero: print the unified
    diff between the committed file and the regenerated one, plus the
    exact command that refreshes it.
    """
    import difflib

    from repro.analysis.report import render_suppressions

    expected = render_suppressions(reports) + "\n"
    committed_path = pathlib.Path(target)
    committed = committed_path.read_text() if committed_path.exists() else ""
    if committed == expected:
        print(f"{target} is fresh ({len(reports)} file(s) linted)")
        return 0
    sys.stdout.writelines(
        difflib.unified_diff(
            committed.splitlines(keepends=True),
            expected.splitlines(keepends=True),
            fromfile=f"{target} (committed)",
            tofile=f"{target} (regenerated)",
        )
    )
    lint_args = " ".join(str(p) for p in paths)
    print(f"{target} is stale; regenerate with:")
    print(f"  crayfish lint --list-suppressions {lint_args} > {target}")
    return 1


def _cmd_verify_order(args: argparse.Namespace) -> int:
    from repro.analysis.order import verify_order

    extra: dict[str, typing.Any] = {}
    if args.nodes > 0:
        from repro.cluster.spec import ClusterSpec

        extra["cluster"] = ClusterSpec(nodes=args.nodes)
        extra["use_broker"] = True
        extra["partitions"] = max(32, args.mp * args.nodes)
    config = ExperimentConfig(
        sps=SPS_NAMES[0],
        serving=args.serving,
        model=args.model,
        bsz=args.bsz,
        mp=args.mp,
        seed=args.seed,
        duration=args.duration,
        ir=args.ir,
        **extra,
    )
    engines = SPS_NAMES if args.sps == "all" else (args.sps,)
    verdicts = verify_order(
        config,
        engines=engines,
        permutations=args.permutations,
        sanitize=not args.no_sanitize,
    )
    rows = []
    for verdict in verdicts:
        if verdict.identical:
            digest = dict(verdict.baseline)["results.json"][:12]
            rows.append((verdict.sps, "order-independent", digest))
        else:
            rows.append(
                (verdict.sps, "ORDER-DEPENDENT", ", ".join(verdict.mismatched))
            )
    print(
        format_table(
            ["engine", "perturbation verdict", "results sha256 / diffs"],
            rows,
            title=(
                f"verify-order: {args.serving}/{args.model} ir={args.ir} "
                f"duration={args.duration}s seed={args.seed} "
                f"permutations={args.permutations}"
            ),
        )
    )
    failed = [v.sps for v in verdicts if not v.identical]
    if failed:
        print(
            "ORDERING HAZARD: exports depend on event-tie pop order in: "
            + ", ".join(failed)
        )
        return 1
    print(
        f"all {len(verdicts)} engine(s) byte-identical across "
        f"{args.permutations} perturbed schedule(s) + a repeated baseline"
    )
    return 0


def _cmd_store_import(args: argparse.Namespace) -> int:
    from repro.store import ResultStore
    from repro.store.importers import import_all

    path = _db_path(args)
    with ResultStore(path) as store:

        def progress(name, partial):
            print(f"  {name}: {partial.summary()}")

        report = import_all(store, args.root, hook=progress)
        counts = store.counts()
    print(f"import complete: {report.summary()}")
    print(
        f"store {path}: {counts['runs']} run(s), "
        f"{counts['sweeps']} sweep(s), {counts['series']} series row(s), "
        f"{counts['artifacts']} artifact(s)"
    )
    return 0


def _cmd_store_info(args: argparse.Namespace) -> int:
    from repro.store import SCHEMA_VERSION, ResultStore

    path = _require_db(args)
    if path is None:
        return 2
    with ResultStore(path) as store:
        counts = store.counts()
        rows = [
            ("schema version", f"{store.schema_version} (build {SCHEMA_VERSION})"),
            ("code fingerprint", store.fingerprint),
            ("git revision", store.git_rev or "-"),
        ]
        rows.extend((table, count) for table, count in counts.items())
    print(format_table(["field", "value"], rows, title=f"results store {path}"))
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from repro.store import ResultStore, format_history, history

    path = _require_db(args)
    if path is None:
        return 2
    with ResultStore(path) as store:
        rows = history(store, _history_filter(args))
    if args.as_json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(format_history(rows, title=f"run history ({path})"))
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.store import ResultStore, format_trends, trend

    path = _require_db(args)
    if path is None:
        return 2
    try:
        with ResultStore(path) as store:
            series = trend(
                store,
                args.metric,
                _history_filter(args),
                min_points=args.min_points,
            )
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.as_json:
        print(
            json.dumps(
                [
                    {
                        "slot_id": s.slot_id,
                        "label": s.label,
                        "seed": s.seed,
                        "metric": s.metric,
                        "points": [list(point) for point in s.points],
                    }
                    for s in series
                ],
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(format_trends(series, title=f"{args.metric} trend ({path})"))
    return 0


def _regress_current(result, slowdown: float) -> dict[str, float | None]:
    """The measured metric values the regression gate compares.

    ``slowdown`` > 1 synthetically degrades them (throughput divided,
    latencies multiplied) — the ``--self-test-slowdown`` proof that the
    gate actually fires. NaN (no completions) maps to None, which skips
    the metric.
    """

    def clean(value):
        return None if value is None or math.isnan(value) else value

    current = {
        "throughput": clean(result.throughput),
        "latency_mean": clean(result.latency.mean),
        "latency_p95": clean(result.latency.p95),
        "latency_p99": clean(result.latency.p99),
    }
    if slowdown != 1.0:
        for metric, value in current.items():
            if value is None:
                continue
            current[metric] = (
                value / slowdown if metric == "throughput" else value * slowdown
            )
    return current


def _regress_thresholds(args: argparse.Namespace) -> dict[str, float]:
    from repro.errors import ConfigError
    from repro.store import DEFAULT_THRESHOLDS
    from repro.store.queries import validate_metric

    thresholds = dict(DEFAULT_THRESHOLDS)
    for text in args.thresholds:
        metric, sep, value = text.partition("=")
        if not sep:
            raise ConfigError(
                f"--threshold wants METRIC=FRACTION, got {text!r}"
            )
        thresholds[validate_metric(metric)] = float(value)
    return thresholds


def _cmd_regress(args: argparse.Namespace) -> int:
    """Run the configured experiment and gate it on the stored baseline."""
    from repro.errors import ConfigError
    from repro.store import (
        ResultStore,
        compare_to_baseline,
        format_regression,
        slot_id_of,
    )

    try:
        thresholds = _regress_thresholds(args)
        config = _config_from(args, ir=args.ir)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = run_experiment(config, seed=args.seed)
    current = _regress_current(result, args.self_test_slowdown)
    slot = slot_id_of(config.canonical_dict(), args.seed)
    # Recording the degraded self-test values would poison the baseline.
    may_record = args.self_test_slowdown == 1.0 and not args.no_record
    with ResultStore(_db_path(args)) as store:
        verdict = compare_to_baseline(
            store, slot, config.label(), current, thresholds
        )
        print(format_regression(verdict))
        if not verdict.has_baseline:
            if may_record:
                store.record_result(result, seed=args.seed, kind="run")
            return 0
        if verdict.ok:
            if may_record:
                store.record_result(result, seed=args.seed, kind="run")
                print(f"pass: recorded as the new baseline in {store.path}")
            return 0
        if args.record_anyway and may_record:
            store.record_result(result, seed=args.seed, kind="run")
            print(
                "REGRESSION recorded anyway (--record-anyway): this run is "
                "now the baseline"
            )
            return 0
    regressed = ", ".join(d.metric for d in verdict.regressed)
    print(f"REGRESSION in {regressed} — run not recorded", file=sys.stderr)
    return 1


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.store import ResultStore, format_pareto, pareto_frontier

    path = _require_db(args)
    if path is None:
        return 2
    with ResultStore(path) as store:
        points = pareto_frontier(
            store, _history_filter(args), latency_metric=args.latency_metric
        )
    if args.as_json:
        print(
            json.dumps(
                [
                    {
                        "run_id": p.run_id,
                        "slot_id": p.slot_id,
                        "label": p.label,
                        "seed": p.seed,
                        "latency": p.latency,
                        "throughput": p.throughput,
                        "cost": p.cost,
                        "on_frontier": p.on_frontier,
                    }
                    for p in points
                ],
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            format_pareto(
                points,
                title=f"latency/throughput/cost frontier ({path})",
            )
        )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print(format_table(["kind", "names"], [
        ("stream processors", ", ".join(SPS_NAMES)),
        ("serving tools", ", ".join(SERVING_TOOLS)),
        ("models", ", ".join(MODEL_NAMES)),
    ]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crayfish",
        description="Crayfish reproduction: benchmark ML inference in "
        "simulated stream processing systems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="one open-loop experiment")
    _add_sut_args(run_cmd)
    run_cmd.add_argument("--ir", type=float, default=None, help="input rate; omit to saturate")
    run_cmd.add_argument(
        "--sanitize", action="store_true",
        help="run under the determinism sanitizer: wall-clock and "
        "global-RNG calls raise instead of corrupting results",
    )
    _add_store_args(run_cmd)
    run_cmd.set_defaults(func=_cmd_run)

    sweep_cmd = commands.add_parser("sweep", help="sweep one config field")
    _add_sut_args(sweep_cmd)
    sweep_cmd.add_argument("--ir", type=float, default=None)
    sweep_cmd.add_argument("--field", default="mp", help="config field to sweep")
    sweep_cmd.add_argument(
        "--values", default="1,2,4,8,16", help="comma-separated integer values"
    )
    _add_matrix_exec_args(sweep_cmd)
    _add_store_args(sweep_cmd)
    sweep_cmd.set_defaults(func=_cmd_sweep)

    matrix_cmd = commands.add_parser(
        "matrix",
        help="run a full experiment matrix: parallel workers + result cache",
    )
    matrix_cmd.add_argument(
        "--preset", default="smoke",
        choices=(
            "latency", "throughput", "scalability", "burst-recovery",
            "scaleout", "capacity-search", "smoke",
        ),
        help="paper grid to reproduce",
    )
    matrix_cmd.add_argument(
        "--list", action="store_true", dest="list_presets",
        help="describe the available presets and exit",
    )
    matrix_cmd.add_argument(
        "--seeds", default=None,
        help="comma-separated seed list overriding the preset's seeds",
    )
    matrix_cmd.add_argument(
        "--duration", type=float, default=None,
        help="override the preset's simulated duration (seconds)",
    )
    matrix_cmd.add_argument(
        "--jsonl", default=None,
        help="write full result records as JSON Lines to this path",
    )
    matrix_cmd.add_argument(
        "--csv", default=None, help="write a flat result CSV to this path"
    )
    matrix_cmd.add_argument(
        "--json", default=None, dest="json_path",
        help="also write the result(s) as JSON to this path",
    )
    _add_matrix_exec_args(matrix_cmd)
    _add_store_args(matrix_cmd)
    matrix_cmd.set_defaults(func=_cmd_matrix)

    lat_cmd = commands.add_parser("latency", help="closed-loop latency")
    _add_sut_args(lat_cmd)
    lat_cmd.add_argument("--ir", type=float, default=1.0)
    lat_cmd.set_defaults(func=_cmd_latency)

    burst_cmd = commands.add_parser("bursts", help="periodic-burst scenario")
    _add_sut_args(burst_cmd)
    burst_cmd.add_argument("--bd", type=float, default=3.0, help="burst duration (s)")
    burst_cmd.add_argument("--tbb", type=float, default=12.0, help="time between bursts (s)")
    burst_cmd.add_argument("--bursts", type=int, default=3)
    burst_cmd.set_defaults(func=_cmd_bursts)

    trace_cmd = commands.add_parser(
        "trace", help="trace one experiment: per-stage latency breakdown"
    )
    _add_sut_args(trace_cmd)
    trace_cmd.add_argument("--ir", type=float, default=None, help="input rate; omit to saturate")
    trace_cmd.add_argument(
        "--sample-every", type=int, default=1, dest="sample_every",
        help="trace every Nth record (head-based sampling)",
    )
    trace_cmd.add_argument(
        "--max-traces", type=int, default=4096, dest="max_traces",
        help="hard cap on admitted traces (bounds memory)",
    )
    trace_cmd.add_argument(
        "--out", default="crayfish_trace.json",
        help="Chrome trace_event output path",
    )
    trace_cmd.add_argument(
        "--csv", default=None, help="also write spans as CSV to this path"
    )
    trace_cmd.set_defaults(func=_cmd_trace)

    metrics_cmd = commands.add_parser(
        "metrics", help="run one experiment with whole-system telemetry"
    )
    _add_sut_args(metrics_cmd)
    metrics_cmd.add_argument(
        "--ir", type=float, default=None, help="input rate; omit to saturate"
    )
    metrics_cmd.add_argument(
        "--scrape-interval", type=float, default=0.05, dest="scrape_interval",
        help="simulated seconds between scrapes",
    )
    metrics_cmd.add_argument(
        "--openmetrics", default="crayfish_metrics.txt",
        help="OpenMetrics text exposition output path",
    )
    metrics_cmd.add_argument(
        "--jsonl", default=None,
        help="also write the scraped timeline as JSONL to this path",
    )
    metrics_cmd.set_defaults(func=_cmd_metrics)

    chaos_cmd = commands.add_parser(
        "chaos", help="inject one fault and measure recovery vs. a baseline"
    )
    _add_sut_args(chaos_cmd)
    chaos_cmd.add_argument(
        "--ir", type=float, default=None, help="input rate; omit to saturate"
    )
    chaos_cmd.add_argument(
        "--fault", default="server-crash", choices=FAULT_CHOICES,
        help="fault class to inject",
    )
    chaos_cmd.add_argument(
        "--at", type=float, default=2.0, help="fault start time (simulated s)"
    )
    chaos_cmd.add_argument(
        "--fault-duration", type=float, default=0.5, dest="fault_duration",
        help="fault window / downtime / recovery time (s)",
    )
    chaos_cmd.add_argument(
        "--error-rate", type=float, default=0.0, dest="error_rate",
        help="network fault: request drop probability",
    )
    chaos_cmd.add_argument(
        "--extra-latency", type=float, default=0.005, dest="extra_latency",
        help="network fault: added one-way latency (s)",
    )
    chaos_cmd.add_argument(
        "--slowdown", type=float, default=4.0,
        help="straggler fault: inference slowdown factor",
    )
    chaos_cmd.add_argument(
        "--partitions-hit", type=int, default=32, dest="partitions_hit",
        help="partition fault: how many input partitions go down",
    )
    chaos_cmd.add_argument(
        "--retries", type=int, default=5, help="client retry budget"
    )
    chaos_cmd.add_argument(
        "--timeout", type=float, default=None,
        help="client per-attempt deadline (s); omit for none",
    )
    chaos_cmd.add_argument(
        "--backoff-base", type=float, default=0.05, dest="backoff_base",
        help="first retry backoff delay (s)",
    )
    chaos_cmd.add_argument(
        "--checkpoint-interval", type=float, default=0.5,
        dest="checkpoint_interval",
        help="engine-crash fault: checkpoint interval (s)",
    )
    chaos_cmd.add_argument(
        "--no-resilience", action="store_true", dest="no_resilience",
        help="drop the client resilience layer (failed scores are shed)",
    )
    _add_store_args(chaos_cmd)
    chaos_cmd.set_defaults(func=_cmd_chaos)

    cluster_cmd = commands.add_parser(
        "cluster",
        help="multi-node scale-out simulations: placement, population "
        "workloads, sustainable-capacity search",
    )
    cluster_sub = cluster_cmd.add_subparsers(
        dest="cluster_command", required=True
    )

    cluster_run = cluster_sub.add_parser(
        "run", help="one experiment on a simulated multi-node deployment"
    )
    _add_sut_args(cluster_run)
    _add_cluster_shape_args(cluster_run)
    _add_population_args(cluster_run)
    cluster_run.add_argument(
        "--ir", type=float, default=None,
        help="input rate; omit to saturate (ignored when --users > 0)",
    )
    cluster_run.add_argument(
        "--placement", action="store_true",
        help="also print the node placement plan",
    )
    _add_store_args(cluster_run)
    cluster_run.set_defaults(func=_cmd_cluster_run)

    cluster_cap = cluster_sub.add_parser(
        "capacity-search",
        help="binary-search max sustainable events/s per deployment size "
        "against an SLO (Theodolite-style)",
    )
    _add_sut_args(cluster_cap)
    _add_cluster_shape_args(cluster_cap)
    cluster_cap.add_argument(
        "--node-counts", default="1,2,4", dest="node_counts",
        help="comma-separated deployment sizes to search",
    )
    cluster_cap.add_argument(
        "--slo-p95", type=float, default=1.0, dest="slo_p95",
        help="SLO: p95 end-to-end latency bound (seconds)",
    )
    cluster_cap.add_argument(
        "--min-goodput", type=float, default=0.9, dest="min_goodput",
        help="SLO: completed/offered throughput floor in (0, 1]",
    )
    cluster_cap.add_argument(
        "--start-rate", type=float, default=50.0, dest="start_rate",
        help="first probed rate (events/s); doubles until the SLO breaks",
    )
    cluster_cap.add_argument(
        "--tolerance", type=float, default=0.1,
        help="stop when the bracket's relative width drops under this",
    )
    cluster_cap.add_argument(
        "--max-probes", type=int, default=24, dest="max_probes",
        help="probe budget per deployment size",
    )
    cluster_cap.add_argument(
        "--seeds", default="0,1",
        help="comma-separated seeds averaged per probe",
    )
    cluster_cap.add_argument(
        "--verbose", action="store_true",
        help="print every probe, not just per-size results",
    )
    _add_matrix_exec_args(cluster_cap)
    _add_store_args(cluster_cap)
    cluster_cap.set_defaults(func=_cmd_cluster_capacity)

    lint_cmd = commands.add_parser(
        "lint", help="determinism & simulation-safety linter"
    )
    lint_cmd.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint_cmd.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="report format",
    )
    lint_cmd.add_argument(
        "--select", default=None, metavar="RULE[,RULE...]",
        help="run only these rules",
    )
    lint_cmd.add_argument(
        "--ignore", default=None, metavar="RULE[,RULE...]",
        help="run every rule except these",
    )
    lint_cmd.add_argument(
        "--show-suppressed", action="store_true", dest="show_suppressed",
        help="also list findings silenced by pragmas",
    )
    lint_cmd.add_argument(
        "--list-suppressions", action="store_true", dest="list_suppressions",
        help="print the suppression inventory instead of findings",
    )
    lint_cmd.add_argument(
        "--check-suppressions", action="store_true", dest="check_suppressions",
        help="diff the committed suppression inventory against a fresh "
        "one; on staleness print the unified diff and the regeneration "
        "command",
    )
    lint_cmd.add_argument(
        "--suppressions-file", default="SUPPRESSIONS.md",
        dest="suppressions_file", metavar="PATH",
        help="inventory checked by --check-suppressions",
    )
    lint_cmd.add_argument(
        "--rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint_cmd.set_defaults(func=_cmd_lint)

    order_cmd = commands.add_parser(
        "verify-order",
        help="schedule-perturbation proof: re-run per engine under seeded "
        "permutations of event-tie pop order and byte-diff all exports",
    )
    order_cmd.add_argument(
        "--sps", default="all", choices=SPS_NAMES + ("all",),
        help="engine to check, or all four",
    )
    order_cmd.add_argument("--serving", default="onnx", choices=SERVING_TOOLS)
    order_cmd.add_argument("--model", default="ffnn", choices=MODEL_NAMES)
    order_cmd.add_argument("--bsz", type=int, default=1)
    order_cmd.add_argument("--mp", type=int, default=1)
    order_cmd.add_argument("--seed", type=int, default=0)
    order_cmd.add_argument(
        "--ir", type=float, default=50.0, help="input rate (events/s)"
    )
    order_cmd.add_argument(
        "--duration", type=float, default=2.0, help="simulated seconds"
    )
    order_cmd.add_argument(
        "--nodes", type=int, default=0,
        help="also cluster the scenario over this many simulated nodes "
        "(0 = single-node, no cluster layer)",
    )
    order_cmd.add_argument(
        "--permutations", type=int, default=3,
        help="seeded tie-permutation runs per engine",
    )
    order_cmd.add_argument(
        "--no-sanitize", action="store_true", dest="no_sanitize",
        help="skip the runtime sanitizer during the runs",
    )
    order_cmd.set_defaults(func=_cmd_verify_order)

    store_cmd = commands.add_parser(
        "store", help="results database maintenance (import, info)"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_import = store_sub.add_parser(
        "import",
        help="backfill history from committed artifacts "
        "(BENCH_metrics.json, golden files, benchmarks/results)",
    )
    _add_db_arg(store_import)
    store_import.add_argument(
        "--root", default=".", help="repository root to scan for artifacts"
    )
    store_import.set_defaults(func=_cmd_store_import)
    store_info = store_sub.add_parser(
        "info", help="schema version, provenance stamps, and row counts"
    )
    _add_db_arg(store_info)
    store_info.set_defaults(func=_cmd_store_info)

    history_cmd = commands.add_parser(
        "history", help="stored run history, newest first"
    )
    _add_filter_args(history_cmd)
    history_cmd.set_defaults(func=_cmd_history)

    trend_cmd = commands.add_parser(
        "trend",
        help="per-configuration metric trajectories across revisions",
    )
    _add_filter_args(trend_cmd)
    trend_cmd.add_argument(
        "--metric", default="throughput",
        help="metric to trend: throughput, latency_mean, latency_p50/p95/"
        "p99/p999, completed, cost_proxy",
    )
    trend_cmd.add_argument(
        "--min-points", type=int, default=2, dest="min_points",
        help="hide slots with fewer recordings than this",
    )
    trend_cmd.set_defaults(func=_cmd_trend)

    regress_cmd = commands.add_parser(
        "regress",
        help="run one experiment and gate it against the stored baseline "
        "(exit 1 on regression — the CI gate)",
    )
    _add_sut_args(regress_cmd)
    regress_cmd.add_argument(
        "--ir", type=float, default=None, help="input rate; omit to saturate"
    )
    _add_db_arg(regress_cmd)
    regress_cmd.add_argument(
        "--threshold", action="append", default=[], dest="thresholds",
        metavar="METRIC=FRACTION",
        help="override a relative threshold, e.g. throughput=0.10 "
        "(repeatable)",
    )
    regress_cmd.add_argument(
        "--self-test-slowdown", type=float, default=1.0,
        dest="self_test_slowdown", metavar="FACTOR",
        help="synthetically degrade the measured metrics by FACTOR to "
        "prove the gate fires (the degraded run is never recorded)",
    )
    regress_cmd.add_argument(
        "--no-record", action="store_true", dest="no_record",
        help="compare only; never record this run into the store",
    )
    regress_cmd.add_argument(
        "--record-anyway", action="store_true", dest="record_anyway",
        help="record the run as the new baseline even if it regressed "
        "(bless an intentional change)",
    )
    regress_cmd.set_defaults(func=_cmd_regress)

    pareto_cmd = commands.add_parser(
        "pareto",
        help="latency/throughput/cost frontier over stored configurations",
    )
    _add_filter_args(pareto_cmd)
    pareto_cmd.add_argument(
        "--latency-metric", default="latency_p95", dest="latency_metric",
        choices=(
            "latency_mean", "latency_p50", "latency_p95",
            "latency_p99", "latency_p999",
        ),
        help="which latency percentile forms the latency axis",
    )
    pareto_cmd.set_defaults(func=_cmd_pareto)

    list_cmd = commands.add_parser("list", help="registered components")
    list_cmd.set_defaults(func=_cmd_list)
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
