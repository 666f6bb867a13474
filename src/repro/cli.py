"""Command-line interface: ``tin-provenance`` / ``python -m repro``.

Subcommands
-----------
``run``
    Run a selection policy over a dataset preset or a CSV file and print the
    provenance of the largest buffers.
``experiment``
    Regenerate one of the paper's tables or figures and print it.
``datasets``
    List the built-in dataset presets.
``policies``
    List the registered selection policies.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.bench import experiments as _experiments
from repro.datasets.catalog import available_presets, load_preset
from repro.exceptions import ReproError
from repro.metrics.memory import format_bytes
from repro.metrics.tables import format_table
from repro.policies.registry import available_policies
from repro.runtime import DEFAULT_BATCH_SIZE, RunConfig, Runner
from repro.stores import available_store_backends

__all__ = ["main", "build_parser"]

#: Experiment subcommand name -> callable producing an ExperimentResult.
EXPERIMENTS = {
    "table6": _experiments.table6_datasets,
    "table7": _experiments.table7_runtime,
    "table8": _experiments.table8_memory,
    "table9": _experiments.table9_shrinking,
    "table10": _experiments.table10_paths,
    "figure2": _experiments.figure2_accumulation,
    "figure5": _experiments.figure5_selective_grouped,
    "figure6": _experiments.figure6_cumulative,
    "figure7": _experiments.figure7_windowing,
    "figure8": _experiments.figure8_budget,
    "figure9": _experiments.figure9_alerts,
    "ablation-buffers": _experiments.ablation_buffer_structures,
    "ablation-dense-sparse": _experiments.ablation_dense_vs_sparse,
    "ablation-budget": _experiments.ablation_budget_policies,
    "ablation-lazy": _experiments.ablation_lazy_vs_proactive,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="tin-provenance",
        description="Provenance tracking in temporal interaction networks "
        "(reproduction of Kosyfaki & Mamoulis, ICDE 2022).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="run a selection policy over a dataset and report provenance"
    )
    run_parser.add_argument(
        "--dataset",
        default="taxis",
        help="dataset preset name or path to a CSV file of interactions",
    )
    run_parser.add_argument(
        "--policy",
        default="fifo",
        choices=available_policies(),
        help="selection policy to run",
    )
    run_parser.add_argument(
        "--scale", type=float, default=1.0, help="scale factor for preset datasets"
    )
    run_parser.add_argument(
        "--limit", type=int, default=None, help="process at most this many interactions"
    )
    run_parser.add_argument(
        "--top", type=int, default=5, help="number of largest buffers to report"
    )
    run_parser.add_argument(
        "--budget", type=int, default=100,
        help="per-vertex budget (proportional-budget policy only)",
    )
    run_parser.add_argument(
        "--window", type=int, default=1000,
        help="window size in interactions (proportional-windowed policy only)",
    )
    run_parser.add_argument(
        "--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
        help="interactions per process_many() batch (0 or 1: per-interaction)",
    )
    run_parser.add_argument(
        "--stream", action="store_true",
        help="stream CSV datasets lazily instead of loading them into memory",
    )
    run_parser.add_argument(
        "--follow", action="store_true",
        help="tail a CSV dataset for appended rows (streaming ingestion); "
        "pair with --idle-timeout so an idle producer ends the run",
    )
    run_parser.add_argument(
        "--micro-batch", type=int, default=None,
        help="micro-batch size of the streaming scheduler (default: --batch-size)",
    )
    run_parser.add_argument(
        "--max-in-flight", type=int, default=None,
        help="bound on interactions buffered between source and policy "
        "(backpressure; default: 4x the micro-batch)",
    )
    run_parser.add_argument(
        "--flush-interval", type=float, default=None,
        help="flush a partial micro-batch after this many seconds (slow feeds)",
    )
    run_parser.add_argument(
        "--idle-timeout", type=float, default=None,
        help="with --follow: end the run after this many seconds without new rows",
    )
    run_parser.add_argument(
        "--checkpoint", type=str, default=None, metavar="PATH",
        help="write the engine state to PATH after the run (and periodically "
        "with --checkpoint-every)",
    )
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="also checkpoint every N processed interactions "
        "(streaming runs checkpoint at batch-clipped offsets)",
    )
    run_parser.add_argument(
        "--resume-from", type=str, default=None, metavar="PATH",
        help="resume from an engine checkpoint: restore the policy state and "
        "skip the interactions it already processed",
    )
    run_parser.add_argument(
        "--store", choices=available_store_backends(), default=None,
        help="provenance-store backend for the policy state (default: "
        "REPRO_DEFAULT_STORE env var, then in-memory dicts); 'mmap' is the "
        "dense arena with zero-copy snapshot sidecars for checkpoint/resume",
    )
    run_parser.add_argument(
        "--hot-capacity", type=int, default=None,
        help="resident entries per store before spilling (sqlite store only)",
    )
    run_parser.add_argument(
        "--hot-bytes", type=int, default=None,
        help="serialized-byte budget for the resident tier; size-aware LRU "
        "eviction (sqlite store only)",
    )
    run_parser.add_argument(
        "--spill-batch", type=int, default=None,
        help="LRU entries spilled per overflow in one batched write "
        "(sqlite store only)",
    )
    run_parser.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="additionally write the structured run record (RunResult.to_json) "
        "to PATH ('-' for stdout)",
    )
    run_parser.add_argument(
        "--shards", type=int, default=0,
        help="partition the network into this many vertex shards (0: no sharding)",
    )
    run_parser.add_argument(
        "--shard-by", choices=("components", "hash", "mincut"),
        default="components",
        help="partitioning mode: weakly-connected components (exact), "
        "stable vertex hash (approximate) or seeded min-cut (balanced with "
        "minimal cross-shard interactions)",
    )
    run_parser.add_argument(
        "--shard-strategy", choices=("component", "hash", "mincut"),
        default=None,
        help="alias for --shard-by ('component' selects the exact "
        "components mode); overrides it when both are given",
    )
    run_parser.add_argument(
        "--shard-imbalance", type=float, default=1.1,
        help="min-cut balance cap: the heaviest shard's interaction load "
        "may exceed the ideal by at most this factor (default 1.1)",
    )
    run_parser.add_argument(
        "--partition-seed", type=int, default=0,
        help="seed of the min-cut partitioner; the same seed reproduces "
        "the same plan bit for bit",
    )
    run_parser.add_argument(
        "--shard-executor", choices=("serial", "threads", "processes"),
        default="serial", help="how shard engines are executed",
    )
    run_parser.add_argument(
        "--shared-memory", action=argparse.BooleanOptionalAction, default=None,
        help="zero-copy shard fabric for --shard-executor processes: shard "
        "columns live in shared-memory segments and a persistent worker "
        "pool receives (segment, offset, length, dtype) handles instead of "
        "pickled shard payloads; results are bit-identical",
    )
    run_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker count for parallel shard executors",
    )
    run_parser.add_argument(
        "--streaming-shards", type=int, default=0,
        help="partitioned streaming: route the stream to this many vertex "
        "shards and dispatch micro-batches through rolling shared-memory "
        "segments into resident worker engines (0: single consumer); "
        "--shard-by selects the routing (hash, or mincut frozen from a "
        "warm-up prefix); results are bit-identical to eager sharded runs",
    )
    run_parser.add_argument(
        "--streaming-ring", type=int, default=4,
        help="reusable shared-memory segments per shard; a shard with every "
        "slot in flight backpressures the producer (default 4)",
    )
    run_parser.add_argument(
        "--streaming-warmup", type=int, default=None,
        help="warm-up prefix length used to freeze a min-cut membership for "
        "source-fed runs with --shard-by mincut (default 4096)",
    )
    run_parser.add_argument(
        "--max-task-retries", type=int, default=1,
        help="worker respawns per shard before the shard is quarantined "
        "(shared-memory and partitioned-streaming runs; 0 disables "
        "self-healing, default 1)",
    )
    run_parser.add_argument(
        "--retry-backoff", type=float, default=0.05,
        help="base seconds of the exponential backoff between a worker "
        "crash and the shard's re-dispatch (default 0.05)",
    )
    run_parser.add_argument(
        "--degradation", choices=("auto", "off"), default="auto",
        help="'auto' falls back to slower executors when the shared-memory "
        "fabric cannot run (segment allocation failure, respawn storm): "
        "pickled processes, then serial; 'off' raises instead",
    )
    run_parser.add_argument(
        "--on-bad-row", choices=("raise", "skip"), default="raise",
        help="malformed rows in a tailed CSV (--follow): 'raise' aborts the "
        "run (default), 'skip' drops the row, counts it and keeps tailing",
    )

    experiment_parser = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's tables or figures"
    )
    experiment_parser.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment_parser.add_argument(
        "--scale", type=float, default=1.0, help="dataset scale factor"
    )

    subparsers.add_parser("datasets", help="list the built-in dataset presets")
    subparsers.add_parser("policies", help="list the registered selection policies")
    return parser


def _policy_options(args: argparse.Namespace) -> dict:
    """Map CLI flags onto the structural options of the named policy."""
    name = args.policy
    if name == "proportional-budget":
        return {"capacity": args.budget}
    if name == "proportional-windowed":
        return {"window": args.window}
    if name == "proportional-selective":
        return {"k": args.top}
    if name == "proportional-grouped":
        return {"num_groups": args.top}
    return {}


def _command_run(args: argparse.Namespace) -> int:
    store_options = {}
    if args.hot_capacity is not None:
        store_options["hot_capacity"] = args.hot_capacity
    if args.hot_bytes is not None:
        store_options["hot_bytes"] = args.hot_bytes
    if args.spill_batch is not None:
        store_options["spill_batch"] = args.spill_batch
    config = RunConfig(
        dataset=args.dataset,
        scale=args.scale,
        stream=args.stream,
        follow=args.follow,
        micro_batch=args.micro_batch,
        max_in_flight=args.max_in_flight,
        flush_interval=args.flush_interval,
        idle_timeout=args.idle_timeout,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume_from,
        policy=args.policy,
        policy_options=_policy_options(args),
        store=args.store,
        store_options=store_options,
        limit=args.limit,
        batch_size=args.batch_size,
        shards=args.shards,
        shard_by=args.shard_by,
        shard_strategy=args.shard_strategy,
        shard_imbalance=args.shard_imbalance,
        partition_seed=args.partition_seed,
        shard_executor=args.shard_executor,
        shared_memory=args.shared_memory,
        max_workers=args.workers,
        streaming_shards=args.streaming_shards,
        streaming_ring=args.streaming_ring,
        streaming_warmup=args.streaming_warmup,
        max_task_retries=args.max_task_retries,
        retry_backoff=args.retry_backoff,
        degradation=args.degradation,
        on_bad_row=args.on_bad_row,
    )
    result = Runner(config).run()
    statistics = result.statistics

    # result.policy_name reports what actually ran — for --resume-from that
    # is the checkpoint's restored policy, not the --policy flag.
    ran_policy = result.policy_name
    print(
        f"processed {statistics.interactions} interactions of "
        f"{result.dataset_name!r} with policy {ran_policy!r} "
        f"in {statistics.elapsed_seconds:.3f}s"
    )
    if args.resume_from is not None and ran_policy != args.policy:
        print(
            f"note: resumed from {args.resume_from!r}, which restores the "
            f"checkpointed policy {ran_policy!r} (--policy {args.policy!r} "
            f"does not apply)"
        )
    if result.scheduler_stats is not None and config.uses_scheduler:
        sched = result.scheduler_stats
        flushes = ", ".join(
            f"{trigger}={count}"
            for trigger, count in sched["flushes"].items()
            if count
        ) or "none"
        print(
            f"micro-batched: {sched['batches']} batches "
            f"(micro-batch {sched['micro_batch']}, "
            f"peak in-flight {sched['peak_in_flight']}/{sched['max_in_flight']}, "
            f"flushes: {flushes})"
        )
    if result.columnar_stats is not None:
        col = result.columnar_stats
        print(
            f"columnar {col['mode']}: {col['interned_vertices']} interned "
            f"vertices, {format_bytes(col['block_bytes'])} of column arrays"
            + ("" if col["kernel"] else " (adapter: no array kernel)")
        )
    if result.kernel_stats is not None:
        kern = result.kernel_stats
        line = (
            f"fused kernel: backend {kern['backend']}, "
            f"{kern['chunks']} span{'s' if kern['chunks'] != 1 else ''}"
        )
        if kern["compile_seconds"]:
            line += f", compile {kern['compile_seconds']:.3f}s (outside timed region)"
        print(line)
    spec = config.store_spec
    if spec is not None:
        entries = sum(stats.entries for stats in result.store_stats.values())
        line = f"store backend {spec.backend!r}: {entries} entries"
        if result.spilled_bytes:
            spill_reads = sum(
                stats.spill_reads for stats in result.store_stats.values()
            )
            line += (
                f", spilled {format_bytes(result.spilled_bytes)} to disk "
                f"({spill_reads} faults back in)"
            )
        print(line)
    if result.sharded and result.partition is not None:
        shard_sizes = ", ".join(
            str(run.statistics.interactions) for run in result.shard_runs
        )
        exactness = "exact" if result.partition.exact else "approximate"
        pruned = (
            f", {result.partition.pruned_shards} empty pruned"
            if result.partition.pruned_shards
            else ""
        )
        print(
            f"sharded over {len(result.shard_runs)} {result.partition.mode} "
            f"shards ({exactness}; per-shard interactions: {shard_sizes}"
            f"{pruned})"
        )
        quality = result.partition_stats
        if quality is not None:
            straggler = result.straggler_ratio
            print(
                f"partition quality: {quality['cut_edges']} cut edges, "
                f"cut weight {quality['cut_weight']}, imbalance "
                f"{quality['imbalance']:.3f}, built in "
                f"{quality['build_seconds']:.3f}s (outside the timed region)"
                + (
                    f", straggler ratio {straggler:.2f}"
                    if straggler is not None
                    else ""
                )
            )
    if result.stream_stats is not None:
        stream = result.stream_stats
        fabric = stream["fabric"]
        stalls = fabric["backpressure_stalls"]
        straggler = result.straggler_ratio
        print(
            f"partitioned streaming ({stream['routing']} routing): "
            f"{stream['shards']} shards x ring {fabric['ring']}, "
            f"{fabric['batches']} micro-batches, "
            f"{fabric['segment_reuses']} segment reuses, "
            f"{stalls} backpressure stall{'s' if stalls != 1 else ''}"
            + (f", {stream['checkpoints']} checkpoints" if stream["checkpoints"] else "")
            + (f", straggler ratio {straggler:.2f}" if straggler is not None else "")
        )
    if result.shm_stats is not None:
        fabric = result.shm_stats
        print(
            f"shared-memory fabric ({fabric['backend']}): "
            f"{fabric['workers']} persistent workers, "
            f"{format_bytes(fabric['segment_bytes'])} of shard columns in "
            f"segments, {format_bytes(fabric['dispatch_bytes'])} dispatched "
            f"across the fork boundary"
            + (
                f", {format_bytes(fabric['state_bytes'])} of state adopted "
                f"zero-copy"
                if fabric["state_bytes"]
                else ""
            )
        )
    if result.fault_stats is not None:
        faults = result.fault_stats
        parts = []
        if faults.get("respawns"):
            parts.append(f"{faults['respawns']} worker respawn(s)")
        if faults.get("retries"):
            parts.append(f"{faults['retries']} task retr{'y' if faults['retries'] == 1 else 'ies'}")
        if faults.get("replayed_batches"):
            parts.append(f"{faults['replayed_batches']} batches replayed")
        if faults.get("recovery_seconds"):
            parts.append(f"recovery {faults['recovery_seconds']:.3f}s")
        for rung in faults.get("degradations", ()):
            parts.append(f"degraded {rung['from']} -> {rung['to']} ({rung['reason']})")
        if faults.get("bad_rows"):
            parts.append(f"{faults['bad_rows']} malformed row(s) skipped")
        if parts:
            print("self-healing: " + ", ".join(parts))
    rows = []
    for vertex, total in result.top_buffers(args.top):
        origins = result.origins(vertex)
        top_origins = ", ".join(
            f"{origin!r}:{quantity:.3g}" for origin, quantity in origins.top(3)
        )
        rows.append(
            {
                "vertex": vertex,
                "buffered_quantity": total,
                "distinct_origins": len(origins),
                "top_origins": top_origins or "(no provenance tracked)",
            }
        )
    print(format_table(rows, title=f"top {args.top} buffers"))
    if args.json:
        document = result.to_json()
        if args.json == "-":
            print(document)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    factory = EXPERIMENTS[args.name]
    result = factory(scale=args.scale)
    print(result.to_text())
    return 0


def _command_datasets(_args: argparse.Namespace) -> int:
    rows = []
    for name in available_presets():
        network_spec = load_preset(name, scale=0.02)  # tiny sample just for a sanity row
        rows.append(
            {
                "preset": name,
                "sample_vertices": network_spec.num_vertices,
                "sample_interactions": network_spec.num_interactions,
            }
        )
    print(format_table(rows, title="built-in dataset presets (tiny samples)"))
    return 0


def _command_policies(_args: argparse.Namespace) -> int:
    for name in available_policies():
        print(name)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _command_run,
        "experiment": _command_experiment,
        "datasets": _command_datasets,
        "policies": _command_policies,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
