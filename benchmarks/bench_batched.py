"""Throughput benchmark: per-interaction vs batched vs columnar vs sharded.

Runs every policy family with a fast path — the no-provenance baseline, the
dense proportional policy, and the four entry-based policies (lrb/mrb/fifo/
lifo) — over preset datasets in nine configurations:

* ``batch_size=1`` (equivalent to the seed engine loop),
* the network's interaction objects in batches
  (``engine.run(network.interactions, batch_size=...)``),
* the explicit micro-batch scheduler (the path single-consumer streaming
  runs take),
* the numpy rung of the fused ladder (``engine.run(block)`` with compiled
  backends off, as under ``REPRO_JIT=0``: interned-id arrays driven
  through ``process_run`` over whole clip spans),
* the fused kernel tier (the same block run with the compiled backend
  that resolves, the numpy rung again when none does; backend compilation
  happens outside the timed region),
* hash-sharded over a pickled process pool (``shard_executor=processes``),
* hash-sharded over the zero-copy shared-memory shard fabric
  (``shared_memory=True``: shard columns live in shared segments, a
  persistent worker pool receives handle-sized dispatch messages),
* mincut-sharded over the same shm fabric (``shard_by="mincut"``: the
  seeded multilevel min-cut partitioner of ``runtime.mincut`` — balanced
  shards, minimal cross-shard interactions; plan build time is reported
  separately and never inside the timed region),
* partitioned streaming over rolling segment rings
  (``streaming_shards=STREAM_SHARDS``: interactions are routed to their
  shard as a stream of micro-batches appended into per-shard segment
  rings, processed incrementally by the persistent worker pool — the
  parallel analogue of the single-consumer micro-batch scheduler).

and writes a ``BENCH_batched_throughput.json`` record with interactions per
second for each plus the speedups — including the bytes each sharded
transport moves across the fork boundary (measured outside the timed
region: the pickled payloads are re-pickled with the executor's protocol,
the fabric reports its exact dispatch bytes) and the partition quality of
the hash vs mincut plans (cut edges, cut weight, imbalance, straggler
ratio).  Configurations are measured
in interleaved rounds (round-robin over configurations, best of
``--repeats``) with the garbage collector paused inside the timed region,
so slow drift of the machine hits all columns equally instead of biasing
the ratios.  The CI benchmark-smoke job runs this script; run it locally
with::

    PYTHONPATH=src python benchmarks/bench_batched.py [--scale 0.5] [--output path.json]

Pass ``--store sqlite`` to measure the spill backend instead of the
in-memory dicts (the speedup gates are skipped there: the point of the
spill backend is feasibility, not throughput; block runs fall back to
the materialising adapter on it).
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
from pathlib import Path

from bench_kernels import engine_tier

from repro.datasets.catalog import load_preset
from repro.runtime import DEFAULT_BATCH_SIZE, RunConfig, Runner, fork_payload_bytes

from repro.stores import available_store_backends

#: (policy, dataset) pairs measured by the benchmark.  The dense policy runs
#: on the small-vertex networks where it is feasible (as in the paper); the
#: entry-based policies run on one large and one small network each.
CASES = (
    ("noprov", "bitcoin"),
    ("noprov", "taxis"),
    ("noprov", "flights"),
    ("proportional-dense", "taxis"),
    ("proportional-dense", "flights"),
    ("lrb", "bitcoin"),
    ("mrb", "taxis"),
    ("fifo", "bitcoin"),
    ("fifo", "taxis"),
    ("lifo", "taxis"),
)

#: Configuration name -> RunConfig overrides.  ``batch_size`` defaults are
#: filled in by :func:`measure_case`.
CONFIGURATIONS = (
    "per_interaction",
    "batched",
    "micro_batch_scheduler",
    "columnar",
    "fused",
    "sharded_processes",
    "sharded_shm",
    "sharded_shm_mincut",
    "streaming_shm",
)

#: Shards used by the sharded configurations (hash and mincut modes, so
#: every network splits regardless of its component structure).
BENCH_SHARDS = 2

#: Balance cap of the mincut configuration (the library default).
MINCUT_IMBALANCE_CAP = 1.1

#: Shards of the partitioned-streaming configuration.  Wider than the eager
#: sharded columns on purpose: segment rings bound each shard's resident
#: batch memory, so streaming parallelism scales past the point where eager
#: sharding would duplicate the whole network per fork.
STREAM_SHARDS = 4

#: Micro-batch capacity of the streaming segment rings.  Deliberately much
#: larger than the scheduler column's batch size: the scheduler amortises a
#: Python dispatch loop, while a streaming flush pays one queue round-trip
#: per micro-batch — ring slots are sized so a whole shard's typical backlog
#: ships in a handful of flushes.
STREAM_MICRO_BATCH = 8192


def bench_config(network, policy_name: str, store, batch_size: int, configuration: str) -> RunConfig:
    """The RunConfig one benchmark configuration executes."""
    if configuration in ("sharded_processes", "sharded_shm", "sharded_shm_mincut"):
        return RunConfig(
            dataset=network,
            policy=policy_name,
            batch_size=batch_size,
            store=store,
            shards=BENCH_SHARDS,
            shard_by="mincut" if configuration == "sharded_shm_mincut" else "hash",
            shard_imbalance=MINCUT_IMBALANCE_CAP,
            shard_executor="processes",
            shared_memory=configuration != "sharded_processes",
        )
    if configuration == "streaming_shm":
        return RunConfig(
            dataset=network,
            policy=policy_name,
            store=store,
            streaming_shards=STREAM_SHARDS,
            shard_by="hash",
            micro_batch=STREAM_MICRO_BATCH,
        )
    return RunConfig(
        dataset=network,
        policy=policy_name,
        batch_size=1 if configuration == "per_interaction" else batch_size,
        micro_batch=batch_size if configuration == "micro_batch_scheduler" else None,
        store=store,
    )


#: Configurations driven straight through the engine (see
#: ``bench_kernels.engine_tier``): the drive follows from the input.
ENGINE_TIERS = ("batched", "columnar", "fused")


def timed_run(network, policy_name: str, store, batch_size: int, configuration: str):
    """One run of one configuration; returns ``(seconds, result)``.

    Sharded results carry their partition stats and straggler ratio; the
    partition plan is built before the timed region starts (the reported
    ``elapsed_seconds`` covers shard execution only).
    """
    if configuration in ENGINE_TIERS:
        return engine_tier(network, policy_name, batch_size, configuration, store)
    config = bench_config(network, policy_name, store, batch_size, configuration)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = Runner(config).run()
        return result.statistics.elapsed_seconds, result
    finally:
        if gc_was_enabled:
            gc.enable()


def measure_case(network, policy_name: str, store, batch_size: int, repeats: int):
    """Best seconds (and the matching results) per configuration.

    Measured in interleaved rounds.  Call :func:`measure_fork_payloads`
    first: its instrumented fabric run doubles as the warm-up that spawns
    the persistent shard pool, so the one-off fork cost never lands on the
    first ``sharded_shm`` round (that amortisation is the point of the
    persistent pool).
    """
    best = {name: float("inf") for name in CONFIGURATIONS}
    best_results = {name: None for name in CONFIGURATIONS}
    # Warm the network's columnar cache outside every timed region so the
    # one-off conversion does not land on an arbitrary configuration.
    network.to_block()
    for _ in range(repeats):
        for name in CONFIGURATIONS:
            seconds, result = timed_run(network, policy_name, store, batch_size, name)
            if seconds < best[name]:
                best[name] = seconds
                best_results[name] = result
    return best, best_results


def partition_quality(result):
    """The partition-quality columns of one sharded run's best round."""
    stats = result.partition_stats or {}
    return {
        "cut_edges": stats.get("cut_edges"),
        "cut_weight": stats.get("cut_weight"),
        "imbalance": stats.get("imbalance"),
        "build_seconds": stats.get("build_seconds"),
        "straggler_ratio": result.straggler_ratio,
    }


def measure_fork_payloads(network, policy_name: str, store, batch_size: int):
    """Bytes each sharded transport ships across the fork boundary.

    Computed outside the timed region: ``Runner.shard_plan`` builds exactly
    the plan the pickled executor would dispatch (same block-attachment
    rules) and :func:`fork_payload_bytes` measures its payload tuples with
    the executor's pickle protocol; the fabric's exact dispatch bytes come
    from one instrumented run's ``shm_stats``.
    """
    config = bench_config(network, policy_name, store, batch_size, "sharded_processes")
    plan, policies = Runner(config).shard_plan(network)
    pickled = fork_payload_bytes(
        plan, policies, batch_size=config.effective_batch_size
    )
    shm_result = Runner(
        bench_config(network, policy_name, store, batch_size, "sharded_shm")
    ).run()
    dispatched = shm_result.shm_stats["dispatch_bytes"]
    return pickled, dispatched


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    parser.add_argument("--repeats", type=int, default=3, help="runs per configuration")
    parser.add_argument(
        "--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
        help="batch size of the batched configuration",
    )
    parser.add_argument(
        "--store", choices=available_store_backends(), default=None,
        help="provenance-store backend to measure (default: dict)",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_batched_throughput.json",
        help="where to write the JSON record",
    )
    args = parser.parse_args()

    records = []
    for policy_name, dataset in CASES:
        network = load_preset(dataset, scale=args.scale)
        # Payload accounting first: its fabric run doubles as the shard-pool
        # warm-up for the timed rounds below.
        pickled_payload, shm_dispatch = measure_fork_payloads(
            network, policy_name, args.store, args.batch_size
        )
        best, best_results = measure_case(
            network, policy_name, args.store, args.batch_size, args.repeats
        )
        per_item = best["per_interaction"]
        batched = best["batched"]
        scheduled = best["micro_batch_scheduler"]
        columnar = best["columnar"]
        fused = best["fused"]
        fused_stats = best_results["fused"].kernel_stats or {}
        sharded_processes = best["sharded_processes"]
        sharded_shm = best["sharded_shm"]
        sharded_shm_mincut = best["sharded_shm_mincut"]
        streaming_shm = best["streaming_shm"]
        streaming_fabric = best_results["streaming_shm"].stream_stats["fabric"]
        hash_quality = partition_quality(best_results["sharded_shm"])
        mincut_quality = partition_quality(best_results["sharded_shm_mincut"])
        interactions = network.num_interactions
        record = {
            "policy": policy_name,
            "dataset": dataset,
            "interactions": interactions,
            "per_interaction_seconds": per_item,
            "batched_seconds": batched,
            "micro_batch_scheduler_seconds": scheduled,
            "columnar_seconds": columnar,
            "fused_seconds": fused,
            "sharded_processes_seconds": sharded_processes,
            "sharded_shm_seconds": sharded_shm,
            "sharded_shm_mincut_seconds": sharded_shm_mincut,
            "streaming_shm_seconds": streaming_shm,
            "per_interaction_ips": interactions / per_item if per_item else 0.0,
            "batched_ips": interactions / batched if batched else 0.0,
            "micro_batch_scheduler_ips": interactions / scheduled if scheduled else 0.0,
            "columnar_ips": interactions / columnar if columnar else 0.0,
            "fused_ips": interactions / fused if fused else 0.0,
            "sharded_processes_ips": (
                interactions / sharded_processes if sharded_processes else 0.0
            ),
            "sharded_shm_ips": interactions / sharded_shm if sharded_shm else 0.0,
            "sharded_shm_mincut_ips": (
                interactions / sharded_shm_mincut if sharded_shm_mincut else 0.0
            ),
            "streaming_shm_ips": interactions / streaming_shm if streaming_shm else 0.0,
            "speedup": per_item / batched if batched else 0.0,
            "micro_batch_speedup": per_item / scheduled if scheduled else 0.0,
            "columnar_speedup": per_item / columnar if columnar else 0.0,
            "fused_speedup": per_item / fused if fused else 0.0,
            "scheduler_vs_batched": batched / scheduled if scheduled else 0.0,
            "columnar_vs_batched": batched / columnar if columnar else 0.0,
            "fused_vs_columnar": columnar / fused if fused else 0.0,
            "fused_backend": fused_stats.get("backend"),
            "fused_chunks": fused_stats.get("chunks"),
            "fused_compile_seconds": fused_stats.get("compile_seconds"),
            "shm_vs_processes": (
                sharded_processes / sharded_shm if sharded_shm else 0.0
            ),
            "mincut_vs_hash_shm": (
                sharded_shm / sharded_shm_mincut if sharded_shm_mincut else 0.0
            ),
            "streaming_shm_shards": STREAM_SHARDS,
            "streaming_shm_vs_scheduler": (
                scheduled / streaming_shm if streaming_shm else 0.0
            ),
            "streaming_shm_vs_sharded_shm": (
                sharded_shm / streaming_shm if streaming_shm else 0.0
            ),
            "streaming_shm_batches": streaming_fabric["batches"],
            "streaming_shm_segment_reuses": streaming_fabric["segment_reuses"],
            "streaming_shm_backpressure_stalls": streaming_fabric[
                "backpressure_stalls"
            ],
            "hash_cut_edges": hash_quality["cut_edges"],
            "hash_cut_weight": hash_quality["cut_weight"],
            "hash_imbalance": hash_quality["imbalance"],
            "hash_straggler_ratio": hash_quality["straggler_ratio"],
            "mincut_cut_edges": mincut_quality["cut_edges"],
            "mincut_cut_weight": mincut_quality["cut_weight"],
            "mincut_imbalance": mincut_quality["imbalance"],
            "mincut_straggler_ratio": mincut_quality["straggler_ratio"],
            "mincut_partition_build_seconds": mincut_quality["build_seconds"],
            "fork_payload_bytes_pickled": pickled_payload,
            "fork_payload_bytes_shm": shm_dispatch,
            "fork_payload_reduction": (
                pickled_payload / shm_dispatch if shm_dispatch else 0.0
            ),
        }
        records.append(record)
        print(
            f"{policy_name:20s} on {dataset:8s}: "
            f"{record['per_interaction_ips']:>10,.0f} ips -> "
            f"{record['batched_ips']:>10,.0f} batched ({record['speedup']:.2f}x), "
            f"{record['micro_batch_scheduler_ips']:>10,.0f} scheduled "
            f"({record['micro_batch_speedup']:.2f}x), "
            f"{record['columnar_ips']:>10,.0f} columnar "
            f"({record['columnar_speedup']:.2f}x), "
            f"{record['fused_ips']:>10,.0f} fused[{record['fused_backend']}] "
            f"({record['fused_vs_columnar']:.2f}x vs columnar)"
        )
        print(
            f"{'':20s}    sharded x{BENCH_SHARDS}: "
            f"{record['sharded_processes_ips']:>10,.0f} pickled-pool ips -> "
            f"{record['sharded_shm_ips']:>10,.0f} shm-fabric ips "
            f"({record['shm_vs_processes']:.2f}x), fork payload "
            f"{pickled_payload:,} B -> {shm_dispatch:,} B "
            f"({record['fork_payload_reduction']:,.0f}x smaller)"
        )
        hash_straggler = hash_quality["straggler_ratio"] or 0.0
        mincut_straggler = mincut_quality["straggler_ratio"] or 0.0
        print(
            f"{'':20s}    mincut x{BENCH_SHARDS}: "
            f"{record['sharded_shm_mincut_ips']:>10,.0f} ips "
            f"({record['mincut_vs_hash_shm']:.2f}x vs hash shm), cut weight "
            f"{record['hash_cut_weight']:,} -> {record['mincut_cut_weight']:,}, "
            f"imbalance {record['hash_imbalance']:.3f} -> "
            f"{record['mincut_imbalance']:.3f}, straggler "
            f"{hash_straggler:.2f} -> {mincut_straggler:.2f}, plan built in "
            f"{record['mincut_partition_build_seconds']:.3f}s (untimed)"
        )
        print(
            f"{'':20s}    streaming x{STREAM_SHARDS}: "
            f"{record['streaming_shm_ips']:>10,.0f} ips "
            f"({record['streaming_shm_vs_scheduler']:.2f}x vs single-consumer "
            f"scheduler, {record['streaming_shm_vs_sharded_shm']:.2f}x vs eager "
            f"shm), {record['streaming_shm_batches']} micro-batches, "
            f"{record['streaming_shm_segment_reuses']} segment reuses, "
            f"{record['streaming_shm_backpressure_stalls']} stalls"
        )

    payload = {
        "benchmark": "batched_process_many_throughput",
        "scale": args.scale,
        "batch_size": args.batch_size,
        "repeats": args.repeats,
        "store": args.store or "dict",
        "python": platform.python_version(),
        "results": records,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    if args.store not in (None, "dict"):
        # Non-dict backends trade throughput for bounded memory; the batched
        # and columnar paths are still exercised above but not gated on
        # being faster.
        return 0
    failures = []
    slower = [r for r in records if r["speedup"] <= 1.0]
    if slower:
        print("FAIL: batched path not faster for:", [r["policy"] for r in slower])
        failures.append("batched")
    # CI gate: the numpy rung of the fused ladder must beat object batching
    # on noprov — the policy whose kernel is pure representation win, with
    # no numpy-call floor to hide behind.
    columnar_slower = [
        r for r in records
        if r["policy"] == "noprov" and r["columnar_vs_batched"] <= 1.0
    ]
    if columnar_slower:
        print(
            "FAIL: numpy fused rung not faster than batched on noprov for:",
            [r["dataset"] for r in columnar_slower],
        )
        failures.append("columnar")
    # CI gate: the compiled fused kernel must beat the numpy rung on
    # noprov.
    fused_slower = [
        r for r in records
        if r["policy"] == "noprov" and r["fused_vs_columnar"] <= 1.0
    ]
    if fused_slower:
        print(
            "FAIL: fused kernel not faster than the numpy rung on noprov for:",
            [r["dataset"] for r in fused_slower],
        )
        failures.append("fused")
    # CI gate: the shard fabric must move at least two orders of magnitude
    # fewer bytes across the fork boundary than the pickled process pool.
    # At reduced scales the pickled payload shrinks with the network while
    # the handle dispatch stays constant, so the bar only applies at the
    # full bench scale.
    if args.scale >= 1.0:
        payload_heavy = [
            r for r in records if r["fork_payload_reduction"] < 100.0
        ]
        if payload_heavy:
            print(
                "FAIL: shm fork payload not >=100x smaller than pickled for:",
                [(r["policy"], r["dataset"]) for r in payload_heavy],
            )
            failures.append("fork_payload")
    # CI gate: the mincut partitioner must never cut more interaction weight
    # than hash sharding, and must respect its balance cap.  Both are
    # deterministic plan properties (seeded partitioner, fixed datasets), so
    # they gate hard at every scale.
    worse_cut = [
        r for r in records if r["mincut_cut_weight"] > r["hash_cut_weight"]
    ]
    if worse_cut:
        print(
            "FAIL: mincut cut weight exceeds hash for:",
            [(r["policy"], r["dataset"]) for r in worse_cut],
        )
        failures.append("mincut_cut_weight")
    unbalanced = [
        r for r in records
        if r["mincut_imbalance"] > MINCUT_IMBALANCE_CAP + 1e-9
    ]
    if unbalanced:
        print(
            f"FAIL: mincut imbalance exceeds the {MINCUT_IMBALANCE_CAP}x cap for:",
            [(r["policy"], r["dataset"]) for r in unbalanced],
        )
        failures.append("mincut_imbalance")
    # The scheduler adds source polling and flush checks on top of the same
    # batching; it should track the eager batched path closely.  Warn-only:
    # single-run timing noise at small scales can dip one case below 1.0x,
    # and the hard CI gates stay on the speedup columns above.
    scheduler_slower = [r for r in records if r["micro_batch_speedup"] <= 1.0]
    if scheduler_slower:
        print(
            "WARNING: micro-batch scheduler not faster than per-interaction for:",
            [r["policy"] for r in scheduler_slower],
        )
    # End-to-end sharded throughput: the fabric should at least match the
    # pickled pool (it does the same work minus the payload pickling).
    # Warn-only — process-pool wall clocks are the noisiest numbers here.
    shm_slower = [r for r in records if r["shm_vs_processes"] < 1.0]
    if shm_slower:
        print(
            "WARNING: shm fabric slower than pickled process pool for:",
            [(r["policy"], r["dataset"]) for r in shm_slower],
        )
    # Partitioned streaming routes blocks once and appends columns straight
    # into segment rings, while the single-consumer scheduler re-packs every
    # polled batch object by object — streaming should win on noprov, the
    # policy where packing dominates.  Warn-only: process wall clocks again.
    streaming_slower = [
        r for r in records
        if r["policy"] == "noprov" and r["streaming_shm_vs_scheduler"] < 1.0
    ]
    if streaming_slower:
        print(
            "WARNING: partitioned streaming slower than the single-consumer "
            "scheduler on noprov for:",
            [r["dataset"] for r in streaming_slower],
        )
    # Mincut shards are better balanced and share fewer cross-shard
    # interactions, so end-to-end they should at least match hash shards on
    # the same fabric.  Warn-only for the same wall-clock-noise reason.
    mincut_slower = [r for r in records if r["mincut_vs_hash_shm"] < 1.0]
    if mincut_slower:
        print(
            "WARNING: mincut shm sharding slower than hash shm sharding for:",
            [(r["policy"], r["dataset"]) for r in mincut_slower],
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
