"""One measured run of a workload, in a fresh process.

Usage::

    python3 perfbench/measure.py --workload NAME --seed N --dir RUN_DIR \
        --mode plain|traced|fused --spawned-at T --report PATH

``RUN_DIR`` holds this run's copy of the CSV, an empty kernel cache and an
empty temp directory (the parent points ``REPRO_KERNEL_CACHE`` and
``TMPDIR`` at them); its parent directory holds ``oracle.json``.  ``T`` is
the parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` runs from process creation to ready.  Modes:

* ``plain``  -- the end-to-end run, no tracing;
* ``traced`` -- the same run with the layer wrappers of :mod:`spans`;
* ``fused``  -- the same job on one process (``streaming_shards`` off), the
  single-process baseline of the streaming workload.

The report (a JSON object) is written to ``PATH``; ``errors`` lists every
failed check.
"""

import time  # first, so nothing delays the clock the parent started

import argparse
import json
import math
import multiprocessing
import os
import random
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, List

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent

#: Fewest latency samples per run; with 1000 samples ten lie beyond the p99.
QUERIES = 1000
#: Queries per vertex behind one latency sample (the fastest of them counts).
PASSES = 2
#: Largest buffers the analyst's report shows.
TOP = 5


def _hwm_bytes(pid: Any) -> int:
    """Peak resident set (``VmHWM``) of a process, in bytes."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _run(workload: Workload, args: argparse.Namespace, report: Dict[str, Any]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (the import is part of set-up)
    from repro.core import kernels
    from repro.runtime import RunConfig, Runner, shm

    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setup_start = time.perf_counter()
    if workload.policy in kernels.KERNEL_NAMES:
        kernels.get_kernel(workload.policy)
    sharded = args.mode != "fused" and workload.streaming_shards > 0
    if sharded:
        shm.get_worker_pool().ensure_workers(workload.streaming_shards)
    report["setup_s"] = time.monotonic() - args.spawned_at
    setup_end = time.perf_counter()

    csv_path = str(args.dir / "input.csv")
    if args.mode == "fused":
        config = workload.fused_config(csv_path)
    else:
        config = workload.run_config(csv_path)
    start = time.perf_counter()
    result = Runner(RunConfig(**config)).run()
    for vertex, _total in result.top_buffers(TOP):
        result.origins(vertex).top(TOP)
    end = time.perf_counter()
    report["result_s"] = end - start

    totals = result.buffer_totals()
    population = sorted(vertex for vertex, total in totals.items() if total != 0.0)
    # Every non-empty vertex is queried equally often, in seeded order: a
    # sample drawn with replacement would let the few heavy vertices of a
    # skewed network set the p99 by how often they happen to be drawn.
    # Passes come in pairs, each in its own order, and a vertex's sample is
    # the faster of its two queries: a stall of the machine hits one of
    # them, not both, so it does not reach the p99 of a flat distribution.
    # Every run takes the same number of samples, because the parent pools
    # them over all runs of a measurement.
    rng = random.Random(args.seed)
    latencies: List[float] = []
    unbalanced = 0
    query_start = time.perf_counter()
    for _pair in range(math.ceil(QUERIES / len(population))):
        fastest = dict.fromkeys(population, math.inf)
        for _pass in range(PASSES):
            for vertex in rng.sample(population, len(population)):
                began = time.perf_counter()
                origins = result.origins(vertex)
                origins.top(TOP)
                fastest[vertex] = min(fastest[vertex], time.perf_counter() - began)
                if not math.isclose(origins.total, totals[vertex], rel_tol=1e-9):
                    unbalanced += 1
        latencies.extend(fastest.values())
    query_end = time.perf_counter()
    report["query_ms"] = [latency * 1e3 for latency in latencies]
    report["state_mb"] = sum(s.memory_bytes for s in result.store_stats.values()) / 1e6
    workers = multiprocessing.active_children()
    worker_bytes = sum(_hwm_bytes(process.pid) for process in workers)
    report["peak_rss_mb"] = (_hwm_bytes("self") + worker_bytes) / 1e6

    with open(args.dir.parent / "oracle.json") as handle:
        oracle = json.load(handle)
    expected = oracle["sharded_totals"] if sharded else oracle["totals"]
    got = {str(vertex): total for vertex, total in totals.items() if total != 0.0}
    mismatched = sorted(
        vertex for vertex in set(got) | set(expected)
        if got.get(vertex, 0.0) != expected.get(vertex, 0.0)
    )
    if mismatched:
        report["errors"].append(
            f"buffer totals differ from the oracle on {len(mismatched)} vertices, "
            f"e.g. {mismatched[0]!r}: {got.get(mismatched[0])!r} != "
            f"{expected.get(mismatched[0])!r}"
        )
    if unbalanced:
        report["errors"].append(
            f"{unbalanced} of {PASSES * len(latencies)} queried origin sets do not sum to the "
            "vertex's buffer total"
        )

    if tracer is not None:
        tracer.uninstall()
        report["layers"] = _layers(
            tracer, result, oracle["rows"], worker_bytes,
            (setup_start, setup_end), (start, end), (query_start, query_end),
            kernels.compile_seconds(),
        )
        if args.trace_out is not None:
            tracer.write_chrome_trace(str(args.trace_out), setup_start, os.getpid())


def _layers(tracer, result, rows, worker_bytes, setup, run, query, compile_s):
    def pick(layers: Dict[str, Dict[str, float]], name: str, key: str) -> float:
        return layers[name][key] if name in layers else 0.0

    setup_layers = tracer.layer_times(*setup)
    run_layers = tracer.layer_times(*run)
    query_layers = tracer.layer_times(*query)
    parse_s = pick(run_layers, "datasets.read_network_csv", "self_s")
    engine_s = pick(run_layers, "core.engine.run", "self_s")
    fabric = (result.stream_stats or {}).get("fabric") or {}
    per_shard = [shard["interactions"] for shard in fabric.get("per_shard", [])]
    faults = result.fault_stats or {}
    block_bytes = 0
    if "core.blocks.to_block" in run_layers:
        # Cached by the network since the traced call: no second conversion.
        block_bytes = result.network.to_block().nbytes
    chunks = (result.kernel_stats or {}).get("chunks")
    if chunks is None:
        chunks = (result.scheduler_stats or {}).get("batches", 0)
    return {
        "datasets.parse_s": parse_s,
        "datasets.rows_per_s": rows / parse_s if parse_s else 0.0,
        "core.intern_s": pick(run_layers, "core.blocks.to_block", "self_s"),
        "core.block_mb": block_bytes / 1e6,
        "core.engine.self_s": engine_s,
        "core.engine.ips": result.statistics.interactions / engine_s if engine_s else 0.0,
        "core.engine.chunks": chunks,
        "stores.stats_s": pick(run_layers, "stores.store_stats", "self_s"),
        "stores.entries": result.statistics.final_entry_count,
        "runtime.shm.append_s": pick(run_layers, "runtime.shm.append", "self_s"),
        "runtime.shm.appends": pick(run_layers, "runtime.shm.append", "count"),
        "runtime.shm.finish_s": pick(run_layers, "runtime.shm.finish", "self_s"),
        "runtime.shm.batches": fabric.get("batches", 0),
        "runtime.shm.stalls": fabric.get("backpressure_stalls", 0),
        "runtime.shm.dispatch_mb": fabric.get("dispatch_bytes", 0) / 1e6,
        "runtime.shm.shard_skew": max(per_shard) / min(per_shard) if per_shard else 0.0,
        "runtime.shm.worker_rss_mb": worker_bytes / 1e6,
        "runtime.faults.commits": faults.get("commits", 0),
        "runtime.faults.retries": faults.get("retries", 0),
        "runtime.faults.replayed_batches": faults.get("replayed_batches", 0),
        "runtime.partition_s": pick(run_layers, "runtime.partition_network", "self_s"),
        "runtime.build_policy_s": pick(run_layers, "runtime.build_policy", "self_s"),
        "core.kernels.resolve_s": pick(setup_layers, "core.kernels.get_kernel", "total_s"),
        "core.kernels.compile_s": compile_s,
        "runtime.shm.spawn_s": pick(setup_layers, "runtime.shm.ensure_workers", "total_s"),
        "query.origins_s": pick(query_layers, "query.origins", "total_s"),
        "query.count": pick(query_layers, "query.origins", "count"),
        "trace.coverage": tracer.coverage(*run),
    }


def _close(report: Dict[str, Any]) -> None:
    """Shut the worker pool down and fail the run on anything left behind."""
    shm = sys.modules.get("repro.runtime.shm")
    if shm is not None:
        shm.shutdown_worker_pool()
        segments = shm.active_segments()
        if segments:
            report["errors"].append(f"leaked shared-memory segments: {segments}")
    children = multiprocessing.active_children()
    if children:
        report["errors"].append(f"leaked worker processes: {[p.pid for p in children]}")
        return
    # The pool starts multiprocessing's resource tracker; stop and reap it
    # so the run leaves no process behind (it exits once its pipe closes).
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=("plain", "traced", "fused"))
    parser.add_argument("--spawned-at", required=True, type=float)
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    report: Dict[str, Any] = {"mode": args.mode, "errors": []}
    try:
        _run(WORKLOADS[args.workload], args, report)
    except Exception:
        report["errors"].append(traceback.format_exc())
    finally:
        try:
            _close(report)
        except Exception:
            report["errors"].append(traceback.format_exc())
    with open(args.report, "w") as handle:
        json.dump(report, handle)
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
