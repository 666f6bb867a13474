"""Fused-kernel benchmark: whole-run kernels vs object batches and the numpy rung.

Measures, per policy family with a columnar kernel, three execution tiers
over preset datasets, each driven straight through the engine:

* ``batched`` — the network's interaction objects in batches
  (``engine.run(network.interactions, batch_size=...)``),
* ``columnar`` — the numpy rung of the fused ladder: the network's block
  (``engine.run(block)``) with compiled backends off, as under
  ``REPRO_JIT=0``,
* ``fused`` — the same block run with the compiled backend that resolves
  (numba, else cc; the numpy rung again when neither does): the entire
  clip span runs inside one ``process_run`` call.

and writes a ``BENCH_kernel_fusion.json`` record with seconds,
interactions per second and the fused-vs-columnar / fused-vs-batched
ratios, plus the backend that actually served each fused run and its
compile time (always measured outside the timed region — the engine
resolves the backend before its run timer starts, and this harness
resolves every kernel once before any timed round).  Tiers are measured in
interleaved rounds (round-robin over tiers, best of ``--repeats``) with
the garbage collector paused inside the timed region.

The proportional-dense rows additionally measure:

* the **store-arena tiers** (``fused@dense`` / ``fused@mmap``): the fused
  kernel driven directly over a :class:`DenseNumpyStore` /
  :class:`MmapDenseStore` arena — the configuration that used to demote
  to the materialising adapter under the pointer-table layout;
* the **arena-vs-pointer-table** ratio against the recorded fused seconds
  of the pointer-table layout (the generation before the CSR arena, same
  datasets, same cc backend, full scale) — only emitted at ``--scale 1.0``
  where the baseline is comparable;

and a ``checkpoint_write`` section times ``save_engine`` per store backend
on the dense policy, showing the dense/mmap packed writers against the
per-key dict pickling (the mmap column is the arena-sidecar write).  The
CI benchmark-smoke job runs this script; run it locally with::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--scale 0.5] [--output path.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

from repro.core import kernels
from repro.core.checkpoint import save_engine
from repro.core.engine import ProvenanceEngine
from repro.datasets.catalog import load_preset
from repro.runtime import DEFAULT_BATCH_SIZE, RunConfig, Runner, build_policy

#: (policy, dataset) pairs measured.  The compiled-kernel policies run on
#: every preset where they are feasible; the entry-based families ride on
#: the pure fused tier (their fusion is the whole-span Python loop).
CASES = (
    ("noprov", "bitcoin"),
    ("noprov", "taxis"),
    ("noprov", "flights"),
    ("proportional-dense", "taxis"),
    ("proportional-dense", "flights"),
    ("fifo", "bitcoin"),
    ("lrb", "taxis"),
)

TIERS = ("batched", "columnar", "fused")

#: Extra fused tiers measured for the policies whose kernels take a store
#: arena directly: tier name -> store backend.
STORE_TIERS = {"fused_dense_store": "dense", "fused_mmap_store": "mmap"}
STORE_TIER_POLICIES = frozenset({"proportional-dense"})

#: Best fused seconds of the pointer-table generation (the layout before
#: the CSR-flattened arena: per-row ndarrays behind a ctypes address
#: table), recorded by this same harness at scale 1.0 on the cc backend.
#: The arena-vs-pointer-table column divides these by the current fused
#: seconds; at any other scale the ratio is omitted as incomparable.
POINTER_TABLE_BASELINE = {
    ("proportional-dense", "taxis"): 0.006049854000593768,
    ("proportional-dense", "flights"): 0.00445064999985334,
}

#: save_engine timing: store backends compared on the dense policy.
CHECKPOINT_STORES = ("dict", "dense", "mmap")
CHECKPOINT_CASE = ("proportional-dense", "taxis")


@contextmanager
def compiled_backends_off():
    """The numpy rung of the fused ladder: compiled backends disabled exactly
    as ``REPRO_JIT=0`` disables them, then re-resolved on exit."""
    previous = os.environ.get("REPRO_JIT")
    os.environ["REPRO_JIT"] = "0"
    kernels.reset()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_JIT", None)
        else:
            os.environ["REPRO_JIT"] = previous
        kernels.reset()


def engine_tier(network, policy_name: str, batch_size: int, tier: str, store=None):
    """One engine run of one tier; ``(seconds, result)``.

    ``batched`` feeds the network's interaction objects, every other tier
    its block (``columnar`` with compiled backends off).  The policy is
    built and reset with the network's universe outside the timed region,
    and the collector is paused inside it.
    """
    policy = build_policy(
        RunConfig(dataset=network, policy=policy_name, store=store), network
    )
    policy.reset(network.vertices)
    engine = ProvenanceEngine(policy)
    if tier == "batched":
        source, options = network.interactions, {"batch_size": batch_size}
    else:
        source, options = network.to_block(), {}
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        if tier == "columnar":
            with compiled_backends_off():
                statistics = engine.run(source, reset=False, **options)
        else:
            statistics = engine.run(source, reset=False, **options)
    finally:
        if gc_was_enabled:
            gc.enable()
    result = SimpleNamespace(statistics=statistics, kernel_stats=engine.kernel_stats())
    return statistics.elapsed_seconds, result


def case_tiers(policy_name: str):
    """Tier name -> store backend (None = dict) measured for one policy."""
    tiers = {tier: None for tier in TIERS}
    if policy_name in STORE_TIER_POLICIES:
        tiers.update(STORE_TIERS)
    return tiers


def measure_case(network, policy_name: str, batch_size: int, repeats: int):
    """Best seconds (and matching results) per tier, interleaved rounds."""
    tiers = case_tiers(policy_name)
    best = {tier: float("inf") for tier in tiers}
    best_results = {tier: None for tier in tiers}
    network.to_block()  # columnar conversion happens outside every round
    for _ in range(repeats):
        for tier, store in tiers.items():
            seconds, result = engine_tier(
                network, policy_name, batch_size, tier, store
            )
            if seconds < best[tier]:
                best[tier] = seconds
                best_results[tier] = result
    return best, best_results


def measure_checkpoint_writes(scale: float, repeats: int, workdir: Path):
    """``save_engine`` seconds and bytes per store backend, best of repeats.

    One finished dense-policy run per backend; the timed region is the
    checkpoint write alone (state pickling + any arena sidecar, fsync
    included).  The dict column pays one pickled ndarray per vertex key,
    the dense column pickles a single packed matrix, and the mmap column
    routes the matrix through the arena-sidecar writer — which is what
    decouples dense checkpoint cost from the key count.
    """
    policy_name, dataset = CHECKPOINT_CASE
    network = load_preset(dataset, scale=scale)
    rows = []
    for store in CHECKPOINT_STORES:
        result = Runner(
            RunConfig(dataset=network, policy=policy_name, store=store)
        ).run()
        engine = result.engine
        path = workdir / f"bench.{store}.ckpt"
        best = float("inf")
        for _ in range(max(repeats, 2)):
            gc.collect()
            started = time.perf_counter()
            save_engine(engine, path)
            best = min(best, time.perf_counter() - started)
        sidecar_bytes = sum(
            sidecar.stat().st_size for sidecar in workdir.glob(f"{path.name}.*.arena")
        )
        rows.append({
            "store": store,
            "entries": result.statistics.final_entry_count,
            "save_seconds": best,
            "state_bytes": path.stat().st_size,
            "arena_sidecar_bytes": sidecar_bytes,
        })
        print(
            f"checkpoint write [{store:5s}]: {best * 1e3:8.3f} ms, "
            f"state {rows[-1]['state_bytes']:,} B, "
            f"sidecar {sidecar_bytes:,} B"
        )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    parser.add_argument("--repeats", type=int, default=5, help="runs per tier")
    parser.add_argument(
        "--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
        help="batch size of the batched tier",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_kernel_fusion.json",
        help="where to write the JSON record",
    )
    args = parser.parse_args()

    # Resolve (and possibly compile) every kernel once, before any timed
    # round; the engine additionally keeps prepare_fused outside its timer.
    for name in kernels.KERNEL_NAMES:
        kernels.get_kernel(name)
    compile_warmup = kernels.compile_seconds()

    records = []
    for policy_name, dataset in CASES:
        network = load_preset(dataset, scale=args.scale)
        best, best_results = measure_case(
            network, policy_name, args.batch_size, args.repeats
        )
        batched, columnar, fused = best["batched"], best["columnar"], best["fused"]
        fused_stats = best_results["fused"].kernel_stats or {}
        interactions = network.num_interactions
        record = {
            "policy": policy_name,
            "dataset": dataset,
            "interactions": interactions,
            "batched_seconds": batched,
            "columnar_seconds": columnar,
            "fused_seconds": fused,
            "batched_ips": interactions / batched if batched else 0.0,
            "columnar_ips": interactions / columnar if columnar else 0.0,
            "fused_ips": interactions / fused if fused else 0.0,
            "fused_vs_columnar": columnar / fused if fused else 0.0,
            "fused_vs_batched": batched / fused if fused else 0.0,
            "fused_backend": fused_stats.get("backend"),
            "fused_chunks": fused_stats.get("chunks"),
            "fused_compile_seconds": fused_stats.get("compile_seconds"),
        }
        baseline = POINTER_TABLE_BASELINE.get((policy_name, dataset))
        if baseline is not None and args.scale == 1.0 and fused:
            record["pointer_table_fused_seconds"] = baseline
            record["arena_vs_pointer_table"] = baseline / fused
        for tier, store in STORE_TIERS.items():
            if best.get(tier, float("inf")) == float("inf"):
                continue
            seconds = best[tier]
            stats = best_results[tier].kernel_stats or {}
            record[f"{tier}_seconds"] = seconds
            record[f"{tier}_ips"] = interactions / seconds if seconds else 0.0
            record[f"{tier}_backend"] = stats.get("backend")
        records.append(record)
        print(
            f"{policy_name:20s} on {dataset:8s}: "
            f"{record['batched_ips']:>10,.0f} batched ips -> "
            f"{record['columnar_ips']:>10,.0f} columnar -> "
            f"{record['fused_ips']:>10,.0f} fused[{record['fused_backend']}] "
            f"({record['fused_vs_columnar']:.2f}x vs columnar, "
            f"{record['fused_vs_batched']:.2f}x vs batched)"
        )
        if "fused_dense_store_ips" in record:
            arena_note = (
                f", {record['arena_vs_pointer_table']:.2f}x vs pointer-table"
                if "arena_vs_pointer_table" in record
                else ""
            )
            print(
                f"{'':20s}    store arenas: "
                f"{record['fused_dense_store_ips']:>10,.0f} fused@dense ips, "
                f"{record['fused_mmap_store_ips']:>10,.0f} fused@mmap ips"
                f"{arena_note}"
            )

    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        checkpoint_rows = measure_checkpoint_writes(
            args.scale, args.repeats, Path(scratch)
        )

    payload = {
        "benchmark": "fused_kernel_throughput",
        "scale": args.scale,
        "batch_size": args.batch_size,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "jit_enabled": kernels.jit_enabled(),
        "backends": {name: kernels.backend_of(name) for name in kernels.KERNEL_NAMES},
        "backend_failures": kernels.backend_failures(),
        "compile_seconds_untimed": compile_warmup,
        "results": records,
        "checkpoint_write": {
            "policy": CHECKPOINT_CASE[0],
            "dataset": CHECKPOINT_CASE[1],
            "results": checkpoint_rows,
        },
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    failures = []
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
    # CI gate: with numba installed, proportional-dense must resolve to the
    # njit backend — the arena layout exists so the dispatcher no longer
    # demotes it to a slower tier.
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    if have_numba and kernels.backend_of("proportional-dense") != "numba":
        print(
            "FAIL: numba installed but proportional-dense resolved to",
            kernels.backend_of("proportional-dense"),
            "— demotion is back:",
            kernels.backend_failures(),
        )
        failures.append("numba_demotion")
    # Raw-speed-floor gate (full scale only, where the recorded baseline is
    # comparable): the CSR arena kernel must beat the pointer-table layout
    # by >=1.5x on at least one bundled dataset.
    arena_ratios = [
        r["arena_vs_pointer_table"]
        for r in records
        if "arena_vs_pointer_table" in r
    ]
    if arena_ratios and max(arena_ratios) < 1.5:
        print(
            "FAIL: arena kernel not >=1.5x the pointer-table baseline on any "
            "dataset:",
            [f"{ratio:.2f}x" for ratio in arena_ratios],
        )
        failures.append("arena_floor")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
