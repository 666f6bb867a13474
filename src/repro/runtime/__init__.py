"""Execution runtime: the Runner pipeline, run configuration and sharding.

This package is the architectural seam between the paper's per-interaction
algorithms (:mod:`repro.core`, :mod:`repro.policies`) and everything that
*drives* them.  All callers — CLI, benchmark harness, experiments, examples
— execute runs through :class:`Runner`, which adds batched policy execution,
pluggable provenance-store backends (``RunConfig(store=...)``, see
:mod:`repro.stores`) and sharded partition runs on top of the core engine.
"""

from repro.runtime.config import DEFAULT_BATCH_SIZE, RunConfig
from repro.runtime.faults import FaultPlan, fault_plan
from repro.runtime.mincut import (
    DEFAULT_IMBALANCE,
    PartitionStats,
    interaction_graph,
    mincut_membership,
)
from repro.runtime.partition import (
    PartitionPlan,
    Shard,
    ShardRun,
    connected_components,
    fork_payload_bytes,
    merge_snapshots,
    merge_statistics,
    partition_network,
    run_shards,
    shard_row_positions,
    stable_shard_index,
    stable_shard_indices,
)
from repro.runtime.runner import Runner, RunResult, build_policy, run

__all__ = [
    "RunConfig",
    "DEFAULT_BATCH_SIZE",
    "FaultPlan",
    "fault_plan",
    "Runner",
    "RunResult",
    "run",
    "build_policy",
    "Shard",
    "PartitionPlan",
    "PartitionStats",
    "DEFAULT_IMBALANCE",
    "ShardRun",
    "interaction_graph",
    "mincut_membership",
    "connected_components",
    "fork_payload_bytes",
    "partition_network",
    "shard_row_positions",
    "stable_shard_index",
    "stable_shard_indices",
    "run_shards",
    "merge_statistics",
    "merge_snapshots",
]
