"""The Runner: single entry point for executing provenance runs.

Every execution surface of the repository — the CLI, the benchmark harness,
the experiment implementations and the examples — drives the library through
:class:`Runner`.  The Runner owns the whole pipeline:

1. **dataset resolution** — preset name, CSV path (materialised or lazily
   streamed), in-memory network or raw interaction iterable;
2. **policy construction** — registry names (with the structural options of
   the scalable policies resolved against the dataset) or ready instances;
3. **observer wiring** — analysis observers, memory ceilings, periodic
   checkpoint observers;
4. **execution** — batched single-engine runs, or sharded runs with one
   engine per vertex partition (serial / threads / processes);
5. **result assembly** — merged statistics, feasibility classification,
   memory accounting, per-store spill statistics, final checkpointing,
   structured JSON export and uniform provenance queries over whatever ran.

Typical use::

    from repro.runtime import Runner, RunConfig

    result = Runner(RunConfig(dataset="taxis", policy="fifo")).run()
    print(result.statistics.interactions_per_second)
    print(result.origins(result.top_buffers(1)[0][0]).top(5))

or, for one-liners, the module-level convenience wrapper::

    from repro.runtime import run
    result = run(dataset="bitcoin", policy="proportional-sparse", scale=0.2)
"""

from __future__ import annotations

import copy
import json
import logging
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.blocks import InteractionBlock, VertexInterner
from repro.core.checkpoint import (
    engine_from_checkpoint,
    read_checkpoint,
    save_checkpoint_state,
    save_engine,
)
from repro.core.engine import ProvenanceEngine, RunStatistics
from repro.core.interaction import Interaction, Vertex
from repro.core.network import TemporalInteractionNetwork
from repro.core.provenance import OriginSet, ProvenanceSnapshot
from repro.datasets.catalog import available_presets, load_preset
from repro.datasets.io import read_interactions_csv, read_network_csv
from repro.exceptions import (
    MemoryBudgetExceededError,
    RunConfigurationError,
    SegmentAllocationError,
)
from repro.metrics.memory import MemoryCeiling, policy_memory_bytes
from repro.policies.base import SelectionPolicy
from repro.policies.registry import make_policy
from repro.runtime.config import RunConfig
from repro.runtime.partition import (
    PartitionPlan,
    Shard,
    ShardRun,
    merge_snapshots,
    merge_statistics,
    partition_network,
    plan_membership,
    run_shards,
    shard_row_positions,
    warmup_membership,
)
from repro.sources import (
    CsvTailSource,
    InteractionSource,
    MicroBatchScheduler,
    PartitionedScheduler,
    SequenceSource,
)
from repro.stores import StoreStats, merge_store_stats

__all__ = ["Runner", "RunResult", "run", "build_policy"]

_LOG = logging.getLogger(__name__)

#: Warm-up prefix pulled off a live source to freeze a min-cut membership
#: when ``streaming_warmup`` is not set explicitly.
DEFAULT_STREAM_WARMUP = 4096


def _record_degradation(
    fault: Dict[str, Any], source: str, target: str, error: BaseException
) -> None:
    """Log and record one rung of the executor degradation ladder."""
    reason = f"{type(error).__name__}: {error}"
    _LOG.warning("degrading %s -> %s after %s", source, target, reason)
    fault.setdefault("degradations", []).append(
        {"from": source, "to": target, "reason": reason}
    )


def _fault_summary(fault: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The fault dict when anything actually went wrong, else ``None``."""
    return fault if any(fault.values()) else None


def build_policy(
    config: RunConfig,
    network: Optional[TemporalInteractionNetwork],
) -> SelectionPolicy:
    """Construct the policy a config describes, resolving dataset context.

    Ready instances are returned as-is.  Registry names are instantiated
    with ``config.policy_options``; the scalable policies whose constructors
    need dataset context are special-cased exactly as the CLI historically
    did:

    * ``proportional-dense`` receives the vertex universe,
    * ``proportional-selective`` tracks the top-``k`` contributors
      (``k`` option, default 5),
    * ``proportional-grouped`` uses ``num_groups`` round-robin groups
      (default 5).
    """
    spec = config.policy
    if isinstance(spec, SelectionPolicy):
        return spec
    options = dict(config.policy_options)
    store_spec = config.store_spec
    if store_spec is not None:
        options.setdefault("store", store_spec)
    if spec == "proportional-dense" and network is not None:
        options.setdefault("vertices", network.vertices)
        return make_policy(spec, **options)
    if spec == "proportional-selective" and "tracked" not in options:
        if network is None:
            raise RunConfigurationError(
                "proportional-selective needs a network to pick the top-k "
                "contributors; pass a preset/CSV/network dataset or construct "
                "the policy yourself"
            )
        from repro.scalable.selective import SelectiveProportionalPolicy

        return SelectiveProportionalPolicy.for_top_contributors(
            network, k=options.pop("k", 5), **options
        )
    if spec == "proportional-grouped" and "groups" not in options:
        if network is None:
            raise RunConfigurationError(
                "proportional-grouped needs a network to form vertex groups; "
                "pass a preset/CSV/network dataset or construct the policy "
                "yourself"
            )
        from repro.scalable.grouped import GroupedProportionalPolicy

        return GroupedProportionalPolicy.round_robin(
            network.vertices, num_groups=options.pop("num_groups", 5), **options
        )
    return make_policy(spec, **options)


@dataclass
class RunResult:
    """Everything a completed run produced, with uniform provenance queries.

    Single-engine runs expose their engine; sharded runs expose the
    per-shard runs.  The query helpers (:meth:`origins`,
    :meth:`buffer_total`, :meth:`buffer_totals`, :meth:`snapshot`) work the
    same either way, merging across shards when needed.
    """

    config: RunConfig
    statistics: RunStatistics
    policy: Optional[SelectionPolicy] = None
    network: Optional[TemporalInteractionNetwork] = None
    engine: Optional[ProvenanceEngine] = None
    shard_runs: List[ShardRun] = field(default_factory=list)
    partition: Optional[PartitionPlan] = None
    feasible: bool = True
    memory_bytes: Optional[int] = None
    note: str = ""
    #: Store accounting keyed by state-component role; summed over shards
    #: for sharded runs.  Spill backends report evictions/spilled bytes.
    store_stats: Dict[str, StoreStats] = field(default_factory=dict)
    #: Micro-batch scheduler accounting (batches, flush triggers, peak
    #: in-flight) of batched runs; ``None`` for per-interaction runs and
    #: sharded runs (each shard drives its own scheduler).
    scheduler_stats: Optional[Dict[str, Any]] = None
    #: Columnar-path accounting (mode, interned vertices, ingest bytes of
    #: the column arrays, whether a real array kernel ran); ``None`` when
    #: the run took the object path.  See
    #: :meth:`repro.core.engine.ProvenanceEngine.columnar_stats`.
    columnar_stats: Optional[Dict[str, Any]] = None
    #: Fused-kernel accounting (backend, span count, compile seconds spent
    #: outside the timed region); ``None`` when the run took the object
    #: path.  Sharded runs report the first shard's backend with span
    #: counts summed and compile seconds maxed (shards compile
    #: concurrently at worst).  See
    #: :meth:`repro.core.engine.ProvenanceEngine.kernel_stats`.
    kernel_stats: Optional[Dict[str, Any]] = None
    #: Shared-memory shard-fabric accounting (backend, workers, segment
    #: bytes, exact dispatch bytes, adopted state bytes); ``None`` unless
    #: the run used ``shared_memory=True``.  See :mod:`repro.runtime.shm`.
    shm_stats: Optional[Dict[str, Any]] = None
    #: Partitioned-streaming accounting (routing mode, per-shard batch and
    #: segment-reuse counts, backpressure stalls, checkpoint barriers);
    #: ``None`` unless the run used ``streaming_shards``.
    stream_stats: Optional[Dict[str, Any]] = None
    #: Self-healing accounting: worker respawns, task retries, quarantined
    #: shards (with per-shard crash diagnostics), executor degradations and
    #: recovery wall time, plus malformed rows skipped by the source under
    #: ``on_bad_row="skip"``.  ``None`` when the run had nothing to heal —
    #: a clean run reports no fault stats rather than a block of zeroes.
    fault_stats: Optional[Dict[str, Any]] = None

    @property
    def sharded(self) -> bool:
        return bool(self.shard_runs)

    @property
    def partition_stats(self) -> Optional[Dict[str, Any]]:
        """Quality of the partition plan (cut edges/weight, imbalance,
        build seconds), or ``None`` for unsharded runs.  The build time is
        measured inside :func:`~repro.runtime.partition.partition_network`,
        before the timed region of the run starts."""
        if self.partition is None or self.partition.stats is None:
            return None
        return self.partition.stats.to_dict()

    @property
    def straggler_ratio(self) -> Optional[float]:
        """Max over min per-shard wall time — the load-balance skew.

        1.0 means perfectly even shards; large values mean the pool idles
        waiting for one straggler.  ``None`` for unsharded runs and when a
        shard finished too fast to time (min elapsed is zero).
        """
        if not self.shard_runs:
            return None
        times = [run.statistics.elapsed_seconds for run in self.shard_runs]
        slowest, fastest = max(times), min(times)
        if fastest <= 0.0:
            return None
        return slowest / fastest

    @property
    def dataset_name(self) -> str:
        """Human-readable name of what was run."""
        if self.network is not None:
            return self.network.name
        if self.config.source is not None:
            return type(self.config.source).__name__
        dataset = self.config.dataset
        if isinstance(dataset, (str, Path)):
            return Path(str(dataset)).stem
        if isinstance(dataset, InteractionSource):
            return type(dataset).__name__
        return "stream"

    # ------------------------------------------------------------------
    # provenance queries (uniform over single-engine and sharded runs)
    # ------------------------------------------------------------------
    def origins(self, vertex: Vertex) -> OriginSet:
        """The merged origin decomposition ``O(t, B_v)`` of ``vertex``."""
        if self.engine is not None:
            return self.engine.origins(vertex)
        merged = OriginSet()
        for run in self.shard_runs:
            merged = merged.merge(run.policy.origins(vertex))
        return merged

    def buffer_total(self, vertex: Vertex) -> float:
        """The buffered quantity ``|B_v|`` of ``vertex`` (summed over shards)."""
        if self.engine is not None:
            return self.engine.buffer_total(vertex)
        return sum(run.policy.buffer_total(vertex) for run in self.shard_runs)

    def buffer_totals(self) -> Dict[Vertex, float]:
        """Every non-empty vertex and its buffered quantity."""
        if self.engine is not None:
            return self.engine.buffer_totals()
        totals: Dict[Vertex, float] = {}
        for run in self.shard_runs:
            for vertex in run.policy.tracked_vertices():
                totals[vertex] = totals.get(vertex, 0.0) + run.policy.buffer_total(vertex)
        return totals

    def snapshot(self) -> ProvenanceSnapshot:
        """Provenance of every vertex with a non-empty buffer, right now."""
        if self.engine is not None:
            return self.engine.snapshot()
        return merge_snapshots(self.shard_runs)

    def top_buffers(self, n: int) -> List[Tuple[Vertex, float]]:
        """The ``n`` vertices with the largest buffered quantities."""
        totals = self.buffer_totals()
        return sorted(totals.items(), key=lambda item: (-item[1], repr(item[0])))[:n]

    # ------------------------------------------------------------------
    # structured export
    # ------------------------------------------------------------------
    @property
    def shard_timings(self) -> List[Dict[str, object]]:
        """Per-shard timing/store breakdown rows (empty for single runs)."""
        return [run.timing_row() for run in self.shard_runs]

    @property
    def policy_name(self) -> str:
        """Registry name (or description) of the policy that ran."""
        spec = self.config.policy
        if isinstance(spec, SelectionPolicy):
            return spec.describe()
        if self.policy is not None:
            return self.policy.describe()
        return str(spec)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary of the run: statistics, shards, store usage.

        The structured counterpart of the CLI's human-readable report, and
        the record format behind ``BENCH_*.json`` dashboards — everything is
        plain JSON types (vertices are not included; use the provenance
        query helpers for per-vertex data).
        """
        store_spec = self.config.store_spec
        return {
            "dataset": self.dataset_name,
            "policy": self.policy_name,
            "feasible": self.feasible,
            "note": self.note,
            "statistics": {
                **asdict(self.statistics),
                "interactions_per_second": self.statistics.interactions_per_second,
            },
            "memory_bytes": self.memory_bytes,
            "store": {
                "backend": store_spec.backend if store_spec is not None else None,
                "stats": {
                    role: stats.to_dict() for role, stats in self.store_stats.items()
                },
            },
            "sharding": {
                "sharded": self.sharded,
                "mode": self.partition.mode if self.partition else None,
                "exact": self.partition.exact if self.partition else None,
                "cross_shard_interactions": (
                    self.partition.cross_shard_interactions if self.partition else 0
                ),
                "partition": self.partition_stats,
                "pruned_shards": (
                    self.partition.pruned_shards if self.partition else 0
                ),
                "straggler_ratio": self.straggler_ratio,
                "shards": self.shard_timings,
                "shared_memory": self.shm_stats,
            },
            "streaming": {
                "scheduled": self.scheduler_stats is not None,
                "scheduler": self.scheduler_stats,
                "partitioned": self.stream_stats is not None,
                "stream": self.stream_stats,
            },
            "columnar": {
                "enabled": self.columnar_stats is not None,
                **(self.columnar_stats or {}),
            },
            "kernel": {
                "enabled": self.kernel_stats is not None,
                **(self.kernel_stats or {}),
            },
            "faults": self.fault_stats,
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """The :meth:`to_dict` record rendered as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @property
    def spilled_bytes(self) -> int:
        """Total bytes spilled to disk by all stores (0 for in-memory runs)."""
        return sum(stats.spilled_bytes for stats in self.store_stats.values())


class Runner:
    """Executes one :class:`RunConfig` end to end (see module docstring)."""

    def __init__(self, config: RunConfig):
        self.config = config

    # ------------------------------------------------------------------
    # dataset resolution
    # ------------------------------------------------------------------
    def resolve_dataset(
        self,
    ) -> Tuple[Optional[TemporalInteractionNetwork], Optional[Iterable[Interaction]]]:
        """Turn the configured input into a network or a stream.

        Returns ``(network, stream)``; exactly one of the two is non-None.
        The stream arm is an :class:`~repro.sources.InteractionSource` for
        source-fed and tailed runs, or a plain lazy iterable for streamed
        CSVs and raw interaction iterables.
        """
        config = self.config
        if config.source is not None:
            return None, config.source
        dataset = config.dataset
        if isinstance(dataset, TemporalInteractionNetwork):
            return dataset, None
        if isinstance(dataset, InteractionSource):
            return None, dataset
        if isinstance(dataset, (str, Path)):
            name = str(dataset)
            if name in available_presets():
                if config.follow:
                    raise RunConfigurationError(
                        f"follow=True tails a CSV file; {name!r} is a preset"
                    )
                return load_preset(name, scale=config.scale, seed=config.seed), None
            if config.follow:
                return None, CsvTailSource(
                    name,
                    vertex_type=config.vertex_type,
                    follow=True,
                    idle_timeout=config.idle_timeout,
                    on_bad_row=config.on_bad_row,
                )
            if config.stream:
                return None, read_interactions_csv(name, vertex_type=config.vertex_type)
            return read_network_csv(name, vertex_type=config.vertex_type), None
        # Any other iterable of interactions is treated as a raw stream.
        return None, dataset

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the configured run and return its result."""
        if self.config.uses_partitioned_streaming:
            return self._run_partitioned_streaming()
        network, stream = self.resolve_dataset()
        if self.config.shards > 1:
            if network is None:
                # __post_init__ rejects stream=True + shards, but a raw
                # interaction iterable also resolves to a stream.
                raise RunConfigurationError(
                    "sharded runs need the full network; pass a preset name, "
                    "a CSV path or a TemporalInteractionNetwork"
                )
            return self._run_sharded(network)
        return self._run_single(network, stream)

    def _run_single(
        self,
        network: Optional[TemporalInteractionNetwork],
        stream: Optional[Iterable[Interaction]],
    ) -> RunResult:
        config = self.config

        # Resumed runs restore the whole engine (policy state plus stream
        # offset) from the checkpoint and skip what it already processed.
        resumed: Optional[ProvenanceEngine] = None
        resume_token: Optional[dict] = None
        skip = 0
        if config.resume_from is not None:
            checkpoint_state = read_checkpoint(config.resume_from)
            # base_path resolves any arena sidecar files (mmap store tier)
            # living next to the checkpoint.
            resumed = engine_from_checkpoint(
                checkpoint_state, base_path=config.resume_from
            )
            resume_token = checkpoint_state.get("source_resume")
            skip = resumed.interactions_processed
            policy = resumed.policy
            engine = resumed
            for observer in config.observers:
                engine.add_observer(observer)
        else:
            policy = build_policy(config, network)
            engine = ProvenanceEngine(policy, observers=list(config.observers))

        ceiling: Optional[MemoryCeiling] = None
        if config.memory_ceiling_bytes is not None and config.memory_check_every:
            ceiling = MemoryCeiling(
                config.memory_ceiling_bytes, check_every=config.memory_check_every
            )
            engine.add_observer(ceiling)

        observed = bool(config.observers) or ceiling is not None
        # Observers force per-interaction stepping, where periodic
        # checkpoints ride an observer; every other run clips its batches
        # or spans at the checkpoint boundaries.
        checkpoint_in_loop = bool(config.checkpoint_every) and not observed
        if config.checkpoint_every:
            if config.checkpoint_path is None:
                raise RunConfigurationError(
                    "checkpoint_every needs a checkpoint_path to write to"
                )
            if not checkpoint_in_loop:
                engine.add_observer(_CheckpointObserver(
                    Path(config.checkpoint_path), config.checkpoint_every
                ))

        source: Union[
            TemporalInteractionNetwork, InteractionBlock, Iterable[Interaction]
        ] = network if network is not None else stream
        scheduler: Optional[MicroBatchScheduler] = None
        seek_base: Optional[InteractionSource] = None
        if (
            resumed is not None
            and network is not None
            and config.micro_batch is None
            and config.max_in_flight is None
            and config.flush_interval is None
            and not observed
            and config.effective_batch_size > 1
            and policy.has_columnar_kernel()
        ):
            # The engine runs this network's block: skip the processed
            # prefix with one zero-copy slice — no interaction object is
            # built and nothing is replayed.
            block = network.to_block()
            source = block.slice(min(skip, len(block)), len(block))
        elif config.uses_scheduler or isinstance(stream, InteractionSource):
            if isinstance(stream, InteractionSource):
                base = stream
                seek_base = base
                if skip:
                    # Prefer the committed offset: seek the source straight
                    # to the checkpointed position.  Sources that cannot
                    # seek (or tokens that no longer resolve) fall back to
                    # replaying and discarding the processed prefix.
                    if resume_token is None or not base.seek_resume(resume_token):
                        _drain_source(base, skip)
            else:
                iterable = stream if stream is not None else network.interactions
                if skip:
                    iterable = islice(iter(iterable), skip, None)
                # limit bounds consumption too: the scheduler's read-ahead
                # must not drain a caller's iterator past the limit.
                base = SequenceSource(iterable, limit=config.limit)
            scheduler_options: Dict[str, Any] = {}
            if config.max_in_flight is not None:
                scheduler_options["max_in_flight"] = config.max_in_flight
            scheduler = MicroBatchScheduler(
                base,
                micro_batch=config.effective_micro_batch,
                flush_interval=config.flush_interval,
                # read-ahead must not drain a caller's source past the limit
                max_pull=config.limit,
                **scheduler_options,
            )
            if network is None:
                source = scheduler

        on_checkpoint = None
        if checkpoint_in_loop:
            checkpoint_path = Path(config.checkpoint_path)

            def on_checkpoint(eng: ProvenanceEngine, _processed: int) -> None:
                save_engine(
                    eng,
                    checkpoint_path,
                    source_resume=_source_resume_token(seek_base, eng),
                )

        # The Runner closes sources it constructed itself — the follow tail
        # source, wrappers over files it opened or networks it loaded — so a
        # run ending before exhaustion (limit hit, memory abort) releases
        # file handles promptly.  Caller-passed sources AND caller-passed
        # raw iterables/generators stay theirs to manage: a generator may be
        # continued after a limited run (the reset=False pattern).
        owns_stream = (
            config.source is None
            and not isinstance(config.dataset, InteractionSource)
            and (network is not None or isinstance(config.dataset, (str, Path)))
        )
        try:
            statistics = engine.run(
                source,
                reset=resumed is None,
                limit=config.limit,
                sample_every=config.sample_every,
                batch_size=config.effective_batch_size,
                scheduler=scheduler,
                checkpoint_every=config.checkpoint_every if checkpoint_in_loop else 0,
                on_checkpoint=on_checkpoint,
            )
        except MemoryBudgetExceededError as error:
            return RunResult(
                config=config,
                statistics=RunStatistics(interactions=engine.interactions_processed),
                policy=policy,
                network=network,
                engine=engine,
                feasible=False,
                memory_bytes=error.used_bytes,
                note=str(error),
                store_stats=policy.store_stats(),
                scheduler_stats=engine.scheduler_stats(),
                columnar_stats=engine.columnar_stats(),
                kernel_stats=engine.kernel_stats(),
            )
        finally:
            if scheduler is not None and owns_stream:
                scheduler.close()

        memory_bytes: Optional[int] = None
        if config.measure_memory or config.memory_ceiling_bytes is not None:
            # stores() flushes any transient columnar mirror first, so the
            # measured footprint (and the ceiling verdict) matches the
            # object path's.
            policy.stores()
            memory_bytes = policy_memory_bytes(policy)
            if ceiling is not None:
                memory_bytes = max(memory_bytes, ceiling.peak_bytes)
        if (
            config.memory_ceiling_bytes is not None
            and memory_bytes is not None
            and memory_bytes > config.memory_ceiling_bytes
        ):
            return RunResult(
                config=config,
                statistics=statistics,
                policy=policy,
                network=network,
                engine=engine,
                feasible=False,
                memory_bytes=memory_bytes,
                note=(
                    f"final provenance state uses {memory_bytes} bytes which "
                    f"exceeds the ceiling of {config.memory_ceiling_bytes} bytes"
                ),
                store_stats=policy.store_stats(),
                scheduler_stats=engine.scheduler_stats(),
                columnar_stats=engine.columnar_stats(),
                kernel_stats=engine.kernel_stats(),
            )

        if config.checkpoint_path is not None:
            save_engine(
                engine,
                config.checkpoint_path,
                source_resume=_source_resume_token(seek_base, engine),
            )

        fault: Dict[str, Any] = {}
        if seek_base is not None and getattr(seek_base, "bad_rows", 0):
            fault["bad_rows"] = seek_base.bad_rows
        return RunResult(
            config=config,
            statistics=statistics,
            policy=policy,
            network=network,
            engine=engine,
            memory_bytes=memory_bytes,
            store_stats=policy.store_stats(),
            scheduler_stats=engine.scheduler_stats(),
            columnar_stats=engine.columnar_stats(),
            kernel_stats=engine.kernel_stats(),
            fault_stats=_fault_summary(fault),
        )

    def shard_plan(
        self, network: TemporalInteractionNetwork
    ) -> Tuple[PartitionPlan, List[SelectionPolicy]]:
        """Partition plus per-shard policies, exactly as a sharded run ships.

        The plan routes the network's cached block, so every shard carries
        its columns (and builds objects only if a shard engine runs them).
        Public so the bench harness can measure the fork payload of
        precisely the plan a run would dispatch, without re-implementing
        this logic.
        """
        config = self.config
        plan = partition_network(
            network,
            config.shards,
            mode=config.shard_by,
            limit=config.limit,
            imbalance=config.shard_imbalance,
            seed=config.partition_seed,
        )
        return plan, self._shard_policies(network, plan)

    def _run_sharded(self, network: TemporalInteractionNetwork) -> RunResult:
        config = self.config
        plan, policies = self.shard_plan(network)
        shm_stats: Optional[Dict[str, Any]] = None
        fault: Dict[str, Any] = {}
        if config.uses_shared_memory:
            from repro.runtime import shm as _shm

            try:
                # build_shared_plan copies the plan's routed shard columns
                # straight into the fabric's shared segment.
                runs, statistics, shm_stats = _shm.run_shards_shared(
                    plan,
                    policies,
                    batch_size=config.effective_batch_size,
                    sample_every=config.sample_every,
                    max_workers=config.max_workers,
                    max_retries=config.max_task_retries,
                    retry_backoff=config.retry_backoff,
                    fault_stats=fault,
                )
            except _shm.ShardQuarantinedError:
                # A shard whose own work deterministically crashes its worker
                # would crash ANY executor — degrading just re-runs the crash
                # more slowly.  Fail fast with the per-shard diagnostics.
                raise
            except (SegmentAllocationError, _shm.WorkerCrashedError) as error:
                # Infra failure (segment allocation, respawn storm, a crash
                # with retries disabled): the work itself may be fine on a
                # transport that does not need /dev/shm or a persistent pool.
                if config.degradation != "auto":
                    raise
                _record_degradation(fault, "shared-memory", "processes", error)
                runs, statistics = self._run_shards_degraded(plan, policies, fault)
        else:
            runs, statistics = run_shards(
                plan,
                policies,
                batch_size=config.effective_batch_size,
                sample_every=config.sample_every,
                executor=config.shard_executor,
                max_workers=config.max_workers,
            )

        memory_bytes: Optional[int] = None
        feasible = True
        note = "" if plan.exact else (
            f"{plan.mode}-sharded run: origin decompositions are approximate "
            f"for {plan.cross_shard_interactions} cross-shard interactions"
        )
        if config.measure_memory or config.memory_ceiling_bytes is not None:
            memory_bytes = sum(policy_memory_bytes(run.policy) for run in runs)
            if (
                config.memory_ceiling_bytes is not None
                and memory_bytes > config.memory_ceiling_bytes
            ):
                feasible = False
                note = (
                    f"sharded provenance state uses {memory_bytes} bytes which "
                    f"exceeds the ceiling of {config.memory_ceiling_bytes} bytes"
                )

        return RunResult(
            config=config,
            statistics=statistics,
            network=network,
            shard_runs=list(runs),
            partition=plan,
            feasible=feasible,
            memory_bytes=memory_bytes,
            note=note,
            store_stats=merge_store_stats(run.store_stats for run in runs),
            kernel_stats=_merge_kernel_stats(runs),
            shm_stats=shm_stats,
            fault_stats=_fault_summary(fault),
        )

    def _run_shards_degraded(
        self,
        plan: PartitionPlan,
        policies: List[SelectionPolicy],
        fault: Dict[str, Any],
    ) -> Tuple[List[ShardRun], RunStatistics]:
        """Re-run a plan off the shared-memory fabric (degradation ladder).

        First rung: the pickled process executor (no shared segments, fresh
        pool per run).  If that pool cannot even start or breaks, last
        rung: serial in-process execution, which needs nothing from the
        environment.  The parent's ``policies`` were never mutated by the
        failed attempt (workers run unpickled copies), so a re-run from
        them is bit-identical to a clean run.
        """
        config = self.config
        kwargs = dict(
            batch_size=config.effective_batch_size,
            sample_every=config.sample_every,
        )
        try:
            return run_shards(
                plan,
                policies,
                executor="processes",
                max_workers=config.max_workers,
                **kwargs,
            )
        except (OSError, RuntimeError) as error:
            # concurrent.futures surfaces a dead pool as BrokenProcessPool
            # (a RuntimeError subclass); fork/spawn failures as OSError.
            _record_degradation(fault, "processes", "serial", error)
            return run_shards(plan, policies, executor="serial", **kwargs)

    def _degrade_streaming(
        self, fault: Dict[str, Any], error: BaseException
    ) -> Optional[RunResult]:
        """Fall back to the single-consumer path when the fabric cannot start.

        Segment allocation failing before anything streamed (ENOSPC on
        /dev/shm, fd exhaustion) means the partitioned transport is
        unavailable, not that the run is wrong — a single in-process engine
        consumes the same stream without shared segments and produces the
        provenance the merged shards would have.  Only for fresh runs under
        ``degradation="auto"``: a partitioned manifest cannot be resumed by
        the single-engine path, so resumed runs raise instead of silently
        switching checkpoint formats.  Returns ``None`` when degrading is
        not allowed (the caller re-raises).
        """
        config = self.config
        if config.degradation != "auto" or config.resume_from is not None:
            return None
        _record_degradation(fault, "shm-stream", "single", error)
        result = Runner(replace(config, streaming_shards=0)).run()
        combined = dict(fault)
        for key, value in (result.fault_stats or {}).items():
            if key == "degradations":
                combined.setdefault("degradations", []).extend(value)
            else:
                combined[key] = value
        result.fault_stats = _fault_summary(combined)
        return result

    # ------------------------------------------------------------------
    # partitioned streaming (streaming_shards > 0)
    # ------------------------------------------------------------------
    def _run_partitioned_streaming(self) -> RunResult:
        """Partitioned streaming run over the shared-memory stream fabric.

        Interactions are routed to vertex shards and dispatched as columnar
        micro-batches through rolling shared-memory segments into resident
        pool workers (one engine per shard, alive across batches).  Two
        drivers share the machinery:

        * **dataset-backed** — the network's cached block is routed with one
          fancy-index per shard and dispatched in capacity-sized slices
          (no per-interaction Python on the hot path);
        * **source-fed** — a :class:`~repro.sources.PartitionedScheduler`
          polls the live source, routes by frozen membership (a min-cut
          warm-up prefix) or stable hash, and flushes per-shard queues
          under the usual size/wall-time triggers.

        Either way each shard's engine sees exactly the subsequence an
        eager sharded run would hand it, with cumulative sample/peak/
        checkpoint clipping — results are bit-identical.
        """
        network, stream = self.resolve_dataset()
        if network is not None:
            return self._stream_partitioned_network(network)
        return self._stream_partitioned_source(stream)

    def _read_partitioned_manifest(self) -> dict:
        state = read_checkpoint(self.config.resume_from)
        if state.get("kind") != "partitioned-stream":
            raise RunConfigurationError(
                "resume_from checkpoint is a single-engine checkpoint, not a "
                "partitioned-streaming manifest; drop streaming_shards (or "
                "re-checkpoint with it) to resume this file"
            )
        return state

    def _stream_partitioned_network(self, network: TemporalInteractionNetwork) -> RunResult:
        from repro.runtime.shm import ShardStreamFabric

        config = self.config
        capacity = config.effective_micro_batch
        if config.checkpoint_every and config.checkpoint_path is None:
            raise RunConfigurationError(
                "checkpoint_every needs a checkpoint_path to write to"
            )
        manifest: Optional[dict] = None
        skip = 0
        if config.resume_from is not None:
            manifest = self._read_partitioned_manifest()
            skip = int(manifest.get("interactions_processed", 0))
        block = network.to_block()
        # The plan is built over the FULL network (no limit clip) so a
        # resumed run reproduces the original membership regardless of what
        # limit either invocation used; limits only clip dispatch below.
        plan = partition_network(
            network,
            config.streaming_shards,
            mode=config.shard_by,
            block=block,
            imbalance=config.shard_imbalance,
            seed=config.partition_seed,
        )
        num_shards = len(plan.shards)
        if manifest is not None:
            states = manifest.get("shard_states") or []
            if len(states) != num_shards:
                raise RunConfigurationError(
                    f"partitioned manifest has {len(states)} shard states but "
                    f"the rebuilt plan has {num_shards} shards; resume with "
                    "the same streaming_shards/shard_by/partition_seed"
                )
        total = len(block)
        if config.limit is not None:
            total = min(total, skip + max(config.limit, 0))
        view = block.slice(0, total)
        positions = shard_row_positions(plan, view)
        table = block.interner.vertices
        policies = (
            None if manifest is not None else self._shard_policies(network, plan)
        )
        # Universes derive from the plan alone; build them with it, outside
        # the timed region (elapsed_seconds covers streaming execution only,
        # same convention as the eager sharded paths).
        universes = (
            None
            if manifest is not None
            else [plan_shard.universe() for plan_shard in plan.shards]
        )

        fault: Dict[str, Any] = {}
        try:
            fabric = ShardStreamFabric(
                num_shards,
                capacity=capacity,
                ring=config.streaming_ring,
                sample_every=config.sample_every,
                max_workers=config.max_workers,
                max_retries=config.max_task_retries,
                retry_backoff=config.retry_backoff,
                fault_stats=fault,
            )
        except SegmentAllocationError as error:
            degraded = self._degrade_streaming(fault, error)
            if degraded is not None:
                return degraded
            raise
        checkpoints = 0
        wall_start = time.perf_counter()
        try:
            if manifest is not None:
                for shard, state in enumerate(manifest["shard_states"]):
                    fabric.open(
                        shard,
                        state["policy"],
                        (),
                        state["table"],
                        resume={
                            "interactions_processed": state["interactions_processed"],
                            "current_time": state["current_time"],
                        },
                    )
            else:
                for shard, policy in enumerate(policies):
                    fabric.open(shard, policy, universes[shard], table)

            src_col, dst_col = view.src_ids, view.dst_ids
            times_col, quantities_col = view.times, view.quantities
            cursors = [int(np.searchsorted(pos, skip)) for pos in positions]
            boundaries: List[int] = []
            if config.checkpoint_every:
                goal = skip + config.checkpoint_every
                while goal < total:
                    boundaries.append(goal)
                    goal += config.checkpoint_every
            boundaries.append(total)
            for goal in boundaries:
                ends = [int(np.searchsorted(pos, goal)) for pos in positions]
                # One batch per shard in turn, so no worker idles while the
                # parent waits on another shard's full ring.
                busy = [
                    shard for shard in range(num_shards) if cursors[shard] < ends[shard]
                ]
                while busy:
                    for shard in busy:
                        cursor = cursors[shard]
                        upper = min(cursor + capacity, ends[shard])
                        rows = positions[shard][cursor:upper]
                        fabric.append(
                            shard,
                            src_col[rows],
                            dst_col[rows],
                            times_col[rows],
                            quantities_col[rows],
                            table,
                        )
                        cursors[shard] = upper
                    busy = [shard for shard in busy if cursors[shard] < ends[shard]]
                if goal < total:
                    states = fabric.checkpoint_states()
                    _write_partitioned_manifest(
                        Path(config.checkpoint_path),
                        mode="dataset",
                        num_shards=num_shards,
                        membership=None,
                        table=None,
                        states=states,
                        processed=goal,
                    )
                    checkpoints += 1

            # The timed region matches the in-process convention: it ends
            # when every interaction has been processed by its shard engine
            # (the post-append barrier).  Outcome drain — store accounting,
            # state export, unpickling — is result assembly and is reported
            # separately as stream_stats["drain_seconds"].
            fabric.barrier()
            wall = time.perf_counter() - wall_start
            final_states: Optional[List[Optional[dict]]] = None
            if config.checkpoint_path is not None:
                final_states = fabric.checkpoint_states()
            outcomes, fabric_stats = fabric.finish()
            drain_seconds = time.perf_counter() - wall_start - wall
        except BaseException:
            fabric.abort()
            raise
        if final_states is not None:
            _write_partitioned_manifest(
                Path(config.checkpoint_path),
                mode="dataset",
                num_shards=num_shards,
                membership=None,
                table=None,
                states=final_states,
                processed=total,
            )

        runs = [
            ShardRun(
                shard=plan.shards[outcome.shard_index],
                policy=outcome.policy,
                statistics=outcome.statistics,
                last_time=outcome.last_time,
                store_stats=outcome.store_stats,
                kernel_stats=outcome.kernel_stats,
            )
            for outcome in outcomes
        ]
        statistics = merge_statistics(
            [run.statistics for run in runs], elapsed_seconds=wall
        )
        memory_bytes: Optional[int] = None
        if config.measure_memory:
            memory_bytes = sum(policy_memory_bytes(run.policy) for run in runs)
        note = "" if plan.exact else (
            f"{plan.mode}-sharded run: origin decompositions are approximate "
            f"for {plan.cross_shard_interactions} cross-shard interactions"
        )
        stream_stats = {
            "mode": "dataset",
            "routing": plan.mode,
            "shards": num_shards,
            "checkpoints": checkpoints,
            "drain_seconds": drain_seconds,
            "fabric": fabric_stats,
        }
        return RunResult(
            config=config,
            statistics=statistics,
            network=network,
            shard_runs=runs,
            partition=plan,
            memory_bytes=memory_bytes,
            note=note,
            store_stats=merge_store_stats(run.store_stats for run in runs),
            kernel_stats=_merge_kernel_stats(runs),
            shm_stats=fabric_stats,
            stream_stats=stream_stats,
            fault_stats=_fault_summary(fault),
        )

    def _stream_partitioned_source(
        self, stream: Optional[Iterable[Interaction]]
    ) -> RunResult:
        from repro.runtime.shm import ShardStreamFabric

        config = self.config
        num_shards = config.streaming_shards
        capacity = config.effective_micro_batch
        if config.shard_by == "components":
            # __post_init__ rejects the declared live inputs; a raw
            # interaction iterable also resolves to a stream.
            raise RunConfigurationError(
                "shard_by='components' needs the full network up front; "
                "live/streamed runs must use 'hash' or 'mincut' (frozen "
                "from a warm-up prefix)"
            )
        if config.checkpoint_every and config.checkpoint_path is None:
            raise RunConfigurationError(
                "checkpoint_every needs a checkpoint_path to write to"
            )
        manifest: Optional[dict] = None
        skip = 0
        if config.resume_from is not None:
            manifest = self._read_partitioned_manifest()
            skip = int(manifest.get("interactions_processed", 0))
            states = manifest.get("shard_states") or []
            if len(states) != num_shards:
                raise RunConfigurationError(
                    f"partitioned manifest has {len(states)} shard states but "
                    f"streaming_shards={num_shards}; resume with the same "
                    "shard count"
                )

        # The fabric allocates its segment rings BEFORE the source is
        # touched: an allocation failure then degrades (or raises) with the
        # stream fully intact — nothing consumed, nothing dropped.
        fault: Dict[str, Any] = {}
        try:
            fabric = ShardStreamFabric(
                num_shards,
                capacity=capacity,
                ring=config.streaming_ring,
                sample_every=config.sample_every,
                max_workers=config.max_workers,
                max_retries=config.max_task_retries,
                retry_backoff=config.retry_backoff,
                fault_stats=fault,
            )
        except SegmentAllocationError as error:
            degraded = self._degrade_streaming(fault, error)
            if degraded is not None:
                return degraded
            raise

        try:
            seek_base: Optional[InteractionSource] = None
            if isinstance(stream, InteractionSource):
                base = stream
                seek_base = base
                if skip:
                    token = manifest.get("source_resume")
                    if token is None or not base.seek_resume(token):
                        _drain_source(base, skip)
            else:
                iterable: Iterable[Interaction] = stream
                if skip:
                    iterable = islice(iter(iterable), skip, None)
                base = SequenceSource(iterable, limit=config.limit)

            # Routing: a resumed run reuses the manifest's frozen membership;
            # a fresh min-cut run freezes one from a warm-up prefix; hash
            # routing needs no table at all (the scheduler's stable fallback).
            prefix: List[Interaction] = []
            if manifest is not None:
                membership: Dict[Vertex, int] = manifest.get("membership") or {}
            elif config.shard_by == "mincut":
                warmup = config.streaming_warmup or DEFAULT_STREAM_WARMUP
                if config.limit is not None:
                    warmup = min(warmup, config.limit)
                prefix = list(base.iter_limited(warmup)) if warmup > 0 else []
                membership = (
                    warmup_membership(
                        prefix,
                        num_shards,
                        imbalance=config.shard_imbalance,
                        seed=config.partition_seed,
                    )
                    if prefix
                    else {}
                )
            else:
                membership = {}

            scheduler_options: Dict[str, Any] = {}
            if config.max_in_flight is not None:
                scheduler_options["max_in_flight"] = config.max_in_flight
            scheduler = PartitionedScheduler(
                base,
                num_shards,
                membership,
                micro_batch=capacity,
                flush_interval=config.flush_interval,
                **scheduler_options,
            )
            if prefix:
                scheduler.prefeed(prefix)
        except BaseException:
            # The fabric holds the pool's dispatch lock and its segment
            # rings from construction; a source failure during the warm-up
            # or resume seek must release them.
            fabric.abort()
            raise

        cap = config.limit  # run-local pull cap (None = until exhaustion)

        def next_barrier(pulled: int) -> Optional[int]:
            if not config.checkpoint_every:
                return cap
            goal = (pulled // config.checkpoint_every + 1) * config.checkpoint_every
            return goal if cap is None else min(goal, cap)

        scheduler.max_pull = next_barrier(scheduler.pulled)

        interner = VertexInterner()
        if manifest is not None and manifest.get("table"):
            interner.restore(manifest["table"])
        table = interner.vertices  # live list; grows as the stream interns
        intern = interner.intern

        owns_stream = (
            config.source is None
            and not isinstance(config.dataset, InteractionSource)
            and isinstance(config.dataset, (str, Path))
        )
        checkpoints = 0
        wall_start = time.perf_counter()
        try:
            try:
                if manifest is not None:
                    for shard, state in enumerate(manifest["shard_states"]):
                        fabric.open(
                            shard,
                            state["policy"],
                            (),
                            state["table"],
                            resume={
                                "interactions_processed": state["interactions_processed"],
                                "current_time": state["current_time"],
                            },
                        )
                else:
                    # Workers unpickle their own copies, so one template is
                    # safe to send to every shard (mirrors _shard_policies
                    # without a per-shard universe: live streams reset with
                    # an empty universe, like the single-consumer path).
                    template = build_policy(config, None)
                    for shard in range(num_shards):
                        fabric.open(shard, template, (), ())

                while True:
                    flushes = scheduler.next_flushes()
                    if flushes is None:
                        if scheduler.source.exhausted or (
                            cap is not None and scheduler.pulled >= cap
                        ):
                            break
                        # Checkpoint barrier: everything pulled so far has
                        # been dispatched; sync the shards and write the
                        # manifest, then raise the cap and keep going.
                        states = fabric.checkpoint_states()
                        processed = skip + scheduler.pulled
                        _write_partitioned_manifest(
                            Path(config.checkpoint_path),
                            mode="source",
                            num_shards=num_shards,
                            membership=membership,
                            table=interner.snapshot(),
                            states=states,
                            processed=processed,
                            source=seek_base,
                        )
                        checkpoints += 1
                        scheduler.max_pull = next_barrier(scheduler.pulled)
                        continue
                    for flush in flushes:
                        batch = flush.batch
                        rows = len(batch)
                        fabric.append(
                            flush.shard,
                            np.fromiter(
                                (intern(i.source) for i in batch), np.int32, count=rows
                            ),
                            np.fromiter(
                                (intern(i.destination) for i in batch),
                                np.int32,
                                count=rows,
                            ),
                            np.fromiter(
                                (i.time for i in batch), np.float64, count=rows
                            ),
                            np.fromiter(
                                (i.quantity for i in batch), np.float64, count=rows
                            ),
                            table,
                        )

                # Same timed-region convention as the dataset path: the wall
                # ends once every routed interaction has been processed by
                # its shard engine; outcome drain is result assembly.
                fabric.barrier()
                wall = time.perf_counter() - wall_start
                scheduler_stats = scheduler.stats()
                final_states: Optional[List[Optional[dict]]] = None
                if config.checkpoint_path is not None:
                    final_states = fabric.checkpoint_states()
                outcomes, fabric_stats = fabric.finish()
                drain_seconds = time.perf_counter() - wall_start - wall
            except BaseException:
                fabric.abort()
                raise
        finally:
            if owns_stream:
                scheduler.close()
        if final_states is not None:
            _write_partitioned_manifest(
                Path(config.checkpoint_path),
                mode="source",
                num_shards=num_shards,
                membership=membership,
                table=interner.snapshot(),
                states=final_states,
                processed=skip + scheduler.pulled,
                source=seek_base,
            )

        shards = [
            Shard(index=shard, vertices=(), interactions=[])
            for shard in range(num_shards)
        ]
        runs = [
            ShardRun(
                shard=shards[outcome.shard_index],
                policy=outcome.policy,
                statistics=outcome.statistics,
                last_time=outcome.last_time,
                store_stats=outcome.store_stats,
                kernel_stats=outcome.kernel_stats,
            )
            for outcome in outcomes
        ]
        statistics = merge_statistics(
            [run.statistics for run in runs], elapsed_seconds=wall
        )
        memory_bytes: Optional[int] = None
        if config.measure_memory:
            memory_bytes = sum(policy_memory_bytes(run.policy) for run in runs)
        note = (
            "partitioned stream: origin decompositions are approximate for "
            "vertices with cross-shard traffic"
            if num_shards > 1
            else ""
        )
        stream_stats = {
            "mode": "source",
            "routing": config.shard_by,
            "shards": num_shards,
            "checkpoints": checkpoints,
            "drain_seconds": drain_seconds,
            "scheduler": scheduler_stats,
            "fabric": fabric_stats,
        }
        if scheduler_stats.get("bad_rows"):
            fault["bad_rows"] = scheduler_stats["bad_rows"]
        return RunResult(
            config=config,
            statistics=statistics,
            shard_runs=runs,
            memory_bytes=memory_bytes,
            note=note,
            store_stats=merge_store_stats(run.store_stats for run in runs),
            scheduler_stats=scheduler_stats,
            kernel_stats=_merge_kernel_stats(runs),
            shm_stats=fabric_stats,
            stream_stats=stream_stats,
            fault_stats=_fault_summary(fault),
        )

    def _shard_policies(
        self, network: TemporalInteractionNetwork, plan: PartitionPlan
    ) -> List[SelectionPolicy]:
        """One independent policy per shard.

        The dense proportional policy is instantiated per shard with the
        *shard's* vertex universe (including cross-shard destinations under
        hash partitioning), shrinking its vectors.  Every other spec is
        built once — instance specs as given, name specs via
        :func:`build_policy`, so expensive constructions like the selective
        policy's contributor pre-pass run once, not per shard — and
        deep-copied so shards never share state.
        """
        spec = self.config.policy
        if spec == "proportional-dense":
            options = dict(self.config.policy_options)
            store_spec = self.config.store_spec
            if store_spec is not None:
                options.setdefault("store", store_spec)
            policies = []
            for shard in plan.shards:
                options["vertices"] = shard.universe()
                policies.append(make_policy(spec, **options))
            return policies
        template = spec if isinstance(spec, SelectionPolicy) else build_policy(
            self.config, network
        )
        # Deep copies duplicate the template's store spec but not live store
        # resources; every shard rebuilds fresh stores in its own reset()
        # (spill files included), so shards spill independently.
        return [copy.deepcopy(template) for _ in plan.shards]


def _merge_kernel_stats(runs: Iterable[ShardRun]) -> Optional[Dict[str, Any]]:
    """One representative kernel-stats dict for a sharded run.

    The backend comes from the first shard that reports one (shards share
    the policy/store configuration, so backends agree); chunk counts sum;
    compile seconds take the max — shards resolve against the same
    process-wide kernel cache, so at worst one shard paid the compile.
    """
    per_shard = [run.kernel_stats for run in runs if run.kernel_stats]
    if not per_shard:
        return None
    return {
        "backend": per_shard[0]["backend"],
        "chunks": sum(stats["chunks"] for stats in per_shard),
        "compile_seconds": max(stats["compile_seconds"] for stats in per_shard),
    }


def _write_partitioned_manifest(
    path: Path,
    *,
    mode: str,
    num_shards: int,
    membership: Optional[Dict[Vertex, int]],
    table: Optional[List[Vertex]],
    states: List[Optional[dict]],
    processed: int,
    source: Optional[InteractionSource] = None,
) -> None:
    """Write a partitioned-streaming checkpoint manifest.

    The manifest is the sharded counterpart of :func:`save_engine`'s state
    dict: per-shard engine states (policy, counters, session vertex table)
    at one consistent global stream offset, plus everything the resume path
    needs to rebuild routing — the frozen membership and the parent's
    global vertex table for source-fed runs (dataset runs rebuild both
    deterministically from the dataset and store ``None``).  A committed
    source offset rides along when the source can produce one, so resumes
    seek instead of replaying.
    """
    current_time: Optional[float] = None
    for state in states:
        if state is None:
            continue
        shard_time = state.get("current_time")
        if shard_time is not None and (current_time is None or shard_time > current_time):
            current_time = shard_time
    manifest: Dict[str, Any] = {
        "kind": "partitioned-stream",
        "mode": mode,
        "streaming_shards": num_shards,
        "interactions_processed": processed,
        "current_time": current_time,
        "membership": dict(membership) if membership is not None else None,
        "table": list(table) if table is not None else None,
        "shard_states": list(states),
    }
    if source is not None:
        token = source.resume_token(processed, current_time)
        if token is not None:
            manifest["source_resume"] = token
    save_checkpoint_state(manifest, path)


def _source_resume_token(
    base: Optional[InteractionSource], engine: ProvenanceEngine
) -> Optional[dict]:
    """The source offset matching the engine's processed count, if committed.

    Only caller-passed sources get tokens: runs over networks/iterables
    rebuild their stream from the config on resume, where the index skip is
    already cheap.  ``None`` (source ahead of the engine with the position
    forgotten, or a non-seekable source) leaves the replay fallback.
    """
    if base is None:
        return None
    return base.resume_token(engine.interactions_processed, engine.current_time)


def _drain_source(source: InteractionSource, count: int) -> None:
    """Discard the first ``count`` interactions of a source (resume skip).

    ``iter_limited`` never polls past the offset, so nothing beyond it is
    consumed and dropped.  A live source that has not yet re-produced the
    checkpointed prefix is waited on until it does; a truncated file simply
    exhausts and the resumed run sees no new interactions.
    """
    for _ in source.iter_limited(count):
        pass


class _CheckpointObserver:
    """Engine observer that checkpoints every ``every`` interactions."""

    def __init__(self, path: Path, every: int):
        self.path = path
        self.every = every

    def __call__(self, engine: ProvenanceEngine, interaction: Interaction, position: int) -> None:
        if (position + 1) % self.every == 0:
            save_engine(engine, self.path)


def run(
    dataset: Union[str, Path, TemporalInteractionNetwork, Iterable[Interaction]] = "taxis",
    policy: Union[str, SelectionPolicy] = "fifo",
    **options,
) -> RunResult:
    """Convenience wrapper: build a :class:`RunConfig` and run it.

    Keyword arguments are forwarded to :class:`RunConfig`.
    """
    return Runner(RunConfig(dataset=dataset, policy=policy, **options)).run()
