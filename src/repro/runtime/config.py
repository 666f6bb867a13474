"""Declarative configuration of a provenance run.

A :class:`RunConfig` captures *everything* the :class:`repro.runtime.Runner`
needs to execute one run — which dataset, which policy with which options,
how the stream is driven (batch size, limit, sampling), what instrumentation
is attached (observers, memory ceiling, checkpointing) and whether the run is
sharded over vertex partitions.  The CLI, the benchmark harness and the
examples all build one of these and hand it to a Runner, so every execution
path in the repository goes through the same, well-tested pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence, Union

from repro.core.interaction import Interaction
from repro.core.network import TemporalInteractionNetwork
from repro.exceptions import RunConfigurationError
from repro.policies.base import SelectionPolicy
from repro.sources import InteractionSource
from repro.stores import StoreSpec, resolve_store_spec

__all__ = ["RunConfig", "DEFAULT_BATCH_SIZE", "DatasetSource", "PolicySpec"]

#: Default number of interactions handed to ``SelectionPolicy.process_many``
#: per engine iteration.  Large enough to amortise the per-batch overhead,
#: small enough that sampling boundaries rarely clip it.
DEFAULT_BATCH_SIZE = 256

#: What a run can consume: a preset name, a CSV path, an in-memory network,
#: an :class:`~repro.sources.InteractionSource` (possibly live), or any
#: time-ordered iterable of interactions.
DatasetSource = Union[
    str, Path, TemporalInteractionNetwork, InteractionSource, Iterable[Interaction]
]

#: A policy is referenced by registry name or passed as a ready instance.
PolicySpec = Union[str, SelectionPolicy]

_SHARD_MODES = ("components", "hash", "mincut")
_EXECUTORS = ("serial", "threads", "processes")
#: Accepted spellings of the ``shard_strategy`` alias (singular forms are
#: normalised onto the canonical ``_SHARD_MODES`` entries).
_STRATEGY_ALIASES = {
    "component": "components",
    "components": "components",
    "hash": "hash",
    "mincut": "mincut",
}


@dataclass
class RunConfig:
    """Full specification of one provenance run.

    Parameters
    ----------
    dataset:
        Preset name (see :func:`repro.datasets.available_presets`), path to
        an interaction CSV, a :class:`TemporalInteractionNetwork`, or a raw
        iterable of interactions.
    scale, seed:
        Forwarded to :func:`repro.datasets.load_preset` for preset datasets.
    stream:
        When the dataset is a CSV path, feed rows to the policy lazily
        instead of materialising a network first — this is how files larger
        than memory are ingested.  Streamed runs have no vertex universe, so
        they cannot be sharded and cannot run policies that need the full
        universe up front (the dense proportional policy).
    source:
        An explicit :class:`~repro.sources.InteractionSource` to ingest
        from (overrides ``dataset``); the run follows the source until it
        exhausts.  Live sources (``CsvTailSource(follow=True)``,
        rate-limited ``GeneratorSource`` feeds, ``MergeSource`` over them)
        are driven through the micro-batch scheduler.
    follow:
        When the dataset is a CSV path, tail it for appended rows instead
        of reading it once (:class:`~repro.sources.CsvTailSource`); pair
        with ``idle_timeout`` so an idle producer ends the run instead of
        hanging it.
    micro_batch, max_in_flight, flush_interval:
        Micro-batch scheduler knobs (see
        :class:`~repro.sources.MicroBatchScheduler`): target interactions
        per flush (default: ``batch_size``), the bound on interactions
        buffered between source and policy (backpressure; default
        ``4 * micro_batch``), and an optional wall-clock flush deadline for
        slow feeds.  Setting any of them routes the run through an explicit
        scheduler even for eager datasets; results are bit-identical to the
        eager path either way.
    idle_timeout:
        With ``follow=True``: end the run after this many seconds without
        a new row (the termination guard of follow runs).
    resume_from:
        Path of an engine checkpoint (``checkpoint_path`` /
        ``checkpoint_every`` of an earlier run) to resume from: the policy
        state is restored and the first ``interactions_processed``
        interactions of the stream are skipped, so a resumed run continues
        exactly where the checkpoint was taken.
    vertex_type:
        Converter for the vertex columns of CSV datasets (e.g. ``int``).
    policy:
        Registry name (``"fifo"``, ``"proportional-sparse"``, ...) or a
        ready :class:`SelectionPolicy` instance.
    policy_options:
        Keyword arguments for the registry factory.  The structural options
        of the scalable policies are recognised and resolved against the
        dataset: ``k`` (selective), ``num_groups`` (grouped), ``capacity``
        (budget), ``window`` (windowed).
    store, store_options:
        Provenance-store backend the policy keeps its annotation state in:
        ``"dict"`` (in-memory, default), ``"dense"`` (fixed-dimension
        vector state packed as rows of one contiguous arena matrix, the
        layout the fused kernels consume), ``"mmap"`` (the dense arena
        plus zero-copy snapshot files: engine checkpoints write the arena
        to a ``.arena`` sidecar and resume memory-maps it back
        copy-on-write — see :class:`repro.stores.MmapDenseStore`) or
        ``"sqlite"`` (bounded resident entries with LRU spill to disk —
        see :class:`repro.stores.SqliteStore`).  ``store_options`` forwards
        backend options such as ``hot_capacity`` and ``directory``.  When
        both are left unset, policies fall back to the
        ``REPRO_DEFAULT_STORE`` environment variable, then to dicts.
        Sharded runs build one store instance per shard, so shards spill
        independently.
    observers:
        :data:`~repro.core.engine.InteractionObserver` callables wired into
        the engine.  Observers force per-interaction execution because they
        must see the policy state after every single interaction.
    batch_size:
        Interactions per :meth:`SelectionPolicy.process_many` call; values
        of 0 or 1 select the per-interaction path.
    limit, sample_every:
        As in :meth:`repro.core.engine.ProvenanceEngine.run`.
    checkpoint_path:
        When set, the engine state is saved there after the run completes
        (see :mod:`repro.core.checkpoint`).
    checkpoint_every:
        Additionally checkpoint every N processed interactions.  Batched
        runs clip their batches or spans at each boundary; runs with
        observers checkpoint through an observer.
    memory_ceiling_bytes, memory_check_every:
        Classify the run as infeasible when the policy state exceeds the
        ceiling; with ``memory_check_every`` the ceiling is also enforced
        mid-run, aborting early.
    measure_memory:
        Account the policy's final memory footprint even without a ceiling
        (the benchmark harness needs the number for Tables 7/8).
    shards:
        When > 1, partition the network into vertex shards and run one
        engine per shard (see :mod:`repro.runtime.partition`).
    shard_by:
        ``"components"`` (weakly-connected components; exact), ``"hash"``
        (stable vertex hash; documented-approximate for cross-shard flows)
        or ``"mincut"`` (seeded multilevel min-cut partitioner; balanced
        like hash, with far fewer cross-shard flows — see
        :mod:`repro.runtime.mincut`).
    shard_strategy:
        Alias for ``shard_by`` accepting the CLI spellings
        (``"component"``/``"components"``, ``"hash"``, ``"mincut"``); when
        set it overrides ``shard_by``.
    shard_imbalance:
        Hard balance cap of the min-cut partitioner: the heaviest shard's
        interaction load may exceed the ideal (total / shards) by at most
        this factor (default 1.1, i.e. ≤ 1.1×).  Ignored by the other
        strategies.
    partition_seed:
        Seed of the min-cut partitioner's tie-breaking orders; the same
        seed reproduces the same plan bit for bit.
    shard_executor:
        ``"serial"``, ``"threads"`` or ``"processes"``.
    shared_memory:
        Zero-copy shard fabric for the ``"processes"`` executor: shard
        column arrays (plus the interner's vertex table) are placed in
        :mod:`multiprocessing.shared_memory` segments (mmap-backed temp
        files where unavailable) and dispatched to a **persistent** worker
        pool as ``(segment, offset, length, dtype)`` handles instead of
        pickled payloads; dense result state travels back the same way.
        Results are bit-identical to the pickled executor; only the
        transport changes.  ``True`` enables it (requires
        ``shard_executor="processes"`` and ``shards > 1``), ``False``/
        ``None`` (default) keeps the pickled payloads.  See
        :mod:`repro.runtime.shm`.
    max_workers:
        Worker count for the parallel executors (None: library default).
    streaming_shards:
        When > 0, run **partitioned streaming**: interactions are polled
        (from the dataset, a CSV path or a live ``source=``), routed to
        this many vertex shards by the
        :class:`~repro.sources.PartitionedScheduler`, and dispatched as
        micro-batches through rolling shared-memory segments
        (:class:`repro.runtime.shm.ShardStreamFabric`) to a persistent
        worker pool whose engines stay resident across batches.  Results
        are bit-identical to eager sharded and single-consumer streaming
        runs.  Mutually exclusive with ``shards``; ``shard_by`` selects
        the membership (``hash``, ``mincut`` — frozen from a warm-up
        prefix when there is no network to partition up front — or
        ``components`` for dataset-backed runs).
    streaming_ring:
        Reusable fixed-capacity segments per shard in the stream fabric's
        ring (default 4).  Each slot holds one in-flight micro-batch;
        more slots let the parent run further ahead of a slow shard
        before backpressure stalls it.
    streaming_warmup:
        Interactions of a live stream to buffer before freezing a
        ``mincut`` membership (source-only runs; default 4096).  The
        warm-up prefix is processed normally afterwards.
    max_task_retries:
        Supervision budget of the shard fabric: how many times a crashed
        worker's shard work is re-dispatched (batch) or replayed
        (streaming) before the shard is quarantined and the run fails fast
        with per-shard diagnostics.  Policies are deterministic over an
        interaction prefix, so every recovery is bit-identical to an
        uninterrupted run.  0 disables supervision (a crash aborts
        immediately, pre-supervision behaviour).
    retry_backoff:
        Base of the exponential backoff (seconds) slept before each
        re-dispatch; attempt ``n`` waits ``retry_backoff * 2**(n-1)``,
        capped at 2 s.
    degradation:
        ``"auto"`` (default): infrastructure failures — segment allocation
        ``ENOSPC`` on /dev/shm, worker respawn storms — demote the run one
        transport at a time (shm fabric → pickled process pool → serial)
        with a logged reason instead of failing, and the demotions are
        recorded in ``RunResult.fault_stats``.  ``"off"``: fail on the
        configured transport.  Quarantined shards never degrade — a shard
        that deterministically crashes its worker would crash every
        transport.
    on_bad_row:
        Streamed CSV rows that fail to parse: ``"raise"`` (default) aborts
        the run with the offending path:line; ``"skip"`` drops the row,
        counts it, and surfaces the count in ``RunResult.fault_stats`` —
        so one torn/garbage row in a live feed no longer kills a follow
        run.
    """

    dataset: DatasetSource = "taxis"
    scale: float = 1.0
    seed: Optional[int] = None
    stream: bool = False
    source: Optional[InteractionSource] = None
    follow: bool = False
    micro_batch: Optional[int] = None
    max_in_flight: Optional[int] = None
    flush_interval: Optional[float] = None
    idle_timeout: Optional[float] = None
    resume_from: Optional[Union[str, Path]] = None
    vertex_type: type = str
    policy: PolicySpec = "fifo"
    policy_options: Dict[str, Any] = field(default_factory=dict)
    store: Union[str, StoreSpec, None] = None
    store_options: Dict[str, Any] = field(default_factory=dict)
    observers: Sequence = ()
    batch_size: int = DEFAULT_BATCH_SIZE
    limit: Optional[int] = None
    sample_every: int = 0
    checkpoint_path: Optional[Union[str, Path]] = None
    checkpoint_every: int = 0
    memory_ceiling_bytes: Optional[int] = None
    memory_check_every: Optional[int] = None
    measure_memory: bool = False
    shards: int = 0
    shard_by: str = "components"
    shard_strategy: Optional[str] = None
    shard_imbalance: float = 1.1
    partition_seed: int = 0
    shard_executor: str = "serial"
    shared_memory: Optional[bool] = None
    max_workers: Optional[int] = None
    streaming_shards: int = 0
    streaming_ring: int = 4
    streaming_warmup: Optional[int] = None
    max_task_retries: int = 1
    retry_backoff: float = 0.05
    degradation: str = "auto"
    on_bad_row: str = "raise"

    def __post_init__(self) -> None:
        if self.store is not None or self.store_options:
            # Validate the backend name and options eagerly so a typo fails
            # at configuration time, not mid-run inside a policy.
            resolve_store_spec(self.store, options=self.store_options)
        if self.batch_size < 0:
            raise RunConfigurationError(f"batch_size must be >= 0, got {self.batch_size}")
        if self.sample_every < 0:
            raise RunConfigurationError(f"sample_every must be >= 0, got {self.sample_every}")
        if self.shards < 0:
            raise RunConfigurationError(f"shards must be >= 0, got {self.shards}")
        if self.shard_strategy is not None:
            normalized = _STRATEGY_ALIASES.get(self.shard_strategy)
            if normalized is None:
                raise RunConfigurationError(
                    f"shard_strategy must be one of "
                    f"{tuple(sorted(set(_STRATEGY_ALIASES)))}, got "
                    f"{self.shard_strategy!r}"
                )
            self.shard_by = normalized
        if self.shard_by not in _SHARD_MODES:
            raise RunConfigurationError(
                f"shard_by must be one of {_SHARD_MODES}, got {self.shard_by!r}"
            )
        if self.shard_imbalance < 1.0:
            raise RunConfigurationError(
                f"shard_imbalance must be >= 1.0, got {self.shard_imbalance}"
            )
        if self.shard_executor not in _EXECUTORS:
            raise RunConfigurationError(
                f"shard_executor must be one of {_EXECUTORS}, got {self.shard_executor!r}"
            )
        if self.micro_batch is not None and self.micro_batch < 1:
            raise RunConfigurationError(
                f"micro_batch must be >= 1, got {self.micro_batch}"
            )
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise RunConfigurationError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if self.flush_interval is not None and self.flush_interval <= 0:
            raise RunConfigurationError(
                f"flush_interval must be positive, got {self.flush_interval}"
            )
        if self.idle_timeout is not None:
            if self.idle_timeout <= 0:
                raise RunConfigurationError(
                    f"idle_timeout must be positive, got {self.idle_timeout}"
                )
            if not self.follow:
                # Only the tailing source the Runner builds consumes it; an
                # explicit source= carries its own termination policy.
                raise RunConfigurationError(
                    "idle_timeout only applies to follow=True runs; configure "
                    "termination on the source itself for source=/stream runs"
                )
        if self.follow:
            if self.source is not None:
                raise RunConfigurationError(
                    "follow=True applies to CSV-path datasets; an explicit "
                    "source= already decides how the stream is ingested"
                )
            if not isinstance(self.dataset, (str, Path)):
                raise RunConfigurationError(
                    "follow=True needs a CSV path dataset to tail"
                )
            if self.stream:
                raise RunConfigurationError(
                    "follow=True already ingests lazily; drop stream=True"
                )
        if self.source is not None and self.stream:
            raise RunConfigurationError(
                "stream=True only applies to CSV paths; the run already has "
                "an explicit source"
            )
        if self.shards > 1:
            if self.stream:
                raise RunConfigurationError(
                    "sharded runs need the full network; streamed CSV ingestion "
                    "cannot be sharded"
                )
            if self.source is not None or self.follow:
                raise RunConfigurationError(
                    "sharded runs need the full network up front; streaming "
                    "sources cannot be sharded"
                )
            if self.resume_from is not None:
                raise RunConfigurationError(
                    "resuming a sharded run from a checkpoint is not supported"
                )
            if (
                self.micro_batch is not None
                or self.max_in_flight is not None
                or self.flush_interval is not None
            ):
                raise RunConfigurationError(
                    "micro_batch/max_in_flight/flush_interval configure the "
                    "single-engine scheduler; sharded runs batch per shard "
                    "via batch_size"
                )
            if self.observers or self.checkpoint_every:
                raise RunConfigurationError(
                    "observers and periodic checkpointing are per-engine and are "
                    "not supported in sharded runs"
                )
            if self.checkpoint_path is not None:
                raise RunConfigurationError(
                    "checkpointing a sharded run is not supported yet"
                )
        if self.stream and isinstance(self.dataset, TemporalInteractionNetwork):
            raise RunConfigurationError(
                "stream=True only applies to CSV paths; the dataset is already "
                "an in-memory network"
            )
        if self.stream and isinstance(self.dataset, InteractionSource):
            raise RunConfigurationError(
                "stream=True only applies to CSV paths; the dataset is already "
                "a streaming source"
            )
        if self.checkpoint_every < 0:
            raise RunConfigurationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.streaming_shards < 0:
            raise RunConfigurationError(
                f"streaming_shards must be >= 0, got {self.streaming_shards}"
            )
        if self.streaming_ring < 1:
            raise RunConfigurationError(
                f"streaming_ring must be >= 1, got {self.streaming_ring}"
            )
        if self.streaming_warmup is not None and self.streaming_warmup < 1:
            raise RunConfigurationError(
                f"streaming_warmup must be >= 1, got {self.streaming_warmup}"
            )
        if self.max_task_retries < 0:
            raise RunConfigurationError(
                f"max_task_retries must be >= 0, got {self.max_task_retries}"
            )
        if self.retry_backoff < 0:
            raise RunConfigurationError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.degradation not in ("auto", "off"):
            raise RunConfigurationError(
                f"degradation must be 'auto' or 'off', got {self.degradation!r}"
            )
        if self.on_bad_row not in ("raise", "skip"):
            raise RunConfigurationError(
                f"on_bad_row must be 'raise' or 'skip', got {self.on_bad_row!r}"
            )
        if self.streaming_shards:
            if self.shards > 1:
                raise RunConfigurationError(
                    "streaming_shards and shards are mutually exclusive: "
                    "partitioned streaming is already a sharded run"
                )
            if self.observers:
                raise RunConfigurationError(
                    "observers are per-engine, per-interaction hooks; "
                    "partitioned streaming runs shard engines in worker "
                    "processes and cannot fire them"
                )
            if self.memory_ceiling_bytes is not None or self.memory_check_every:
                raise RunConfigurationError(
                    "memory ceilings are enforced through observers and are "
                    "not supported with streaming_shards"
                )
            if self.shared_memory is not None:
                raise RunConfigurationError(
                    "streaming_shards always runs on the shared-memory stream "
                    "fabric; drop the shared_memory flag"
                )
            if self.shard_by == "components" and (
                self.source is not None or self.follow or self.stream
            ):
                raise RunConfigurationError(
                    "shard_by='components' needs the full network up front; "
                    "live/streamed runs must use 'hash' or 'mincut' (frozen "
                    "from a warm-up prefix)"
                )
        if self.shared_memory:
            if self.shards <= 1:
                raise RunConfigurationError(
                    "shared_memory applies to sharded runs; set shards > 1"
                )
            if self.shard_executor != "processes":
                raise RunConfigurationError(
                    "shared_memory shares segments across a process pool; "
                    f"set shard_executor='processes' (got "
                    f"{self.shard_executor!r})"
                )

    @property
    def uses_shared_memory(self) -> bool:
        """Whether sharded execution rides the shared-memory shard fabric."""
        return bool(self.shared_memory) and self.shards > 1

    @property
    def uses_partitioned_streaming(self) -> bool:
        """Whether the run is a partitioned streaming run (stream fabric)."""
        return self.streaming_shards > 0

    @property
    def uses_scheduler(self) -> bool:
        """Whether the run is driven through an explicit micro-batch scheduler.

        True for source-fed, tailed and resumed runs, and whenever one of
        the scheduler knobs (``micro_batch``, ``max_in_flight``,
        ``flush_interval``) is set explicitly.  Eager object runs without
        these knobs still go through a scheduler — the engine builds one
        internally for every batched object run.  A resumed network run
        whose policy has a columnar kernel slices its block instead.
        """
        return (
            self.source is not None
            or self.follow
            or self.resume_from is not None
            or self.micro_batch is not None
            or self.max_in_flight is not None
            or self.flush_interval is not None
        )

    @property
    def effective_micro_batch(self) -> int:
        """Scheduler flush size: ``micro_batch``, else the batch size."""
        if self.micro_batch is not None:
            return self.micro_batch
        return self.batch_size if self.batch_size > 1 else DEFAULT_BATCH_SIZE

    @property
    def effective_batch_size(self) -> int:
        """Batch size actually used by the engine (observers force 1).

        Periodic checkpoints clip batches and spans at their boundaries,
        so they keep the batch size.
        """
        if self.observers:
            return 1
        return self.batch_size

    @property
    def store_spec(self) -> Optional[StoreSpec]:
        """The resolved store specification, or ``None`` when unspecified.

        ``None`` means "let each policy resolve its own default" (the
        ``REPRO_DEFAULT_STORE`` environment variable, then dicts) — the
        Runner only injects a ``store=`` argument when this is non-None.
        """
        if self.store is None and not self.store_options:
            return None
        return resolve_store_spec(self.store, options=self.store_options)
