"""The provenance engine: drives a selection policy over an interaction stream.

:class:`ProvenanceEngine` is the main entry point of the library.  It feeds
interactions (from a :class:`~repro.core.network.TemporalInteractionNetwork`
or any time-ordered iterable) to a selection policy, keeps simple run
statistics, lets observers hook into the stream (alerts, sampling, memory
ceilings) and exposes provenance queries uniformly across policies.

Typical use::

    from repro import ProvenanceEngine, FifoPolicy, datasets

    network = datasets.load_preset("taxis")
    engine = ProvenanceEngine(FifoPolicy())
    stats = engine.run(network)
    print(engine.origins(some_vertex).top(5))
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.core import kernels as _kernels
from repro.core.blocks import InteractionBlock, VertexInterner
from repro.core.interaction import Interaction, Vertex
from repro.core.network import TemporalInteractionNetwork
from repro.core.provenance import OriginSet, ProvenanceSnapshot
from repro.policies.base import SelectionPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sources import MicroBatchScheduler

__all__ = [
    "ProvenanceEngine",
    "EngineStreamRun",
    "RunStatistics",
    "InteractionObserver",
]

#: Observers are called after every processed interaction with the engine,
#: the interaction, and its zero-based position in the stream.
InteractionObserver = Callable[["ProvenanceEngine", Interaction, int], None]

#: First stream position at which the engine checks the policy's entry count
#: when no explicit sampling is requested; subsequent checks happen at every
#: doubling of that position (2048, 4096, ...), so a run of n interactions
#: pays only O(log n) ``entry_count()`` calls for peak tracking.
_PEAK_CHECK_START = 1024

#: Fused backends that make columnarising scheduler batches pay: a compiled
#: loop wins back the per-batch object-to-array conversion, the pure-numpy
#: rung does not (scheduled fifo, lrb and compiler-less noprov ran slower
#: columnarised than through ``process_many``).
_COMPILED_BACKENDS = ("cc", "numba")


@dataclass
class RunStatistics:
    """Statistics collected by :meth:`ProvenanceEngine.run`."""

    #: Number of interactions processed by the run.
    interactions: int = 0
    #: Wall-clock duration of the run in seconds.
    elapsed_seconds: float = 0.0
    #: Number of provenance entries stored by the policy at the end of the run.
    final_entry_count: int = 0
    #: Largest observed entry count.  Observed at every ``sample_every``
    #: position when sampling is on; without sampling the engine still checks
    #: on a cheap geometric cadence (positions 1024, 2048, 4096, ...) so the
    #: peak of a shrinking policy (windowed, budget) is not reported as its
    #: final count.
    peak_entry_count: int = 0
    #: Interaction positions at which entry counts were sampled.
    samples: List[int] = field(default_factory=list)
    #: Entry counts at the sampled positions.
    sampled_entry_counts: List[int] = field(default_factory=list)
    #: Cumulative elapsed seconds at the sampled positions.
    sampled_elapsed_seconds: List[float] = field(default_factory=list)

    @property
    def interactions_per_second(self) -> float:
        """Throughput of the run (0.0 when the run took no measurable time)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.interactions / self.elapsed_seconds


class ProvenanceEngine:
    """Runs a :class:`~repro.policies.base.SelectionPolicy` over interactions."""

    def __init__(
        self,
        policy: SelectionPolicy,
        *,
        observers: Optional[Sequence[InteractionObserver]] = None,
    ) -> None:
        self.policy = policy
        self._observers: List[InteractionObserver] = list(observers or [])
        self._interactions_processed = 0
        self._last_time: Optional[float] = None
        self._scheduler: Optional["MicroBatchScheduler"] = None
        self._columnar_stats: Optional[Dict[str, object]] = None
        self._kernel_stats: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def add_observer(self, observer: InteractionObserver) -> None:
        """Register a callback invoked after every processed interaction."""
        self._observers.append(observer)

    def remove_observer(self, observer: InteractionObserver) -> None:
        """Unregister a previously added observer (no-op if absent)."""
        if observer in self._observers:
            self._observers.remove(observer)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(
        self,
        source: Union[
            TemporalInteractionNetwork, InteractionBlock, Iterable[Interaction]
        ],
        *,
        reset: bool = True,
        limit: Optional[int] = None,
        sample_every: int = 0,
        batch_size: int = 0,
        scheduler: Optional["MicroBatchScheduler"] = None,
        checkpoint_every: int = 0,
        on_checkpoint: Optional[Callable[["ProvenanceEngine", int], None]] = None,
    ) -> RunStatistics:
        """Process a whole interaction stream and return run statistics.

        The drive follows from the input; every drive is bit-identical to
        stepping one interaction at a time:

        * an :class:`~repro.core.blocks.InteractionBlock`, or a network
          whose policy has a columnar kernel on a batched run, runs fused
          clip spans through :meth:`SelectionPolicy.process_run`;
        * scheduler batches are columnarised only when the policy's fused
          backend is compiled (``cc`` or ``numba``); otherwise they go
          through :meth:`SelectionPolicy.process_many`;
        * ``batch_size <= 1`` and registered observers step one
          interaction at a time, because observers must see the policy
          state after every single interaction.

        Parameters
        ----------
        source:
            A :class:`TemporalInteractionNetwork` (its time-ordered
            interactions are used and its vertex universe is passed to the
            policy), an :class:`~repro.core.blocks.InteractionBlock` (the
            interner's vertices are the universe), an
            :class:`~repro.sources.InteractionSource` (possibly live — the
            run follows it until it exhausts), a ready
            :class:`~repro.sources.MicroBatchScheduler`, or any time-ordered
            iterable of interactions.
        reset:
            Reset the policy before running (default).  Set to False to
            continue a previous run with more interactions — the basis of
            checkpoint-resumed streaming runs.
        limit:
            Process at most this many interactions (None for all).
        sample_every:
            When positive, sample the policy's entry count and the elapsed
            time every ``sample_every`` interactions — the data behind the
            cumulative-cost curves of Figure 6.
        batch_size:
            When greater than one, drive the policy in batches instead of
            stepping one interaction at a time.  Object batches go through a
            :class:`~repro.sources.MicroBatchScheduler`; for plain iterables
            the engine wraps the input in an eager
            :class:`~repro.sources.SequenceSource` itself.  Batches and
            spans are clipped at sampling boundaries, so provenance state
            and sampling positions are identical to the per-interaction
            path; only the per-interaction Python overhead is amortised.
        scheduler:
            Explicit micro-batch scheduler (overrides ``batch_size``
            chunking; its source is the stream).  Lets callers configure
            time-based flushing and backpressure (``max_in_flight``).
        checkpoint_every, on_checkpoint:
            When both set, ``on_checkpoint`` is invoked with the engine and
            the total interactions processed at every ``checkpoint_every``
            boundary — periodic engine snapshots at exact stream offsets.
            Batches and spans are clipped there, so checkpoints never force
            per-interaction execution.
        """
        from repro.sources import InteractionSource, MicroBatchScheduler

        self._columnar_stats = None
        self._kernel_stats = None
        checkpoints = dict(
            checkpoint_every=checkpoint_every, on_checkpoint=on_checkpoint
        )
        if isinstance(source, InteractionBlock):
            if reset:
                # The interner's vertex universe matches the registration
                # order of the network the block came from.
                self.policy.reset(source.interner.vertices)
                self._interactions_processed = 0
                self._last_time = None
            if self._observers:
                return self._run_sequential(
                    source.to_interactions(),
                    limit=limit,
                    sample_every=sample_every,
                    **checkpoints,
                )
            return self._run_block(
                source, limit=limit, sample_every=sample_every, **checkpoints
            )
        if isinstance(source, MicroBatchScheduler):
            scheduler, source = source, source.source
        clamped_max_pull = False
        original_max_pull: Optional[int] = None
        if scheduler is not None and limit is not None:
            # limit bounds CONSUMPTION, not just processing: clamp the
            # scheduler's read-ahead so a caller's source is never drained
            # past what this run will process (items already pending count
            # against the limit first).  The clamp is restored afterwards so
            # continuation runs (reset=False) on the same scheduler are not
            # stuck at this run's limit.
            bound = scheduler.pulled + max(max(limit, 0) - scheduler.pending, 0)
            if scheduler.max_pull is None or scheduler.max_pull > bound:
                clamped_max_pull = True
                original_max_pull = scheduler.max_pull
                scheduler.max_pull = bound
        network = source if isinstance(source, TemporalInteractionNetwork) else None
        vertices: Sequence[Vertex] = network.vertices if network is not None else ()

        if reset:
            self.policy.reset(vertices)
            self._interactions_processed = 0
            self._last_time = None

        try:
            if scheduler is not None and not self._observers:
                return self._run_scheduled(
                    scheduler, limit=limit, sample_every=sample_every, **checkpoints
                )
            if batch_size > 1 and not self._observers:
                if network is not None and self.policy.has_columnar_kernel():
                    # Columnarise once (cached on the network) and run
                    # spans of the block; no interaction object is read.
                    return self._run_block(
                        network.to_block(),
                        limit=limit,
                        sample_every=sample_every,
                        **checkpoints,
                    )
                return self._run_batched(
                    network.interactions if network is not None else source,
                    limit=limit,
                    sample_every=sample_every,
                    batch_size=batch_size,
                    **checkpoints,
                )
            interactions: Iterable[Interaction] = (
                network.interactions if network is not None else source
            )
            if scheduler is not None:
                # Observers force per-interaction stepping; drain the
                # scheduler batch by batch but step each interaction
                # individually.
                interactions = (
                    interaction for batch in scheduler for interaction in batch
                )
            elif isinstance(interactions, InteractionSource):
                # limit bounds consumption on this path too: never drain
                # the source past what the run will process.
                interactions = interactions.iter_limited(limit)
            return self._run_sequential(
                interactions, limit=limit, sample_every=sample_every, **checkpoints
            )
        finally:
            if clamped_max_pull:
                scheduler.max_pull = original_max_pull

    def _run_sequential(
        self,
        interactions: Iterable[Interaction],
        *,
        limit: Optional[int],
        sample_every: int,
        checkpoint_every: int = 0,
        on_checkpoint: Optional[Callable[["ProvenanceEngine", int], None]] = None,
    ) -> RunStatistics:
        """Per-interaction drive loop behind :meth:`run` (observers fire).

        Periodic checkpoints fire after the observers, at multiples of the
        engine's total processed count.
        """
        if on_checkpoint is None:
            checkpoint_every = 0
        stats = RunStatistics()
        next_peak_check = _PEAK_CHECK_START if not sample_every else 0
        start = _time.perf_counter()
        for index, interaction in enumerate(interactions):
            if limit is not None and index >= limit:
                break
            self.step(interaction)
            stats.interactions += 1
            if checkpoint_every and self._interactions_processed % checkpoint_every == 0:
                on_checkpoint(self, self._interactions_processed)
            if sample_every and (index + 1) % sample_every == 0:
                entry_count = self.policy.entry_count()
                stats.samples.append(index + 1)
                stats.sampled_entry_counts.append(entry_count)
                stats.sampled_elapsed_seconds.append(_time.perf_counter() - start)
                if entry_count > stats.peak_entry_count:
                    stats.peak_entry_count = entry_count
            elif next_peak_check and (index + 1) >= next_peak_check:
                entry_count = self.policy.entry_count()
                if entry_count > stats.peak_entry_count:
                    stats.peak_entry_count = entry_count
                next_peak_check *= 2
        stats.elapsed_seconds = _time.perf_counter() - start
        stats.final_entry_count = self.policy.entry_count()
        stats.peak_entry_count = max(stats.peak_entry_count, stats.final_entry_count)
        return stats

    def _run_batched(
        self,
        interactions: Iterable[Interaction],
        *,
        limit: Optional[int],
        sample_every: int,
        batch_size: int,
        checkpoint_every: int = 0,
        on_checkpoint: Optional[Callable[["ProvenanceEngine", int], None]] = None,
    ) -> RunStatistics:
        """Batched drive loop behind :meth:`run` (no observers registered).

        Wraps the stream in an eager source and drives the shared scheduled
        loop, so the eager, sharded and streaming paths all execute the same
        code; an eager source never makes the scheduler wait, so this is the
        plain fixed-size chunking the batched path always performed.
        """
        from repro.sources import InteractionSource, MicroBatchScheduler, SequenceSource

        # The limit bounds CONSUMPTION, not just processing: the scheduler
        # reads ahead (backpressure room), and a caller's iterator/source
        # must not be drained past the limit it asked for.
        if isinstance(interactions, InteractionSource):
            source = interactions
        else:
            source = SequenceSource(interactions, limit=limit)
        scheduler = MicroBatchScheduler(
            source, micro_batch=batch_size, max_pull=limit
        )
        return self._run_scheduled(
            scheduler,
            limit=limit,
            sample_every=sample_every,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )

    def _run_block(
        self,
        block: InteractionBlock,
        *,
        limit: Optional[int],
        sample_every: int,
        checkpoint_every: int = 0,
        on_checkpoint: Optional[Callable[["ProvenanceEngine", int], None]] = None,
    ) -> RunStatistics:
        """Columnar drive over one materialised block (no observers): a
        stream run fed once, so eager blocks and the stream workers'
        batches share one fused clip loop."""
        if limit is not None:
            block = block.slice(0, min(len(block), max(limit, 0)))
        stream = EngineStreamRun(
            self,
            sample_every=sample_every,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )
        self._columnar_stats["mode"] = "block"
        stream.feed(block)
        return stream.finish()

    def _run_scheduled(
        self,
        scheduler: "MicroBatchScheduler",
        *,
        limit: Optional[int],
        sample_every: int,
        checkpoint_every: int = 0,
        on_checkpoint: Optional[Callable[["ProvenanceEngine", int], None]] = None,
    ) -> RunStatistics:
        """The micro-batched drive loop every batched object run goes through.

        Batches are clipped at ``sample_every``, peak-check and
        ``checkpoint_every`` boundaries so entry counts are sampled — and
        checkpoints written — at exactly the positions of the
        per-interaction path.  The scheduler may flush smaller batches on
        its own time/window triggers; smaller never breaks equivalence,
        only the clipping ceilings matter.

        When the policy's fused backend is compiled, every flushed batch is
        columnarised against a run-local interner and handed to
        ``process_run``: the compiled loop wins back the per-batch
        object-to-array conversion.
        """
        policy = self.policy
        process_many = policy.process_many
        self._scheduler = scheduler
        interner: Optional[VertexInterner] = None
        kernel_stats: Optional[Dict[str, object]] = None
        compile_before = _kernels.compile_seconds()
        # Resolves (and compiles) any backend before the timer starts.
        backend = policy.fused_backend()
        if backend in _COMPILED_BACKENDS:
            interner = VertexInterner()
            process_run = policy.process_run
            self._columnar_stats = {
                "mode": "stream",
                "interned_vertices": 0,
                "block_bytes": 0,
                "kernel": True,
            }
            self._kernel_stats = kernel_stats = {
                "backend": backend,
                "chunks": 0,
                "compile_seconds": _kernels.compile_seconds() - compile_before,
            }

        stats = RunStatistics()
        processed = 0
        next_peak_check = _PEAK_CHECK_START if not sample_every else 0
        start = _time.perf_counter()
        while True:
            if limit is not None and processed >= max(limit, 0):
                break
            size = scheduler.micro_batch
            if limit is not None:
                size = min(size, max(limit, 0) - processed)
            if sample_every:
                size = min(size, sample_every - (processed % sample_every))
            if next_peak_check:
                size = min(size, next_peak_check - processed)
            if checkpoint_every:
                size = min(size, checkpoint_every - (processed % checkpoint_every))
            if interner is not None:
                block = scheduler.next_block(size, interner=interner)
                if block is None:
                    break
                process_run(block)
                kernel_stats["chunks"] += 1
                self._columnar_stats["interned_vertices"] = len(interner)
                self._columnar_stats["block_bytes"] += block.nbytes
                produced = len(block)
                last_time = block.last_time
            else:
                batch = scheduler.next_batch(size)
                if batch is None:
                    break
                process_many(batch)
                produced = len(batch)
                last_time = batch[-1].time
            processed += produced
            self._interactions_processed += produced
            self._last_time = last_time
            stats.interactions += produced
            if sample_every and processed % sample_every == 0:
                entry_count = policy.entry_count()
                stats.samples.append(processed)
                stats.sampled_entry_counts.append(entry_count)
                stats.sampled_elapsed_seconds.append(_time.perf_counter() - start)
                if entry_count > stats.peak_entry_count:
                    stats.peak_entry_count = entry_count
            elif next_peak_check and processed >= next_peak_check:
                entry_count = policy.entry_count()
                if entry_count > stats.peak_entry_count:
                    stats.peak_entry_count = entry_count
                next_peak_check *= 2
            if (
                checkpoint_every
                and on_checkpoint is not None
                and processed % checkpoint_every == 0
            ):
                on_checkpoint(self, self._interactions_processed)
        stats.elapsed_seconds = _time.perf_counter() - start
        stats.final_entry_count = policy.entry_count()
        stats.peak_entry_count = max(stats.peak_entry_count, stats.final_entry_count)
        return stats

    def stream_run(self, *, sample_every: int = 0) -> "EngineStreamRun":
        """Open a resident streaming run fed one columnar batch at a time.

        The engine's drive loops clip at sample/peak/checkpoint offsets
        measured from the start of each :meth:`run` call; a consumer that
        calls ``run`` once per arriving micro-batch would therefore restart
        the sampling and peak-check cadence on every batch.  A
        :class:`EngineStreamRun` keeps those counters (and the accumulated
        :class:`RunStatistics`) alive *across* fed batches, so a partitioned
        streaming worker that stays resident between micro-batches samples
        at exactly the per-shard positions of one eager whole-shard run.
        The caller resets the policy (with its universe) before opening.
        """
        return EngineStreamRun(self, sample_every=sample_every)

    def step(self, interaction: Interaction) -> None:
        """Process a single interaction and notify observers."""
        self.policy.process(interaction)
        self._interactions_processed += 1
        self._last_time = interaction.time
        position = self._interactions_processed - 1
        for observer in self._observers:
            observer(self, interaction, position)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def interactions_processed(self) -> int:
        """Number of interactions processed since the last reset."""
        return self._interactions_processed

    @property
    def current_time(self) -> Optional[float]:
        """Timestamp of the last processed interaction (None before any)."""
        return self._last_time

    def checkpoint_state(self) -> Dict[str, object]:
        """The canonical checkpoint dictionary for this engine.

        Policy object plus stream counters — exactly what
        :func:`repro.core.checkpoint.save_engine` pickles and what the
        streaming fabric's per-shard state snapshots embed, so every
        checkpoint shape in the library shares one source of truth.
        """
        return {
            "policy": self.policy,
            "interactions_processed": self._interactions_processed,
            "current_time": self._last_time,
        }

    def buffer_total(self, vertex: Vertex) -> float:
        """The buffered quantity ``|B_v|`` of ``vertex``."""
        return self.policy.buffer_total(vertex)

    def origins(self, vertex: Vertex) -> OriginSet:
        """The origin decomposition ``O(t, B_v)`` of ``vertex``."""
        return self.policy.origins(vertex)

    def snapshot(self) -> ProvenanceSnapshot:
        """Provenance of every vertex with a non-empty buffer, right now."""
        origins: Dict[Vertex, OriginSet] = {}
        for vertex in self.policy.tracked_vertices():
            origins[vertex] = self.policy.origins(vertex)
        return ProvenanceSnapshot(
            time=self._last_time if self._last_time is not None else 0.0,
            interactions_processed=self._interactions_processed,
            origins=origins,
        )

    def buffer_totals(self) -> Dict[Vertex, float]:
        """Mapping of every non-empty vertex to its buffered quantity."""
        return {
            vertex: self.policy.buffer_total(vertex)
            for vertex in self.policy.tracked_vertices()
        }

    def scheduler_stats(self) -> Optional[Dict[str, object]]:
        """Micro-batch scheduler accounting of the last batched run.

        ``None`` when the engine has only run per-interaction (observers
        registered, or ``batch_size <= 1``).  See
        :meth:`repro.sources.MicroBatchScheduler.stats`.
        """
        if self._scheduler is None:
            return None
        return self._scheduler.stats()

    def columnar_stats(self) -> Optional[Dict[str, object]]:
        """Columnar-path accounting of the last run, or ``None``.

        Reports whether the run was block-native (``mode="block"``: one
        block sliced at clip offsets) or stream-converted
        (``mode="stream"``: fed stream batches, or scheduler batches
        columnarised for a compiled kernel), the interned-vertex count,
        the ingest footprint of the column arrays in bytes, and whether
        the policy ran a real array kernel (``kernel=False`` means the
        materialising adapter kept a kernel-less policy or a spilling
        store backend correct).
        """
        return self._columnar_stats

    def kernel_stats(self) -> Optional[Dict[str, object]]:
        """Fused-kernel accounting of the last columnar run, or ``None``.

        Reports the backend that served the clip spans (``"numba"`` /
        ``"cc"`` for compiled kernels, ``"numpy"`` for the pure fused
        path, ``"object"`` for the materialising adapter), the number of
        span invocations, and the seconds spent resolving/compiling
        backends — always outside the timed region (``fused_backend``
        resolves before the run timer starts).  ``None`` for object runs.
        """
        return self._kernel_stats

    def store_stats(self):
        """Accounting of the policy's provenance stores, keyed by role.

        Uniform view over whatever :mod:`repro.stores` backend the policy
        was built with — spill backends report evictions and spilled bytes
        here (see :class:`repro.stores.StoreStats`).
        """
        return self.policy.store_stats()


class EngineStreamRun:
    """One logical engine run spread over many fed micro-batches.

    Created by :meth:`ProvenanceEngine.stream_run` (and fed once by the
    engine's own block drive).  Each :meth:`feed` processes one columnar
    :class:`InteractionBlock` through the policy's fused path, clipping
    internally at the *cumulative* ``sample_every``, geometric peak-check
    and ``checkpoint_every`` offsets — the positions an eager run over the
    concatenation of all fed blocks would clip at.  ``elapsed_seconds`` of
    the final statistics is the accumulated busy time inside :meth:`feed`
    (the per-shard straggler measure), not wall-clock span of the stream.
    """

    def __init__(
        self,
        engine: ProvenanceEngine,
        *,
        sample_every: int = 0,
        checkpoint_every: int = 0,
        on_checkpoint: Optional[Callable[[ProvenanceEngine, int], None]] = None,
    ) -> None:
        self._engine = engine
        self._policy = policy = engine.policy
        self._sample_every = sample_every
        self._checkpoint_every = checkpoint_every
        self._on_checkpoint = on_checkpoint
        compile_before = _kernels.compile_seconds()
        # Resolve (and compile) any backend before the first batch, so
        # compilation stays outside the timed region.
        backend = policy.fused_backend()
        compile_delta = _kernels.compile_seconds() - compile_before
        self._stats = RunStatistics()
        self._processed = 0
        self._next_peak_check = _PEAK_CHECK_START if not sample_every else 0
        self._busy = 0.0
        self._finished = False
        engine._columnar_stats = self._columnar_stats = {
            "mode": "stream",
            "interned_vertices": 0,
            "block_bytes": 0,
            "kernel": policy.has_columnar_kernel(),
        }
        engine._kernel_stats = self._kernel_stats = {
            "backend": backend,
            "chunks": 0,
            "compile_seconds": compile_delta,
        }

    @property
    def interactions(self) -> int:
        """Interactions processed by this stream run so far."""
        return self._processed

    def feed(self, block: InteractionBlock) -> int:
        """Process one micro-batch; returns its row count.

        Internally slices the batch at the run's cumulative sample,
        peak-check and checkpoint boundaries, so batch sizing never moves
        a sampling position or a checkpoint.
        """
        if self._finished:
            raise RuntimeError("stream run already finished")
        engine = self._engine
        policy = self._policy
        process_run = policy.process_run
        stats = self._stats
        sample_every = self._sample_every
        checkpoint_every = self._checkpoint_every
        on_checkpoint = self._on_checkpoint
        kernel_stats = self._kernel_stats
        total = len(block)
        self._columnar_stats["interned_vertices"] = len(block.interner)
        self._columnar_stats["block_bytes"] += block.nbytes
        offset = 0
        start = _time.perf_counter()
        while offset < total:
            size = total - offset
            if sample_every:
                size = min(size, sample_every - (self._processed % sample_every))
            if self._next_peak_check:
                size = min(size, self._next_peak_check - self._processed)
            if checkpoint_every:
                size = min(size, checkpoint_every - (self._processed % checkpoint_every))
            piece = block.slice(offset, offset + size)
            process_run(piece)
            kernel_stats["chunks"] += 1
            offset += size
            self._processed += size
            engine._interactions_processed += size
            engine._last_time = piece.last_time
            stats.interactions += size
            if sample_every and self._processed % sample_every == 0:
                entry_count = policy.entry_count()
                stats.samples.append(self._processed)
                stats.sampled_entry_counts.append(entry_count)
                stats.sampled_elapsed_seconds.append(
                    self._busy + (_time.perf_counter() - start)
                )
                if entry_count > stats.peak_entry_count:
                    stats.peak_entry_count = entry_count
            elif self._next_peak_check and self._processed >= self._next_peak_check:
                entry_count = policy.entry_count()
                if entry_count > stats.peak_entry_count:
                    stats.peak_entry_count = entry_count
                self._next_peak_check *= 2
            if (
                checkpoint_every
                and on_checkpoint is not None
                and self._processed % checkpoint_every == 0
            ):
                on_checkpoint(engine, engine._interactions_processed)
        self._busy += _time.perf_counter() - start
        return total

    def finish(self) -> RunStatistics:
        """Close the stream run and return its accumulated statistics."""
        if not self._finished:
            self._finished = True
            stats = self._stats
            stats.elapsed_seconds = self._busy
            stats.final_entry_count = self._policy.entry_count()
            stats.peak_entry_count = max(
                stats.peak_entry_count, stats.final_entry_count
            )
        return self._stats
