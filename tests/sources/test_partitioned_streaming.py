"""Acceptance suite of partitioned streaming over rolling shared segments.

The equivalence bar: a streaming run fanned out over ``streaming_shards``
persistent workers (micro-batches appended into rolling shared-memory
segment rings) must produce origin sets, buffer totals and entry counts
identical — float for float — to the eager sharded run over the same
routing, for EVERY registered policy, on the dict store and on the dense
store, whether the interactions arrive as a materialised dataset or
through an :class:`InteractionSource`, and whether the run is
uninterrupted or checkpointed and resumed mid-stream.  On top of
equivalence: segment rings must actually roll (reuse slots) under small
rings, a crashed worker must drain without leaking a single ``/dev/shm``
segment, and the :class:`PartitionedScheduler` must honour its routing,
flush-trigger and barrier contracts in isolation.
"""

from __future__ import annotations

import glob
import os
import tempfile

import pytest

from repro.core.checkpoint import read_checkpoint, save_engine
from repro.core.engine import ProvenanceEngine
from repro.core.interaction import Interaction
from repro.datasets.catalog import load_preset
from repro.datasets.io import write_interactions_csv
from repro.exceptions import RunConfigurationError
from repro.policies.no_provenance import NoProvenancePolicy
from repro.policies.registry import available_policies, make_policy
from repro.runtime import RunConfig, Runner
from repro.runtime import shm as shm_mod
from repro.sources import (
    CsvTailSource,
    InteractionSource,
    PartitionedScheduler,
    SequenceSource,
)
from repro.stores import StoreSpec

#: Structural parameters for the policies whose constructors require them.
STRUCTURAL_OPTIONS = {
    "proportional-budget": {"capacity": 20},
    "proportional-windowed": {"window": 150},
    "proportional-time-windowed": {"window": 50.0},
}

STORES = {
    "dict": None,
    "dense": StoreSpec("dense"),
}


class CrashPolicy(NoProvenancePolicy):
    """A policy that kills its worker process mid-stream (crash simulation)."""

    name = "crash"

    def process(self, interaction):  # pragma: no cover - exits the process
        os._exit(17)

    def process_many(self, interactions):  # pragma: no cover
        os._exit(17)

    def process_block(self, block):  # pragma: no cover
        os._exit(17)


@pytest.fixture(scope="module")
def network():
    return load_preset("taxis", scale=0.05)


def our_segment_names():
    """Leftover fabric segments of THIS process, across both backends."""
    prefix = f"rp{os.getpid():x}x"
    leftovers = []
    if os.path.isdir("/dev/shm"):
        leftovers += [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
    leftovers += [
        os.path.basename(p)
        for p in glob.glob(os.path.join(tempfile.gettempdir(), prefix + "*"))
    ]
    return leftovers


def snapshot_dict(result):
    snapshot = result.snapshot()
    return {vertex: snapshot[vertex].as_dict() for vertex in snapshot}


def assert_equivalent(reference, streamed):
    assert reference.statistics.interactions == streamed.statistics.interactions
    assert snapshot_dict(reference) == snapshot_dict(streamed)
    assert dict(reference.buffer_totals()) == dict(streamed.buffer_totals())
    assert (
        reference.statistics.final_entry_count
        == streamed.statistics.final_entry_count
    )


def eager_config(network, policy_name, store, *, shard_by="hash", shards=3, **extra):
    return RunConfig(
        dataset=network,
        policy=policy_name,
        policy_options=STRUCTURAL_OPTIONS.get(policy_name, {}),
        store=STORES[store],
        shards=shards,
        shard_by=shard_by,
        **extra,
    )


def stream_config(network, policy_name, store, *, shard_by="hash", shards=3, **extra):
    return RunConfig(
        dataset=network,
        policy=policy_name,
        policy_options=STRUCTURAL_OPTIONS.get(policy_name, {}),
        store=STORES[store],
        streaming_shards=shards,
        shard_by=shard_by,
        micro_batch=64,
        **extra,
    )


# ----------------------------------------------------------------------
# equivalence: every policy x dict/dense stores, dataset mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", available_policies())
def test_partitioned_stream_identical_to_eager_sharded(network, policy_name, store):
    eager = Runner(eager_config(network, policy_name, store)).run()
    streamed = Runner(stream_config(network, policy_name, store)).run()
    assert_equivalent(eager, streamed)
    assert streamed.stream_stats is not None
    assert streamed.stream_stats["mode"] == "dataset"
    assert streamed.stream_stats["fabric"]["batches"] > 0
    assert our_segment_names() == []


@pytest.mark.parametrize(
    ("policy_name", "store"), [("fifo", "dict"), ("proportional-dense", "dense")]
)
def test_mincut_routing_identical(network, policy_name, store):
    eager = Runner(
        eager_config(network, policy_name, store, shard_by="mincut", shards=2)
    ).run()
    streamed = Runner(
        stream_config(network, policy_name, store, shard_by="mincut", shards=2)
    ).run()
    assert_equivalent(eager, streamed)
    assert streamed.stream_stats["routing"] == "mincut"


def test_components_routing_identical(network):
    # Default component routing may prune the plan below the requested shard
    # count; the streamed run must follow the pruned plan exactly.
    eager = Runner(
        eager_config(network, "lrb", "dict", shard_by="components", shards=2)
    ).run()
    streamed = Runner(
        stream_config(network, "lrb", "dict", shard_by="components", shards=2)
    ).run()
    assert_equivalent(eager, streamed)


# ----------------------------------------------------------------------
# equivalence: source-fed mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", sorted(STORES))
def test_source_fed_stream_identical_to_eager_sharded(network, store):
    eager = Runner(eager_config(network, "fifo", store)).run()
    streamed = Runner(
        RunConfig(
            source=SequenceSource(network.interactions),
            policy="fifo",
            store=STORES[store],
            streaming_shards=3,
            shard_by="hash",
            micro_batch=64,
        )
    ).run()
    assert_equivalent(eager, streamed)
    assert streamed.stream_stats["mode"] == "source"
    assert streamed.scheduler_stats is not None
    assert (
        streamed.scheduler_stats["interactions"] == eager.statistics.interactions
    )
    assert our_segment_names() == []


def test_source_mincut_warmup_identical_to_eager_mincut_prefix(network):
    # A frozen warm-up membership routes like SOME valid 2-way partition;
    # the run must at minimum process everything and leave no segments.
    streamed = Runner(
        RunConfig(
            source=SequenceSource(network.interactions),
            policy="noprov",
            streaming_shards=2,
            shard_by="mincut",
            streaming_warmup=200,
            micro_batch=64,
        )
    ).run()
    assert streamed.statistics.interactions == network.num_interactions
    assert streamed.stream_stats["routing"] == "mincut"
    assert our_segment_names() == []


def test_source_components_routing_rejected(network):
    # Component routing needs the whole network up front; a live source
    # cannot provide it and must be rejected loudly.
    with pytest.raises(RunConfigurationError):
        RunConfig(
            source=SequenceSource(network.interactions),
            policy="fifo",
            streaming_shards=2,
            shard_by="components",
        )


# ----------------------------------------------------------------------
# resume mid-stream
# ----------------------------------------------------------------------
def test_dataset_resume_mid_stream(network, tmp_path):
    path = tmp_path / "stream.ckpt"
    half = network.num_interactions // 2
    eager = Runner(eager_config(network, "fifo", "dict")).run()
    first = Runner(
        stream_config(
            network, "fifo", "dict",
            limit=half, checkpoint_every=200, checkpoint_path=path,
        )
    ).run()
    assert first.statistics.interactions == half
    manifest = read_checkpoint(path)
    assert manifest["kind"] == "partitioned-stream"
    assert manifest["interactions_processed"] == half
    resumed = Runner(stream_config(network, "fifo", "dict", resume_from=path)).run()
    # Resumed statistics are run-local: only the remainder was processed now.
    assert resumed.statistics.interactions == network.num_interactions - half
    assert snapshot_dict(eager) == snapshot_dict(resumed)
    assert dict(eager.buffer_totals()) == dict(resumed.buffer_totals())
    assert our_segment_names() == []


def test_source_seek_resume_mid_stream(network, tmp_path):
    feed = tmp_path / "feed.csv"
    path = tmp_path / "stream.ckpt"
    write_interactions_csv(network.interactions, feed)
    half = network.num_interactions // 2
    eager = Runner(eager_config(network, "fifo", "dict", shards=2)).run()
    with CsvTailSource(feed, vertex_type=int) as src:
        Runner(
            RunConfig(
                source=src,
                policy="fifo",
                streaming_shards=2,
                shard_by="hash",
                micro_batch=64,
                limit=half,
                checkpoint_every=200,
                checkpoint_path=path,
            )
        ).run()
    manifest = read_checkpoint(path)
    assert manifest["mode"] == "source"
    assert manifest["source_resume"] is not None  # byte offset, not replay
    with CsvTailSource(feed, vertex_type=int) as src:
        resumed = Runner(
            RunConfig(
                source=src,
                policy="fifo",
                streaming_shards=2,
                shard_by="hash",
                micro_batch=64,
                resume_from=path,
            )
        ).run()
    assert snapshot_dict(eager) == snapshot_dict(resumed)
    assert dict(eager.buffer_totals()) == dict(resumed.buffer_totals())
    assert our_segment_names() == []


def test_mincut_membership_frozen_across_resume(network, tmp_path):
    path = tmp_path / "stream.ckpt"
    half = network.num_interactions // 2
    source = lambda: SequenceSource(network.interactions)  # noqa: E731
    full = Runner(
        RunConfig(
            source=source(), policy="noprov", streaming_shards=2,
            shard_by="mincut", streaming_warmup=200, micro_batch=64,
        )
    ).run()
    Runner(
        RunConfig(
            source=source(), policy="noprov", streaming_shards=2,
            shard_by="mincut", streaming_warmup=200, micro_batch=64,
            limit=half, checkpoint_every=200, checkpoint_path=path,
        )
    ).run()
    assert read_checkpoint(path)["membership"]  # frozen table persisted
    resumed = Runner(
        RunConfig(
            source=source(), policy="noprov", streaming_shards=2,
            shard_by="mincut", micro_batch=64, resume_from=path,
        )
    ).run()
    assert snapshot_dict(full) == snapshot_dict(resumed)
    assert dict(full.buffer_totals()) == dict(resumed.buffer_totals())


def test_resume_rejects_engine_checkpoint_and_shard_mismatch(network, tmp_path):
    engine_path = tmp_path / "engine.ckpt"
    save_engine(ProvenanceEngine(make_policy("fifo")), engine_path)
    with pytest.raises(RunConfigurationError):
        Runner(
            stream_config(network, "fifo", "dict", resume_from=engine_path)
        ).run()
    stream_path = tmp_path / "stream.ckpt"
    Runner(
        stream_config(
            network, "fifo", "dict",
            limit=200, checkpoint_every=100, checkpoint_path=stream_path,
        )
    ).run()
    with pytest.raises(RunConfigurationError):
        Runner(
            stream_config(
                network, "fifo", "dict", shards=2, resume_from=stream_path
            )
        ).run()


# ----------------------------------------------------------------------
# segment rings and crash hygiene
# ----------------------------------------------------------------------
def test_segment_rings_roll_under_small_ring(network):
    streamed = Runner(
        RunConfig(
            dataset=network,
            policy="fifo",
            streaming_shards=2,
            shard_by="hash",
            micro_batch=32,
            streaming_ring=2,
        )
    ).run()
    fabric = streamed.stream_stats["fabric"]
    # Far more micro-batches than ring slots: slots MUST have been reused.
    assert fabric["batches"] > 2 * fabric["ring"]
    assert fabric["segment_reuses"] > 0
    assert fabric["backpressure_stalls"] >= 0
    eager = Runner(eager_config(network, "fifo", "dict", shards=2)).run()
    assert_equivalent(eager, streamed)
    assert our_segment_names() == []
    assert shm_mod.active_segments() == []


def test_worker_crash_mid_stream_drains_cleanly(network):
    with pytest.raises(shm_mod.WorkerCrashedError):
        Runner(
            RunConfig(
                dataset=network,
                policy=CrashPolicy(),
                streaming_shards=2,
                shard_by="hash",
                micro_batch=64,
            )
        ).run()
    assert our_segment_names() == []
    assert shm_mod.active_segments() == []
    # The pool replaces the dead worker transparently on the next stream.
    recovered = Runner(stream_config(network, "noprov", "dict", shards=2)).run()
    assert recovered.statistics.interactions == network.num_interactions
    assert our_segment_names() == []


# ----------------------------------------------------------------------
# PartitionedScheduler unit contracts
# ----------------------------------------------------------------------
def make_interactions(sources, start=0):
    return [
        Interaction(s, "sink", float(start + i), 1.0)
        for i, s in enumerate(sources)
    ]


class TestPartitionedScheduler:
    def test_mapping_routes_with_hash_fallback(self):
        scheduler = PartitionedScheduler(
            SequenceSource([]), 2, {"a": 1, "b": 0}, micro_batch=4
        )
        assert scheduler.route("a") == 1
        assert scheduler.route("b") == 0
        unseen = scheduler.route("zzz")  # falls back to the stable hash...
        assert unseen in (0, 1)
        assert scheduler.route("zzz") == unseen  # ...and is memoised

    def test_out_of_range_routing_fails_loudly(self):
        scheduler = PartitionedScheduler(
            SequenceSource([]), 2, lambda vertex: 7, micro_batch=4
        )
        with pytest.raises(RunConfigurationError):
            scheduler.route("a")

    def test_per_shard_order_preserved_and_triggers_counted(self):
        interactions = make_interactions(["a", "b"] * 10)
        scheduler = PartitionedScheduler(
            SequenceSource(interactions), 2, {"a": 0, "b": 1}, micro_batch=4
        )
        per_shard = {0: [], 1: []}
        while True:
            flushes = scheduler.next_flushes()
            if flushes is None:
                break
            for flush in flushes:
                assert flush.trigger in ("size", "final")
                per_shard[flush.shard].extend(flush.batch)
        for shard, vertex in ((0, "a"), (1, "b")):
            expected = [i for i in interactions if i.source == vertex]
            assert per_shard[shard] == expected
        stats = scheduler.stats()
        assert stats["interactions"] == len(interactions)
        assert stats["flushes"]["size"] == 4
        assert stats["flushes"]["final"] == 2

    def test_prefeed_counts_toward_pulled(self):
        interactions = make_interactions(["a"] * 10)
        scheduler = PartitionedScheduler(
            SequenceSource(interactions[4:]), 1, {"a": 0}, micro_batch=100
        )
        scheduler.prefeed(interactions[:4])
        assert scheduler.pulled == 4
        drained = []
        while True:
            flushes = scheduler.next_flushes()
            if flushes is None:
                break
            drained.extend(i for f in flushes for i in f.batch)
        assert drained == interactions  # prefix first, then the stream

    def test_max_pull_barrier_then_ratchet(self):
        interactions = make_interactions(["a"] * 10)
        scheduler = PartitionedScheduler(
            SequenceSource(interactions), 1, {"a": 0},
            micro_batch=100, max_pull=6,
        )
        flushes = scheduler.next_flushes()
        assert [f.trigger for f in flushes] == ["barrier"]
        assert sum(len(f.batch) for f in flushes) == 6
        assert scheduler.next_flushes() is None  # capped, NOT exhausted
        assert not scheduler.source.exhausted
        scheduler.max_pull = None  # the driver raises the cap post-manifest
        flushes = scheduler.next_flushes()
        assert [f.trigger for f in flushes] == ["final"]
        assert sum(len(f.batch) for f in flushes) == 4
        assert scheduler.next_flushes() is None

    def test_timer_flush_on_quiet_feed(self):
        class QuietSource(InteractionSource):
            def __init__(self, first):
                super().__init__()
                self._first = list(first)

            def poll(self, max_items):
                batch, self._first = self._first[:max_items], []
                return self._emit(batch)

            @property
            def exhausted(self):
                return False

        clock_now = [0.0]
        scheduler = PartitionedScheduler(
            QuietSource(make_interactions(["a"] * 3)), 1, {"a": 0},
            micro_batch=100, flush_interval=5.0,
            clock=lambda: clock_now[0],
            sleep=lambda seconds: clock_now.__setitem__(0, clock_now[0] + 6.0),
        )
        flushes = scheduler.next_flushes()
        assert [f.trigger for f in flushes] == ["timer"]
        assert sum(len(f.batch) for f in flushes) == 3
        assert scheduler.stats()["waits"] >= 1

    def test_validation(self):
        with pytest.raises(RunConfigurationError):
            PartitionedScheduler(SequenceSource([]), 0, {})
        with pytest.raises(RunConfigurationError):
            PartitionedScheduler(SequenceSource([]), 2, "not-a-mapping")
        with pytest.raises(RunConfigurationError):
            PartitionedScheduler(
                SequenceSource([]), 2, {}, micro_batch=16, max_in_flight=4
            )
