"""Acceptance suite of the shared-memory shard fabric.

The equivalence bar: a sharded run dispatched over shared segments and the
persistent worker pool (``shared_memory=True``) must produce origin sets,
buffer totals and entry counts identical — float for float — to the serial
executor and to the pickled process executor, for EVERY registered policy,
on the dict store and on the dense store (whose matrices additionally ride
the zero-copy state-adoption path back to the parent).  On top of
equivalence: no segment may survive a completed run, a crashed worker must
not leak segments or wedge the pool, and the dispatch payload must be small
compared to the pickled shard payload.
"""

from __future__ import annotations

import glob
import os
import tempfile

import numpy as np
import pytest

from repro.datasets.catalog import load_preset
from repro.exceptions import RunConfigurationError
from repro.policies.no_provenance import NoProvenancePolicy
from repro.policies.registry import available_policies, make_policy
from repro.runtime import RunConfig, Runner, fork_payload_bytes, partition_network, run_shards
from repro.runtime import shm as shm_mod
from repro.runtime.partition import Shard
from repro.stores import StoreSpec
from repro.stores.dense import DenseNumpyStore

#: Structural parameters for the policies whose constructors require them.
STRUCTURAL_OPTIONS = {
    "proportional-budget": {"capacity": 20},
    "proportional-windowed": {"window": 150},
    "proportional-time-windowed": {"window": 50.0},
}

#: The dense backend applies to fixed-dimension vector roles and falls back
#: to dicts elsewhere, so it is safe for every policy; on proportional-dense
#: it exercises the zero-copy matrix adoption path.
STORES = {
    "dict": None,
    "dense": StoreSpec("dense"),
}


class CrashPolicy(NoProvenancePolicy):
    """A policy that kills its worker process mid-run (crash simulation)."""

    name = "crash"

    def process(self, interaction):  # pragma: no cover - exits the process
        os._exit(17)

    def process_many(self, interactions):  # pragma: no cover
        os._exit(17)

    def process_block(self, block):  # pragma: no cover
        os._exit(17)


class ExplodingPolicy(NoProvenancePolicy):
    """A policy that raises a plain exception inside the worker."""

    name = "exploding"

    def process(self, interaction):
        raise RuntimeError("exploding policy")

    def process_many(self, interactions):
        raise RuntimeError("exploding policy")

    def process_block(self, block):
        raise RuntimeError("exploding policy")


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


def run_config(network, policy_name, store, **extra):
    return RunConfig(
        dataset=network,
        policy=policy_name,
        policy_options=STRUCTURAL_OPTIONS.get(policy_name, {}),
        store=STORES[store],
        shards=3,
        shard_by="hash",
        **extra,
    )


def snapshot_dict(result):
    snapshot = result.snapshot()
    return {vertex: snapshot[vertex].as_dict() for vertex in snapshot}


def assert_equivalent(reference, fabric):
    assert reference.statistics.interactions == fabric.statistics.interactions
    assert snapshot_dict(reference) == snapshot_dict(fabric)
    assert dict(reference.buffer_totals()) == dict(fabric.buffer_totals())
    assert (
        reference.statistics.final_entry_count
        == fabric.statistics.final_entry_count
    )
    assert reference.statistics.peak_entry_count == fabric.statistics.peak_entry_count


# ----------------------------------------------------------------------
# equivalence: every policy x dict/dense stores, three executors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", available_policies())
def test_shm_identical_to_serial_and_pickled(network, policy_name, store):
    serial = Runner(run_config(network, policy_name, store)).run()
    pickled = Runner(
        run_config(network, policy_name, store, shard_executor="processes")
    ).run()
    fabric = Runner(
        run_config(
            network, policy_name, store,
            shard_executor="processes", shared_memory=True,
        )
    ).run()
    assert_equivalent(serial, fabric)
    assert_equivalent(pickled, fabric)
    assert fabric.shm_stats is not None
    assert fabric.shm_stats["dispatch_bytes"] > 0
    assert our_segment_names() == []


def test_per_shard_statistics_match_pickled(network):
    """Sampling positions and per-shard peaks line up across transports."""
    pickled = Runner(
        run_config(
            network, "fifo", "dict", shard_executor="processes", sample_every=97
        )
    ).run()
    fabric = Runner(
        run_config(
            network, "fifo", "dict",
            shard_executor="processes", shared_memory=True, sample_every=97,
        )
    ).run()
    for a, b in zip(pickled.shard_runs, fabric.shard_runs):
        assert a.statistics.interactions == b.statistics.interactions
        assert a.statistics.samples == b.statistics.samples
        assert a.statistics.sampled_entry_counts == b.statistics.sampled_entry_counts
        assert a.statistics.final_entry_count == b.statistics.final_entry_count
        assert a.statistics.peak_entry_count == b.statistics.peak_entry_count


def test_limit_applies_before_sharding(network):
    limit = network.num_interactions // 3
    serial = Runner(run_config(network, "noprov", "dict", limit=limit)).run()
    fabric = Runner(
        run_config(
            network, "noprov", "dict", limit=limit,
            shard_executor="processes", shared_memory=True,
        )
    ).run()
    assert fabric.statistics.interactions == limit
    assert_equivalent(serial, fabric)


def test_mmap_fallback_equivalent(network, monkeypatch):
    """The mmap-file backend carries the whole fabric where shm is absent."""
    monkeypatch.setattr(shm_mod, "_FORCED_KIND", "mmap")
    serial = Runner(run_config(network, "proportional-dense", "dense")).run()
    fabric = Runner(
        run_config(
            network, "proportional-dense", "dense",
            shard_executor="processes", shared_memory=True,
        )
    ).run()
    assert fabric.shm_stats["backend"] == "mmap"
    assert_equivalent(serial, fabric)
    assert our_segment_names() == []


def test_run_shards_shared_memory_api(network):
    """Direct run_shards(shared_memory=True) works without a network block."""
    plan = partition_network(network, 2, mode="hash")
    serial_plan = partition_network(network, 2, mode="hash")
    policies = [make_policy("fifo") for _ in plan.shards]
    serial_policies = [make_policy("fifo") for _ in serial_plan.shards]
    runs, merged = run_shards(
        plan, policies, batch_size=256, executor="processes", shared_memory=True
    )
    serial_runs, serial_merged = run_shards(
        serial_plan, serial_policies, batch_size=256, executor="serial"
    )
    assert merged.interactions == serial_merged.interactions
    assert merged.final_entry_count == serial_merged.final_entry_count
    for a, b in zip(serial_runs, runs):
        totals_a = {v: a.policy.buffer_total(v) for v in a.policy.tracked_vertices()}
        totals_b = {v: b.policy.buffer_total(v) for v in b.policy.tracked_vertices()}
        assert totals_a == totals_b
    assert our_segment_names() == []


def test_shared_memory_requires_process_executor(network):
    with pytest.raises(RunConfigurationError):
        run_shards(
            partition_network(network, 2, mode="hash"),
            [make_policy("fifo"), make_policy("fifo")],
            executor="serial",
            shared_memory=True,
        )
    with pytest.raises(RunConfigurationError):
        RunConfig(dataset=network, policy="fifo", shards=2, shared_memory=True)
    with pytest.raises(RunConfigurationError):
        RunConfig(dataset=network, policy="fifo", shared_memory=True)
    # The fabric is inherently block-native: a per-interaction request
    # still runs every shard's block, and stays bit-identical.
    per_interaction = Runner(RunConfig(
        dataset=network, policy="fifo", shards=2, shard_by="hash", batch_size=1,
    )).run()
    fabric = Runner(RunConfig(
        dataset=network, policy="fifo", shards=2, shard_by="hash", batch_size=1,
        shard_executor="processes", shared_memory=True,
    )).run()
    assert dict(fabric.buffer_totals()) == dict(per_interaction.buffer_totals())
    assert fabric.kernel_stats is not None


# ----------------------------------------------------------------------
# segment hygiene
# ----------------------------------------------------------------------
def test_no_segments_survive_a_normal_run(network):
    result = Runner(
        run_config(
            network, "proportional-dense", "dense",
            shard_executor="processes", shared_memory=True,
        )
    ).run()
    # The run completed AND adopted zero-copy dense state...
    assert result.shm_stats["state_bytes"] > 0
    # ...yet no named segment survives, on either backend, and the parent's
    # cleanup registry is empty.
    assert our_segment_names() == []
    assert shm_mod.active_segments() == []
    # Adopted state is still fully queryable after the segments were
    # unlinked (the lease keeps the mapping alive).
    top = result.top_buffers(3)
    assert top and all(total > 0 for _vertex, total in top)


def test_worker_crash_cleans_segments_and_pool_recovers(network):
    with pytest.raises(shm_mod.WorkerCrashedError):
        Runner(
            RunConfig(
                dataset=network,
                policy=CrashPolicy(),
                shards=2,
                shard_by="hash",
                shard_executor="processes",
                shared_memory=True,
            )
        ).run()
    assert our_segment_names() == []
    assert shm_mod.active_segments() == []
    # The pool replaces the dead worker transparently on the next run.
    recovered = Runner(
        run_config(
            network, "noprov", "dict",
            shard_executor="processes", shared_memory=True,
        )
    ).run()
    assert recovered.statistics.interactions == network.num_interactions
    assert our_segment_names() == []


def test_remote_exception_propagates_and_cleans_up(network):
    """An in-task exception (not a crash) surfaces without leaking."""
    plan = partition_network(network, 2, mode="hash")
    policies = [ExplodingPolicy() for _ in plan.shards]
    with pytest.raises(RuntimeError, match="exploding policy") as excinfo:
        run_shards(
            plan, policies, batch_size=256, executor="processes", shared_memory=True
        )
    assert not isinstance(excinfo.value, shm_mod.WorkerCrashedError)
    assert our_segment_names() == []


# ----------------------------------------------------------------------
# payload accounting
# ----------------------------------------------------------------------
def test_dispatch_is_far_smaller_than_pickled_payload(network):
    config = run_config(
        network, "fifo", "dict", shard_executor="processes", shared_memory=True
    )
    result = Runner(config).run()
    plan = partition_network(network, 3, mode="hash", block=network.to_block())
    pickled_bytes = fork_payload_bytes(
        plan,
        [make_policy("fifo") for _ in plan.shards],
        batch_size=config.effective_batch_size,
    )
    dispatched = result.shm_stats["dispatch_bytes"]
    # Even on this tiny test network the handle dispatch is an order of
    # magnitude smaller; the bench asserts the >=100x bar at full scale.
    assert dispatched * 5 < pickled_bytes


# ----------------------------------------------------------------------
# fabric primitives
# ----------------------------------------------------------------------
def test_dense_store_pack_adopt_round_trip():
    source = DenseNumpyStore(4, block_rows=2)
    for key in ("a", "b", "c"):
        source.merge(key, np.arange(4, dtype=np.float64) + ord(key))
    source.evict("b")  # leave a free-list hole; packing must compact it
    packed = np.empty((len(source), 4), dtype=np.float64)
    keys = source.pack_rows(packed)
    target = DenseNumpyStore(4)
    target.adopt_packed(keys, packed)
    assert set(target.keys()) == {"a", "c"}
    assert np.array_equal(target.get("a"), np.arange(4, dtype=np.float64) + ord("a"))
    # Adoption installs the packed matrix *as the arena* — an O(1) pointer
    # swap, so reads and writes are zero-copy views of the packed buffer.
    assert target.arena is packed
    target.get("a")[0] = 123.0
    assert packed[keys.index("a")][0] == 123.0
    # Growth past the adopted rows reallocates onto the heap (one memcpy);
    # the packed buffer is left untouched from that point on.
    target.merge("d", np.ones(4))
    assert target.arena is not packed
    assert np.array_equal(target.get("d"), np.ones(4))
    assert np.array_equal(target.get("c"), np.arange(4, dtype=np.float64) + ord("c"))
    assert packed[keys.index("a")][0] == 123.0  # detached, not mutated further
    # Eviction recycles rows through the free list like local ones.
    target.evict("c")
    target.merge("e", np.full(4, 2.0))
    assert np.array_equal(target.get("e"), np.full(4, 2.0))
    assert set(target.keys()) == {"a", "d", "e"}


def test_dense_store_adopt_without_growth_stays_zero_copy():
    """A worker that only reads/mutates adopted rows never copies them."""
    packed = np.arange(8, dtype=np.float64).reshape(2, 4)
    store = DenseNumpyStore(4)
    store.adopt_packed(["x", "y"], packed, owner="lease-token")
    assert store.arena is packed
    store.merge("x", np.ones(4))  # existing row: no growth, in-place
    assert store.arena is packed
    assert np.array_equal(packed[0], np.arange(4, dtype=np.float64) + 1.0)
    # Repacking for the next hop gathers straight from the adopted buffer.
    out = np.empty((2, 4), dtype=np.float64)
    assert store.pack_rows(out) == ["x", "y"]
    assert np.array_equal(out, packed)


def test_plan_segment_round_trip(network):
    """build_shared_plan -> attach_block reproduces every shard bit for bit.

    Covers both parent-side sources: a plan whose shards carry routed
    blocks (column-wise copy into the segment, the network's vertex table)
    and a hand-built plan whose shards carry only interactions
    (columnarised against a fresh interner, so rows are compared by vertex
    label).
    """
    block = network.to_block()
    routed = partition_network(network, 3, mode="hash", block=block)
    objects = partition_network(network, 3, mode="hash", block=block)
    objects.shards = [
        Shard(shard.index, shard.vertices, interactions=shard.interactions)
        for shard in objects.shards
    ]
    for source_plan in (routed, objects):
        segment, handle = shm_mod.build_shared_plan(source_plan)
        try:
            attached = shm_mod._AttachedPlan(handle)
            if source_plan is routed:
                assert attached.table == block.interner.vertices
            for index, shard in enumerate(routed.shards):
                view = shm_mod.attach_block(attached, handle.blocks[index])
                assert not view.src_ids.flags.writeable
                rows = list(
                    zip(
                        [attached.table[i] for i in view.src_ids],
                        [attached.table[i] for i in view.dst_ids],
                        view.times.tolist(),
                        view.quantities.tolist(),
                    )
                )
                assert rows == [
                    (i.source, i.destination, i.time, i.quantity)
                    for i in shard.interactions
                ]
                if source_plan is routed:
                    assert np.array_equal(view.src_ids, shard.block.src_ids)
                    assert np.array_equal(view.dst_ids, shard.block.dst_ids)
                    assert np.array_equal(view.times, shard.block.times)
                    assert np.array_equal(view.quantities, shard.block.quantities)
            attached.segment.close_quietly()
        finally:
            segment.unlink()
            segment.close_quietly()
    assert our_segment_names() == []
