"""Acceptance suite of the fused kernel tier: bit-identical to object runs.

The equivalence bar of the fused-kernel refactor: a run driven through
whole-run kernels (compiled backend when one resolves, pure-numpy fused
otherwise) must produce origin sets, buffer totals, entry-count samples and
peaks identical (float for float, position for position) to the engine
batching interaction objects AND to the per-interaction run on the same
stream, for EVERY registered policy, on the dict store and on the dense
store, across eager, streaming, sharded and resume-from-checkpoint drive
paths.  Span boundaries exist only at exact sample/peak/checkpoint clip
offsets, which is what keeps the statistics identical.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.engine import ProvenanceEngine
from repro.datasets.catalog import load_preset
from repro.datasets.io import write_interactions_csv
from repro.policies.registry import available_policies
from repro.runtime import DEFAULT_BATCH_SIZE, RunConfig, Runner, build_policy
from repro.stores import StoreSpec

#: Structural parameters for the policies whose constructors require them.
STRUCTURAL_OPTIONS = {
    "proportional-budget": {"capacity": 20},
    "proportional-windowed": {"window": 150},
    "proportional-time-windowed": {"window": 50.0},
}

#: The dense backend applies to fixed-dimension vector roles and falls back
#: to dicts elsewhere, so it is safe for every policy; on proportional-dense
#: it is the layout the compiled kernel's pointer table indexes into.
STORES = {
    "dict": None,
    "dense": StoreSpec("dense"),
}


@pytest.fixture(scope="module")
def network():
    # Crosses the 1024-interaction peak-check boundary, so fused runs must
    # clip there to match batched peak statistics.
    return load_preset("taxis", scale=0.05)


def snapshot_dict(result):
    snapshot = result.snapshot()
    return {vertex: snapshot[vertex].as_dict() for vertex in snapshot}


def run_config(network, policy_name, store, **extra):
    return RunConfig(
        dataset=network,
        policy=policy_name,
        policy_options=STRUCTURAL_OPTIONS.get(policy_name, {}),
        store=STORES[store],
        **extra,
    )


def engine_run(network, policy_name, store, source, **options):
    """Drive ``source`` (the network's block or its interaction objects)
    through a fresh engine whose policy was reset with the network's
    universe."""
    policy = build_policy(run_config(network, policy_name, store), network)
    policy.reset(network.vertices)
    engine = ProvenanceEngine(policy)
    statistics = engine.run(source, reset=False, **options)
    return SimpleNamespace(
        statistics=statistics,
        snapshot=engine.snapshot,
        buffer_totals=engine.buffer_totals,
        kernel_stats=engine.kernel_stats(),
    )


def has_kernel(network, policy_name, store):
    policy = build_policy(run_config(network, policy_name, store), network)
    policy.reset(network.vertices)
    return policy.has_columnar_kernel()


def assert_equivalent(reference, fused, *, check_samples=True):
    assert reference.statistics.interactions == fused.statistics.interactions
    assert snapshot_dict(reference) == snapshot_dict(fused)
    assert dict(reference.buffer_totals()) == dict(fused.buffer_totals())
    assert (
        reference.statistics.final_entry_count
        == fused.statistics.final_entry_count
    )
    if check_samples:
        assert reference.statistics.samples == fused.statistics.samples
        assert (
            reference.statistics.sampled_entry_counts
            == fused.statistics.sampled_entry_counts
        )
        assert (
            reference.statistics.peak_entry_count
            == fused.statistics.peak_entry_count
        )


# ----------------------------------------------------------------------
# eager: fused == object batches == per-interaction, every policy x store
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", available_policies())
def test_eager_fused_identical_to_batched_and_object(network, policy_name, store):
    reference = Runner(run_config(
        network, policy_name, store, batch_size=1, sample_every=97
    )).run()
    batched = engine_run(
        network, policy_name, store, network.interactions,
        batch_size=DEFAULT_BATCH_SIZE, sample_every=97,
    )
    fused = engine_run(
        network, policy_name, store, network.to_block(), sample_every=97
    )
    assert_equivalent(reference, fused)
    assert_equivalent(batched, fused)
    assert fused.kernel_stats is not None
    assert reference.kernel_stats is None


@pytest.mark.parametrize("policy_name", available_policies())
def test_peak_tracking_clips_match_batched(network, policy_name):
    """With sampling off, peaks are probed at the 1024/2048/... doubling
    positions; fused runs must cut spans there to see identical peaks."""
    batched = engine_run(
        network, policy_name, "dict", network.interactions,
        batch_size=DEFAULT_BATCH_SIZE,
    )
    fused = engine_run(network, policy_name, "dict", network.to_block())
    assert_equivalent(batched, fused)
    assert (
        batched.statistics.peak_entry_count == fused.statistics.peak_entry_count
    )
    # The whole run is a handful of peak-clip spans, not per-batch calls.
    assert fused.kernel_stats["chunks"] <= 4


# ----------------------------------------------------------------------
# streaming: compiled kernels take the scheduler's batches as blocks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", available_policies())
def test_streaming_fused_identical_to_batched(network, policy_name, store):
    reference = Runner(run_config(network, policy_name, store, batch_size=1)).run()
    scheduled = Runner(run_config(
        network, policy_name, store, micro_batch=61,
    )).run()
    assert_equivalent(reference, scheduled)
    if scheduled.kernel_stats is not None:
        assert scheduled.kernel_stats["backend"] in ("cc", "numba")
        assert scheduled.columnar_stats["mode"] == "stream"


# ----------------------------------------------------------------------
# sharded: every shard engine with a kernel routes through the fused tier
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", available_policies())
def test_sharded_fused_identical_to_batched(network, policy_name, store):
    reference = Runner(run_config(
        network, policy_name, store, batch_size=1, shards=3, shard_by="hash",
    )).run()
    fused = Runner(run_config(
        network, policy_name, store, shards=3, shard_by="hash",
    )).run()
    assert_equivalent(reference, fused, check_samples=False)
    if has_kernel(network, policy_name, store):
        # Merged accounting: spans summed over shards.
        assert fused.kernel_stats["chunks"] >= 3
    else:
        assert fused.kernel_stats is None


def test_shm_fabric_fused_identical_to_pickled(network):
    """The zero-copy fabric workers run the fused tier and report stats back."""
    for policy_name in ("noprov", "proportional-dense"):
        pickled = Runner(run_config(
            network, policy_name, "dense",
            shards=2, shard_by="hash", shard_executor="processes",
        )).run()
        fabric = Runner(run_config(
            network, policy_name, "dense",
            shards=2, shard_by="hash", shard_executor="processes",
            shared_memory=True,
        )).run()
        assert_equivalent(pickled, fabric, check_samples=False)
        assert fabric.kernel_stats is not None
        assert fabric.kernel_stats["backend"] == pickled.kernel_stats["backend"]


# ----------------------------------------------------------------------
# resume-from-checkpoint: fused runs checkpoint/resume bit-identically
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy_name", available_policies())
def test_fused_resume_identical_to_uninterrupted(network, policy_name, tmp_path):
    checkpoint = tmp_path / "fused.ckpt"
    uninterrupted = Runner(run_config(
        network, policy_name, "dict", micro_batch=64,
    )).run()
    Runner(run_config(
        network, policy_name, "dict",
        micro_batch=64, limit=network.num_interactions // 2,
        checkpoint_path=checkpoint,
    )).run()
    resumed = Runner(run_config(
        network, policy_name, "dict", micro_batch=64, resume_from=checkpoint,
    )).run()
    assert snapshot_dict(uninterrupted) == snapshot_dict(resumed)
    assert dict(uninterrupted.buffer_totals()) == dict(resumed.buffer_totals())


def test_resume_crosses_drives(network, tmp_path):
    """A checkpoint written by a block run resumes identically through the
    scheduler and vice versa — the drive is not part of the state."""
    checkpoint = tmp_path / "cross.ckpt"
    block, scheduled = {}, {"micro_batch": 64}
    for first, second in ((block, scheduled), (scheduled, block)):
        uninterrupted = Runner(run_config(
            network, "proportional-dense", "dense", **second
        )).run()
        Runner(run_config(
            network, "proportional-dense", "dense",
            limit=network.num_interactions // 2, checkpoint_path=checkpoint,
            **first,
        )).run()
        resumed = Runner(run_config(
            network, "proportional-dense", "dense", resume_from=checkpoint,
            **second,
        )).run()
        assert snapshot_dict(uninterrupted) == snapshot_dict(resumed)
        assert dict(uninterrupted.buffer_totals()) == dict(resumed.buffer_totals())


def test_fused_periodic_checkpoints_clip_exactly(network, tmp_path):
    """checkpoint_every forces span boundaries at exact multiples, so the
    checkpoint holds the same prefix state as a per-interaction run's."""
    from repro.core.checkpoint import load_engine

    path = tmp_path / "stream.csv"
    write_interactions_csv(network.interactions, path)
    states = {}
    for batch_size in (1, 64):
        checkpoint = tmp_path / f"batch{batch_size}.ckpt"
        Runner(RunConfig(
            dataset=str(path), vertex_type=int, policy="noprov",
            checkpoint_every=100, checkpoint_path=checkpoint, limit=150,
            batch_size=batch_size,
        )).run()
        restored = load_engine(checkpoint)
        assert restored.interactions_processed == 150
        states[batch_size] = {
            vertex: restored.policy.buffer_total(vertex)
            for vertex in restored.policy.tracked_vertices()
        }
    assert states[1] == states[64]


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def test_kernel_stats_shape(network):
    fused = Runner(RunConfig(
        dataset=network, policy="noprov", store="dict", sample_every=97,
    )).run()
    stats = fused.kernel_stats
    assert set(stats) == {"backend", "chunks", "compile_seconds"}
    assert stats["backend"] in ("numba", "cc", "numpy")
    # sample_every=97 over the whole run forces one clip per sample point.
    assert stats["chunks"] >= 10
    assert stats["compile_seconds"] >= 0.0
    payload = fused.to_dict()["kernel"]
    assert payload["enabled"] is True
    assert payload["backend"] == stats["backend"]


def test_sharded_kernel_stats_merge_and_timing_rows(network):
    fused = Runner(RunConfig(
        dataset=network, policy="noprov", store="dict", shards=3, shard_by="hash",
    )).run()
    merged = fused.kernel_stats
    rows = fused.to_dict()["sharding"]["shards"]
    per_shard = [row["kernel"] for row in rows]
    assert merged["chunks"] == sum(stats["chunks"] for stats in per_shard)
    assert all(stats["backend"] == merged["backend"] for stats in per_shard)


def test_object_policies_fuse_through_process_run(network):
    """Policies without a columnar kernel (here: state spilled to sqlite,
    carried by the materialising adapter) still run a block's whole clip
    spans and report the 'object' backend."""
    policy = build_policy(RunConfig(
        dataset=network, policy="fifo",
        store=StoreSpec("sqlite", {"hot_capacity": 8}),
    ), network)
    engine = ProvenanceEngine(policy)
    engine.run(network.to_block())
    assert engine.kernel_stats()["backend"] == "object"


def test_fused_respects_subclass_process_block_overrides(network):
    """A subclass shipping its own process_block kernel is never bypassed
    by the inherited compiled whole-run kernel."""
    from repro.policies.no_provenance import NoProvenancePolicy

    calls = []

    class CountingNoProv(NoProvenancePolicy):
        def process_block(self, block):
            calls.append(len(block))
            super().process_block(block)

    policy = CountingNoProv(store="dict")
    result = Runner(RunConfig(dataset=network, policy=policy)).run()
    assert sum(calls) == network.num_interactions
    reference = Runner(run_config(network, "noprov", "dict", batch_size=1)).run()
    assert dict(reference.buffer_totals()) == dict(result.buffer_totals())


def test_drive_knobs_are_gone(network):
    """The drive follows from the input: no config field, engine argument
    or CLI flag selects it."""
    from repro.cli import build_parser

    for knob in ({"columnar": True}, {"kernel": "fused"}):
        with pytest.raises(TypeError):
            RunConfig(dataset=network, policy="noprov", **knob)
    policy = build_policy(RunConfig(dataset=network, policy="noprov"), network)
    with pytest.raises(TypeError):
        ProvenanceEngine(policy).run(network.to_block(), kernel="batch")
    for flag in ("--columnar", "--kernel=fused"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", flag])


def test_cli_reports_fused_kernel(capsys):
    from repro.cli import main

    assert main([
        "run", "--dataset", "taxis", "--scale", "0.02",
        "--policy", "noprov", "--store", "dict",
    ]) == 0
    assert "fused kernel: backend" in capsys.readouterr().out
