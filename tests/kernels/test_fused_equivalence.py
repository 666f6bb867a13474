"""Acceptance suite of the fused kernel tier: bit-identical to batched runs.

The equivalence bar of the fused-kernel refactor: a run driven through
whole-run kernels (``kernel="fused"`` — compiled backend when one resolves,
pure-numpy fused otherwise) must produce origin sets, buffer totals,
entry-count samples and peaks identical (float for float, position for
position) to the batched columnar run AND the per-interaction object run on
the same stream, for EVERY registered policy, on the dict store and on the
dense store, across eager, streaming, sharded and resume-from-checkpoint
drive paths.  Chunk boundaries exist only at exact sample/peak/checkpoint
clip offsets, which is what keeps the statistics identical.
"""

from __future__ import annotations

import pytest

from repro.datasets.catalog import load_preset
from repro.datasets.io import write_interactions_csv
from repro.policies.registry import available_policies
from repro.runtime import RunConfig, Runner
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
# eager: fused == batched == per-interaction, every policy x both stores
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", available_policies())
def test_eager_fused_identical_to_batched_and_object(network, policy_name, store):
    object_run = Runner(run_config(
        network, policy_name, store, columnar=False, sample_every=97
    )).run()
    batched = Runner(run_config(
        network, policy_name, store, columnar=True, kernel="batch",
        sample_every=97,
    )).run()
    fused = Runner(run_config(
        network, policy_name, store, columnar=True, kernel="fused",
        sample_every=97,
    )).run()
    assert_equivalent(object_run, fused)
    assert_equivalent(batched, fused)
    assert fused.kernel_stats is not None
    assert fused.kernel_stats["mode"] == "fused"
    assert batched.kernel_stats["mode"] == "batch"
    assert object_run.kernel_stats is None


@pytest.mark.parametrize("policy_name", available_policies())
def test_peak_tracking_clips_match_batched(network, policy_name):
    """With sampling off, peaks are probed at the 1024/2048/... doubling
    positions; fused runs must cut chunks there to see identical peaks."""
    batched = Runner(run_config(
        network, policy_name, "dict", columnar=True, kernel="batch"
    )).run()
    fused = Runner(run_config(
        network, policy_name, "dict", columnar=True, kernel="fused"
    )).run()
    assert_equivalent(batched, fused)
    assert (
        batched.statistics.peak_entry_count == fused.statistics.peak_entry_count
    )
    # The whole run is a handful of peak-clip spans, not per-4096 batches.
    assert fused.kernel_stats["chunks"] <= 4


# ----------------------------------------------------------------------
# streaming: the scheduler path flushes through process_run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", available_policies())
def test_streaming_fused_identical_to_batched(network, policy_name, store):
    batched = Runner(run_config(
        network, policy_name, store, columnar=True, kernel="batch",
        micro_batch=61,
    )).run()
    fused = Runner(run_config(
        network, policy_name, store, columnar=True, kernel="fused",
        micro_batch=61,
    )).run()
    assert_equivalent(batched, fused)
    assert fused.kernel_stats["mode"] == "fused"
    assert fused.columnar_stats["mode"] == "stream"


# ----------------------------------------------------------------------
# sharded: every shard engine routes through the fused tier
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", available_policies())
def test_sharded_fused_identical_to_batched(network, policy_name, store):
    batched = Runner(run_config(
        network, policy_name, store, columnar=True, kernel="batch",
        shards=3, shard_by="hash",
    )).run()
    fused = Runner(run_config(
        network, policy_name, store, columnar=True, kernel="fused",
        shards=3, shard_by="hash",
    )).run()
    assert_equivalent(batched, fused, check_samples=False)
    assert fused.kernel_stats is not None
    assert fused.kernel_stats["mode"] == "fused"
    # Merged accounting: chunks summed over shards.
    assert fused.kernel_stats["chunks"] >= 3


def test_shm_fabric_fused_identical_to_pickled(network):
    """The zero-copy fabric workers honour kernel= and report stats back."""
    for policy_name in ("noprov", "proportional-dense"):
        pickled = Runner(run_config(
            network, policy_name, "dense", columnar=True, kernel="fused",
            shards=2, shard_by="hash", shard_executor="processes",
        )).run()
        fabric = Runner(run_config(
            network, policy_name, "dense", columnar=True, kernel="fused",
            shards=2, shard_by="hash", shard_executor="processes",
            shared_memory=True,
        )).run()
        assert_equivalent(pickled, fabric, check_samples=False)
        assert fabric.kernel_stats is not None
        assert fabric.kernel_stats["mode"] == "fused"


# ----------------------------------------------------------------------
# resume-from-checkpoint: fused runs checkpoint/resume bit-identically
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy_name", available_policies())
def test_fused_resume_identical_to_uninterrupted(network, policy_name, tmp_path):
    checkpoint = tmp_path / "fused.ckpt"
    uninterrupted = Runner(run_config(
        network, policy_name, "dict", columnar=True, kernel="fused",
        micro_batch=64,
    )).run()
    Runner(run_config(
        network, policy_name, "dict", columnar=True, kernel="fused",
        micro_batch=64, limit=network.num_interactions // 2,
        checkpoint_path=checkpoint,
    )).run()
    resumed = Runner(run_config(
        network, policy_name, "dict", columnar=True, kernel="fused",
        micro_batch=64, resume_from=checkpoint,
    )).run()
    assert snapshot_dict(uninterrupted) == snapshot_dict(resumed)
    assert dict(uninterrupted.buffer_totals()) == dict(resumed.buffer_totals())


def test_fused_resume_crosses_kernel_modes(network, tmp_path):
    """A checkpoint written by a fused run resumes identically under batch
    mode and vice versa — kernel routing is not part of the state."""
    checkpoint = tmp_path / "cross.ckpt"
    for first, second in (("fused", "batch"), ("batch", "fused")):
        uninterrupted = Runner(run_config(
            network, "proportional-dense", "dense", columnar=True,
            kernel=second, micro_batch=64,
        )).run()
        Runner(run_config(
            network, "proportional-dense", "dense", columnar=True,
            kernel=first, micro_batch=64,
            limit=network.num_interactions // 2, checkpoint_path=checkpoint,
        )).run()
        resumed = Runner(run_config(
            network, "proportional-dense", "dense", columnar=True,
            kernel=second, micro_batch=64, resume_from=checkpoint,
        )).run()
        assert snapshot_dict(uninterrupted) == snapshot_dict(resumed)
        assert dict(uninterrupted.buffer_totals()) == dict(resumed.buffer_totals())


def test_fused_periodic_checkpoints_clip_exactly(network, tmp_path):
    """checkpoint_every forces chunk boundaries at exact multiples, so the
    mid-run save observes the same prefix state as a batched run's save."""
    from repro.core.checkpoint import load_engine

    path = tmp_path / "stream.csv"
    write_interactions_csv(network.interactions, path)
    states = {}
    for mode in ("batch", "fused"):
        checkpoint = tmp_path / f"{mode}.ckpt"
        Runner(RunConfig(
            dataset=str(path), vertex_type=int, policy="noprov",
            columnar=True, kernel=mode, checkpoint_every=100,
            checkpoint_path=checkpoint, limit=150, batch_size=64,
        )).run()
        restored = load_engine(checkpoint)
        assert restored.interactions_processed == 150
        states[mode] = {
            vertex: restored.policy.buffer_total(vertex)
            for vertex in restored.policy.tracked_vertices()
        }
    assert states["batch"] == states["fused"]


# ----------------------------------------------------------------------
# kernel routing knobs and reporting
# ----------------------------------------------------------------------
def test_auto_kernel_is_fused(network):
    """kernel='auto' (the default) routes columnar runs through the fused
    tier — and stays bit-identical to an explicit batch run."""
    auto = Runner(run_config(network, "noprov", "dict", columnar=True)).run()
    batched = Runner(run_config(
        network, "noprov", "dict", columnar=True, kernel="batch"
    )).run()
    assert auto.kernel_stats["mode"] == "fused"
    assert_equivalent(batched, auto)


def test_kernel_stats_shape(network):
    fused = Runner(RunConfig(
        dataset=network, policy="noprov", store="dict", columnar=True,
        kernel="fused", sample_every=97,
    )).run()
    stats = fused.kernel_stats
    assert set(stats) == {"mode", "backend", "chunks", "compile_seconds"}
    assert stats["backend"] in ("numba", "cc", "numpy")
    # sample_every=97 over the whole run forces one clip per sample point.
    assert stats["chunks"] >= 10
    assert stats["compile_seconds"] >= 0.0
    payload = fused.to_dict()["kernel"]
    assert payload["enabled"] is True
    assert payload["mode"] == "fused"


def test_sharded_kernel_stats_merge_and_timing_rows(network):
    fused = Runner(run_config(
        network, "noprov", "dict", columnar=True, kernel="fused",
        shards=3, shard_by="hash",
    )).run()
    merged = fused.kernel_stats
    rows = fused.to_dict()["sharding"]["shards"]
    per_shard = [row["kernel"] for row in rows]
    assert merged["chunks"] == sum(stats["chunks"] for stats in per_shard)
    assert all(stats["mode"] == "fused" for stats in per_shard)


def test_object_policies_fuse_through_process_run(network):
    """Policies without a columnar kernel (here: state spilled to sqlite,
    carried by the materialising adapter) still run whole clip spans and
    report the 'object' backend."""
    config = RunConfig(
        dataset=network, policy="fifo",
        store=StoreSpec("sqlite", {"hot_capacity": 8}),
        columnar=True, kernel="fused",
    )
    fused = Runner(config).run()
    assert fused.kernel_stats["mode"] == "fused"
    assert fused.kernel_stats["backend"] == "object"


def test_fused_respects_subclass_process_block_overrides(network):
    """A subclass shipping its own process_block kernel is never bypassed
    by the inherited compiled whole-run kernel."""
    from repro.policies.no_provenance import NoProvenancePolicy

    calls = []

    class CountingNoProv(NoProvenancePolicy):
        def process_block(self, block):
            calls.append(len(block))
            super().process_block(block)

    policy = CountingNoProv()
    result = Runner(RunConfig(
        dataset=network, policy=policy, columnar=True, kernel="fused"
    )).run()
    assert sum(calls) == network.num_interactions
    reference = Runner(run_config(network, "noprov", "dict", columnar=True)).run()
    assert dict(reference.buffer_totals()) == dict(result.buffer_totals())


def test_kernel_config_validation(network):
    from repro.exceptions import RunConfigurationError

    with pytest.raises(RunConfigurationError):
        RunConfig(dataset=network, policy="noprov", kernel="turbo")
    with pytest.raises(RunConfigurationError):
        RunConfig(dataset=network, policy="noprov", kernel="fused", columnar=False)
    # batch kernel with columnar=False is fine (it is the object path).
    RunConfig(dataset=network, policy="noprov", kernel="batch", columnar=False)


def test_engine_rejects_unknown_kernel(network):
    from repro.core.engine import ProvenanceEngine
    from repro.policies.registry import make_policy

    policy = make_policy("noprov")
    policy.reset(network.vertices)
    with pytest.raises(ValueError):
        ProvenanceEngine(policy).run(network.to_block(), kernel="turbo")


def test_cli_kernel_flag(capsys):
    from repro.cli import main

    assert main([
        "run", "--dataset", "taxis", "--scale", "0.02",
        "--policy", "noprov", "--kernel", "fused", "--store", "dict",
    ]) == 0
    out = capsys.readouterr().out
    assert "kernel fused: backend" in out
    assert main([
        "run", "--dataset", "taxis", "--scale", "0.02",
        "--policy", "noprov", "--kernel", "batch", "--store", "dict",
    ]) == 0
    assert "kernel batch" in capsys.readouterr().out
