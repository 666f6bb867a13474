"""Acceptance suite of the columnar drive: bit-identical to object runs.

The equivalence bar of the columnar refactor: a run driven over
struct-of-array :class:`InteractionBlock` spans — eager, sharded or
streaming, a block handed to the engine or chosen by the engine itself —
must produce origin sets, buffer totals and entry-count samples identical
(float for float, position for position) to the per-interaction reference
(``batch_size=1``) on the same stream, for EVERY registered policy, on the
dict store and on the SQLite spill store (where the materialising adapter
carries the blocks).  The interner must survive checkpoint/resume, and the
default CSV run must reach the block without ever building an interaction
object.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core import kernels
from repro.core.engine import ProvenanceEngine
from repro.core.network import TemporalInteractionNetwork
from repro.datasets.catalog import load_preset
from repro.datasets.io import read_interaction_block, write_interactions_csv
from repro.policies.registry import available_policies
from repro.runtime import RunConfig, Runner, build_policy
from repro.stores import StoreSpec

#: Structural parameters for the policies whose constructors require them.
STRUCTURAL_OPTIONS = {
    "proportional-budget": {"capacity": 20},
    "proportional-windowed": {"window": 150},
    "proportional-time-windowed": {"window": 50.0},
}

#: A tiny hot capacity forces heavy spilling; on the sqlite leg the columnar
#: run exercises the adapter fallback (kernels need dict-backed state).
STORES = {
    "dict": None,
    "sqlite": StoreSpec("sqlite", {"hot_capacity": 8}),
}

#: Policies whose fused backend can be compiled (cc or numba).
COMPILED_POLICIES = ("noprov", "proportional-dense")


@pytest.fixture(scope="module")
def network():
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


def block_run(network, policy_name, store, **options):
    """Hand the network's block to the engine: kernel or adapter, any policy."""
    policy = build_policy(run_config(network, policy_name, store), network)
    engine = ProvenanceEngine(policy)
    statistics = engine.run(network.to_block(), **options)
    return SimpleNamespace(
        statistics=statistics,
        snapshot=engine.snapshot,
        buffer_totals=engine.buffer_totals,
        columnar_stats=engine.columnar_stats(),
    )


def assert_equivalent(reference, candidate, *, check_samples=True):
    assert reference.statistics.interactions == candidate.statistics.interactions
    assert snapshot_dict(reference) == snapshot_dict(candidate)
    assert dict(reference.buffer_totals()) == dict(candidate.buffer_totals())
    assert (
        reference.statistics.final_entry_count
        == candidate.statistics.final_entry_count
    )
    if check_samples:
        assert reference.statistics.samples == candidate.statistics.samples
        assert (
            reference.statistics.sampled_entry_counts
            == candidate.statistics.sampled_entry_counts
        )
        assert (
            reference.statistics.peak_entry_count
            == candidate.statistics.peak_entry_count
        )


@pytest.fixture
def materialised(monkeypatch):
    """Networks that built their interaction objects from a pending block."""
    built = []
    original = TemporalInteractionNetwork._materialise

    def recording(self):
        if self._pending_block is not None:
            built.append(self.name)
        original(self)

    monkeypatch.setattr(TemporalInteractionNetwork, "_materialise", recording)
    return built


@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", available_policies())
def test_block_run_identical_to_per_interaction(network, policy_name, store):
    reference = Runner(run_config(
        network, policy_name, store, batch_size=1, sample_every=97
    )).run()
    block = block_run(network, policy_name, store, sample_every=97)
    assert_equivalent(reference, block)
    assert block.columnar_stats is not None
    assert block.columnar_stats["mode"] == "block"


@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", available_policies())
def test_scheduled_run_identical_to_per_interaction(network, policy_name, store):
    reference = Runner(run_config(network, policy_name, store, batch_size=1)).run()
    scheduled = Runner(run_config(network, policy_name, store, micro_batch=61)).run()
    assert_equivalent(reference, scheduled)


@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("shard_by", ["components", "hash"])
@pytest.mark.parametrize("policy_name", available_policies())
def test_sharded_run_identical_to_per_interaction(network, policy_name, store, shard_by):
    reference = Runner(run_config(
        network, policy_name, store, batch_size=1, shards=3, shard_by=shard_by
    )).run()
    sharded = Runner(run_config(
        network, policy_name, store, shards=3, shard_by=shard_by
    )).run()
    assert_equivalent(reference, sharded, check_samples=False)


@pytest.mark.parametrize("policy_name", available_policies())
def test_default_run_identical_to_per_interaction(network, policy_name):
    reference = Runner(run_config(
        network, policy_name, "dict", batch_size=1, sample_every=103
    )).run()
    default = Runner(run_config(network, policy_name, "dict", sample_every=103)).run()
    assert_equivalent(reference, default)


def test_default_csv_run_identical_to_per_interaction(network, tmp_path):
    path = tmp_path / "stream.csv"
    write_interactions_csv(network.interactions, path)
    for policy_name in ("noprov", "fifo", "proportional-dense", "proportional-sparse"):
        options = dict(dataset=str(path), vertex_type=int, policy=policy_name)
        reference = Runner(RunConfig(batch_size=1, **options)).run()
        default = Runner(RunConfig(**options)).run()
        assert_equivalent(reference, default)
        assert default.network is not None


@pytest.mark.parametrize("policy_name", ["noprov", "lrb", "proportional-dense"])
def test_default_csv_resume_slices_the_block(
    network, tmp_path, policy_name, materialised
):
    """A default resumed CSV run skips its prefix with one block slice: no
    interaction object is built and nothing is replayed."""
    path = tmp_path / "stream.csv"
    checkpoint = tmp_path / "half.ckpt"
    write_interactions_csv(network.interactions, path)
    total = network.num_interactions
    # Pinned: kernels need dict-backed state, whatever the session default.
    options = dict(dataset=str(path), vertex_type=int, policy=policy_name, store="dict")
    reference = Runner(RunConfig(batch_size=1, **options)).run()
    materialised.clear()

    Runner(RunConfig(limit=total // 2, checkpoint_path=checkpoint, **options)).run()
    resumed = Runner(RunConfig(resume_from=checkpoint, **options)).run()
    assert materialised == []
    assert resumed.columnar_stats["mode"] == "block"
    assert resumed.statistics.interactions == total - total // 2
    assert snapshot_dict(reference) == snapshot_dict(resumed)
    assert dict(reference.buffer_totals()) == dict(resumed.buffer_totals())
    # A resumed run with a limit processes exactly that many more rows.
    limited = Runner(RunConfig(resume_from=checkpoint, limit=7, **options)).run()
    assert limited.statistics.interactions == 7


@pytest.mark.parametrize("policy_name", ["noprov", "lrb", "proportional-dense"])
def test_default_csv_periodic_checkpoints_stay_on_the_block(
    network, tmp_path, policy_name, materialised, monkeypatch
):
    """checkpoint_every clips block spans instead of forcing per-interaction
    stepping; every save holds exactly the per-interaction prefix state."""
    from repro.runtime import runner as runner_module

    path = tmp_path / "stream.csv"
    checkpoint = tmp_path / "periodic.ckpt"
    write_interactions_csv(network.interactions, path)
    options = dict(dataset=str(path), vertex_type=int, policy=policy_name, store="dict")
    reference = Runner(RunConfig(batch_size=1, **options)).run()
    prefixes = {
        count: dict(Runner(RunConfig(batch_size=1, limit=count, **options)).run().buffer_totals())
        for count in (100, 200, 250)
    }
    materialised.clear()

    saved = []
    save_engine = runner_module.save_engine

    def recording_save(engine, target, **kwargs):
        saved.append((engine.interactions_processed, dict(engine.buffer_totals())))
        save_engine(engine, target, **kwargs)

    monkeypatch.setattr(runner_module, "save_engine", recording_save)
    checkpointed = Runner(RunConfig(
        checkpoint_every=100, checkpoint_path=checkpoint, limit=250, **options
    )).run()
    assert materialised == []
    assert checkpointed.columnar_stats["mode"] == "block"
    assert [count for count, _ in saved] == [100, 200, 250]
    for count, totals in saved:
        assert totals == prefixes[count]

    resumed = Runner(RunConfig(resume_from=checkpoint, **options)).run()
    assert materialised == []
    assert snapshot_dict(reference) == snapshot_dict(resumed)
    assert dict(reference.buffer_totals()) == dict(resumed.buffer_totals())


def test_block_native_ingest_matches_object_parsing(network, tmp_path):
    from repro.datasets.io import read_network_csv

    path = tmp_path / "stream.csv"
    write_interactions_csv(network.interactions, path)
    block = read_interaction_block(path, vertex_type=int)
    assert block.to_interactions() == network.interactions
    # Interner order equals the registration order of a network built from
    # the same file (first appearance, source before destination).
    assert block.interner.vertices == list(read_network_csv(path, vertex_type=int).vertices)


@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", COMPILED_POLICIES)
def test_scheduled_resume_identical_to_uninterrupted(network, policy_name, store, tmp_path):
    """Interner and kernel state survive the checkpoint/resume round trip of
    a scheduled run (columnarised wherever a compiled kernel resolves)."""
    checkpoint = tmp_path / "scheduled.ckpt"
    uninterrupted = Runner(run_config(
        network, policy_name, store, micro_batch=64
    )).run()
    Runner(run_config(
        network, policy_name, store, micro_batch=64,
        limit=network.num_interactions // 2, checkpoint_path=checkpoint,
    )).run()
    resumed = Runner(run_config(
        network, policy_name, store, micro_batch=64, resume_from=checkpoint,
    )).run()
    assert snapshot_dict(uninterrupted) == snapshot_dict(resumed)
    assert dict(uninterrupted.buffer_totals()) == dict(resumed.buffer_totals())


def test_mixed_columnar_and_object_driving(network):
    """Alternating process_block and process_many stays consistent."""
    from repro.policies.registry import make_policy

    block = network.to_block()
    half = len(block) // 2

    reference = make_policy("fifo")
    reference.reset(network.vertices)
    reference.process_many(network.interactions)

    mixed = make_policy("fifo")
    mixed.reset(network.vertices)
    mixed.process_block(block.slice(0, half))
    mixed.process_many(network.interactions[half:])

    vertices = set(reference.tracked_vertices())
    assert vertices == set(mixed.tracked_vertices())
    for vertex in vertices:
        assert reference.buffer_total(vertex) == mixed.buffer_total(vertex)
        assert reference.origins(vertex).as_dict() == mixed.origins(vertex).as_dict()
    assert reference.entry_count() == mixed.entry_count()


def test_default_csv_run_keeps_memory_ceiling_semantics(network, tmp_path):
    """A ceiling is judged on the final state whatever drive the run took."""
    path = tmp_path / "stream.csv"
    write_interactions_csv(network.interactions, path)
    kwargs = dict(dataset=str(path), vertex_type=int, policy="noprov",
                  memory_ceiling_bytes=10)
    reference = Runner(RunConfig(batch_size=1, **kwargs)).run()
    default = Runner(RunConfig(**kwargs)).run()
    assert not reference.feasible
    assert not default.feasible
    assert default.memory_bytes == reference.memory_bytes


def test_default_csv_periodic_checkpoints(network, tmp_path):
    """checkpoint_every is honoured (and validated) on the default CSV run."""
    from repro.exceptions import RunConfigurationError

    path = tmp_path / "stream.csv"
    write_interactions_csv(network.interactions, path)
    with pytest.raises(RunConfigurationError):
        Runner(RunConfig(
            dataset=str(path), vertex_type=int, policy="fifo", checkpoint_every=100,
        )).run()
    checkpoint = tmp_path / "periodic.ckpt"
    Runner(RunConfig(
        dataset=str(path), vertex_type=int, policy="fifo",
        checkpoint_every=100, checkpoint_path=checkpoint,
        limit=150, batch_size=64,
    )).run()
    from repro.core.checkpoint import load_engine

    restored = load_engine(checkpoint)
    # The final save lands on the limit; a mid-run save happened at 100.
    assert restored.interactions_processed == 150


@pytest.mark.parametrize("policy_name", COMPILED_POLICIES)
def test_compiled_scheduler_columnarises_batches(network, policy_name):
    """Scheduled batches run the compiled kernel wherever one resolves, and
    stay bit-identical to the per-interaction run."""
    if kernels.backend_of(policy_name) is None:
        pytest.skip("no compiled kernel backend resolves here")
    options = dict(dataset=network, policy=policy_name, store="dict")
    reference = Runner(RunConfig(batch_size=1, **options)).run()
    scheduled = Runner(RunConfig(micro_batch=64, **options)).run()
    assert scheduled.kernel_stats["backend"] in ("cc", "numba")
    assert scheduled.columnar_stats["mode"] == "stream"
    assert_equivalent(reference, scheduled)


@pytest.mark.parametrize("policy_name", ["fifo", "lrb"])
def test_uncompiled_scheduler_keeps_object_batches(network, policy_name):
    """Without a compiled kernel the per-batch conversion does not pay, so
    scheduled batches stay objects; the eager run still takes the block."""
    options = dict(dataset=network, policy=policy_name, store="dict")
    eager = Runner(RunConfig(**options)).run()
    assert eager.columnar_stats["mode"] == "block"
    scheduled = Runner(RunConfig(micro_batch=64, **options)).run()
    assert scheduled.kernel_stats is None
    assert scheduled.columnar_stats is None


def test_block_drive_respects_subclass_overrides(network):
    """A subclass overriding process_many never has its override bypassed."""
    from repro.policies.receipt_order import FifoPolicy

    calls = []

    class CountingFifo(FifoPolicy):
        def process_many(self, interactions):
            calls.append(len(interactions))
            super().process_many(interactions)

    policy = CountingFifo(store="dict")
    assert not policy.has_columnar_kernel()
    result = Runner(RunConfig(dataset=network, policy=policy)).run()
    assert result.statistics.interactions == network.num_interactions
    assert sum(calls) == network.num_interactions
    calls.clear()
    ProvenanceEngine(policy).run(network.to_block())
    assert sum(calls) == network.num_interactions
