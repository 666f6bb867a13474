"""Store memory accounting against the walk it replaces.

Every ``RunResult`` reports each store's ``memory_bytes``.  The stores get
it from each entry buffer's ``QuantityBuffer.memory_bytes``, a few C-level
``getsizeof`` sums over the buffer's entry fields, not from a walk over
every entry, but :func:`~repro.metrics.memory.deep_sizeof` stays the
definition: on every entry policy, on the dict and sqlite stores, and on
every way of driving a run, the sum must equal the walk byte for byte.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass

import pytest

from repro.core import buffer as buffer_module
from repro.core.buffer import BufferEntry, FifoBuffer, HeapBuffer, LifoBuffer
from repro.core.checkpoint import load_engine, save_engine
from repro.core.engine import ProvenanceEngine
from repro.core.interaction import Interaction
from repro.core.network import TemporalInteractionNetwork
from repro.datasets.catalog import load_preset
from repro.datasets.io import write_interactions_csv
from repro.metrics import memory
from repro.metrics.memory import deep_sizeof
from repro.policies.registry import make_policy
from repro.runtime import RunConfig, Runner
from repro.stores import StoreSpec

ENTRY_POLICIES = ["fifo", "lifo", "lrb", "mrb"]

#: The default dict store, a resident sqlite store, and one whose hot tier
#: of 8 buffers makes most of them spill and fault back in (unpickled).
STORES = {
    "dict": StoreSpec("dict"),
    "sqlite": StoreSpec("sqlite"),
    "sqlite-spill": StoreSpec("sqlite", {"hot_capacity": 8}),
}


@pytest.fixture(scope="module")
def preset_network():
    return load_preset("taxis", scale=0.05)


@pytest.fixture(scope="module")
def int_network():
    """Integer times and quantities on the object path, some of them large.

    Splits then turn int quantities into floats (a float interaction drains
    an int entry) or into ints of another size, and heap keys are ints.
    """
    rng = random.Random(7)
    vertices = [f"v{i}" for i in range(6)] + list(range(6))
    interactions = []
    for time in range(1, 400):
        source, destination = rng.sample(vertices, 2)
        quantity = rng.choice(
            [rng.randint(1, 9), rng.randint(2**31, 2**33), rng.uniform(0.1, 5.0)]
        )
        interactions.append(Interaction(source, destination, time, quantity))
    return TemporalInteractionNetwork.from_interactions(interactions, name="ints")


def assert_accounting_exact(policy, *, summed=True):
    """Every store of ``policy`` reports exactly its ``deep_sizeof``."""
    for role, store in policy.stores().items():
        walked = deep_sizeof(store)
        assert store.memory_bytes() == walked, role
        assert store.stats().memory_bytes == walked, role
        if summed:
            # The buffers' sums, not a fallback walk, produced the number.
            assert all(
                buffer.memory_bytes() is not None
                for _vertex, buffer in store.items()
            ), role


def fresh_policy(name, store, **options):
    policy = make_policy(name, store=STORES[store], **options)
    policy.reset()
    return policy


@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", ENTRY_POLICIES)
class TestMemoryBytesEqualsTheWalk:
    def test_process(self, preset_network, int_network, policy_name, store):
        for network in (preset_network, int_network):
            policy = fresh_policy(policy_name, store)
            for interaction in network.interactions:
                policy.process(interaction)
            assert_accounting_exact(policy)

    def test_process_many(self, preset_network, int_network, policy_name, store):
        for network in (preset_network, int_network):
            policy = fresh_policy(policy_name, store)
            interactions = network.interactions
            for start in range(0, len(interactions), 97):
                policy.process_many(interactions[start : start + 97])
            assert_accounting_exact(policy)

    def test_block_and_fused_paths(self, preset_network, policy_name, store):
        block = preset_network.to_block()
        columnar = fresh_policy(policy_name, store)
        columnar.process_block(block)
        assert_accounting_exact(columnar)
        fused = fresh_policy(policy_name, store)
        fused.process_run(block)
        assert_accounting_exact(fused)

    def test_checkpoint_round_trip(
        self, tmp_path, int_network, policy_name, store
    ):
        engine = ProvenanceEngine(fresh_policy(policy_name, store))
        engine.run(int_network, limit=250)
        path = tmp_path / "state.ckpt"
        save_engine(engine, path)
        restored = load_engine(path)
        assert_accounting_exact(restored.policy)
        restored.run(int_network.interactions[250:], reset=False)
        assert_accounting_exact(restored.policy)


@pytest.mark.parametrize("policy_name", ENTRY_POLICIES)
def test_policies_returned_by_a_sharded_stream(preset_network, policy_name):
    result = Runner(
        RunConfig(
            dataset=preset_network,
            policy=policy_name,
            streaming_shards=2,
            shard_by="hash",
        )
    ).run()
    assert len(result.shard_runs) == 2
    for run in result.shard_runs:
        # Unpickled in this process: containers were rebuilt at new sizes.
        assert_accounting_exact(run.policy)


@pytest.mark.parametrize("store", sorted(STORES))
def test_path_tracking_buffers_fall_back_to_the_walk(preset_network, store):
    """Path tuples are shared between entries: the walk counts them once."""
    policy = fresh_policy("fifo", store, track_paths=True)
    policy.process_many(preset_network.interactions)
    buffers = [buffer for _vertex, buffer in policy.stores()["buffers"].items()]
    assert any(buffer.memory_bytes() is None for buffer in buffers)
    assert_accounting_exact(policy, summed=False)


def test_tuple_origins_fall_back_to_the_walk():
    interactions = [
        Interaction(("a", 1), ("b", 2), 1.0, 4.0),
        Interaction(("b", 2), ("c", 3), 2.0, 3.0),
        Interaction(("c", 3), ("a", 1), 3.0, 5.0),
    ]
    policy = fresh_policy("lrb", "dict")
    policy.process_many(interactions)
    assert_accounting_exact(policy, summed=False)


@pytest.mark.parametrize(
    "buffer_factory",
    [FifoBuffer, LifoBuffer, HeapBuffer, lambda: HeapBuffer(oldest_first=False)],
    ids=["fifo", "lifo", "heap-oldest", "heap-newest"],
)
def test_buffer_bytes_through_pushes_splits_and_pops(buffer_factory):
    rng = random.Random(3)
    buffer = buffer_factory()
    assert buffer.memory_bytes() == deep_sizeof(buffer)
    for step in range(300):
        if rng.random() < 0.6:
            quantity = rng.choice([rng.randint(1, 2**40), rng.uniform(0.5, 9.0), True])
            birth = rng.choice([step, float(step), 2**35 + step])
            buffer.push(BufferEntry(rng.choice(["x", "yy", 7, 2**70]), quantity, birth))
        else:
            buffer.drain(rng.choice([rng.randint(1, 2**39), rng.uniform(0.1, 12.0)]))
        assert buffer.memory_bytes() == deep_sizeof(buffer), step


def test_non_ascii_origins_after_pickling():
    """A non-ASCII ``str`` grows once it is encoded; the sum sees that."""
    buffer = FifoBuffer()
    for step in range(5):
        buffer.push(BufferEntry(f"vértice-{step}", 1.5, float(step)))
    assert buffer.memory_bytes() == deep_sizeof(buffer)
    before = deep_sizeof(buffer)
    pickle.dumps(buffer)  # caches each origin's UTF-8 form
    assert deep_sizeof(buffer) > before
    assert buffer.memory_bytes() == deep_sizeof(buffer)


def test_entries_pickle_positionally():
    entry = BufferEntry("v", 2.5, 1.0, ("v", "w"))
    function, arguments = entry.__reduce__()
    assert function(*arguments) == entry
    assert not hasattr(entry, "__dict__")


@dataclass
class _UnslottedEntry:
    """``BufferEntry`` as it was before it had slots, under the same name."""

    __module__ = BufferEntry.__module__
    __qualname__ = BufferEntry.__qualname__

    origin: object
    quantity: float
    birth_time: float = 0.0
    path: object = None


@pytest.mark.parametrize("policy_name", ENTRY_POLICIES)
def test_checkpoint_of_unslotted_entries_loads(
    tmp_path, monkeypatch, int_network, policy_name
):
    """A checkpoint that pickled each entry as its attribute dict resumes."""
    reference = ProvenanceEngine(fresh_policy(policy_name, "dict"))
    reference.run(int_network)
    engine = ProvenanceEngine(fresh_policy(policy_name, "dict"))
    engine.run(int_network, limit=250)
    for _vertex, buffer in engine.policy.stores()["buffers"].items():
        for slot in ("_heap", "_queue", "_stack"):
            items = getattr(buffer, slot, None)
            if items is None:
                continue
            for position, item in enumerate(items):
                entry = item[2] if slot == "_heap" else item
                old = _UnslottedEntry(
                    entry.origin, entry.quantity, entry.birth_time, entry.path
                )
                items[position] = item[:2] + (old,) if slot == "_heap" else old
    path = tmp_path / "old.ckpt"
    # Pickle the stand-in as the class the old layout was written from.
    monkeypatch.setattr(buffer_module, "BufferEntry", _UnslottedEntry)
    save_engine(engine, path)
    monkeypatch.undo()
    assert b"birth_time" in path.read_bytes()

    restored = load_engine(path)
    entries = [
        entry
        for _vertex, buffer in restored.policy.stores()["buffers"].items()
        for entry in buffer.entries()
    ]
    assert entries and all(type(entry) is BufferEntry for entry in entries)
    assert_accounting_exact(restored.policy)
    restored.run(int_network.interactions[250:], reset=False)
    assert {v: o.as_dict() for v, o in restored.snapshot().items()} == {
        v: o.as_dict() for v, o in reference.snapshot().items()
    }
    assert_accounting_exact(restored.policy)


def test_default_csv_run_never_walks(tmp_path, monkeypatch, preset_network):
    """The RunResult's store stats come from the buffers' sums alone."""
    csv_path = tmp_path / "rows.csv"
    write_interactions_csv(preset_network.interactions, csv_path)

    def walk(*_args, **_kwargs):
        raise AssertionError("deep_sizeof walked the store")

    monkeypatch.setattr(memory, "deep_sizeof", walk)
    result = Runner(RunConfig(dataset=str(csv_path), policy="lrb")).run()
    assert result.store_stats["buffers"].memory_bytes > 0
    # No buffer fell back to the walk: each one summed its entries.
    monkeypatch.undo()
    assert_accounting_exact(result.policy)
