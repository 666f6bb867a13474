"""Chaos suite of the self-healing shard fabric.

The recovery bar: a run whose workers are killed by the deterministic
fault-injection harness (:mod:`repro.runtime.faults`) must produce origin
sets, buffer totals and entry counts identical — float for float — to the
same run without faults, for EVERY registered policy, on the dict store and
on the dense store, on both the batch fabric (``shared_memory=True``) and
the partitioned streaming fabric (``streaming_shards``).  On top of
bit-identity: a shard that deterministically crashes its worker every
attempt is quarantined with per-shard diagnostics, infrastructure failures
degrade down the executor ladder (shm -> pickled processes -> serial) when
allowed, torn checkpoints surface as a clear corruption error, and no
segment may survive any of it.
"""

from __future__ import annotations

import glob
import os
import pickle
import signal
import tempfile
import time

import pytest

from repro.core.checkpoint import read_checkpoint, save_checkpoint_state
from repro.datasets.catalog import load_preset
from repro.exceptions import CheckpointCorruptedError, SegmentAllocationError
from repro.policies.registry import available_policies, make_policy
from repro.runtime import FaultPlan, RunConfig, Runner, fault_plan
from repro.runtime import shm as shm_mod
from repro.runtime.faults import FaultState, install, clear
from repro.runtime.partition import partition_network, shard_row_positions
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


def batch_config(network, policy_name, store, **extra):
    return RunConfig(
        dataset=network,
        policy=policy_name,
        policy_options=STRUCTURAL_OPTIONS.get(policy_name, {}),
        store=STORES[store],
        shards=3,
        shard_by="hash",
        shard_executor="processes",
        shared_memory=True,
        retry_backoff=0.0,
        **extra,
    )


def stream_config(network, policy_name, store, **extra):
    return RunConfig(
        dataset=network,
        policy=policy_name,
        policy_options=STRUCTURAL_OPTIONS.get(policy_name, {}),
        store=STORES[store],
        streaming_shards=3,
        shard_by="hash",
        retry_backoff=0.0,
        **extra,
    )


def serial_config(network, policy_name, store, **extra):
    return RunConfig(
        dataset=network,
        policy=policy_name,
        policy_options=STRUCTURAL_OPTIONS.get(policy_name, {}),
        store=STORES[store],
        shards=3,
        shard_by="hash",
        shard_executor="serial",
        **extra,
    )


def snapshot_dict(result):
    snapshot = result.snapshot()
    return {vertex: snapshot[vertex].as_dict() for vertex in snapshot}


def assert_equivalent(reference, recovered):
    assert reference.statistics.interactions == recovered.statistics.interactions
    assert snapshot_dict(reference) == snapshot_dict(recovered)
    assert dict(reference.buffer_totals()) == dict(recovered.buffer_totals())
    assert (
        reference.statistics.final_entry_count
        == recovered.statistics.final_entry_count
    )
    assert (
        reference.statistics.peak_entry_count
        == recovered.statistics.peak_entry_count
    )


# ----------------------------------------------------------------------
# batch fabric: kill a worker, recover, stay bit-identical to serial
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", available_policies())
def test_batch_kill_recovery_identical_to_serial(network, policy_name, store):
    serial = Runner(serial_config(network, policy_name, store)).run()
    with fault_plan(FaultPlan(kill_shard=1)):
        recovered = Runner(batch_config(network, policy_name, store)).run()
    assert recovered.fault_stats is not None
    assert recovered.fault_stats["respawns"] >= 1
    assert recovered.fault_stats["retries"] >= 1
    assert_equivalent(serial, recovered)
    assert our_segment_names() == []


def test_batch_kill_at_task_ordinal(network):
    """kill-worker-at-task-N (ordinal based, not shard based) recovers."""
    serial = Runner(serial_config(network, "fifo", "dict")).run()
    with fault_plan(FaultPlan(kill_at_task=2)):
        recovered = Runner(batch_config(network, "fifo", "dict")).run()
    assert recovered.fault_stats["respawns"] >= 1
    assert_equivalent(serial, recovered)


def test_batch_delay_result_is_harmless(network):
    serial = Runner(serial_config(network, "fifo", "dict")).run()
    with fault_plan(FaultPlan(delay_result=0.05)):
        delayed = Runner(batch_config(network, "fifo", "dict")).run()
    # A delay alone respawns nothing, so a clean run reports no faults.
    assert delayed.fault_stats is None
    assert_equivalent(serial, delayed)


def test_deterministic_crasher_is_quarantined(network):
    """A shard whose work always kills its worker quarantines after the
    retry budget, with per-shard crash diagnostics, instead of respawning
    forever."""
    with fault_plan(FaultPlan(kill_shard=1, kill_times=100)):
        with pytest.raises(shm_mod.ShardQuarantinedError) as exc_info:
            Runner(batch_config(network, "fifo", "dict")).run()
    error = exc_info.value
    assert isinstance(error, shm_mod.WorkerCrashedError)  # subclass contract
    diagnostics = error.diagnostics
    # The crasher itself is always quarantined; on low-core machines shards
    # co-resident on its worker may exhaust their budget alongside it (their
    # completed replies keep dying with the shared worker).
    assert 1 in [diag["shard"] for diag in diagnostics]
    for diag in diagnostics:
        # default max_task_retries=1 -> 2 attempts, both logged
        assert diag["attempts"] == 2
        assert len(diag["crashes"]) == 2
        assert "exit code" in diag["crashes"][0]
    assert "shard 1" in str(error)
    assert our_segment_names() == []


def test_quarantine_never_degrades(network):
    """degradation='auto' must not re-run a quarantined shard on a slower
    executor — the crash is the work's, not the infrastructure's."""
    with fault_plan(FaultPlan(kill_shard=0, kill_times=100)):
        with pytest.raises(shm_mod.ShardQuarantinedError):
            Runner(batch_config(network, "fifo", "dict", degradation="auto")).run()


def test_retries_disabled_fails_like_before(network):
    with fault_plan(FaultPlan(kill_shard=1)):
        with pytest.raises(shm_mod.WorkerCrashedError):
            Runner(
                batch_config(
                    network, "fifo", "dict", max_task_retries=0, degradation="off"
                )
            ).run()
    assert our_segment_names() == []


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------
def test_segment_alloc_failure_degrades_to_processes(network):
    serial = Runner(serial_config(network, "fifo", "dict")).run()
    with fault_plan(FaultPlan(fail_segment_alloc_at=1, fail_segment_alloc_times=10)):
        degraded = Runner(batch_config(network, "fifo", "dict")).run()
    rungs = degraded.fault_stats["degradations"]
    assert [(rung["from"], rung["to"]) for rung in rungs] == [
        ("shared-memory", "processes")
    ]
    assert "SegmentAllocationError" in rungs[0]["reason"]
    assert_equivalent(serial, degraded)
    assert our_segment_names() == []


def test_segment_alloc_failure_with_degradation_off_raises(network):
    with fault_plan(FaultPlan(fail_segment_alloc_at=1, fail_segment_alloc_times=10)):
        with pytest.raises(SegmentAllocationError):
            Runner(batch_config(network, "fifo", "dict", degradation="off")).run()
    assert our_segment_names() == []


def test_stream_alloc_failure_degrades_to_single_consumer(network):
    clean = Runner(stream_config(network, "fifo", "dict")).run()
    # Hash-routed streaming is approximate vs a single engine, so the
    # degraded run's contents compare against what it became: a clean
    # single-consumer run over the same network.
    single = Runner(RunConfig(dataset=network, policy="fifo")).run()
    with fault_plan(FaultPlan(fail_segment_alloc_at=1, fail_segment_alloc_times=1000)):
        degraded = Runner(stream_config(network, "fifo", "dict")).run()
    rungs = degraded.fault_stats["degradations"]
    assert [(rung["from"], rung["to"]) for rung in rungs] == [("shm-stream", "single")]
    assert degraded.statistics.interactions == clean.statistics.interactions
    assert dict(degraded.buffer_totals()) == dict(single.buffer_totals())
    assert snapshot_dict(degraded) == snapshot_dict(single)
    assert our_segment_names() == []


def test_stream_alloc_failure_with_degradation_off_raises(network):
    with fault_plan(FaultPlan(fail_segment_alloc_at=1, fail_segment_alloc_times=1000)):
        with pytest.raises(SegmentAllocationError):
            Runner(stream_config(network, "fifo", "dict", degradation="off")).run()
    assert our_segment_names() == []


# ----------------------------------------------------------------------
# streaming fabric: kill a worker mid-stream, replay, stay identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", available_policies())
def test_stream_kill_recovery_identical(network, policy_name, store):
    clean = Runner(stream_config(network, policy_name, store)).run()
    with fault_plan(FaultPlan(kill_shard=1, kill_at_batch=2)):
        recovered = Runner(stream_config(network, policy_name, store)).run()
    assert recovered.fault_stats is not None
    assert recovered.fault_stats["respawns"] >= 1
    assert recovered.fault_stats["replayed_batches"] >= 1
    assert_equivalent(clean, recovered)
    assert our_segment_names() == []


def test_stream_kill_recovery_identical_to_eager_serial(network):
    """Transitively: recovered streaming == clean streaming == eager serial
    sharding; assert the long edge directly for one policy."""
    serial = Runner(serial_config(network, "fifo", "dict")).run()
    with fault_plan(FaultPlan(kill_shard=2, kill_at_batch=1)):
        recovered = Runner(stream_config(network, "fifo", "dict")).run()
    assert_equivalent(serial, recovered)


def test_stream_first_batch_kill_recovers(network):
    """A crash before ANY batch committed replays from the session open."""
    clean = Runner(stream_config(network, "lifo", "dict")).run()
    with fault_plan(FaultPlan(kill_shard=0, kill_at_batch=1)):
        recovered = Runner(stream_config(network, "lifo", "dict")).run()
    assert recovered.fault_stats["respawns"] >= 1
    assert_equivalent(clean, recovered)


def test_stream_deterministic_crasher_quarantined(network):
    with fault_plan(FaultPlan(kill_shard=1, kill_at_batch=1, kill_times=100)):
        with pytest.raises(shm_mod.ShardQuarantinedError) as exc_info:
            Runner(stream_config(network, "fifo", "dict")).run()
    diagnostics = exc_info.value.diagnostics
    # On a 1-CPU pool every shard shares the crashing worker, so co-resident
    # shards may exhaust their budgets alongside the injected crasher; the
    # crasher itself must be among the quarantined.
    assert 1 in [diag["shard"] for diag in diagnostics]
    for diag in diagnostics:
        assert diag["attempts"] == 2
    assert our_segment_names() == []


def test_stream_checkpoint_after_recovery_resumes_identically(network, tmp_path):
    """A checkpoint written AFTER a recovery carries the recovered state;
    resuming from it matches the uninterrupted run."""
    full = Runner(stream_config(network, "fifo", "dict")).run()
    ckpt = tmp_path / "stream.ckpt"
    with fault_plan(FaultPlan(kill_shard=1, kill_at_batch=1)):
        first = Runner(
            stream_config(
                network, "fifo", "dict", limit=600, checkpoint_path=str(ckpt)
            )
        ).run()
    assert first.fault_stats["respawns"] >= 1
    resumed = Runner(
        stream_config(network, "fifo", "dict", resume_from=str(ckpt))
    ).run()
    assert (
        first.statistics.interactions + resumed.statistics.interactions
        == full.statistics.interactions
    )
    assert snapshot_dict(resumed) == snapshot_dict(full)
    assert dict(resumed.buffer_totals()) == dict(full.buffer_totals())
    assert our_segment_names() == []


def test_stream_mid_checkpoint_kill_recovers(network, tmp_path):
    """Kills landing between periodic checkpoint barriers replay only the
    uncommitted suffix and stay bit-identical."""
    clean = Runner(stream_config(network, "fifo", "dict")).run()
    ckpt = tmp_path / "mid.ckpt"
    with fault_plan(FaultPlan(kill_shard=2, kill_at_batch=2)):
        recovered = Runner(
            stream_config(
                network,
                "fifo",
                "dict",
                checkpoint_every=400,
                checkpoint_path=str(ckpt),
            )
        ).run()
    assert recovered.fault_stats["respawns"] >= 1
    assert_equivalent(clean, recovered)


# ----------------------------------------------------------------------
# streaming fabric: kills between auto-commits of a long stream
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kill_at_batch", [33, 70])
@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("policy_name", ["fifo", "lrb", "proportional-dense", "noprov"])
def test_stream_kill_after_commits_recovers(network, policy_name, store, kill_at_batch):
    """Four-row micro-batches give each shard ~96 batches, so auto-commits
    fire mid-stream.  A kill then re-opens the session from a committed
    state (or, if that commit was still in flight, from the one before)
    and replays only the suffix, bit-identically."""
    clean = Runner(stream_config(network, policy_name, store, micro_batch=4)).run()
    with fault_plan(FaultPlan(kill_shard=1, kill_at_batch=kill_at_batch)):
        recovered = Runner(
            stream_config(network, policy_name, store, micro_batch=4)
        ).run()
    assert recovered.fault_stats["commits"] >= 1
    assert recovered.fault_stats["respawns"] >= 1
    assert recovered.to_dict()["faults"]["commit_bytes"] > 0
    assert_equivalent(clean, recovered)
    assert our_segment_names() == []


def fabric_stream(network, capacity, on_open=None):
    """Stream ``network`` through a 2-shard fifo fabric (hash routing), one
    batch per shard in turn.  ``on_open(fabric)`` runs before the first
    append.  Returns the outcomes, the fault stats and each shard's final
    committed state size."""
    block = network.to_block()
    plan = partition_network(network, 2, mode="hash", block=block)
    positions = shard_row_positions(plan, block)
    table = block.interner.vertices
    fault = {}
    fabric = shm_mod.ShardStreamFabric(
        2, capacity=capacity, retry_backoff=0.0, fault_stats=fault
    )
    try:
        for shard, plan_shard in enumerate(plan.shards):
            fabric.open(shard, make_policy("fifo"), plan_shard.universe(), table)
        if on_open is not None:
            on_open(fabric)
        for start in range(0, max(len(pos) for pos in positions), capacity):
            for shard, pos in enumerate(positions):
                rows = pos[start : start + capacity]
                fabric.append(
                    shard,
                    block.src_ids[rows],
                    block.dst_ids[rows],
                    block.times[rows],
                    block.quantities[rows],
                    table,
                )
        outcomes, _stats = fabric.finish()
    except BaseException:
        fabric.abort()
        raise
    # Every commit request is answered before its shard's finish reply.
    return outcomes, fault, [len(base) for base in fabric._base]


def outcome_answers(outcome):
    policy = outcome.policy
    origins = {
        vertex: policy.origins(vertex).as_dict() for vertex in policy.tracked_vertices()
    }
    return outcome.statistics.interactions, origins


def test_commit_bytes_bounded_by_columns_plus_final_state():
    """A shard commits once its uncommitted columns (24 B a row) weigh as
    much as its last committed state, so every commit but the last is paid
    for by that many column bytes: the total stays within 24 B per row plus
    each shard's final committed state."""
    network = load_preset("taxis", scale=0.5)
    outcomes, fault, final_states = fabric_stream(network, 64)
    rows = sum(outcome.statistics.interactions for outcome in outcomes)
    assert rows == len(network.to_block())
    assert fault["commits"] >= 1
    assert fault["commit_bytes"] <= 24 * rows + sum(final_states)
    assert our_segment_names() == []


def test_kill_with_commit_in_flight_recovers(network):
    """A worker that dies with a commit request queued behind the append
    that kills it never answers it: the commit is dropped, the session
    re-opens from its previous base and replays the whole suffix."""
    clean, _fault, _states = fabric_stream(network, 4)
    armed = []

    def arm(fabric):
        # Shard 1 asks for its first commit right after the append that
        # brings its replay columns (24 B a row, 4 rows a batch) to the size
        # of its open state; that append kills the worker.
        first_commit = -(-len(fabric._base[1]) // (24 * 4))
        install(FaultPlan(kill_shard=1, kill_at_batch=first_commit))
        armed.append(first_commit)

    try:
        recovered, fault, _states = fabric_stream(network, 4, on_open=arm)
    finally:
        clear()
    assert fault["respawns"] == 1
    # Replayed from the open, not from the dropped commit.
    assert fault["replayed_batches"] >= armed[0]
    assert fault["commits"] >= 1
    assert list(map(outcome_answers, recovered)) == list(map(outcome_answers, clean))
    assert our_segment_names() == []


# ----------------------------------------------------------------------
# fault_stats surface
# ----------------------------------------------------------------------
def test_clean_run_reports_no_fault_stats(network):
    result = Runner(batch_config(network, "fifo", "dict")).run()
    assert result.fault_stats is None
    assert result.to_dict()["faults"] is None


def test_fault_stats_in_json_export(network):
    with fault_plan(FaultPlan(kill_shard=1)):
        result = Runner(batch_config(network, "fifo", "dict")).run()
    document = result.to_dict()
    assert document["faults"]["respawns"] >= 1
    assert document["faults"]["retries"] >= 1
    assert "recovery_seconds" in document["faults"]
    result.to_json()  # must stay JSON-serialisable


# ----------------------------------------------------------------------
# deterministic harness semantics
# ----------------------------------------------------------------------
def test_fault_plan_is_deterministic(network):
    """Two runs under the same plan fire the same faults and converge to
    the same provenance.  (Retry counts can differ by result-queue flush
    timing — a completed task's reply may or may not outrun the kill — so
    determinism is asserted on the fired faults and the outcome.)"""
    outcomes = []
    for _ in range(2):
        with fault_plan(FaultPlan(kill_shard=1)):
            result = Runner(batch_config(network, "fifo", "dict")).run()
        assert result.fault_stats["respawns"] == 1
        outcomes.append(snapshot_dict(result))
    assert outcomes[0] == outcomes[1]


def test_fault_plan_clears_on_exit(network):
    from repro.runtime import faults

    with fault_plan(FaultPlan(kill_shard=1)):
        assert faults.active() is not None
    assert faults.active() is None
    result = Runner(batch_config(network, "fifo", "dict")).run()
    assert result.fault_stats is None


def test_install_and_clear_counters():
    state = install(FaultPlan(kill_at_task=3, delay_result=0.0))
    try:
        assert isinstance(state, FaultState)
        from repro.runtime import faults

        assert faults.task_directive(0) is None
        assert faults.task_directive(0) is None
        assert faults.task_directive(5) == ("kill",)
        assert faults.task_directive(5) is None  # kill_times exhausted
    finally:
        clear()


# ----------------------------------------------------------------------
# checkpoint atomicity and corruption
# ----------------------------------------------------------------------
def test_torn_checkpoint_read_raises_clean_error(network, tmp_path):
    ckpt = tmp_path / "torn.ckpt"
    with fault_plan(FaultPlan(torn_checkpoint_at=1)):
        Runner(
            RunConfig(
                dataset=network, policy="fifo", checkpoint_path=str(ckpt)
            )
        ).run()
    with pytest.raises(CheckpointCorruptedError) as exc_info:
        read_checkpoint(ckpt)
    message = str(exc_info.value)
    assert str(ckpt) in message
    assert "--resume-from" in message  # actionable hint


def test_checkpoint_write_is_atomic(tmp_path):
    """A checkpoint overwrite leaves no temp siblings and the reread value
    is exactly what was written."""
    path = tmp_path / "state.ckpt"
    save_checkpoint_state({"kind": "t", "value": 1}, path)
    save_checkpoint_state({"kind": "t", "value": 2}, path)
    assert read_checkpoint(path)["value"] == 2
    leftovers = [p for p in os.listdir(tmp_path) if p != "state.ckpt"]
    assert leftovers == []


def test_truncated_checkpoint_raises_corruption_error(tmp_path):
    path = tmp_path / "trunc.ckpt"
    save_checkpoint_state({"kind": "t", "value": list(range(1000))}, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointCorruptedError):
        read_checkpoint(path)


def test_garbage_checkpoint_raises_corruption_error(tmp_path):
    path = tmp_path / "garbage.ckpt"
    path.write_bytes(b"this is not a pickle at all")
    with pytest.raises(CheckpointCorruptedError):
        read_checkpoint(path)


def test_non_dict_checkpoint_still_type_errors(tmp_path):
    path = tmp_path / "notdict.ckpt"
    path.write_bytes(pickle.dumps([1, 2, 3]))
    with pytest.raises(TypeError):
        read_checkpoint(path)


# ----------------------------------------------------------------------
# pool shutdown escalation
# ----------------------------------------------------------------------
def test_pool_close_escalates_past_stopped_worker():
    """A SIGSTOP'd worker ignores the stop message and join(); close()
    must escalate to terminate/kill instead of hanging."""
    pool = shm_mod.ShardWorkerPool()
    pool.ensure_workers(1)
    process = pool._workers[0][0]
    os.kill(process.pid, signal.SIGSTOP)
    try:
        started = time.perf_counter()
        pool.close(join_timeout=0.2)
        elapsed = time.perf_counter() - started
    finally:
        # If escalation failed, unfreeze so the test process can exit.
        try:
            os.kill(process.pid, signal.SIGCONT)
        except ProcessLookupError:
            pass
    assert not process.is_alive()
    assert elapsed < 5.0
