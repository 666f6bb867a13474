"""Unit tests for the ProvenanceEngine."""

from __future__ import annotations

import pytest

from repro.core.engine import ProvenanceEngine
from repro.core.interaction import Interaction
from repro.datasets.catalog import load_preset
from repro.policies.generation_time import LeastRecentlyBornPolicy
from repro.policies.no_provenance import NoProvenancePolicy
from repro.policies.proportional import ProportionalDensePolicy, ProportionalSparsePolicy
from repro.policies.receipt_order import FifoPolicy
from repro.runtime import RunConfig, Runner


class TestRun:
    def test_run_on_network_paper_totals(self, paper_network):
        engine = ProvenanceEngine(FifoPolicy())
        statistics = engine.run(paper_network)
        assert statistics.interactions == 6
        # Final buffer totals from Table 2.
        assert engine.buffer_total("v0") == pytest.approx(3)
        assert engine.buffer_total("v1") == pytest.approx(2)
        assert engine.buffer_total("v2") == pytest.approx(4)

    def test_run_on_plain_iterable(self, paper_interactions):
        engine = ProvenanceEngine(FifoPolicy())
        statistics = engine.run(paper_interactions)
        assert statistics.interactions == 6
        assert engine.buffer_total("v0") == pytest.approx(3)

    def test_run_passes_vertex_universe_to_dense_policy(self, paper_network):
        engine = ProvenanceEngine(ProportionalDensePolicy(paper_network.vertices))
        engine.run(paper_network)
        assert engine.buffer_total("v0") == pytest.approx(3)

    def test_limit(self, paper_network):
        engine = ProvenanceEngine(FifoPolicy())
        statistics = engine.run(paper_network, limit=2)
        assert statistics.interactions == 2
        assert engine.buffer_total("v0") == pytest.approx(5)

    def test_run_resets_by_default(self, paper_network):
        engine = ProvenanceEngine(FifoPolicy())
        engine.run(paper_network)
        engine.run(paper_network)
        assert engine.buffer_total("v0") == pytest.approx(3)

    def test_run_without_reset_continues(self, paper_network):
        engine = ProvenanceEngine(FifoPolicy())
        engine.run(paper_network)
        total_after_first = sum(engine.buffer_totals().values())
        engine.run(paper_network, reset=False)
        # State is kept: the engine has now processed the stream twice and
        # buffers only grow (replaying can generate less, never lose quantity).
        assert engine.interactions_processed == 12
        assert sum(engine.buffer_totals().values()) >= total_after_first

    def test_statistics_fields(self, small_network):
        engine = ProvenanceEngine(FifoPolicy())
        statistics = engine.run(small_network, sample_every=100)
        assert statistics.interactions == small_network.num_interactions
        assert statistics.elapsed_seconds >= 0
        assert statistics.final_entry_count > 0
        assert statistics.peak_entry_count >= statistics.final_entry_count or (
            statistics.peak_entry_count == statistics.final_entry_count
        )
        assert len(statistics.samples) == len(statistics.sampled_entry_counts)
        assert statistics.interactions_per_second >= 0

    def test_interactions_per_second_zero_elapsed(self):
        from repro.core.engine import RunStatistics

        assert RunStatistics(interactions=5, elapsed_seconds=0.0).interactions_per_second == 0.0


class _ShrinkingPolicy(NoProvenancePolicy):
    """Entry count grows to a peak and then collapses (like windowed resets)."""

    def __init__(self, shrink_at: int):
        super().__init__()
        self.shrink_at = shrink_at
        self._processed = 0

    def process(self, interaction):
        super().process(interaction)
        self._processed += 1
        if self._processed == self.shrink_at:
            self._buffers.clear()


def _distinct_pair_stream(count, *, repeated_after=None):
    """Distinct vertex pairs (entry count grows), optionally one repeated
    pair from ``repeated_after`` on (entry count stays flat after that)."""
    interactions = []
    for index in range(count):
        if repeated_after is not None and index >= repeated_after:
            interactions.append(Interaction("x", "y", float(index), 1.0))
        else:
            interactions.append(Interaction(f"s{index}", f"d{index}", float(index), 1.0))
    return interactions


class TestPeakEntryCount:
    def test_peak_tracked_without_sampling(self):
        # Entries grow until interaction 1500, then collapse to zero.  With
        # sample_every=0 the seed engine reported peak == final == 0; the
        # geometric cadence must observe the pre-collapse peak at 1024.
        policy = _ShrinkingPolicy(shrink_at=1500)
        engine = ProvenanceEngine(policy)
        stream = _distinct_pair_stream(3000, repeated_after=1500)
        statistics = engine.run(stream)
        assert statistics.final_entry_count <= 2
        assert statistics.peak_entry_count >= 2048

    def test_peak_tracked_without_sampling_batched(self):
        policy = _ShrinkingPolicy(shrink_at=1500)
        engine = ProvenanceEngine(policy)
        stream = _distinct_pair_stream(3000, repeated_after=1500)
        statistics = engine.run(stream, batch_size=256)
        assert statistics.final_entry_count <= 2
        assert statistics.peak_entry_count >= 2048

    def test_peak_with_sampling_unchanged(self):
        policy = _ShrinkingPolicy(shrink_at=1500)
        engine = ProvenanceEngine(policy)
        stream = _distinct_pair_stream(3000, repeated_after=1500)
        statistics = engine.run(stream, sample_every=100)
        # Sampling at 100-interaction cadence sees the true peak region.
        assert statistics.peak_entry_count >= 2800
        assert statistics.samples[0] == 100

    def test_peak_never_below_final(self, small_network):
        engine = ProvenanceEngine(FifoPolicy())
        statistics = engine.run(small_network)
        assert statistics.peak_entry_count >= statistics.final_entry_count


class TestBatchedRun:
    def test_batched_matches_per_interaction(self, small_network):
        per_item = ProvenanceEngine(FifoPolicy())
        stats_a = per_item.run(small_network, sample_every=50)
        batched = ProvenanceEngine(FifoPolicy())
        stats_b = batched.run(small_network, sample_every=50, batch_size=64)
        assert stats_a.interactions == stats_b.interactions
        assert stats_a.samples == stats_b.samples
        assert stats_a.sampled_entry_counts == stats_b.sampled_entry_counts
        assert per_item.buffer_totals() == batched.buffer_totals()
        for vertex in per_item.buffer_totals():
            assert per_item.origins(vertex) == batched.origins(vertex)

    def test_batched_respects_limit(self, paper_network):
        engine = ProvenanceEngine(FifoPolicy())
        statistics = engine.run(paper_network, limit=2, batch_size=4)
        assert statistics.interactions == 2
        assert engine.interactions_processed == 2
        assert engine.buffer_total("v0") == pytest.approx(5)

    def test_batched_updates_counters(self, paper_network):
        engine = ProvenanceEngine(FifoPolicy())
        engine.run(paper_network, batch_size=4)
        assert engine.interactions_processed == 6
        assert engine.current_time == 8

    def test_observers_force_per_interaction(self, paper_network):
        positions = []
        engine = ProvenanceEngine(
            FifoPolicy(),
            observers=[lambda _engine, _interaction, position: positions.append(position)],
        )
        engine.run(paper_network, batch_size=4)
        # Every single interaction was observed despite the batch request.
        assert positions == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize(
        "drive",
        [{}, {"micro_batch": 64}, {"batch_size": 1}],
        ids=["default", "micro-batch", "per-interaction"],
    )
    @pytest.mark.parametrize(
        "base",
        [
            NoProvenancePolicy,
            FifoPolicy,
            LeastRecentlyBornPolicy,
            ProportionalDensePolicy,
            ProportionalSparsePolicy,
        ],
    )
    def test_process_override_sees_every_interaction(self, base, drive):
        """A subclass that overrides only ``process`` is called once per
        interaction on every drive: the batched fast paths defer to it."""

        class Counting(base):
            calls = 0

            def process(self, interaction):
                self.calls += 1
                super().process(interaction)

        network = load_preset("taxis", scale=0.05)
        policy = Counting()
        result = Runner(RunConfig(dataset=network, policy=policy, **drive)).run()
        reference = Runner(RunConfig(dataset=network, policy=base(), batch_size=1)).run()
        assert policy.calls == network.num_interactions
        assert dict(result.buffer_totals()) == dict(reference.buffer_totals())


class TestStepAndObservers:
    def test_step_updates_time_and_count(self):
        engine = ProvenanceEngine(FifoPolicy())
        engine.policy.reset()
        engine.step(Interaction("a", "b", 1.0, 2.0))
        engine.step(Interaction("b", "c", 2.0, 1.0))
        assert engine.interactions_processed == 2
        assert engine.current_time == 2.0

    def test_observer_called_per_interaction(self, paper_network):
        seen = []

        def observer(engine, interaction, position):
            seen.append((position, interaction.time))

        engine = ProvenanceEngine(FifoPolicy(), observers=[observer])
        engine.run(paper_network)
        assert seen == [(0, 1), (1, 3), (2, 4), (3, 5), (4, 7), (5, 8)]

    def test_add_and_remove_observer(self, paper_network):
        calls = []
        observer = lambda engine, interaction, position: calls.append(position)  # noqa: E731
        engine = ProvenanceEngine(FifoPolicy())
        engine.add_observer(observer)
        engine.run(paper_network)
        assert len(calls) == 6
        engine.remove_observer(observer)
        engine.run(paper_network)
        assert len(calls) == 6

    def test_remove_unknown_observer_is_noop(self):
        engine = ProvenanceEngine(FifoPolicy())
        engine.remove_observer(lambda *args: None)


class TestQueries:
    def test_snapshot_contains_all_nonempty_vertices(self, paper_network):
        engine = ProvenanceEngine(FifoPolicy())
        engine.run(paper_network)
        snapshot = engine.snapshot()
        assert set(snapshot) == {"v0", "v1", "v2"}
        assert snapshot.total_quantity() == pytest.approx(9)
        assert snapshot.interactions_processed == 6
        assert snapshot.time == 8

    def test_buffer_totals_only_nonempty(self, paper_interactions):
        # After the second interaction both v1 and v2 are empty.
        engine = ProvenanceEngine(FifoPolicy())
        engine.run(paper_interactions[:2])
        totals = engine.buffer_totals()
        assert set(totals) == {"v0"}
        assert totals["v0"] == pytest.approx(5)

    def test_origins_empty_for_noprov(self, paper_network):
        engine = ProvenanceEngine(NoProvenancePolicy())
        engine.run(paper_network)
        assert len(engine.origins("v0")) == 0

    def test_buffer_total_unknown_vertex_is_zero(self, paper_network):
        engine = ProvenanceEngine(FifoPolicy())
        engine.run(paper_network)
        assert engine.buffer_total("never-seen") == 0.0
