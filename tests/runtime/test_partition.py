"""Unit tests for vertex partitioning and sharded runs."""

from __future__ import annotations

import math

import pytest

from repro.core.interaction import Interaction
from repro.core.network import TemporalInteractionNetwork
from repro.datasets.io import read_network_csv, write_interactions_csv
from repro.exceptions import RunConfigurationError
from repro.policies.receipt_order import FifoPolicy
from repro.runtime import (
    connected_components,
    merge_statistics,
    partition_network,
    run,
    run_shards,
    stable_shard_index,
)
from repro.core.engine import RunStatistics
from repro.runtime.partition import block_components, plan_membership


def _component_network(num_components: int = 6, chain: int = 4):
    """Disjoint chains: component c is c0 -> c1 -> ... -> c{chain}."""
    interactions = []
    for component in range(num_components):
        for step in range(chain):
            interactions.append(
                Interaction(
                    f"c{component}n{step}",
                    f"c{component}n{step + 1}",
                    float(step) + component / 100.0,
                    2.0 + step,
                )
            )
    interactions.sort(key=lambda i: i.time)
    return TemporalInteractionNetwork.from_interactions(interactions, name="chains")


class TestConnectedComponents:
    def test_disjoint_chains(self):
        network = _component_network(num_components=5, chain=3)
        components = connected_components(network)
        assert len(components) == 5
        assert all(len(component) == 4 for component in components)

    def test_single_component(self, paper_network):
        assert len(connected_components(paper_network)) == 1

    def test_isolated_vertices_are_singletons(self):
        network = TemporalInteractionNetwork.from_interactions(
            [Interaction("a", "b", 1.0, 1.0)], vertices=["lonely"]
        )
        components = connected_components(network)
        assert {frozenset(c) for c in components} == {
            frozenset({"a", "b"}),
            frozenset({"lonely"}),
        }


class TestPartitionNetwork:
    def test_component_partition_covers_everything(self):
        network = _component_network()
        plan = partition_network(network, 3)
        assert plan.exact
        assert plan.cross_shard_interactions == 0
        all_vertices = [v for shard in plan.shards for v in shard.vertices]
        assert sorted(all_vertices) == sorted(network.vertices)
        assert sum(s.num_interactions for s in plan.shards) == network.num_interactions

    def test_component_partition_balances_interactions(self):
        network = _component_network(num_components=6, chain=4)
        plan = partition_network(network, 3)
        sizes = sorted(shard.num_interactions for shard in plan.shards)
        assert sizes == [8, 8, 8]  # 6 equal components over 3 shards

    def test_more_shards_than_components_collapses(self, paper_network):
        plan = partition_network(paper_network, 4)
        assert len(plan.shards) == 1  # one giant component

    def test_hash_partition_is_deterministic(self):
        network = _component_network()
        plan_a = partition_network(network, 4, mode="hash")
        plan_b = partition_network(network, 4, mode="hash")
        assert [s.vertices for s in plan_a.shards] == [s.vertices for s in plan_b.shards]
        assert not plan_a.exact

    def test_hash_partition_counts_cross_edges(self, tiny_taxis_network):
        plan = partition_network(tiny_taxis_network, 4, mode="hash")
        assert plan.cross_shard_interactions > 0
        assert sum(s.num_interactions for s in plan.shards) == (
            tiny_taxis_network.num_interactions
        )

    def test_stable_shard_index_range(self):
        for vertex in ("a", 7, ("tuple", 1)):
            assert 0 <= stable_shard_index(vertex, 5) < 5

    def test_zero_shards_rejected(self, paper_network):
        with pytest.raises(RunConfigurationError):
            partition_network(paper_network, 0)

    def test_unknown_mode_rejected(self, paper_network):
        with pytest.raises(RunConfigurationError):
            partition_network(paper_network, 2, mode="astrology")


class TestBlockRouting:
    def test_block_components_match_connected_components(
        self, paper_network, tiny_taxis_network
    ):
        isolated = TemporalInteractionNetwork.from_interactions(
            [Interaction("a", "b", 1.0, 1.0), Interaction("c", "d", 2.0, 1.0)],
            vertices=["lonely", "d"],
        )
        for network in (
            paper_network,
            tiny_taxis_network,
            isolated,
            _component_network(num_components=5, chain=3),
        ):
            assert block_components(network.to_block()) == connected_components(
                network
            )

    @pytest.mark.parametrize("with_block", [True, False], ids=["block", "default"])
    @pytest.mark.parametrize("mode", ["hash", "components", "mincut"])
    def test_plan_builds_no_objects(
        self, tmp_path, monkeypatch, tiny_taxis_network, mode, with_block
    ):
        # Planning and routing a CSV-read network read its columns only; the
        # shards hold the rows their sources route to, built on demand.
        path = tmp_path / "net.csv"
        write_interactions_csv(tiny_taxis_network.interactions, path)
        reference = read_network_csv(path).interactions
        network = read_network_csv(path)
        built = _count_built_interactions(monkeypatch)
        block = network.to_block() if with_block else None
        plan = partition_network(network, 2, mode=mode, block=block)
        assert built == []
        membership = plan_membership(plan)
        assert [s.num_interactions for s in plan.shards] == [
            sum(membership[i.source] == shard.index for i in reference)
            for shard in plan.shards
        ]
        assert built == []
        if mode == "components":
            assert plan.cross_shard_interactions == 0
        else:
            assert plan.cross_shard_interactions == sum(
                membership[i.source] != membership[i.destination] for i in reference
            )
        for shard in plan.shards:
            assert shard.interactions == [
                i for i in reference if membership[i.source] == shard.index
            ]

    def test_default_sharded_csv_run_builds_no_objects(
        self, tmp_path, monkeypatch, tiny_taxis_network
    ):
        # The dict store is pinned: lrb's columnar kernel needs it, and a
        # shard engine without one runs (and builds) the objects.
        path = tmp_path / "net.csv"
        write_interactions_csv(tiny_taxis_network.interactions, path)
        unsharded = run(dataset=str(path), policy="lrb", store="dict")
        built = _count_built_interactions(monkeypatch)
        sharded = run(dataset=str(path), policy="lrb", shards=2, store="dict")
        assert built == []
        assert sharded.partition.exact
        assert sharded.buffer_totals() == pytest.approx(unsharded.buffer_totals())


def _count_built_interactions(monkeypatch):
    """Record every :class:`Interaction` built from now on."""
    built = []
    original = Interaction.__post_init__

    def counting_post_init(interaction):
        built.append(interaction)
        original(interaction)

    monkeypatch.setattr(Interaction, "__post_init__", counting_post_init)
    return built


class TestShardedRuns:
    @pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
    def test_component_sharding_is_exact(self, executor):
        network = _component_network()
        baseline = run(dataset=network, policy="proportional-sparse")
        sharded = run(
            dataset=network,
            policy="proportional-sparse",
            shards=3,
            shard_executor=executor,
        )
        assert sharded.statistics.interactions == baseline.statistics.interactions
        base_snapshot = baseline.snapshot()
        shard_snapshot = sharded.snapshot()
        assert set(base_snapshot) == set(shard_snapshot)
        for vertex in base_snapshot:
            assert base_snapshot[vertex].as_dict() == shard_snapshot[vertex].as_dict()

    def test_dense_policy_gets_shard_universe(self):
        network = _component_network(num_components=4, chain=3)
        sharded = run(dataset=network, policy="proportional-dense", shards=4)
        # Each shard's dense vectors span only that shard's vertices, so the
        # allocated-cell count is far below touched_vertices * |V|.
        per_shard_universe = {
            len(shard_run.shard.vertices) for shard_run in sharded.shard_runs
        }
        assert per_shard_universe == {4}
        baseline = run(dataset=network, policy="proportional-dense")
        assert sharded.buffer_totals() == baseline.buffer_totals()

    def test_policy_instances_are_deep_copied(self):
        network = _component_network(num_components=4, chain=3)
        template = FifoPolicy()
        sharded = run(dataset=network, policy=template, shards=2)
        policies = [shard_run.policy for shard_run in sharded.shard_runs]
        assert template not in policies
        assert len({id(p) for p in policies}) == 2

    def test_hash_sharding_supports_dense_policy(self, tiny_taxis_network):
        # Hash shards route interactions by source, so destinations from
        # other shards appear in a shard's stream; the dense policy's
        # universe must include them (regression: UnknownVertexError).
        sharded = run(
            dataset=tiny_taxis_network,
            policy="proportional-dense",
            shards=3,
            shard_by="hash",
        )
        assert sharded.statistics.interactions == tiny_taxis_network.num_interactions

    def test_sharded_limit_is_global(self, tiny_taxis_network):
        # `limit` bounds the whole run, not each shard (regression: a
        # 3-shard run used to process 3 * limit interactions).
        limit = 50
        sharded = run(
            dataset=tiny_taxis_network,
            policy="fifo",
            shards=3,
            shard_by="hash",
            limit=limit,
        )
        assert sharded.statistics.interactions == limit
        baseline = run(dataset=tiny_taxis_network, policy="noprov", limit=limit)
        limited_hash = run(
            dataset=tiny_taxis_network,
            policy="noprov",
            shards=3,
            shard_by="hash",
            limit=limit,
        )
        # Same global prefix: hash totals can only overestimate, never see
        # interactions beyond the prefix.
        assert limited_hash.statistics.interactions == baseline.statistics.interactions

    def test_sharded_limit_exact_on_components(self):
        network = _component_network()
        baseline = run(dataset=network, policy="fifo", limit=12)
        sharded = run(dataset=network, policy="fifo", shards=3, limit=12)
        assert sharded.statistics.interactions == 12
        assert sharded.buffer_totals() == baseline.buffer_totals()

    def test_iterable_dataset_with_shards_rejected(self):
        with pytest.raises(RunConfigurationError):
            run(
                dataset=iter([Interaction("a", "b", 1.0, 1.0)]),
                policy="fifo",
                shards=2,
            )

    def test_hash_sharding_processes_everything_once(self, tiny_taxis_network):
        sharded = run(
            dataset=tiny_taxis_network,
            policy="noprov",
            shards=4,
            shard_by="hash",
        )
        assert (
            sharded.statistics.interactions == tiny_taxis_network.num_interactions
        )
        assert not sharded.partition.exact
        assert "approximate" in sharded.note

    def test_hash_sharding_overestimates_buffered_totals(self, tiny_taxis_network):
        # Documented approximation: relays on one shard cannot see arrivals
        # on another, so extra newborn quantity is generated.
        baseline = run(dataset=tiny_taxis_network, policy="noprov")
        sharded = run(
            dataset=tiny_taxis_network, policy="noprov", shards=4, shard_by="hash"
        )
        assert sum(sharded.buffer_totals().values()) >= sum(
            baseline.buffer_totals().values()
        ) - 1e-9

    def test_mismatched_policy_count_rejected(self):
        network = _component_network()
        plan = partition_network(network, 3)
        with pytest.raises(RunConfigurationError):
            run_shards(plan, [FifoPolicy()])

    def test_sharded_memory_accounting(self):
        network = _component_network()
        sharded = run(
            dataset=network, policy="fifo", shards=3, measure_memory=True
        )
        assert sharded.memory_bytes > 0

    def test_sharded_ceiling_classifies_infeasible(self):
        network = _component_network()
        sharded = run(
            dataset=network,
            policy="proportional-sparse",
            shards=3,
            memory_ceiling_bytes=16,
        )
        assert not sharded.feasible
        assert "exceeds the ceiling" in sharded.note


class TestMergeStatistics:
    def test_counts_summed(self):
        merged = merge_statistics(
            [
                RunStatistics(interactions=10, final_entry_count=5, peak_entry_count=7),
                RunStatistics(interactions=20, final_entry_count=3, peak_entry_count=4),
            ]
        )
        assert merged.interactions == 30
        assert merged.final_entry_count == 8
        assert merged.peak_entry_count == 11

    def test_elapsed_defaults_to_slowest_shard(self):
        merged = merge_statistics(
            [
                RunStatistics(elapsed_seconds=0.5),
                RunStatistics(elapsed_seconds=1.25),
            ]
        )
        assert math.isclose(merged.elapsed_seconds, 1.25)

    def test_explicit_wall_clock_wins(self):
        merged = merge_statistics(
            [RunStatistics(elapsed_seconds=0.5)], elapsed_seconds=2.0
        )
        assert math.isclose(merged.elapsed_seconds, 2.0)

    def test_empty(self):
        merged = merge_statistics([])
        assert merged.interactions == 0
        assert merged.elapsed_seconds == 0.0
