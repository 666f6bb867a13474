"""Integration tests: every paper experiment runs end-to-end at tiny scale.

These tests do not check absolute numbers (that is EXPERIMENTS.md's job);
they check that each experiment produces rows with the right columns, that
infeasible configurations are reported as such, and that the qualitative
relationships the paper highlights hold (e.g. NoProv is the fastest policy,
memory grows with k / C / W).
"""

from __future__ import annotations

import pytest

from repro.bench import experiments
from repro.bench.harness import clear_network_cache

#: A tiny scale so the whole module runs in a few seconds.
SCALE = 0.02
LARGE = ("bitcoin", "ctu", "prosper")
ALL = ("bitcoin", "ctu", "prosper", "flights", "taxis")


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_network_cache()
    yield
    clear_network_cache()


class TestTable6:
    def test_rows_and_columns(self):
        result = experiments.table6_datasets(ALL, scale=SCALE)
        assert len(result.rows) == 5
        for row in result.rows:
            assert {"dataset", "nodes", "interactions", "avg_quantity"} <= set(row)
            assert row["interactions"] > 0


class TestTables7And8:
    def test_policy_comparison_shapes(self):
        results = experiments.policy_comparison(("taxis", "flights"), scale=SCALE)
        # 7 policies x 2 datasets.
        assert len(results) == 14
        table7 = experiments.table7_runtime(results=results)
        table8 = experiments.table8_memory(results=results)
        assert len(table7.rows) == 2
        assert len(table8.rows) == 2
        policy_columns = set(table7.rows[0]) - {"dataset"}
        assert "no-provenance" in policy_columns
        assert "proportional-sparse" in policy_columns

    def test_noprov_is_fastest(self):
        # One run of a policy takes a few milliseconds here, below the noise
        # of a shared machine, so each policy is timed by its best of 5 runs.
        best = {}
        for _ in range(5):
            for result in experiments.policy_comparison(("taxis",), scale=SCALE):
                if result.feasible:
                    best[result.policy] = min(
                        best.get(result.policy, result.runtime_seconds),
                        result.runtime_seconds,
                    )
        noprov = best.pop("no-provenance")
        for runtime_seconds in best.values():
            assert noprov <= runtime_seconds * 1.5

    def test_noprov_uses_least_memory(self):
        results = experiments.policy_comparison(("taxis",), scale=SCALE)
        by_policy = {r.policy: r for r in results}
        noprov = by_policy["no-provenance"].memory_bytes
        for label, result in by_policy.items():
            if label != "no-provenance" and result.feasible:
                assert noprov <= result.memory_bytes

    def test_memory_ceiling_reports_infeasible(self):
        results = experiments.policy_comparison(
            ("taxis",), scale=SCALE, memory_ceiling_bytes=1024
        )
        assert any(not result.feasible for result in results)
        table7 = experiments.table7_runtime(results=results)
        assert any(value is None for value in table7.rows[0].values() if value != "taxis")


class TestFigure5:
    def test_runtime_and_memory_grow_with_k(self):
        result = experiments.figure5_selective_grouped(
            ("prosper",), k_values=(2, 30), scale=SCALE
        )
        assert len(result.rows) == 2
        small_k, large_k = result.rows
        assert large_k["selective_memory_mb"] >= small_k["selective_memory_mb"]
        assert large_k["grouped_memory_mb"] >= small_k["grouped_memory_mb"]


class TestFigure6:
    def test_cumulative_series_monotone(self):
        result = experiments.figure6_cumulative(("prosper",), num_checkpoints=4, scale=SCALE)
        series = next(iter(result.series.values()))
        assert len(series) >= 2
        seconds = [row["cumulative_s"] for row in series]
        assert seconds == sorted(seconds)
        interactions = [row["interactions"] for row in series]
        assert interactions == sorted(interactions)


class TestFigure7:
    def test_memory_grows_with_window(self):
        result = experiments.figure7_windowing(
            ("prosper",), window_sizes=(50, 400), scale=SCALE
        )
        small_w, large_w = result.rows
        assert large_w["memory_mb"] >= small_w["memory_mb"] * 0.5
        assert small_w["resets"] > large_w["resets"]


class TestFigure8AndTable9:
    def test_memory_grows_with_budget(self):
        result = experiments.figure8_budget(("prosper",), budgets=(2, 100), scale=SCALE)
        small_c, large_c = result.rows
        assert large_c["memory_mb"] >= small_c["memory_mb"]

    def test_shrinks_decrease_with_budget(self):
        result = experiments.table9_shrinking(("prosper",), budgets=(2, 100), scale=SCALE)
        small_c, large_c = result.rows
        assert small_c["avg_shrinks"] >= large_c["avg_shrinks"]
        assert 0 <= small_c["pct_vertices_shrunk"] <= 100
        assert 0 <= large_c["pct_vertices_shrunk"] <= 100


class TestTable10:
    def test_path_tracking_overhead_columns(self):
        result = experiments.table10_paths(("taxis",), scale=SCALE)
        row = result.rows[0]
        assert row["total_mem_mb"] >= row["mem_entries_mb"]
        assert row["mem_paths_mb"] >= 0
        assert row["avg_path_length"] >= 0
        assert row["runtime_s"] > 0


class TestFigure2:
    def test_accumulation_rows(self):
        result = experiments.figure2_accumulation("taxis", scale=SCALE, max_points=10)
        assert len(result.rows) >= 1
        for row in result.rows:
            assert row["buffered_quantity"] >= 0
            assert 0 <= row["top_origin_share"] <= 1 + 1e-9
        summary = result.series["summary"][0]
        assert summary["deliveries"] >= len(result.rows)


class TestFigure9:
    def test_alert_summary(self):
        result = experiments.figure9_alerts("bitcoin", scale=SCALE)
        summary = result.series["summary"][0]
        assert summary["alerts"] == summary["few_contributor_alerts"] + summary[
            "many_contributor_alerts"
        ]
        assert summary["quantity_threshold"] > 0


class TestAblations:
    def test_buffer_structure_ablation(self):
        result = experiments.ablation_buffer_structures("taxis", scale=SCALE)
        assert len(result.rows) == 4
        assert all(row["runtime_s"] > 0 for row in result.rows)

    def test_dense_vs_sparse_ablation(self):
        result = experiments.ablation_dense_vs_sparse(("taxis",), scale=SCALE)
        row = result.rows[0]
        assert row["dense_runtime_s"] > 0
        assert row["sparse_runtime_s"] > 0

    def test_budget_criteria_ablation(self):
        result = experiments.ablation_budget_policies("taxis", capacity=5, scale=SCALE)
        assert len(result.rows) == 2
        for row in result.rows:
            assert 0 <= row["avg_known_fraction"] <= 1 + 1e-9
