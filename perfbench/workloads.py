"""Workload table of the end-to-end benchmark.

Each workload is one analyst job: a seeded synthetic CSV shaped like one of
the paper's datasets (a :mod:`repro.datasets` preset) and the ``RunConfig``
options a ``repro run --dataset x.csv`` invocation would pass.  Everything
not named here is a CLI default.  This module imports nothing from
``repro`` so the parent process of a benchmark run never loads the library.

Scales are chosen so one fresh-process run takes 3-6 s and a 40-s
measurement holds several runs.  The entry-policy workloads use the taxis
shape: on the 63-vertices-per-scale flights shape the few hub buffers that
set the query p99 change several-fold from one seed to the next.
``csv-budget`` is not listed in ``BENCHMARK.json``: on a machine whose speed
drifts between runs, three workloads measured for longer spread less, and
they still cover every layer but ``scalable``.  It stays runnable by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro.datasets`` preset whose shape the CSV copies.
    preset: str
    #: Preset scale factor (vertex and interaction counts, same density).
    scale: float
    policy: str
    #: Extra ``RunConfig`` fields besides ``dataset`` and ``policy``.
    options: Dict[str, Any] = field(default_factory=dict)

    @property
    def streaming_shards(self) -> int:
        return int(self.options.get("streaming_shards", 0))

    def run_config(self, csv_path: str) -> Dict[str, Any]:
        """Keyword arguments of the ``RunConfig`` this workload runs."""
        return {"dataset": csv_path, "policy": self.policy, **self.options}

    def fused_config(self, csv_path: str) -> Dict[str, Any]:
        """The same job in one process: streaming shards switched off."""
        options = {
            key: value
            for key, value in self.options.items()
            if key not in ("streaming_shards", "shard_by")
        }
        return {"dataset": csv_path, "policy": self.policy, **options}


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Ingest: CSV parse dominates; the compiled proportional-dense kernel
        # runs over an arena larger than L2; every query reads one dense row.
        Workload("csv-dense", "taxis", 6.0, "proportional-dense"),
        # The paper's Algorithm 1 (least recently born, a heap ordered by
        # birth time): propagation and the store accounting walk dominate,
        # long hub buffers make the query tail heavy.
        Workload("csv-entry", "taxis", 4.0, "lrb"),
        # The paper's cost-reduction case: budgeted proportional provenance
        # on the per-interaction object path (no kernel, no interning).
        Workload(
            "csv-budget",
            "prosper",
            2.0,
            "proportional-budget",
            {"policy_options": {"capacity": 100}},
        ),
        # Partitioned streaming over the shared-memory fabric with default
        # supervision: appends, backpressure and autocommit round-trips.
        Workload(
            "stream-sharded",
            "taxis",
            3.0,
            "fifo",
            {"streaming_shards": 2, "shard_by": "hash"},
        ),
    )
}
