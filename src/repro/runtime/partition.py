"""Vertex partitioning and sharded provenance runs.

Quantity flows never cross weakly-connected components of a temporal
interaction network: an interaction moves quantity along an edge, and every
edge lies inside one component.  Component-based shards therefore compute
*exactly* the provenance of a single global run — each vertex's buffer and
origin decomposition live entirely inside one shard, and the merged result
is a disjoint union.

Hash-based shards trade exactness for balance: vertices are assigned to
shards by a stable hash and every interaction follows its *source* vertex.
A vertex that receives quantity on several shards has its buffer split
across them, and a relay performed on the source's shard cannot see
quantity that arrived on another shard — the policy classifies the missing
amount as newborn instead.  Hash-sharded runs therefore *overestimate*
buffered totals and generated quantity wherever flows cross shards, and
their origin decompositions are approximate; every interaction is still
processed exactly once, and networks whose components fit inside single
shards incur no error at all.  Use hash shards when a network is dominated
by one giant component and throughput matters more than exact attribution.

Min-cut shards (:mod:`repro.runtime.mincut`) keep the hash mode's
source-routing but choose the vertex assignment to *minimise* cross-shard
interactions under a hard balance cap, shrinking both the newborn
overestimate and the straggler gap at once.  Every plan carries a
:class:`~repro.runtime.mincut.PartitionStats` so the three strategies are
comparable on cut edges, cut weight and load imbalance.

Shards run sequentially or via :mod:`concurrent.futures` (threads or
processes — policies and interactions are picklable, so process pools work
out of the box).
"""

from __future__ import annotations

import time as _time
import zlib
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.blocks import InteractionBlock
from repro.core.engine import ProvenanceEngine, RunStatistics
from repro.core.interaction import Interaction, Vertex
from repro.core.network import TemporalInteractionNetwork
from repro.core.provenance import OriginSet, ProvenanceSnapshot
from repro.exceptions import RunConfigurationError
from repro.policies.base import SelectionPolicy
from repro.runtime.mincut import (
    DEFAULT_IMBALANCE,
    PartitionStats,
    interaction_graph,
    membership_stats,
    mincut_membership,
)
from repro.stores import StoreStats

__all__ = [
    "Shard",
    "PartitionPlan",
    "PartitionStats",
    "ShardRun",
    "block_universe",
    "connected_components",
    "block_components",
    "stable_shard_index",
    "stable_shard_indices",
    "partition_network",
    "shard_row_positions",
    "plan_membership",
    "warmup_membership",
    "fork_payload_bytes",
    "run_shards",
    "merge_statistics",
    "merge_snapshots",
]


class Shard:
    """One vertex partition and the interactions assigned to it.

    ``block`` holds the shard's rows in columnar form (same rows, same order
    as :attr:`interactions`); columnar sharded runs drive the shard engines
    with it.  A shard with a block builds its :class:`Interaction` list from
    it the first time :attr:`interactions` is read, so a plan that only runs
    columns never builds an object.
    """

    def __init__(
        self,
        index: int,
        vertices: Tuple[Vertex, ...],
        interactions: Optional[List[Interaction]] = None,
        block: Optional[InteractionBlock] = None,
    ) -> None:
        self.index = index
        self.vertices = vertices
        self._interactions = interactions
        self.block = block

    @property
    def interactions(self) -> List[Interaction]:
        if self._interactions is None:
            self._interactions = (
                self.block.to_interactions() if self.block is not None else []
            )
        return self._interactions

    @property
    def num_interactions(self) -> int:
        if self._interactions is None and self.block is not None:
            return len(self.block)
        return len(self.interactions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Shard(index={self.index}, vertices={len(self.vertices)}, "
            f"interactions={self.num_interactions})"
        )

    def universe(self) -> Tuple[Vertex, ...]:
        """All vertices a policy on this shard can encounter.

        For component shards this equals :attr:`vertices`.  For hash shards
        the interactions follow their *source* vertex, so destinations from
        other shards appear too; policies with dense per-vertex state need
        them in their universe.

        The order is the shard's own vertices in registration order, then
        each remaining vertex at its first appearance (source before
        destination, row by row).  When the shard carries a block the first
        appearances come from one vectorised pass over the id columns
        instead of a per-row Python loop — same tuple either way.
        """
        if self.block is not None and len(self.block):
            return block_universe(
                self.vertices,
                self.block.src_ids,
                self.block.dst_ids,
                self.block.interner.vertices,
            )
        seen = dict.fromkeys(self.vertices)
        for interaction in self.interactions:
            seen.setdefault(interaction.source)
            seen.setdefault(interaction.destination)
        return tuple(seen)


def block_universe(
    vertices: Sequence[Vertex],
    src_ids: np.ndarray,
    dst_ids: np.ndarray,
    table: Sequence[Vertex],
) -> Tuple[Vertex, ...]:
    """First-appearance vertex universe from columnar id rows.

    Reproduces the ``setdefault`` walk of :meth:`Shard.universe` — the given
    ``vertices`` first, then every other vertex at its first appearance with
    each row's source before its destination — but finds the first
    appearances with ``np.unique`` over the interleaved id columns, so the
    Python-level work is one ``setdefault`` per *distinct* vertex rather
    than two per row.
    """
    rows = len(src_ids)
    interleaved = np.empty(2 * rows, dtype=np.int64)
    interleaved[0::2] = src_ids
    interleaved[1::2] = dst_ids
    unique_ids, first_positions = np.unique(interleaved, return_index=True)
    seen = dict.fromkeys(vertices)
    setdefault = seen.setdefault
    for vertex_id in unique_ids[np.argsort(first_positions)].tolist():
        setdefault(table[vertex_id])
    return tuple(seen)


@dataclass
class PartitionPlan:
    """The outcome of partitioning a network for a sharded run."""

    mode: str
    shards: List[Shard]
    #: True when the partition provably reproduces the global provenance
    #: (component shards); False for hash shards, whose origin decomposition
    #: is approximate for vertices with cross-shard traffic.
    exact: bool
    #: Number of interactions whose endpoints land on different shards
    #: (always 0 for component shards).
    cross_shard_interactions: int = 0
    #: Measured partition quality (cut edges/weight, imbalance, build time),
    #: present for every strategy so plans are comparable.
    stats: Optional[PartitionStats] = None
    #: Shards dropped because they carried zero interactions; their vertices
    #: were folded into the lightest surviving shard, so no pool task is
    #: dispatched for work that does not exist.
    pruned_shards: int = 0


@dataclass
class ShardRun:
    """The result of driving one shard through its own engine."""

    shard: Shard
    policy: SelectionPolicy
    statistics: RunStatistics
    last_time: Optional[float] = None
    #: Store accounting captured inside the shard worker (before any
    #: pickling back to the parent), keyed by state-component role.
    store_stats: Dict[str, StoreStats] = field(default_factory=dict)
    #: Kernel dispatch report from the shard's engine (mode, backend,
    #: chunk count, compile seconds); ``None`` for per-interaction runs.
    kernel_stats: Optional[Dict[str, object]] = None

    def timing_row(self) -> Dict[str, object]:
        """Flat per-shard breakdown row used by ``RunResult.to_dict``."""
        row = {
            "shard": self.shard.index,
            "vertices": len(self.shard.vertices),
            "interactions": self.statistics.interactions,
            "elapsed_seconds": self.statistics.elapsed_seconds,
            "interactions_per_second": self.statistics.interactions_per_second,
            "final_entry_count": self.statistics.final_entry_count,
            "peak_entry_count": self.statistics.peak_entry_count,
            "store": {
                role: stats.to_dict() for role, stats in self.store_stats.items()
            },
        }
        if self.kernel_stats is not None:
            row["kernel"] = dict(self.kernel_stats)
        return row


def connected_components(network: TemporalInteractionNetwork) -> List[Set[Vertex]]:
    """Weakly-connected components of the network, largest first.

    Uses union-find over the edge set; isolated vertices form singleton
    components.  Reads the network's objects and edge histories; partition
    plans use the columnar :func:`block_components`, which this function
    defines.
    """
    parent: Dict[Vertex, Vertex] = {vertex: vertex for vertex in network.vertices}

    def find(vertex: Vertex) -> Vertex:
        root = vertex
        while parent[root] != root:
            root = parent[root]
        while parent[vertex] != root:  # path compression
            parent[vertex], vertex = root, parent[vertex]
        return root

    for edge in network.edges():
        root_a, root_b = find(edge.source), find(edge.destination)
        if root_a != root_b:
            parent[root_b] = root_a

    groups: Dict[Vertex, Set[Vertex]] = {}
    for vertex in parent:
        groups.setdefault(find(vertex), set()).add(vertex)
    return sorted(groups.values(), key=len, reverse=True)


def block_components(block: InteractionBlock) -> List[Set[Vertex]]:
    """:func:`connected_components` from the id columns of a whole network.

    ``block`` must be the network's own (``network.to_block()``), whose
    interner lists every vertex in registration order.  Labels spread along
    the unique edges (minimum label, then pointer jumping) until they
    settle; the groups come out in the same order as
    :func:`connected_components` gives them: largest first, ties by each
    group's first vertex.
    """
    n, edge_u, edge_v, _weight, _load = interaction_graph(block)
    labels = np.arange(n)
    while True:
        low = np.minimum(labels[edge_u], labels[edge_v])
        settled = labels.copy()
        np.minimum.at(settled, edge_u, low)
        np.minimum.at(settled, edge_v, low)
        settled = settled[settled]
        if np.array_equal(settled, labels):
            break
        labels = settled
    # A label is the smallest id of its group, so sorting groups by label
    # orders them by first vertex.
    _, group_of = np.unique(labels, return_inverse=True)
    groups: List[Set[Vertex]] = [set() for _ in range(int(group_of.max()) + 1 if n else 0)]
    for vertex, group in zip(block.interner.vertices, group_of.tolist()):
        groups[group].add(vertex)
    return sorted(groups, key=len, reverse=True)


def stable_shard_index(vertex: Vertex, num_shards: int) -> int:
    """Deterministic shard assignment of a vertex (stable across processes).

    Python's built-in ``hash`` of strings is salted per process, which would
    make shard assignments irreproducible; CRC32 of the repr is stable.
    """
    return zlib.crc32(repr(vertex).encode("utf-8")) % num_shards


def stable_shard_indices(vertices: Sequence[Vertex], num_shards: int) -> np.ndarray:
    """Shard assignments for a whole vertex table, as an ``int64`` array.

    One CRC per *unique* vertex; routing a stream then costs a single
    fancy-index over its id arrays (``assignments[block.src_ids]``) instead
    of a hash per interaction.  Bit-compatible with
    :func:`stable_shard_index` entry by entry.
    """
    crc32 = zlib.crc32
    return np.fromiter(
        (crc32(repr(vertex).encode("utf-8")) % num_shards for vertex in vertices),
        dtype=np.int64,
        count=len(vertices),
    )


def partition_network(
    network: TemporalInteractionNetwork,
    num_shards: int,
    *,
    mode: str = "components",
    limit: Optional[int] = None,
    block: Optional[InteractionBlock] = None,
    imbalance: float = DEFAULT_IMBALANCE,
    seed: int = 0,
) -> PartitionPlan:
    """Split a network into at most ``num_shards`` vertex shards.

    ``mode="components"`` packs weakly-connected components into shards
    (greedy largest-first by interaction count, so shard workloads balance);
    the result is exact.  ``mode="hash"`` assigns vertices by stable hash
    and interactions by their source vertex; the result is approximate (see
    the module docstring).  ``mode="mincut"`` runs the seeded multilevel
    partitioner of :mod:`repro.runtime.mincut` on the weighted
    vertex-interaction graph — same source-routing as hash, but the
    assignment minimises cross-shard interactions under the hard balance
    cap ``imbalance`` (max shard load over the ideal); ``seed`` makes the
    plan reproducible.  ``limit`` restricts the plan to the first ``limit``
    interactions of the *global* time order — the sharded equivalent of the
    engine's ``limit``, applied before assignment so the total processed
    count matches an unsharded limited run.

    Planning and routing read the network's columnar form (``block``, or
    ``network.to_block()`` when none is given) and nothing else: components
    come from :func:`block_components`, membership is computed once per
    *vertex*, the stream is assigned with one fancy-index over the id
    arrays, and every shard carries its rows as a
    :class:`~repro.core.blocks.InteractionBlock`, building
    :class:`Interaction` objects only if :attr:`Shard.interactions` is read
    (their times and quantities are then the block's floats).

    Shards that end up with zero interactions are pruned from the plan
    (their vertices fold into the lightest surviving shard), and every plan
    carries :class:`~repro.runtime.mincut.PartitionStats` measuring its cut
    and balance; the stats' ``build_seconds`` covers this whole function,
    which runs before any timed region.
    """
    build_start = _time.perf_counter()
    if num_shards < 1:
        raise RunConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    # Planning and routing read columns only: a block-backed network never
    # builds its Interaction objects here.
    if block is None:
        block = network.to_block()
    if limit is not None:
        block = block.slice(0, max(limit, 0))
    vertex_table = block.interner.vertices

    exact_build = False
    if mode == "components":
        # Greedy balance by interaction weight: heaviest component first into
        # the currently lightest shard.
        components = block_components(network.to_block())
        sourced = np.bincount(block.src_ids, minlength=len(vertex_table))
        weight = dict(zip(vertex_table, sourced.tolist()))
        num_shards = min(num_shards, len(components)) or 1
        component_weight = [
            sum(weight.get(vertex, 0) for vertex in component)
            for component in components
        ]
        order = sorted(range(len(components)), key=lambda i: -component_weight[i])
        loads = [0] * num_shards
        membership: Dict[Vertex, int] = {}
        for position in order:
            lightest = min(range(num_shards), key=loads.__getitem__)
            loads[lightest] += component_weight[position]
            for vertex in components[position]:
                membership[vertex] = lightest
    elif mode == "hash":
        assignments = stable_shard_indices(vertex_table, num_shards)
        membership = {
            vertex: int(shard) for vertex, shard in zip(vertex_table, assignments)
        }
    elif mode == "mincut":
        n, edge_u, edge_v, edge_weight, load = interaction_graph(block)
        assignments, exact_build = mincut_membership(
            n,
            edge_u,
            edge_v,
            edge_weight,
            load,
            num_shards,
            imbalance=imbalance,
            seed=seed,
        )
        membership = {
            vertex: int(shard) for vertex, shard in zip(vertex_table, assignments)
        }
    else:
        raise RunConfigurationError(f"unknown partition mode {mode!r}")

    shard_vertices: List[List[Vertex]] = [[] for _ in range(num_shards)]
    for vertex in network.vertices:  # registration order keeps dense indices stable
        shard_vertices[membership[vertex]].append(vertex)

    # Vectorised routing: per-vertex membership, one fancy-index per stream
    # column.  flatnonzero yields ascending positions, so shard streams keep
    # global time order.
    member_of_id = np.fromiter(
        (membership[vertex] for vertex in vertex_table),
        dtype=np.int64,
        count=len(vertex_table),
    )
    assigned = member_of_id[block.src_ids]
    cross = (
        int(np.count_nonzero(assigned != member_of_id[block.dst_ids]))
        if mode != "components"
        else 0
    )

    shards = [
        Shard(
            index=i,
            vertices=tuple(shard_vertices[i]),
            block=block.take(np.flatnonzero(assigned == i)),
        )
        for i in range(num_shards)
    ]

    # Prune zero-interaction shards: they would still cost a pool task (and
    # a worker fork on the pickled executor).  Their vertices fold into the
    # lightest surviving shard so every vertex keeps an owner — dense-store
    # universes and merged snapshots stay identical to the unpruned plan.
    kept = [shard for shard in shards if shard.num_interactions > 0]
    if not kept:
        kept = shards[:1]
    pruned = len(shards) - len(kept)
    if pruned:
        kept_ids = {id(shard) for shard in kept}
        orphans = tuple(
            vertex
            for shard in shards
            if id(shard) not in kept_ids
            for vertex in shard.vertices
        )
        if orphans:
            lightest = min(kept, key=lambda s: (s.num_interactions, s.index))
            lightest.vertices = lightest.vertices + orphans
        for position, shard in enumerate(kept):
            shard.index = position

    # Quality stats over the *assignment* (pre-prune memberships: pruning
    # never changes which interactions cross shards), with imbalance
    # measured against the surviving shard count — the straggler predictor
    # for the pool that actually runs.
    n, edge_u, edge_v, edge_weight, load = interaction_graph(block)
    cut_edges, cut_weight, measured_imbalance = membership_stats(
        member_of_id, edge_u, edge_v, edge_weight, load, len(kept)
    )
    stats = PartitionStats(
        strategy=mode,
        shards=len(kept),
        cut_edges=cut_edges,
        cut_weight=cut_weight,
        imbalance=measured_imbalance,
        build_seconds=_time.perf_counter() - build_start,
        balance_cap=imbalance if mode == "mincut" else None,
        seed=seed if mode == "mincut" else None,
        exact=exact_build,
    )
    return PartitionPlan(
        mode=mode,
        shards=kept,
        exact=(mode == "components") or (mode == "mincut" and cross == 0),
        cross_shard_interactions=cross,
        stats=stats,
        pruned_shards=pruned,
    )


def shard_row_positions(
    plan: PartitionPlan, block: InteractionBlock
) -> List[np.ndarray]:
    """Row positions of ``block`` belonging to each shard of ``plan``.

    Membership is recovered from the plan's vertex lists and the stream is
    assigned with one fancy-index over the source-id column — the
    vectorised routing of the shared-memory fabric (which writes the routed
    rows straight into pool-resident buffers).  ``flatnonzero`` yields
    ascending positions, so each shard's rows keep global time order.
    """
    membership = {
        vertex: shard.index for shard in plan.shards for vertex in shard.vertices
    }
    # ``get`` with a -1 sentinel: a vertex outside every shard (possible
    # only for vertices that never source an interaction) routes nowhere.
    member_of_id = np.fromiter(
        (membership.get(vertex, -1) for vertex in block.interner.vertices),
        dtype=np.int64,
        count=len(block.interner),
    )
    assigned = member_of_id[block.src_ids]
    return [np.flatnonzero(assigned == shard.index) for shard in plan.shards]


def plan_membership(plan: PartitionPlan) -> Dict[Vertex, int]:
    """The frozen vertex -> shard assignment of a partition plan.

    The routing table partitioned *streaming* runs dispatch with: each
    polled interaction follows its source vertex's plan assignment, so a
    streamed run routes exactly like the eager sharded run over the same
    plan.  Vertices the plan never saw fall back to the stable hash at the
    consumer (:class:`repro.sources.PartitionedScheduler`).
    """
    return {
        vertex: shard.index for shard in plan.shards for vertex in shard.vertices
    }


def warmup_membership(
    interactions: Sequence[Interaction],
    num_shards: int,
    *,
    mode: str = "mincut",
    imbalance: float = DEFAULT_IMBALANCE,
    seed: int = 0,
) -> Dict[Vertex, int]:
    """A frozen membership computed from a stream's warm-up prefix.

    Live sources have no network to partition up front; instead the first
    polled interactions form a temporary network that is partitioned once
    (min-cut by default), and the resulting assignment is **frozen** for
    the rest of the stream — vertices first seen later fall back to the
    stable hash.  The shard *indices* here are plan-local; unlike
    :func:`partition_network` no pruning/folding is applied beyond what the
    plan builder already did, so the assignment is exactly the plan's.
    """
    network = TemporalInteractionNetwork.from_interactions(
        interactions, name="stream-warmup"
    )
    plan = partition_network(
        network, num_shards, mode=mode, imbalance=imbalance, seed=seed
    )
    return plan_membership(plan)


def fork_payload_bytes(
    plan: PartitionPlan,
    policies: Sequence[SelectionPolicy],
    *,
    batch_size: int = 0,
    sample_every: int = 0,
) -> int:
    """Bytes the pickled process executor ships across the fork boundary.

    Measures exactly the payload tuples :func:`run_shards` submits to its
    :class:`~concurrent.futures.ProcessPoolExecutor` (same pickle
    protocol), so the bench harness can contrast it with the shard fabric's
    handle-sized dispatch without instrumenting the timed region.
    """
    import pickle

    return sum(
        len(
            pickle.dumps(
                (shard, policy, batch_size, sample_every),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
        for shard, policy in zip(plan.shards, policies)
    )


def _run_one_shard(payload: Tuple[Shard, SelectionPolicy, int, int]) -> ShardRun:
    """Drive one shard's interactions through its own engine.

    Module-level so process pools can pickle it; the policy travels with the
    payload and returns carrying its final state.  A batched shard whose
    policy has a columnar kernel runs its block — the shard-level
    counterpart of the single-engine block path.
    """
    shard, policy, batch_size, sample_every = payload
    engine = ProvenanceEngine(policy)
    policy.reset(shard.universe())
    use_block = (
        shard.block is not None and batch_size > 1 and policy.has_columnar_kernel()
    )
    statistics = engine.run(
        shard.block if use_block else shard.interactions,
        reset=False,
        sample_every=sample_every,
        batch_size=batch_size,
    )
    return ShardRun(
        shard=shard,
        policy=engine.policy,
        statistics=statistics,
        last_time=engine.current_time,
        store_stats=engine.policy.store_stats(),
        kernel_stats=engine.kernel_stats(),
    )


def run_shards(
    plan: PartitionPlan,
    policies: Sequence[SelectionPolicy],
    *,
    batch_size: int = 0,
    sample_every: int = 0,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    shared_memory: bool = False,
    max_task_retries: int = 1,
    retry_backoff: float = 0.05,
    fault_stats: Optional[Dict[str, object]] = None,
) -> Tuple[List[ShardRun], RunStatistics]:
    """Run one engine per shard and merge the statistics.

    ``policies`` must hold one independent policy per shard (same order as
    ``plan.shards``).  A global interaction limit is applied when the plan
    is built (:func:`partition_network` ``limit=``), not here — per-shard
    truncation would process a different prefix than an unsharded run.
    Returns the per-shard runs plus merged statistics whose
    ``elapsed_seconds`` is the wall-clock time of the whole sharded run
    (not the sum of per-shard times, which overcounts under parallel
    executors).

    With ``shared_memory=True`` (processes executor only) the shards are
    dispatched over the zero-copy shard fabric of :mod:`repro.runtime.shm`
    — a persistent worker pool reading the shard columns from shared
    segments instead of unpickling them per run.  Results are bit-identical
    to the pickled executor.
    """
    if shared_memory:
        if executor != "processes":
            raise RunConfigurationError(
                "shared_memory=True requires the 'processes' executor; "
                f"got {executor!r}"
            )
        from repro.runtime import shm as _shm

        runs, merged, _stats = _shm.run_shards_shared(
            plan,
            policies,
            batch_size=batch_size,
            sample_every=sample_every,
            max_workers=max_workers,
            max_retries=max_task_retries,
            retry_backoff=retry_backoff,
            fault_stats=fault_stats,
        )
        return runs, merged
    if len(policies) != len(plan.shards):
        raise RunConfigurationError(
            f"need one policy per shard: {len(plan.shards)} shards, "
            f"{len(policies)} policies"
        )
    payloads = [
        (shard, policy, batch_size, sample_every)
        for shard, policy in zip(plan.shards, policies)
    ]
    start = _time.perf_counter()
    if executor == "serial":
        runs = [_run_one_shard(payload) for payload in payloads]
    elif executor == "threads":
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            runs = list(pool.map(_run_one_shard, payloads))
    elif executor == "processes":
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            runs = list(pool.map(_run_one_shard, payloads))
    else:
        raise RunConfigurationError(f"unknown shard executor {executor!r}")
    elapsed = _time.perf_counter() - start
    merged = merge_statistics([run.statistics for run in runs], elapsed_seconds=elapsed)
    return runs, merged


def merge_statistics(
    per_shard: Sequence[RunStatistics], *, elapsed_seconds: Optional[float] = None
) -> RunStatistics:
    """Combine per-shard statistics into run-level totals.

    Counts are summed.  ``elapsed_seconds`` defaults to the slowest shard
    (the wall-clock of a perfectly parallel run); pass the measured wall
    clock for the true value.  Per-position samples do not line up across
    shards and are dropped; ``peak_entry_count`` is the sum of per-shard
    peaks, an upper bound on the true global peak.
    """
    merged = RunStatistics()
    for statistics in per_shard:
        merged.interactions += statistics.interactions
        merged.final_entry_count += statistics.final_entry_count
        merged.peak_entry_count += statistics.peak_entry_count
    if elapsed_seconds is not None:
        merged.elapsed_seconds = elapsed_seconds
    elif per_shard:
        merged.elapsed_seconds = max(s.elapsed_seconds for s in per_shard)
    return merged


def merge_snapshots(runs: Sequence[ShardRun]) -> ProvenanceSnapshot:
    """Union the per-shard provenance into one global snapshot.

    Component shards have disjoint vertex sets, so this is a plain union;
    hash shards can buffer quantity for the same vertex on several shards,
    in which case the origin sets are summed.
    """
    origins: Dict[Vertex, OriginSet] = {}
    last_time = 0.0
    interactions = 0
    for run in runs:
        interactions += run.statistics.interactions
        if run.last_time is not None and run.last_time > last_time:
            last_time = run.last_time
        for vertex in run.policy.tracked_vertices():
            decomposition = run.policy.origins(vertex)
            existing = origins.get(vertex)
            origins[vertex] = decomposition if existing is None else existing.merge(decomposition)
    return ProvenanceSnapshot(
        time=last_time,
        interactions_processed=interactions,
        origins=origins,
    )
