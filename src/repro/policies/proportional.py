"""Proportional selection (Section 4.3, Algorithm 3).

When an interaction relays less than the source's buffered quantity, the
relayed quantity is drawn *proportionally* from every origin that has
contributed to the source buffer.  Each vertex ``v`` therefore carries a
provenance vector ``p_v`` whose ``i``-th component is the quantity in
``B_v`` originating from vertex ``i``; the vector sums to ``|B_v|``.

Two representations are provided, mirroring the paper:

* :class:`ProportionalDensePolicy` stores one dense numpy vector of length
  ``|V|`` per touched vertex.  Vector-wise numpy operations play the role of
  the SIMD instructions used by the authors' C implementation.  Space is
  ``O(|V|^2)`` so this is practical only for networks with few vertices
  (Flights, Taxis).
* :class:`ProportionalSparsePolicy` stores each ``p_v`` as a dict of
  ``origin -> quantity`` holding only non-zero components — the ordered-list
  representation of the paper, with the merge performed by dictionary
  arithmetic.  Space is ``O(|V| * l)`` where ``l`` is the average number of
  contributing origins per vertex, which the paper (and our Figure 6 bench)
  shows can still grow too large on big networks.

Applications (from the paper): buffers whose contents are naturally mixed —
liquids in tanks, indistinguishable financial units in account balances.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.blocks import InteractionBlock, VertexInterner
from repro.core.interaction import Interaction, Vertex
from repro.core.provenance import OriginSet
from repro.exceptions import PolicyConfigurationError, UnknownVertexError
from repro.policies.base import SelectionPolicy, StoreArgument
from repro.stores.dense import DenseNumpyStore

__all__ = ["ProportionalDensePolicy", "ProportionalSparsePolicy"]

# Quantities below this threshold are treated as zero when pruning sparse
# vectors; proportional splits otherwise accumulate microscopic residues
# that bloat the provenance lists without carrying information.
_PRUNE_EPSILON = 1e-12

#: Initial capacity floor (in rows) of policy-owned columnar arenas; growth
#: past it is geometric, capped at the universe size (each vertex owns at
#: most one row).
_ARENA_MIN_ROWS = 256


class _ColumnarVectors:
    """Position-indexed mirror of the dense policy state during columnar runs.

    ``vectors[p]`` is a row *view* into ``arena`` — the one contiguous
    ``(capacity, universe)`` float64 matrix every live provenance vector
    lives in — for the vertex at universe position ``p``; ``rows[p]`` is
    that row's arena index (``int32``, ``-1`` when absent).  The fused
    kernels take ``(arena, rows)`` directly: row addressing is index
    arithmetic on one base pointer, no per-row pointer table.

    With a dict-backed vector store the policy owns the arena and the
    store's dict values are rebound to its row views (mutations flow
    through, so the store stays live); with a
    :class:`~repro.stores.DenseNumpyStore` the store's own arena is
    mirrored.  Either way the arena object can be replaced by growth
    reallocation, so every consumer re-checks identity before trusting
    cached views.  ``totals`` mirrors the scalar totals store and is
    flushed back lazily; ``id_to_position`` translates interner ids into
    universe positions — identical for network-derived interners, but kept
    explicit so any interner works.
    """

    __slots__ = (
        "interner",
        "id_to_position",
        "identity",
        "store_mode",
        "arena",
        "rows",
        "count",
        "vectors",
        "totals",
        "scratch",
        "fraction",
        "totals_arr",
        "array_mode",
    )

    def __init__(
        self,
        interner: VertexInterner,
        id_to_position: np.ndarray,
        universe: int,
    ) -> None:
        self.interner = interner
        self.id_to_position = id_to_position
        # Interners derived from the same network as the universe map id i
        # to position i; the kernel then uses the block's id arrays as
        # positions directly, skipping translation and validation.
        self.identity = bool(
            len(id_to_position) <= universe
            and np.array_equal(id_to_position, np.arange(len(id_to_position)))
        )
        #: True when the vector store is a DenseNumpyStore whose arena is
        #: mirrored directly; False when the policy owns the arena and the
        #: store's dict values are views into it.
        self.store_mode = False
        self.arena: Optional[np.ndarray] = None
        self.rows = np.full(universe, -1, dtype=np.int32)
        #: Next free arena row (policy-owned arenas only).
        self.count = 0
        self.vectors: List[Optional[np.ndarray]] = [None] * universe
        self.totals: List[float] = [0.0] * universe
        self.scratch = np.empty(universe, dtype=np.float64)
        # 0-d staging cell for the split fraction: refilling it and passing
        # the array to multiply() skips the per-call Python-float boxing.
        self.fraction = np.empty((), dtype=np.float64)
        # Compiled kernels mutate totals as a float64 array; converted once
        # per representation switch, not per chunk.
        self.totals_arr: Optional[np.ndarray] = None
        self.array_mode = False

    def to_arrays(self) -> np.ndarray:
        """Make the float64 totals array authoritative (idempotent)."""
        if not self.array_mode:
            self.totals_arr = np.array(self.totals, dtype=np.float64)
            self.array_mode = True
        return self.totals_arr

    def to_lists(self) -> None:
        """Make the Python-list totals authoritative (idempotent; exact)."""
        if self.array_mode:
            self.totals = self.totals_arr.tolist()
            self.totals_arr = None
            self.array_mode = False


class ProportionalDensePolicy(SelectionPolicy):
    """Algorithm 3 with dense numpy provenance vectors.

    The vertex universe must be known before processing starts; pass it via
    :meth:`reset` (the engine does this automatically when it is given a
    :class:`~repro.core.network.TemporalInteractionNetwork`).
    """

    name = "proportional-dense"
    tracks_provenance = True
    supports_paths = False

    def __init__(
        self,
        vertices: Optional[Sequence[Vertex]] = None,
        *,
        store: StoreArgument = None,
    ) -> None:
        super().__init__(store=store)
        self._index: Dict[Vertex, int] = {}
        self._order: list = []
        self._vectors = self._make_store("vectors")
        self._totals = self._make_store("totals")
        self._col: Optional[_ColumnarVectors] = None
        self._moved_scratch: Optional[np.ndarray] = None
        if vertices is not None:
            self.reset(vertices)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self, vertices: Sequence[Vertex] = ()) -> None:
        self._col = None
        self._index = {vertex: position for position, vertex in enumerate(vertices)}
        self._order = list(vertices)
        if not self._index:
            raise PolicyConfigurationError(
                "ProportionalDensePolicy needs the full vertex universe; "
                "construct it with vertices or run it on a "
                "TemporalInteractionNetwork rather than a bare interaction stream"
            )
        self._vectors = self._make_store("vectors", dimension=len(self._index))
        self._totals = self._make_store("totals")
        self._moved_scratch = None

    def _zero_vector(self) -> np.ndarray:
        return np.zeros(len(self._index), dtype=np.float64)

    def _split_scratch(self) -> np.ndarray:
        """Reusable ``(|V|,)`` row staging the proportional split's moved
        amounts — store-owned when the backend offers one, policy-owned
        otherwise — so the object paths stop allocating per interaction."""
        scratch_row = getattr(self._vectors, "scratch_row", None)
        if scratch_row is not None:
            scratch = scratch_row()
            if len(scratch) == len(self._index):
                return scratch
        scratch = self._moved_scratch
        if scratch is None or len(scratch) != len(self._index):
            scratch = self._moved_scratch = np.empty(
                len(self._index), dtype=np.float64
            )
        return scratch

    def __getstate__(self):
        # The scratch row's contents are garbage between splits; dropping it
        # keeps checkpoints deterministic and lean.
        state = super().__getstate__()
        state["_moved_scratch"] = None
        return state

    def _vector(self, vertex: Vertex) -> np.ndarray:
        return self._vectors.get_or_create(vertex, self._zero_vector)

    def _position(self, vertex: Vertex) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise UnknownVertexError(
                f"vertex {vertex!r} was not part of the universe given to reset()"
            ) from None

    def process(self, interaction: Interaction) -> None:
        self._decolumnarise()
        source = interaction.source
        destination = interaction.destination
        quantity = interaction.quantity
        # Both endpoints must belong to the universe fixed at reset time.
        self._position(source)
        self._position(destination)
        totals = self._totals
        source_total = totals.get(source, 0.0)

        # Arena-backed stores may reallocate on row allocation: reserve both
        # rows before fetching either view so neither can go stale.
        ensure_rows = getattr(self._vectors, "ensure_rows", None)
        if ensure_rows is not None:
            ensure_rows((source, destination))
        source_vector = self._vector(source)
        destination_vector = self._vector(destination)

        if quantity >= source_total:
            # Relay the whole source buffer, then generate the residue at the
            # source (Algorithm 3, lines 5-7).
            destination_vector += source_vector
            newborn = quantity - source_total
            if newborn > 0:
                destination_vector[self._position(source)] += newborn
            source_vector[:] = 0.0
            totals.put(source, 0.0)
            totals.merge(destination, quantity)
        else:
            # Proportional split (lines 9-10); the moved amounts stage in a
            # reusable scratch row instead of a per-interaction allocation.
            fraction = quantity / source_total
            moved = np.multiply(source_vector, fraction, out=self._split_scratch())
            destination_vector += moved
            source_vector -= moved
            totals.put(source, source_total - quantity)
            totals.merge(destination, quantity)

    def process_many(self, interactions: Sequence[Interaction]) -> None:
        """Batched Algorithm 3 over dense vectors.

        Replays the exact arithmetic of :meth:`process` (same numpy
        operations, same order, hence bit-identical vectors) with the state
        stores, the vertex index and the vector accessors held in locals,
        amortising the per-interaction Python overhead over the batch.
        Only dict-backed stores take the inlined loop; the dense and sqlite
        backends, and subclasses that override :meth:`process`, step
        through :meth:`process`.
        """
        self._decolumnarise()
        index = self._index
        vectors = self._vectors.raw_dict()
        totals = self._totals.raw_dict()
        if (
            vectors is None
            or totals is None
            or type(self).process is not ProportionalDensePolicy.process
        ):
            SelectionPolicy.process_many(self, interactions)
            return
        universe = len(index)
        zeros = np.zeros
        scratch = self._split_scratch()
        multiply = np.multiply
        for interaction in interactions:
            source = interaction.source
            destination = interaction.destination
            quantity = interaction.quantity
            if source not in index:
                self._position(source)
            if destination not in index:
                self._position(destination)
            source_total = totals.get(source, 0.0)

            source_vector = vectors.get(source)
            if source_vector is None:
                source_vector = zeros(universe, dtype=np.float64)
                vectors[source] = source_vector
            destination_vector = vectors.get(destination)
            if destination_vector is None:
                destination_vector = zeros(universe, dtype=np.float64)
                vectors[destination] = destination_vector

            if quantity >= source_total:
                destination_vector += source_vector
                newborn = quantity - source_total
                if newborn > 0:
                    destination_vector[index[source]] += newborn
                source_vector[:] = 0.0
                totals[source] = 0.0
                totals[destination] = totals.get(destination, 0.0) + quantity
            else:
                fraction = quantity / source_total
                moved = multiply(source_vector, fraction, out=scratch)
                destination_vector += moved
                source_vector -= moved
                totals[source] = source_total - quantity
                totals[destination] = totals.get(destination, 0.0) + quantity

    # ------------------------------------------------------------------
    # columnar execution
    # ------------------------------------------------------------------
    def has_columnar_kernel(self) -> bool:
        return (
            self._kernel_consistent(ProportionalDensePolicy)
            and self._totals.raw_dict() is not None
            and (
                self._vectors.raw_dict() is not None
                or isinstance(self._vectors, DenseNumpyStore)
            )
        )

    def _ensure_columnar(self, interner: VertexInterner) -> _ColumnarVectors:
        col = self._col
        if col is not None and col.interner is interner:
            if len(col.id_to_position) < len(interner):
                # The interner grew mid-run (stream discovery); vertices
                # outside the fixed universe map to -1, which also voids
                # the identity shortcut so validation sees them.
                col.id_to_position = self._id_to_position(interner)
                col.identity = False
            if col.store_mode:
                self._sync_store_arena(col)
            return col
        if col is not None:
            self._decolumnarise()
        col = _ColumnarVectors(
            interner, self._id_to_position(interner), len(self._index)
        )
        index = self._index
        if isinstance(self._vectors, DenseNumpyStore):
            col.store_mode = True
            self._sync_store_arena(col, force=True)
        else:
            self._consolidate_dict_arena(col)
        for vertex, total in self._totals.raw_dict().items():
            col.totals[index[vertex]] = total
        self._col = col
        return col

    def _sync_store_arena(self, col: _ColumnarVectors, force: bool = False) -> None:
        """Mirror a DenseNumpyStore's arena into the columnar state.

        Rebinds every row view and the position → row index whenever the
        store's arena object changed identity (growth reallocation) — the
        cached views would otherwise point at the detached old buffer.
        """
        store = self._vectors
        arena = store.arena
        if arena is col.arena and not force:
            return
        col.arena = arena
        col.rows.fill(-1)
        vectors = col.vectors
        for position in range(len(vectors)):
            vectors[position] = None
        index = self._index
        rows = col.rows
        for vertex, row in store.row_items():
            position = index[vertex]
            rows[position] = row
            vectors[position] = arena[row]

    def _consolidate_dict_arena(self, col: _ColumnarVectors) -> None:
        """Bind a dict-backed vector store to a policy-owned arena.

        If every stored vector is already a row view of one shared arena
        (the state a previous columnar run leaves behind), that arena is
        recovered by pointer arithmetic — no copy.  Otherwise (first run,
        or standalone arrays after a pickle round-trip) the live vectors
        are consolidated into a fresh arena and the store's dict values are
        rebound to its row views, so kernel writes flow through to the
        store.
        """
        raw_vectors = self._vectors.raw_dict()
        index = self._index
        universe = len(index)
        recovered = self._recover_dict_arena(col, raw_vectors, universe)
        if recovered:
            return
        live = len(raw_vectors)
        capacity = max(live, min(universe, _ARENA_MIN_ROWS))
        arena = np.zeros((capacity, universe), dtype=np.float64)
        rows = col.rows
        vectors = col.vectors
        for row, (vertex, vector) in enumerate(raw_vectors.items()):
            arena[row] = vector
            view = arena[row]
            raw_vectors[vertex] = view
            position = index[vertex]
            rows[position] = row
            vectors[position] = view
        col.arena = arena
        col.count = live

    def _recover_dict_arena(
        self,
        col: _ColumnarVectors,
        raw_vectors: Dict[Vertex, np.ndarray],
        universe: int,
    ) -> bool:
        """Re-adopt a shared arena whose row views already fill the store."""
        base: Optional[np.ndarray] = None
        next_row = 0
        bindings = []
        index = self._index
        for vertex, vector in raw_vectors.items():
            candidate = vector.base
            if base is None:
                if (
                    not isinstance(candidate, np.ndarray)
                    or candidate.ndim != 2
                    or candidate.shape[1] != universe
                    or candidate.dtype != np.float64
                    or not candidate.flags["C_CONTIGUOUS"]
                ):
                    return False
                base = candidate
            elif candidate is not base:
                return False
            offset = vector.ctypes.data - base.ctypes.data
            stride = base.strides[0]
            row, remainder = divmod(offset, stride)
            if remainder or len(vector) != universe or row >= base.shape[0]:
                return False
            bindings.append((index[vertex], int(row)))
            if row + 1 > next_row:
                next_row = int(row) + 1
        if base is None:
            return False
        col.arena = base
        col.count = next_row
        rows = col.rows
        vectors = col.vectors
        for position, row in bindings:
            rows[position] = row
            vectors[position] = base[row]
        return True

    def _id_to_position(self, interner: VertexInterner) -> np.ndarray:
        index_get = self._index.get
        return np.fromiter(
            (index_get(vertex, -1) for vertex in interner.vertices),
            dtype=np.int32,
            count=len(interner),
        )

    def _decolumnarise(self) -> None:
        col = self._col
        if col is None:
            return
        self._col = None
        col.to_lists()
        # The vector arrays in the store are the very arrays the kernel
        # mutated (live), so only the scalar totals need flushing.  Flushing
        # in ascending position order inserts any new keys as a permutation
        # of the object path's first-touch order: every per-key value is
        # bit-identical, only the dict's iteration order may differ (nothing
        # in the library accumulates floats over totals iteration).
        raw_totals = self._totals.raw_dict()
        order = self._order
        totals = col.totals
        for position, vector in enumerate(col.vectors):
            if vector is not None:
                raw_totals[order[position]] = totals[position]

    def process_block(self, block: InteractionBlock) -> None:
        """Columnar Algorithm 3: id-indexed arena-row arithmetic.

        Replays the exact numpy operations of :meth:`process` in the same
        order (bit-identical vectors), with three representation-level
        savings: vertex hashing becomes array translation done once per
        block, an all-zero source vector (``|B_s| == 0``) skips its
        bitwise-no-op row operations entirely, and the proportional split
        reuses one scratch row instead of allocating per interaction.
        Every endpoint row is materialised up front (any arena growth
        happens before a single view is fetched), so the loop body only
        ever touches valid views.  Falls back to the object adapter on
        store backends with neither a raw dict nor an arena.
        """
        if not self.has_columnar_kernel():
            super().process_block(block)
            return
        col = self._ensure_columnar(block.interner)
        col.to_lists()
        source_positions, destination_positions = self._block_positions(col, block)
        self._materialise_vectors(col, source_positions, destination_positions)
        vectors = col.vectors
        totals = col.totals
        scratch = col.scratch
        fraction = col.fraction
        add = np.add
        subtract = np.subtract
        multiply = np.multiply
        quantities = block.quantities.tolist()
        for source, destination, quantity in zip(
            source_positions.tolist(), destination_positions.tolist(), quantities
        ):
            source_vector = vectors[source]
            destination_vector = vectors[destination]
            source_total = totals[source]
            if source_total == 0.0:
                # Zero total implies an all-zero vector: the relay's row
                # operations would add and zero out nothing — only the
                # newborn component is a real write.
                if quantity > 0.0:
                    destination_vector[source] += quantity
                totals[destination] += quantity
            elif quantity >= source_total:
                add(destination_vector, source_vector, destination_vector)
                newborn = quantity - source_total
                if newborn > 0.0:
                    destination_vector[source] += newborn
                source_vector.fill(0.0)
                totals[source] = 0.0
                totals[destination] += quantity
            else:
                fraction[()] = quantity / source_total
                multiply(source_vector, fraction, scratch)
                add(destination_vector, scratch, destination_vector)
                subtract(source_vector, scratch, source_vector)
                totals[source] = source_total - quantity
                totals[destination] += quantity

    def _block_positions(self, col: _ColumnarVectors, block: InteractionBlock):
        """Translate the block's interner ids into universe positions.

        Identity interners pass through untouched; otherwise the ids are
        mapped and validated up front (unlike the object path, which raises
        mid-stream — the reported vertex is the same).
        """
        if col.identity:
            return block.src_ids, block.dst_ids
        id_to_position = col.id_to_position
        source_positions = id_to_position[block.src_ids]
        destination_positions = id_to_position[block.dst_ids]
        unknown = np.flatnonzero((source_positions < 0) | (destination_positions < 0))
        if len(unknown):
            row = int(unknown[0])
            bad_id = int(
                block.src_ids[row]
                if source_positions[row] < 0
                else block.dst_ids[row]
            )
            raise UnknownVertexError(
                f"vertex {block.interner.vertex_of(bad_id)!r} was not part "
                f"of the universe given to reset()"
            )
        return source_positions, destination_positions

    # ------------------------------------------------------------------
    # fused execution
    # ------------------------------------------------------------------
    def _fused_handle(self):
        """The compiled whole-run kernel, or ``None`` for the pure path.

        ``None`` also when a subclass ships its own ``process_block``: the
        compiled loop replicates *this class's* kernel, and bypassing an
        override would silently change subclass semantics — the fused
        drive then routes through ``self.process_block`` instead.
        """
        if type(self).process_block is not ProportionalDensePolicy.process_block:
            return None
        if not self.has_columnar_kernel():
            return None
        from repro.core import kernels

        return kernels.get_kernel("proportional-dense")

    def fused_backend(self) -> str:
        if not self.has_columnar_kernel():
            return "object"
        handle = self._fused_handle()
        return "numpy" if handle is None else handle.backend

    def _materialise_vectors(
        self, col: _ColumnarVectors, src: np.ndarray, dst: np.ndarray
    ) -> None:
        """Allocate every missing endpoint row, in first-touch order.

        The kernels index arena rows, so rows must exist before the span
        runs; creating them in interleaved first-appearance order (sources
        before destinations, row by row) reproduces the vector store's
        insertion order of the per-interaction loop exactly.  All growth —
        store arena or policy arena — happens here, before any view of the
        span is fetched, which is what makes holding ``col.vectors`` views
        across the span safe.
        """
        rows_index = col.rows
        # Fast path for the steady state: one vectorised O(n) probe of the
        # position->row index.  After the first few chunks every endpoint
        # of a span usually has its row already, and the first-touch
        # ordering pass below (unique + stable argsort, O(n log n)) would
        # otherwise dominate the span's own kernel time.
        if (
            rows_index[src].min(initial=0) >= 0
            and rows_index[dst].min(initial=0) >= 0
        ):
            return
        vectors = col.vectors
        interleaved = np.empty(len(src) * 2, dtype=np.int64)
        interleaved[0::2] = src
        interleaved[1::2] = dst
        unique, first_rows = np.unique(interleaved, return_index=True)
        missing = [
            position
            for position in unique[np.argsort(first_rows, kind="stable")].tolist()
            if vectors[position] is None
        ]
        if not missing:
            return
        order = self._order
        if col.store_mode:
            store = self._vectors
            store.ensure_rows(order[position] for position in missing)
            # Growth reallocates the store arena: rebind everything cached.
            self._sync_store_arena(col)
            arena = col.arena
            rows = col.rows
            for position in missing:
                row = store.row_of(order[position])
                rows[position] = row
                vectors[position] = arena[row]
            return
        needed = col.count + len(missing)
        arena = col.arena
        if arena is None or needed > arena.shape[0]:
            self._grow_dict_arena(col, needed)
            arena = col.arena
        raw_vectors = self._vectors.raw_dict()
        rows = col.rows
        count = col.count
        for position in missing:
            view = arena[count]
            vectors[position] = view
            raw_vectors[order[position]] = view
            rows[position] = count
            count += 1
        col.count = count

    def _grow_dict_arena(self, col: _ColumnarVectors, needed: int) -> None:
        """Geometrically reallocate the policy-owned arena and rebind views.

        Unlike the store-owned arena, every live view here is also a dict
        value in the vector store, so both sides are rebound onto the grown
        buffer (the store then keeps reflecting kernel writes).
        """
        universe = len(self._index)
        arena = col.arena
        capacity = 0 if arena is None else arena.shape[0]
        # Geometric doubling capped at the universe size, but never below
        # ``needed`` (eviction holes can push the row count past the number
        # of live keys, so ``needed`` is the authority, not the cap).
        new_capacity = max(needed, min(universe, max(capacity * 2, _ARENA_MIN_ROWS)))
        grown = np.zeros((new_capacity, universe), dtype=np.float64)
        if arena is not None and col.count:
            grown[: col.count] = arena[: col.count]
        col.arena = grown
        raw_vectors = self._vectors.raw_dict()
        order = self._order
        rows = col.rows
        vectors = col.vectors
        for position, vector in enumerate(vectors):
            if vector is not None:
                view = grown[rows[position]]
                vectors[position] = view
                raw_vectors[order[position]] = view

    def process_run(self, block: InteractionBlock) -> None:
        """Fused Algorithm 3: the whole clip span in one compiled call.

        Bit-identical to :meth:`process_block` over the same span — the
        compiled loop replicates its three branches element for element,
        including the self-loop aliasing behaviour (verified against a
        pure reference at build time).  The kernel reads the arena and the
        ``int32`` position → row index directly — dict-backed stores are
        consolidated into a policy-owned arena first, dense stores hand
        over their own.  Falls back to the per-block kernel when no
        compiled backend resolved or the totals store is not dict-backed.
        """
        handle = self._fused_handle()
        if handle is None:
            self.process_block(block)
            return
        if not len(block.src_ids):
            return
        col = self._ensure_columnar(block.interner)
        source_positions, destination_positions = self._block_positions(col, block)
        src = np.ascontiguousarray(source_positions, dtype=np.int32)
        dst = np.ascontiguousarray(destination_positions, dtype=np.int32)
        quantities = np.ascontiguousarray(block.quantities, dtype=np.float64)
        self._materialise_vectors(col, src, dst)
        totals_arr = col.to_arrays()
        handle.fn(src, dst, quantities, col.arena, col.rows, totals_arr)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def buffer_total(self, vertex: Vertex) -> float:
        col = self._col
        if col is not None:
            position = self._index.get(vertex)
            if position is None:
                return 0.0
            if col.array_mode:
                return float(col.totals_arr[position])
            return col.totals[position]
        return self._totals.get(vertex, 0.0)

    def origins(self, vertex: Vertex) -> OriginSet:
        vector = self._vectors.get(vertex)
        origin_set = OriginSet()
        if vector is None:
            return origin_set
        positions = np.flatnonzero(vector > _PRUNE_EPSILON)
        if not len(positions):
            return origin_set
        # One fancy-indexed slice pulls every contributing amount at once;
        # only the (cheap) origin-set insertion remains per position.
        order = self._order
        add = origin_set.add
        for position, amount in zip(positions.tolist(), vector[positions].tolist()):
            add(order[position], amount)
        return origin_set

    def tracked_vertices(self) -> Iterator[Vertex]:
        self._decolumnarise()
        return (vertex for vertex, total in self._totals.items() if total > 0)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Allocated vector cells (each touched vertex costs ``|V|`` cells).

        Valid mid-columnar-run too: the kernel registers new vectors in the
        store the moment it creates them, so the store's key count is always
        current.
        """
        return len(self._vectors) * len(self._index)

    def nonzero_entry_count(self) -> int:
        """Number of non-zero vector components over all vertices.

        One vectorised count per stored vector; deliberately not stacked
        into a single matrix, which would transiently double the policy's
        resident memory.
        """
        count_nonzero = np.count_nonzero
        return int(
            sum(count_nonzero(vector > _PRUNE_EPSILON) for vector in self._vectors.values())
        )


class ProportionalSparsePolicy(SelectionPolicy):
    """Algorithm 3 with sparse (dict-based) provenance vectors."""

    name = "proportional-sparse"
    tracks_provenance = True
    supports_paths = False

    def __init__(self, *, store: StoreArgument = None) -> None:
        super().__init__(store=store)
        self._vectors = self._make_store("vectors")
        self._totals = self._make_store("totals")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self, vertices: Sequence[Vertex] = ()) -> None:
        self._vectors = self._make_store("vectors")
        self._totals = self._make_store("totals")

    def _vector(self, vertex: Vertex) -> Dict[Vertex, float]:
        return self._vectors.get_or_create(vertex, dict)

    def process(self, interaction: Interaction) -> None:
        source = interaction.source
        destination = interaction.destination
        quantity = interaction.quantity
        totals = self._totals
        source_total = totals.get(source, 0.0)

        source_vector = self._vector(source)
        destination_vector = self._vector(destination)

        if quantity >= source_total:
            # Relay everything from the source, then the newborn residue.
            for origin, amount in source_vector.items():
                destination_vector[origin] = destination_vector.get(origin, 0.0) + amount
            newborn = quantity - source_total
            if newborn > 0:
                destination_vector[source] = destination_vector.get(source, 0.0) + newborn
            source_vector.clear()
            totals.put(source, 0.0)
            totals.merge(destination, quantity)
        else:
            fraction = quantity / source_total
            keep = 1.0 - fraction
            for origin in list(source_vector):
                amount = source_vector[origin]
                moved = amount * fraction
                destination_vector[origin] = destination_vector.get(origin, 0.0) + moved
                remaining = amount * keep
                if remaining > _PRUNE_EPSILON:
                    source_vector[origin] = remaining
                else:
                    del source_vector[origin]
            totals.put(source, source_total - quantity)
            totals.merge(destination, quantity)

    def process_many(self, interactions: Sequence[Interaction]) -> None:
        """Batched Algorithm 3 over sparse dict vectors.

        Same arithmetic and operation order as :meth:`process` — only the
        state lookups are hoisted into locals for the whole batch.  Non-dict
        store backends, and subclasses that override :meth:`process`, step
        through :meth:`process`.
        """
        vectors = self._vectors.raw_dict()
        totals = self._totals.raw_dict()
        if (
            vectors is None
            or totals is None
            or type(self).process is not ProportionalSparsePolicy.process
        ):
            SelectionPolicy.process_many(self, interactions)
            return
        for interaction in interactions:
            source = interaction.source
            destination = interaction.destination
            quantity = interaction.quantity
            source_total = totals.get(source, 0.0)

            source_vector = vectors.get(source)
            if source_vector is None:
                source_vector = {}
                vectors[source] = source_vector
            destination_vector = vectors.get(destination)
            if destination_vector is None:
                destination_vector = {}
                vectors[destination] = destination_vector

            if quantity >= source_total:
                for origin, amount in source_vector.items():
                    destination_vector[origin] = destination_vector.get(origin, 0.0) + amount
                newborn = quantity - source_total
                if newborn > 0:
                    destination_vector[source] = destination_vector.get(source, 0.0) + newborn
                source_vector.clear()
                totals[source] = 0.0
                totals[destination] = totals.get(destination, 0.0) + quantity
            else:
                fraction = quantity / source_total
                keep = 1.0 - fraction
                for origin in list(source_vector):
                    amount = source_vector[origin]
                    moved = amount * fraction
                    destination_vector[origin] = destination_vector.get(origin, 0.0) + moved
                    remaining = amount * keep
                    if remaining > _PRUNE_EPSILON:
                        source_vector[origin] = remaining
                    else:
                        del source_vector[origin]
                totals[source] = source_total - quantity
                totals[destination] = totals.get(destination, 0.0) + quantity

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def buffer_total(self, vertex: Vertex) -> float:
        return self._totals.get(vertex, 0.0)

    def origins(self, vertex: Vertex) -> OriginSet:
        vector = self._vectors.get(vertex)
        if not vector:
            return OriginSet()
        return OriginSet(vector)

    def provenance_vector(self, vertex: Vertex) -> Dict[Vertex, float]:
        """The raw sparse vector of ``vertex`` (a copy)."""
        return dict(self._vectors.get(vertex, {}))

    def tracked_vertices(self) -> Iterator[Vertex]:
        return (vertex for vertex, total in self._totals.items() if total > 0)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        return self._vectors.entry_total()

    def average_list_length(self) -> float:
        """Average number of contributing origins per (touched) vertex.

        This is the quantity ``l`` of the paper's sparse-representation
        complexity analysis; Figure 6 tracks its growth over the stream.
        """
        if not self._vectors:
            return 0.0
        return self.entry_count() / len(self._vectors)
