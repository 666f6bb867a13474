"""The NoProv baseline: quantity propagation without provenance (Algorithm 1).

This policy only maintains the scalar buffer totals ``|B_v|``.  It is the
reference point of Tables 7 and 8 in the paper (column "No Provenance") and
is also reused internally to compute per-vertex generated quantities (for
top-k selection) and as the ground truth for the quantity-conservation
invariant checked by the test suite.

Both scalar maps (buffer totals and generated quantities) live in
:mod:`repro.stores` backends; the batched path keeps its raw-dict fast loop
whenever the configured backend is dict-based, and the columnar path
(:meth:`NoProvenancePolicy.process_block`) replaces the dicts entirely with
id-indexed total arrays while blocks are flowing.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.blocks import InteractionBlock, VertexInterner
from repro.core.interaction import Interaction, Vertex
from repro.core.provenance import OriginSet
from repro.policies.base import SelectionPolicy, StoreArgument

__all__ = ["NoProvenancePolicy"]


class _ColumnarTotals:
    """Id-indexed mirror of the two scalar stores during columnar runs.

    ``buffers``/``generated`` are plain Python lists indexed by interner id
    (list indexing by int is the cheapest keyed access in CPython — faster
    than dict hashing and much faster than boxing numpy scalars).
    ``touched`` marks ids that the object path would have inserted into the
    buffer dict; ``generated_order`` records the first-newborn order so the
    flush reproduces the object path's dict insertion order exactly.
    """

    __slots__ = (
        "interner",
        "buffers",
        "generated",
        "touched",
        "generated_order",
        "buffers_arr",
        "generated_arr",
        "array_mode",
    )

    def __init__(self, interner: VertexInterner) -> None:
        self.interner = interner
        size = len(interner)
        self.buffers: List[float] = [0.0] * size
        self.generated: List[float] = [0.0] * size
        self.touched = np.zeros(size, dtype=bool)
        self.generated_order: List[int] = []
        # Compiled fused kernels operate on float64 arrays instead of the
        # Python lists; the mirror converts once per representation switch
        # (not per chunk) and tracks which side is authoritative.
        self.buffers_arr: Optional[np.ndarray] = None
        self.generated_arr: Optional[np.ndarray] = None
        self.array_mode = False

    def to_arrays(self) -> tuple:
        """Make the float64 array representation authoritative (idempotent)."""
        if not self.array_mode:
            self.buffers_arr = np.array(self.buffers, dtype=np.float64)
            self.generated_arr = np.array(self.generated, dtype=np.float64)
            self.array_mode = True
        return self.buffers_arr, self.generated_arr

    def to_lists(self) -> None:
        """Make the Python-list representation authoritative (idempotent).

        ``tolist()`` round-trips float64 values exactly, so switching
        representations never perturbs a bit.
        """
        if self.array_mode:
            self.buffers = self.buffers_arr.tolist()
            self.generated = self.generated_arr.tolist()
            self.buffers_arr = None
            self.generated_arr = None
            self.array_mode = False

    def grow(self, size: int) -> None:
        current = len(self.buffers_arr) if self.array_mode else len(self.buffers)
        shortfall = size - current
        if shortfall > 0:
            self.to_lists()
            self.buffers.extend([0.0] * shortfall)
            self.generated.extend([0.0] * shortfall)
            touched = np.zeros(size, dtype=bool)
            touched[: len(self.touched)] = self.touched
            self.touched = touched


class NoProvenancePolicy(SelectionPolicy):
    """Algorithm 1: relay quantities and track only buffer totals."""

    name = "noprov"
    tracks_provenance = False
    supports_paths = False

    def __init__(self, *, store: StoreArgument = None) -> None:
        super().__init__(store=store)
        self._buffers = self._make_store("buffers")
        self._generated = self._make_store("generated")
        self._col: Optional[_ColumnarTotals] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self, vertices: Sequence[Vertex] = ()) -> None:
        self._col = None
        self._buffers = self._make_store("buffers")
        self._generated = self._make_store("generated")
        for vertex in vertices:
            self._buffers.put(vertex, 0.0)

    def process(self, interaction: Interaction) -> None:
        self._decolumnarise()
        buffers = self._buffers
        source = interaction.source
        quantity = interaction.quantity
        available = buffers.get(source)
        if available is None:
            available = 0.0
        relayed = min(quantity, available)
        newborn = quantity - relayed
        buffers.put(source, available - relayed)
        buffers.merge(interaction.destination, quantity)
        if newborn > 0:
            self._generated.merge(source, newborn)

    def process_many(self, interactions: Sequence[Interaction]) -> None:
        """Batched Algorithm 1: the per-interaction arithmetic inlined.

        Produces exactly the state :meth:`process` would (same operations in
        the same order); only the Python-level overhead — attribute lookups
        and the call per interaction — is amortised over the batch.  Only
        dict-backed stores take the inlined loop; other backends, and
        subclasses that override :meth:`process`, step through
        :meth:`process`.
        """
        self._decolumnarise()
        buffers = self._buffers.raw_dict()
        generated = self._generated.raw_dict()
        if (
            buffers is None
            or generated is None
            or type(self).process is not NoProvenancePolicy.process
        ):
            SelectionPolicy.process_many(self, interactions)
            return
        for interaction in interactions:
            source = interaction.source
            quantity = interaction.quantity
            available = buffers.get(source, 0.0)
            relayed = min(quantity, available)
            newborn = quantity - relayed
            buffers[source] = available - relayed
            destination = interaction.destination
            buffers[destination] = buffers.get(destination, 0.0) + quantity
            if newborn > 0:
                generated[source] = generated.get(source, 0.0) + newborn

    # ------------------------------------------------------------------
    # columnar execution
    # ------------------------------------------------------------------
    def has_columnar_kernel(self) -> bool:
        return (
            self._kernel_consistent(NoProvenancePolicy)
            and self._buffers.raw_dict() is not None
            and self._generated.raw_dict() is not None
        )

    def _ensure_columnar(self, interner: VertexInterner) -> _ColumnarTotals:
        col = self._col
        if col is not None and col.interner is interner:
            col.grow(len(interner))
            return col
        if col is not None:
            self._decolumnarise()
        intern = interner.intern
        # Interning the existing store keys (reset universe, resumed state)
        # may grow the table; size the arrays afterwards.
        buffer_items = [(intern(v), value) for v, value in self._buffers.raw_dict().items()]
        generated_items = [
            (intern(v), value) for v, value in self._generated.raw_dict().items()
        ]
        col = _ColumnarTotals(interner)
        for vertex_id, value in buffer_items:
            col.buffers[vertex_id] = value
            col.touched[vertex_id] = True
        for vertex_id, value in generated_items:
            col.generated[vertex_id] = value
            col.generated_order.append(vertex_id)
        self._col = col
        return col

    def _decolumnarise(self) -> None:
        col = self._col
        if col is None:
            return
        self._col = None
        col.to_lists()
        vertices = col.interner.vertices
        raw = self._buffers.raw_dict()
        buffers = col.buffers
        # Ascending id order equals first-appearance order (sources before
        # destinations, row by row), which is exactly the insertion order of
        # the object path's dict — iteration-order-sensitive consumers see
        # identical state.
        for vertex_id in np.flatnonzero(col.touched).tolist():
            raw[vertices[vertex_id]] = buffers[vertex_id]
        raw_generated = self._generated.raw_dict()
        generated = col.generated
        for vertex_id in col.generated_order:
            raw_generated[vertices[vertex_id]] = generated[vertex_id]

    def process_block(self, block: InteractionBlock) -> None:
        """Columnar Algorithm 1: id-indexed total arrays, no dict hashing.

        Bit-identical to :meth:`process` (same arithmetic in the same
        order); only the representation changes — vertex keys become
        interned ids, the two dicts become flat lists.  Falls back to the
        object adapter when the stores are not dict-backed (spilling
        backends own their state).
        """
        if not self.has_columnar_kernel():
            super().process_block(block)
            return
        col = self._ensure_columnar(block.interner)
        col.to_lists()
        buffers = col.buffers
        generated = col.generated
        generated_order = col.generated_order
        col.touched[block.src_ids] = True
        col.touched[block.dst_ids] = True
        sources, destinations, _times, quantities = block.column_lists()
        for source, destination, quantity in zip(sources, destinations, quantities):
            available = buffers[source]
            if quantity < available:
                buffers[source] = available - quantity
            else:
                buffers[source] = 0.0
                if quantity > available:
                    if generated[source] == 0.0:
                        generated_order.append(source)
                    generated[source] += quantity - available
            buffers[destination] += quantity

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
        if type(self).process_block is not NoProvenancePolicy.process_block:
            return None
        if not self.has_columnar_kernel():
            return None
        from repro.core import kernels

        return kernels.get_kernel("noprov")

    def fused_backend(self) -> str:
        if not self.has_columnar_kernel():
            return "object"
        handle = self._fused_handle()
        return "numpy" if handle is None else handle.backend

    def process_run(self, block: InteractionBlock) -> None:
        """Fused Algorithm 1: the whole clip span in one compiled call.

        Bit-identical to :meth:`process_block` over the same span — the
        compiled loop replicates its arithmetic operation for operation
        (verified against a pure reference at build time).  Falls back to
        the per-block kernel when no compiled backend resolved or the
        stores are not dict-backed.
        """
        handle = self._fused_handle()
        if handle is None:
            self.process_block(block)
            return
        col = self._ensure_columnar(block.interner)
        src_ids = np.ascontiguousarray(block.src_ids, dtype=np.int32)
        dst_ids = np.ascontiguousarray(block.dst_ids, dtype=np.int32)
        quantities = np.ascontiguousarray(block.quantities, dtype=np.float64)
        col.touched[src_ids] = True
        col.touched[dst_ids] = True
        buffers_arr, generated_arr = col.to_arrays()
        # Every vertex enters generated_order at most once, so the span can
        # append at most the whole universe.
        order_out = np.empty(len(buffers_arr), dtype=np.int64)
        appended = handle.fn(
            src_ids, dst_ids, quantities, buffers_arr, generated_arr, order_out
        )
        if appended:
            col.generated_order.extend(order_out[:appended].tolist())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def buffer_total(self, vertex: Vertex) -> float:
        col = self._col
        if col is not None:
            vertex_id = col.interner.get_id(vertex)
            if vertex_id < 0:
                return 0.0
            if col.array_mode:
                return float(col.buffers_arr[vertex_id])
            return col.buffers[vertex_id]
        return self._buffers.get(vertex, 0.0)

    def origins(self, vertex: Vertex) -> OriginSet:
        """NoProv stores no provenance; always returns an empty set."""
        return OriginSet()

    def tracked_vertices(self) -> Iterator[Vertex]:
        self._decolumnarise()
        return (vertex for vertex, total in self._buffers.items() if total > 0)

    def generated_quantity(self, vertex: Vertex) -> float:
        col = self._col
        if col is not None:
            vertex_id = col.interner.get_id(vertex)
            if vertex_id < 0:
                return 0.0
            if col.array_mode:
                return float(col.generated_arr[vertex_id])
            return col.generated[vertex_id]
        return self._generated.get(vertex, 0.0)

    def generated_quantities(self) -> Dict[Vertex, float]:
        """Mapping of every generating vertex to its total newborn quantity."""
        self._decolumnarise()
        return self._generated.snapshot()

    def total_generated(self) -> float:
        """Total newborn quantity injected into the network so far."""
        self._decolumnarise()
        return sum(self._generated.values())

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        col = self._col
        if col is not None:
            return int(np.count_nonzero(col.touched))
        return len(self._buffers)
