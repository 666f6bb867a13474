"""Shared machinery for entry-based selection policies.

The generation-time policies (Section 4.1) and the receipt-order policies
(Section 4.2) run exactly the same propagation loop (Algorithm 2): drain the
source buffer in the policy's selection order until the interaction quantity
is satisfied, then generate a newborn entry for any residue.  They differ
only in the buffer data structure (heap vs. FIFO queue vs. LIFO stack).
:class:`EntryBufferPolicy` captures the shared loop; concrete policies just
provide a buffer factory.

Both families optionally track transfer paths (how-provenance, Section 6):
with ``track_paths=True`` every buffer entry carries the sequence of vertices
it has travelled through, starting at its origin.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.blocks import InteractionBlock, VertexInterner
from repro.core.buffer import BufferEntry, QuantityBuffer
from repro.core.interaction import Interaction, Vertex
from repro.core.provenance import OriginSet
from repro.policies.base import SelectionPolicy, StoreArgument

__all__ = ["EntryBufferPolicy"]


class _ColumnarBuffers:
    """Id-indexed view of the per-vertex buffers during columnar runs.

    Unlike the scalar policies, no values are mirrored: ``buffers[i]`` is
    the *same* :class:`QuantityBuffer` object the store holds for the
    vertex with interner id ``i`` (buffers are mutated in place, so the
    store stays authoritative at all times).  The list only replaces the
    per-interaction dict hashing with integer indexing.
    """

    __slots__ = ("interner", "buffers")

    def __init__(self, interner: VertexInterner) -> None:
        self.interner = interner
        self.buffers: List[Optional[QuantityBuffer]] = [None] * len(interner)

    def grow(self, size: int) -> None:
        shortfall = size - len(self.buffers)
        if shortfall > 0:
            self.buffers.extend([None] * shortfall)


class EntryBufferPolicy(SelectionPolicy):
    """Algorithm 2 parameterised by the buffer organisation.

    Subclasses provide :meth:`make_buffer`, returning an empty
    :class:`~repro.core.buffer.QuantityBuffer` in the desired selection
    order.  Everything else — the residue loop, entry splitting, newborn
    generation and optional path extension — lives here.  The per-vertex
    buffers live in a :mod:`repro.stores` backend, so runs whose entry
    state outgrows memory can spill buffers to disk.
    """

    supports_paths = True

    def __init__(self, *, track_paths: bool = False, store: StoreArgument = None) -> None:
        super().__init__(store=store)
        self.track_paths = track_paths
        self._buffers = self._make_store("buffers")
        self._col: Optional[_ColumnarBuffers] = None

    # ------------------------------------------------------------------
    # to implement
    # ------------------------------------------------------------------
    def make_buffer(self) -> QuantityBuffer:
        """Return an empty buffer in this policy's selection order."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self, vertices: Sequence[Vertex] = ()) -> None:
        self._col = None
        self._buffers = self._make_store("buffers")
        for vertex in vertices:
            self._buffers.put(vertex, self.make_buffer())

    def _buffer(self, vertex: Vertex) -> QuantityBuffer:
        return self._buffers.get_or_create(vertex, self.make_buffer)

    def process(self, interaction: Interaction) -> None:
        self._decolumnarise()
        source_buffer = self._buffer(interaction.source)
        destination_buffer = self._buffer(interaction.destination)

        # Drain the source buffer in selection order (Algorithm 2, lines 6-17).
        transferred = source_buffer.drain(interaction.quantity)
        relayed_quantity = sum(entry.quantity for entry in transferred)
        for entry in transferred:
            if self.track_paths:
                entry.path = self._extend_path(entry.path, interaction.source)
            destination_buffer.push(entry)

        # Generate a newborn entry for the residue (lines 18-21).
        residue = interaction.quantity - relayed_quantity
        if residue > 1e-12:
            newborn = BufferEntry(
                origin=interaction.source,
                quantity=residue,
                birth_time=interaction.time,
                path=(interaction.source,) if self.track_paths else None,
            )
            destination_buffer.push(newborn)

    def process_many(self, interactions: Sequence[Interaction]) -> None:
        """Batched Algorithm 2: the propagation loop with hoisted lookups.

        Bit-identical to repeated :meth:`process` calls — the relayed
        quantity accumulates left to right exactly like the ``sum()`` of
        the per-interaction path.  Only a dict-backed store takes the
        hoisted loop; spilling backends, and subclasses that override
        :meth:`process`, step through :meth:`process`.
        """
        self._decolumnarise()
        raw = self._buffers.raw_dict()
        if raw is None or type(self).process is not EntryBufferPolicy.process:
            SelectionPolicy.process_many(self, interactions)
            return
        make_buffer = self.make_buffer
        track_paths = self.track_paths
        extend_path = self._extend_path
        get = raw.get
        for interaction in interactions:
            source = interaction.source
            destination = interaction.destination
            source_buffer = get(source)
            if source_buffer is None:
                source_buffer = make_buffer()
                raw[source] = source_buffer
            destination_buffer = get(destination)
            if destination_buffer is None:
                destination_buffer = make_buffer()
                raw[destination] = destination_buffer

            transferred = source_buffer.drain(interaction.quantity)
            push = destination_buffer.push
            relayed_quantity = 0.0
            for entry in transferred:
                relayed_quantity += entry.quantity
                if track_paths:
                    entry.path = extend_path(entry.path, source)
                push(entry)

            residue = interaction.quantity - relayed_quantity
            if residue > 1e-12:
                push(
                    BufferEntry(
                        origin=source,
                        quantity=residue,
                        birth_time=interaction.time,
                        path=(source,) if track_paths else None,
                    )
                )

    # ------------------------------------------------------------------
    # columnar execution
    # ------------------------------------------------------------------
    def has_columnar_kernel(self) -> bool:
        return (
            self._kernel_consistent(EntryBufferPolicy)
            and self._buffers.raw_dict() is not None
        )

    def _ensure_columnar(self, interner: VertexInterner) -> _ColumnarBuffers:
        col = self._col
        if col is not None and col.interner is interner:
            col.grow(len(interner))
            return col
        # Seeding is lazy: the kernel consults the store dict on a list
        # miss before creating a buffer, so a large pre-registered universe
        # costs one lookup per *touched* vertex instead of an upfront
        # interning pass over every store key.
        col = _ColumnarBuffers(interner)
        self._col = col
        return col

    def _decolumnarise(self) -> None:
        # The store holds the same live buffer objects the id-list points
        # at (new buffers are registered on creation), so there is nothing
        # to flush — only the id-indexed view to drop.
        self._col = None

    #: Internal span size of the fused entry-buffer drive.  The kernel is a
    #: sequential Python pass, so splitting a clip span is invisible to the
    #: results — but ``column_lists`` materialises the span as Python lists,
    #: and list-sized working sets beyond the cache cost more than the
    #: per-call overhead they save.  2**16 rows keeps the lists cache-warm.
    _FUSED_SPAN = 65536

    def process_run(self, block: InteractionBlock) -> None:
        """Fused Algorithm 2: whole clip spans through the Python kernel.

        The entry-buffer kernel is a single sequential pass with every
        lookup hoisted, so fusion here is driving it over clip spans
        instead of fixed-size batches.  Spans are walked in cache-sized
        sub-slices (``_FUSED_SPAN``) — a pure iteration-order no-op, so
        results stay bit-identical to any other chunking of the same span.
        """
        span = self._FUSED_SPAN
        total = len(block)
        if total <= span:
            self.process_block(block)
            return
        for start in range(0, total, span):
            self.process_block(block.slice(start, min(start + span, total)))

    def process_block(self, block: InteractionBlock) -> None:
        """Columnar Algorithm 2: id-keyed buffer list, run-grouped lookups.

        Bit-identical to the batched object path; the representation-level
        savings are interned ids instead of vertex hashing and a cached
        source buffer across runs of consecutive interactions sharing a
        source (common in edge-reuse-heavy streams).  Falls back to the
        object adapter when the buffer store is not dict-backed.
        """
        if not self.has_columnar_kernel():
            super().process_block(block)
            return
        col = self._ensure_columnar(block.interner)
        buffers = col.buffers
        raw = self._buffers.raw_dict()
        raw_get = raw.get
        vertices = block.interner.vertices
        make_buffer = self.make_buffer
        track_paths = self.track_paths
        extend_path = self._extend_path
        sources, destinations, times, quantities = block.column_lists()
        previous_source = -1
        source_buffer: Optional[QuantityBuffer] = None
        for source, destination, quantity, time in zip(
            sources, destinations, quantities, times
        ):
            if source != previous_source:
                source_buffer = buffers[source]
                if source_buffer is None:
                    vertex = vertices[source]
                    source_buffer = raw_get(vertex)
                    if source_buffer is None:
                        source_buffer = make_buffer()
                        raw[vertex] = source_buffer
                    buffers[source] = source_buffer
                previous_source = source
            destination_buffer = buffers[destination]
            if destination_buffer is None:
                vertex = vertices[destination]
                destination_buffer = raw_get(vertex)
                if destination_buffer is None:
                    destination_buffer = make_buffer()
                    raw[vertex] = destination_buffer
                buffers[destination] = destination_buffer

            # An empty source buffer (zero total and no entries) relays
            # nothing; skipping its drain call is branch-for-branch what
            # drain() itself would decide.
            if source_buffer._total > 0.0 or len(source_buffer) > 0:
                transferred = source_buffer.drain(quantity)
                push = destination_buffer.push
                relayed_quantity = 0.0
                if track_paths:
                    source_vertex = vertices[source]
                    for entry in transferred:
                        relayed_quantity += entry.quantity
                        entry.path = extend_path(entry.path, source_vertex)
                        push(entry)
                else:
                    for entry in transferred:
                        relayed_quantity += entry.quantity
                        push(entry)
                residue = quantity - relayed_quantity
            else:
                residue = quantity
            if residue > 1e-12:
                source_vertex = vertices[source]
                destination_buffer.push(
                    BufferEntry(
                        origin=source_vertex,
                        quantity=residue,
                        birth_time=time,
                        path=(source_vertex,) if track_paths else None,
                    )
                )

    @staticmethod
    def _extend_path(path: Tuple[Vertex, ...], transmitter: Vertex) -> Tuple[Vertex, ...]:
        """Append the transmitting vertex to an entry's path."""
        if path is None:
            # Entries created before path tracking was enabled: start a path
            # at the transmitter so downstream statistics stay consistent.
            return (transmitter,)
        return path + (transmitter,)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def buffer_total(self, vertex: Vertex) -> float:
        buffer = self._buffers.get(vertex)
        return buffer.total if buffer is not None else 0.0

    def origins(self, vertex: Vertex) -> OriginSet:
        buffer = self._buffers.get(vertex)
        return buffer.origins() if buffer is not None else OriginSet()

    def entries(self, vertex: Vertex) -> List[BufferEntry]:
        """The raw buffer entries of ``vertex`` (copy; order unspecified)."""
        buffer = self._buffers.get(vertex)
        if buffer is None:
            return []
        return [entry.copy() for entry in buffer.entries()]

    def paths(self, vertex: Vertex) -> List[Tuple[Tuple[Vertex, ...], float]]:
        """``(path, quantity)`` pairs for every entry buffered at ``vertex``.

        Only meaningful when the policy was created with ``track_paths=True``;
        otherwise every path is ``None``-free but trivially short.
        """
        buffer = self._buffers.get(vertex)
        if buffer is None:
            return []
        result = []
        for entry in buffer.entries():
            path = entry.path if entry.path is not None else (entry.origin,)
            result.append((path, entry.quantity))
        return result

    def tracked_vertices(self) -> Iterator[Vertex]:
        return (
            vertex for vertex, buffer in self._buffers.items() if buffer.total > 0
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        # entry_total(len) is incremental on spilling backends: counting
        # entries does not deserialise the cold tier.
        return self._buffers.entry_total()

    def path_length_total(self) -> Tuple[int, int]:
        """``(total hops, entry count)`` over all buffered entries.

        A path's hop count is ``len(path) - 1``: the number of relays the
        entry experienced after being generated.  Used for the average path
        length column of Table 10.
        """
        hops = 0
        entries = 0
        for buffer in self._buffers.values():
            for entry in buffer.entries():
                entries += 1
                if entry.path is not None:
                    hops += max(len(entry.path) - 1, 0)
        return hops, entries
