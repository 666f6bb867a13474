"""Columnar interaction blocks: struct-of-arrays batches with interned vertices.

The object pipeline hands policies a stream of boxed :class:`Interaction`
dataclasses keyed by hashed vertex objects.  That representation is flexible
but slow on the hot path (attribute lookups, per-vertex hashing) and cannot
be shared across processes without pickling.  This module provides the
columnar alternative the array-backed policy kernels run on:

* :class:`VertexInterner` — a stable, growable vertex <-> ``int32`` id table.
  Ids are assigned in first-appearance order, which deliberately matches the
  registration order of :class:`~repro.core.network.TemporalInteractionNetwork`
  (source before destination, row by row), so a policy that derives its
  vertex universe from an interner sees exactly the universe an object run
  would.  The table snapshots/restores for checkpoints.
* :class:`InteractionBlock` — one batch of interactions as four parallel
  arrays (``src_ids``/``dst_ids`` as ``int32``, ``times``/``quantities`` as
  ``float64``) plus the interner that resolves the ids.  Blocks slice and
  fancy-index without copying the Python-object form and materialise
  :class:`Interaction` objects only on demand (the compatibility adapter for
  policies without a columnar kernel).

Blocks only change *representation*, never semantics: iterating a block
yields exactly the interactions it was built from, in order, and the policy
kernels that consume id arrays directly are bit-identical to the object
path (enforced by ``tests/columnar/``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.interaction import Interaction, Vertex

__all__ = ["VertexInterner", "InteractionBlock"]


class VertexInterner:
    """Stable bidirectional mapping between vertices and dense ``int32`` ids.

    Ids are assigned on first appearance and never change or get reused, so
    id-indexed policy state (total arrays, matrix rows, buffer lists) stays
    valid as the table grows — the property that makes interned state
    checkpointable and, eventually, shareable across processes.
    """

    __slots__ = ("_ids", "_vertices")

    def __init__(self, vertices: Iterable[Vertex] = ()) -> None:
        self._ids: dict = {}
        self._vertices: List[Vertex] = []
        for vertex in vertices:
            self.intern(vertex)

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def intern(self, vertex: Vertex) -> int:
        """The id of ``vertex``, assigning the next free id on first sight."""
        ids = self._ids
        existing = ids.get(vertex)
        if existing is not None:
            return existing
        assigned = len(self._vertices)
        ids[vertex] = assigned
        self._vertices.append(vertex)
        return assigned

    def id_of(self, vertex: Vertex) -> int:
        """The id of an already-interned vertex.

        Raises
        ------
        KeyError
            If the vertex has never been interned.
        """
        return self._ids[vertex]

    def get_id(self, vertex: Vertex, default: int = -1) -> int:
        """The id of ``vertex``, or ``default`` when never interned."""
        return self._ids.get(vertex, default)

    def vertex_of(self, vertex_id: int) -> Vertex:
        """The vertex a given id stands for."""
        return self._vertices[vertex_id]

    @property
    def vertices(self) -> List[Vertex]:
        """All interned vertices in id order (id ``i`` is ``vertices[i]``)."""
        return self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._ids

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> List[Vertex]:
        """The id-ordered vertex list; enough to rebuild the whole table."""
        return list(self._vertices)

    def restore(self, vertices: Sequence[Vertex]) -> None:
        """Replace the table with a :meth:`snapshot` (checkpoint restore)."""
        self._vertices = list(vertices)
        self._ids = {vertex: position for position, vertex in enumerate(self._vertices)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VertexInterner({len(self._vertices)} vertices)"


class InteractionBlock:
    """A batch of interactions as parallel arrays (struct of arrays).

    ``src_ids[i] -> dst_ids[i]`` transfers ``quantities[i]`` at
    ``times[i]``; the shared :class:`VertexInterner` resolves ids back to
    vertex objects.  Blocks are immutable by convention — slices share the
    underlying arrays.

    ``owner`` is an opaque object kept alive for as long as the block (or
    any slice of it) exists.  Blocks over plain heap arrays leave it
    ``None``; zero-copy views over externally managed memory — the shared
    segments of :mod:`repro.runtime.shm` — pass the segment lease here, so
    plain Python refcounting keeps the mapping open until the last view
    dies.
    """

    __slots__ = ("src_ids", "dst_ids", "times", "quantities", "interner", "owner")

    def __init__(
        self,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        times: np.ndarray,
        quantities: np.ndarray,
        interner: VertexInterner,
        owner: object = None,
    ) -> None:
        self.src_ids = src_ids
        self.dst_ids = dst_ids
        self.times = times
        self.quantities = quantities
        self.interner = interner
        self.owner = owner

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_interactions(
        cls,
        interactions: Sequence[Interaction],
        interner: Optional[VertexInterner] = None,
    ) -> "InteractionBlock":
        """Columnarise a sequence of interaction objects.

        Vertices are interned source-before-destination, row by row — the
        same first-appearance order a
        :class:`~repro.core.network.TemporalInteractionNetwork` registers
        vertices in.
        """
        if interner is None:
            interner = VertexInterner()
        count = len(interactions)
        src = np.empty(count, dtype=np.int32)
        dst = np.empty(count, dtype=np.int32)
        times = np.empty(count, dtype=np.float64)
        quantities = np.empty(count, dtype=np.float64)
        intern = interner.intern
        for position, interaction in enumerate(interactions):
            src[position] = intern(interaction.source)
            dst[position] = intern(interaction.destination)
            times[position] = interaction.time
            quantities[position] = interaction.quantity
        return cls(src, dst, times, quantities, interner)

    # ------------------------------------------------------------------
    # array-level access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.src_ids)

    def slice(self, start: int, stop: int) -> "InteractionBlock":
        """A zero-copy view of rows ``[start, stop)``."""
        return InteractionBlock(
            self.src_ids[start:stop],
            self.dst_ids[start:stop],
            self.times[start:stop],
            self.quantities[start:stop],
            self.interner,
            owner=self.owner,
        )

    def take(self, positions: np.ndarray) -> "InteractionBlock":
        """The rows at ``positions`` (fancy-indexed copy, order preserved)."""
        return InteractionBlock(
            self.src_ids[positions],
            self.dst_ids[positions],
            self.times[positions],
            self.quantities[positions],
            self.interner,
        )

    @property
    def last_time(self) -> float:
        """Timestamp of the final row (the block's watermark)."""
        return float(self.times[-1])

    @property
    def nbytes(self) -> int:
        """Bytes held by the four column arrays (the ingest footprint)."""
        return (
            self.src_ids.nbytes
            + self.dst_ids.nbytes
            + self.times.nbytes
            + self.quantities.nbytes
        )

    # ------------------------------------------------------------------
    # object-level compatibility
    # ------------------------------------------------------------------
    def to_interactions(self) -> List[Interaction]:
        """Materialise the rows as :class:`Interaction` objects.

        The adapter behind the default ``process_block`` of policies without
        an array kernel; also handy in tests.  Yields exactly the rows the
        block was built from, in order.
        """
        vertices = self.interner.vertices
        return [
            Interaction(vertices[s], vertices[d], t, q)
            for s, d, t, q in zip(
                self.src_ids.tolist(),
                self.dst_ids.tolist(),
                self.times.tolist(),
                self.quantities.tolist(),
            )
        ]

    def __iter__(self) -> Iterator[Interaction]:
        return iter(self.to_interactions())

    def column_lists(self) -> Tuple[List[int], List[int], List[float], List[float]]:
        """The four columns as plain Python lists (kernel-loop form).

        ``tolist`` is a single C-level conversion per column; kernels iterate
        the resulting lists because indexing Python lists by int is much
        cheaper than boxing numpy scalars element by element.
        """
        return (
            self.src_ids.tolist(),
            self.dst_ids.tolist(),
            self.times.tolist(),
            self.quantities.tolist(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InteractionBlock({len(self)} interactions, "
            f"{len(self.interner)} interned vertices)"
        )
