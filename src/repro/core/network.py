"""The temporal interaction network (TIN) container.

A :class:`TemporalInteractionNetwork` holds the directed graph ``G(V, E, R)``
of Definition 1: the vertex set ``V``, the edge set ``E`` (each edge carries
the history of its interactions), and the time-ordered interaction stream
``R``.  The container is the substrate on which every provenance policy of
the library operates.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.core.interaction import Interaction, Vertex, sort_interactions
from repro.exceptions import UnknownVertexError

if TYPE_CHECKING:
    from repro.core.blocks import InteractionBlock

__all__ = ["TemporalInteractionNetwork", "EdgeHistory"]


class EdgeHistory:
    """The interaction history of a single directed edge ``(source, dest)``.

    Stores ``(time, quantity)`` pairs in time order, mirroring the edge
    annotations of Figure 3(b) in the paper.
    """

    __slots__ = ("source", "destination", "_events")

    def __init__(self, source: Vertex, destination: Vertex):
        self.source = source
        self.destination = destination
        self._events: List[Tuple[float, float]] = []

    def add(self, time: float, quantity: float) -> None:
        """Record one transfer on this edge."""
        self._events.append((time, quantity))

    @property
    def events(self) -> Sequence[Tuple[float, float]]:
        """Time-ordered ``(time, quantity)`` pairs on this edge."""
        return tuple(self._events)

    @property
    def total_quantity(self) -> float:
        """Sum of quantities ever transferred along this edge."""
        return sum(quantity for _, quantity in self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EdgeHistory({self.source!r} -> {self.destination!r}, "
            f"{len(self._events)} interactions)"
        )


class TemporalInteractionNetwork:
    """A directed graph whose edges carry time-stamped quantity transfers.

    The network can be built incrementally with :meth:`add_interaction`, in
    one go with :meth:`from_interactions`, or over a ready columnar block
    with :meth:`from_block`.  Interactions are kept in time order; vertices
    are discovered automatically from interactions but isolated vertices
    may also be registered with :meth:`add_vertex`.
    """

    def __init__(self, name: str = "tin"):
        self.name = name
        self._vertices: Dict[Vertex, int] = {}
        self._interactions: List[Interaction] = []
        self._edges: Dict[Tuple[Vertex, Vertex], EdgeHistory] = {}
        self._out_neighbors: Dict[Vertex, Set[Vertex]] = defaultdict(set)
        self._in_neighbors: Dict[Vertex, Set[Vertex]] = defaultdict(set)
        self._sorted = True
        self._block_cache = None
        #: Block whose rows are not yet objects, edges and neighbour sets
        #: (see :meth:`from_block`); built on first use by :meth:`_materialise`.
        self._pending_block = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_interactions(
        cls,
        interactions: Iterable[Interaction],
        *,
        name: str = "tin",
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> "TemporalInteractionNetwork":
        """Build a network from an interaction iterable.

        Parameters
        ----------
        interactions:
            Any iterable of :class:`Interaction` (or 4-tuples accepted by
            :meth:`Interaction.from_tuple`).
        name:
            Human-readable name used in reports.
        vertices:
            Optional extra vertices to register even if they never appear in
            an interaction.
        """
        network = cls(name=name)
        if vertices is not None:
            for vertex in vertices:
                network.add_vertex(vertex)
        for interaction in interactions:
            if not isinstance(interaction, Interaction):
                interaction = Interaction.from_tuple(interaction)
            network.add_interaction(interaction)
        return network

    @classmethod
    def from_block(
        cls, block: "InteractionBlock", *, name: str = "tin"
    ) -> "TemporalInteractionNetwork":
        """A network over a time-ordered columnar block (the CSV ingest).

        Vertices are the block's interner in id order and :meth:`to_block`
        returns ``block`` itself, so a columnar run never builds an object.
        Interaction objects, edge histories and neighbour sets are built
        from the block the first time anything reads them.
        """
        network = cls(name=name)
        for vertex in block.interner.vertices:
            network.add_vertex(vertex)
        network._pending_block = block
        network._block_cache = block
        return network

    def _materialise(self) -> None:
        """Build the object form of a :meth:`from_block` network, once."""
        block, self._pending_block = self._pending_block, None
        if block is not None:
            for interaction in block.to_interactions():
                self._append(interaction)

    def add_vertex(self, vertex: Vertex) -> None:
        """Register a vertex (no-op if already present)."""
        if vertex not in self._vertices:
            self._vertices[vertex] = len(self._vertices)

    def add_interaction(self, interaction: Interaction) -> None:
        """Append one interaction, registering its endpoints as vertices."""
        self._materialise()
        self.add_vertex(interaction.source)
        self.add_vertex(interaction.destination)
        self._block_cache = None
        self._append(interaction)

    def _append(self, interaction: Interaction) -> None:
        if self._interactions and interaction.time < self._interactions[-1].time:
            self._sorted = False
        self._interactions.append(interaction)
        key = (interaction.source, interaction.destination)
        history = self._edges.get(key)
        if history is None:
            history = EdgeHistory(interaction.source, interaction.destination)
            self._edges[key] = history
        history.add(interaction.time, interaction.quantity)
        self._out_neighbors[interaction.source].add(interaction.destination)
        self._in_neighbors[interaction.destination].add(interaction.source)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        """All vertices in registration order."""
        return tuple(self._vertices)

    @property
    def vertex_index(self) -> Mapping[Vertex, int]:
        """Stable mapping vertex -> dense integer index (used by dense vectors)."""
        return dict(self._vertices)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        self._materialise()
        return len(self._edges)

    @property
    def num_interactions(self) -> int:
        if self._pending_block is not None:
            return len(self._pending_block)
        return len(self._interactions)

    @property
    def interactions(self) -> List[Interaction]:
        """Interactions in time order (sorted lazily if needed)."""
        self._materialise()
        if not self._sorted:
            self._interactions = sort_interactions(self._interactions)
            self._sorted = True
        return list(self._interactions)

    def to_block(self):
        """The whole interaction stream as one columnar block (cached).

        Interns every registered vertex first (so interner ids equal the
        network's registration indices) and columnarises the time-ordered
        interactions.  The block is cached — repeated runs over the same
        network pay the conversion once — and invalidated whenever an
        interaction is added.
        """
        if self._block_cache is None:
            from repro.core.blocks import InteractionBlock, VertexInterner

            interner = VertexInterner(self._vertices)
            self._block_cache = InteractionBlock.from_interactions(
                self.interactions, interner
            )
        return self._block_cache

    def __iter__(self) -> Iterator[Interaction]:
        return iter(self.interactions)

    def __len__(self) -> int:
        return self.num_interactions

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._vertices

    def edge(self, source: Vertex, destination: Vertex) -> EdgeHistory:
        """Return the history of the directed edge ``source -> destination``.

        Raises
        ------
        UnknownVertexError
            If either endpoint is not a vertex of the network or the edge has
            no interactions.
        """
        self._require_vertex(source)
        self._require_vertex(destination)
        self._materialise()
        try:
            return self._edges[(source, destination)]
        except KeyError:
            raise UnknownVertexError(
                f"no interactions recorded on edge {source!r} -> {destination!r}"
            ) from None

    def edges(self) -> Iterator[EdgeHistory]:
        """Iterate over all edge histories."""
        self._materialise()
        return iter(self._edges.values())

    def out_neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Vertices that ``vertex`` has sent quantities to."""
        self._require_vertex(vertex)
        self._materialise()
        return set(self._out_neighbors.get(vertex, set()))

    def in_neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Vertices that have sent quantities to ``vertex``."""
        self._require_vertex(vertex)
        self._materialise()
        return set(self._in_neighbors.get(vertex, set()))

    def degree(self, vertex: Vertex) -> int:
        """Total number of distinct in- and out-neighbours of ``vertex``."""
        self._require_vertex(vertex)
        self._materialise()
        return len(self._out_neighbors.get(vertex, set())) + len(
            self._in_neighbors.get(vertex, set())
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def total_quantity(self) -> float:
        """Sum of all transferred quantities over all interactions."""
        self._materialise()
        return sum(r.quantity for r in self._interactions)

    def average_quantity(self) -> float:
        """Mean transferred quantity per interaction (0.0 for empty networks)."""
        self._materialise()
        if not self._interactions:
            return 0.0
        return self.total_quantity() / len(self._interactions)

    def time_span(self) -> Tuple[float, float]:
        """(earliest, latest) interaction timestamps.

        Raises
        ------
        ValueError
            If the network has no interactions.
        """
        self._materialise()
        if not self._interactions:
            raise ValueError("network has no interactions")
        times = [r.time for r in self._interactions]
        return (min(times), max(times))

    def generated_quantity_by_vertex(self) -> Dict[Vertex, float]:
        """Total quantity *generated* (born) at each vertex.

        Runs the NoProv propagation of Algorithm 1 to determine, per vertex,
        the amount of newborn quantity it injected into the network.  The
        paper uses exactly this measure to choose the top-k contributing
        vertices for selective provenance (Section 7.3).
        """
        buffers: Dict[Vertex, float] = defaultdict(float)
        generated: Dict[Vertex, float] = defaultdict(float)
        for interaction in self.interactions:
            available = buffers[interaction.source]
            relayed = min(interaction.quantity, available)
            newborn = interaction.quantity - relayed
            buffers[interaction.source] = available - relayed
            buffers[interaction.destination] += interaction.quantity
            if newborn > 0:
                generated[interaction.source] += newborn
        return dict(generated)

    def summary(self) -> Dict[str, float]:
        """Dataset characteristics in the shape of the paper's Table 6."""
        return {
            "name": self.name,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "num_interactions": self.num_interactions,
            "average_quantity": self.average_quantity(),
        }

    def _require_vertex(self, vertex: Vertex) -> None:
        if vertex not in self._vertices:
            raise UnknownVertexError(f"unknown vertex {vertex!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TemporalInteractionNetwork(name={self.name!r}, "
            f"|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"|R|={self.num_interactions})"
        )
