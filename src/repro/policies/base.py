"""Abstract interface shared by every selection policy.

A *selection policy* decides which buffered quantity elements an interaction
relays out of the source buffer (Section 4 of the paper) and maintains
whatever annotation state is needed to answer provenance queries.  Policies
are driven by :class:`repro.core.engine.ProvenanceEngine`, which feeds them
interactions in time order and exposes their provenance state uniformly.

The minimal contract is:

* :meth:`SelectionPolicy.reset` — prepare empty buffers for a run.  Policies
  that need to know the full vertex universe up front (the dense
  proportional policy) receive it here.
* :meth:`SelectionPolicy.process` — apply one interaction.
* :meth:`SelectionPolicy.buffer_total` — the scalar ``|B_v|``.
* :meth:`SelectionPolicy.origins` — the decomposition ``O(t, B_v)``.
* :meth:`SelectionPolicy.tracked_vertices` — vertices with non-empty buffers.
* :meth:`SelectionPolicy.entry_count` — number of stored provenance entries,
  used by the memory accounting of the benchmark harness.

Annotation state itself lives in pluggable :mod:`repro.stores` backends:
every policy builds its per-role state through :meth:`_make_store` instead
of raw dicts, so a run can keep provenance in plain dicts (default), packed
numpy matrices, or an SQLite spill store — with bit-identical results.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar, Dict, Iterable, Iterator, Optional, Sequence, Union

from repro.core.interaction import Interaction, Vertex
from repro.core.provenance import OriginSet
from repro.stores import ProvenanceStore, StoreSpec, StoreStats, resolve_store_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.blocks import InteractionBlock

__all__ = ["SelectionPolicy"]

#: How callers select a store backend: a spec, a backend name, or ``None``
#: (environment default, then plain dicts).
StoreArgument = Union[str, StoreSpec, None]


class SelectionPolicy(abc.ABC):
    """Base class of all quantity-selection / provenance-propagation policies."""

    #: Registry name of the policy (e.g. ``"fifo"``); set by subclasses.
    name: ClassVar[str] = ""

    #: Whether the policy maintains provenance annotations at all.  Only the
    #: NoProv baseline (Algorithm 1) sets this to False.
    tracks_provenance: ClassVar[bool] = True

    #: Whether the policy can also record transfer paths (how-provenance).
    supports_paths: ClassVar[bool] = False

    def __init__(self, *, store: StoreArgument = None) -> None:
        self._store_spec = resolve_store_spec(store)
        self._stores: Dict[str, ProvenanceStore] = {}

    # ------------------------------------------------------------------
    # provenance stores
    # ------------------------------------------------------------------
    @property
    def store_spec(self) -> StoreSpec:
        """The store specification this policy builds its state with."""
        spec = getattr(self, "_store_spec", None)
        return spec if spec is not None else resolve_store_spec(None)

    def _make_store(
        self, role: str, *, dimension: Optional[int] = None
    ) -> ProvenanceStore:
        """Build (and register) a fresh store for one state component.

        Called from ``__init__`` and ``reset``; the previous store of the
        same role, if any, is closed so spill files are released promptly.
        Subclasses that skip ``super().__init__`` still work — the spec
        falls back to the environment default.
        """
        registry = getattr(self, "_stores", None)
        if registry is None:
            registry = self._stores = {}
        old = registry.get(role)
        if old is not None:
            old.close()
        store = self.store_spec.create(role, dimension=dimension)
        registry[role] = store
        return store

    def stores(self) -> Dict[str, ProvenanceStore]:
        """The policy's provenance stores, keyed by state-component role.

        Any columnar mirror state is flushed first, so the returned stores
        are always authoritative (checkpoints, store statistics and
        cross-backend migration see identical state no matter how the
        policy was driven).
        """
        self._decolumnarise()
        return dict(getattr(self, "_stores", {}))

    def store_stats(self) -> Dict[str, StoreStats]:
        """Accounting snapshot of every store (entries, evictions, spill)."""
        return {role: store.stats() for role, store in self.stores().items()}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def reset(self, vertices: Sequence[Vertex] = ()) -> None:
        """Clear all buffers and prepare for a fresh run.

        Parameters
        ----------
        vertices:
            The vertex universe of the network, when known.  Policies with
            per-vertex dense state require it; entry-based policies ignore it
            and discover vertices lazily.
        """

    @abc.abstractmethod
    def process(self, interaction: Interaction) -> None:
        """Apply a single interaction to the policy state."""

    def process_many(self, interactions: Sequence[Interaction]) -> None:
        """Apply a batch of interactions, in order.

        Semantically equivalent to calling :meth:`process` once per element;
        the default implementation does exactly that (with the method lookup
        hoisted out of the loop).  Policies with dense or dict-based state
        override this with chunked implementations that amortise attribute
        lookups and bookkeeping over the whole batch — the same provenance
        state must result either way, bit for bit.
        """
        process = self.process
        for interaction in interactions:
            process(interaction)

    # ------------------------------------------------------------------
    # columnar execution
    # ------------------------------------------------------------------
    def process_block(self, block: "InteractionBlock") -> None:
        """Apply one columnar block of interactions, in order.

        Semantically equivalent to :meth:`process_many` over the block's
        rows.  The default adapter materialises the interaction objects so
        every policy works under columnar runs; the hot policies (noprov,
        proportional-dense, the entry-buffer family) override it with
        array kernels that never box a row — bit-identical to the object
        path, enforced by the equivalence suite under ``tests/columnar/``.
        """
        self.process_many(block.to_interactions())

    def process_run(self, block: "InteractionBlock") -> None:
        """Apply one whole-run (or large-chunk) columnar span, in order.

        The fused tier: the engine hands over the entire clip span between
        two sample/peak/checkpoint boundaries and the policy runs its inner
        loop without returning to Python between batches.  Semantically
        equivalent — bit for bit — to :meth:`process_block` over the same
        span; the default simply delegates there, which already *is* the
        pure fused backend (whole-span array kernels, preallocated
        scratch, no per-batch allocation).  Policies with compiled kernels
        (:mod:`repro.core.kernels`) override this to run the span through
        a numba- or C-compiled loop when one resolved, falling back to
        ``process_block`` otherwise.
        """
        self.process_block(block)

    def fused_backend(self) -> str:
        """Which backend :meth:`process_run` uses, resolving it if needed.

        ``"numba"`` / ``"cc"`` when a compiled kernel resolved, ``"numpy"``
        for the always-available pure fused path (array kernels driven over
        whole spans), ``"object"`` when the policy has no columnar kernel
        and spans go through the materialising adapter.  The engine calls
        this before starting its run timer, so backend compilation is
        measured outside the timed region.
        """
        return "numpy" if self.has_columnar_kernel() else "object"

    def has_columnar_kernel(self) -> bool:
        """Whether :meth:`process_block` runs a real array kernel *right now*.

        Instance-level because kernels require direct access to the state
        (a dict-backed store): a policy whose annotation state lives in a
        spilling backend answers False and keeps the object fast paths.
        The engine runs a network's block only when this is True; a block
        handed to the engine still runs through the materialising adapter.
        """
        return False

    def _kernel_consistent(self, owner: type) -> bool:
        """Whether ``owner``'s columnar kernel is safe for this instance.

        A subclass that overrides ``process``/``process_many`` without also
        overriding ``process_block`` would be silently bypassed by the
        inherited kernel; in that case the kernel must report itself
        unavailable so such subclasses keep their object semantics (the
        materialising adapter calls the overridden methods, and the
        inherited ``process_many`` fast paths defer to
        :meth:`SelectionPolicy.process_many` for an overridden ``process``).
        """
        cls = type(self)
        if cls.process_block is not owner.process_block:
            # The subclass ships its own kernel; nothing is bypassed.
            return True
        return cls.process is owner.process and cls.process_many is owner.process_many

    def _decolumnarise(self) -> None:
        """Flush any columnar mirror state back into the stores (no-op here).

        Kernel policies keep parts of their state in id-indexed arrays
        while blocks are flowing; every object-level entry point (``process``,
        ``process_many``, store access, pickling) calls this first so the
        dict-backed stores are always authoritative once object-level code
        looks at them.
        """

    def __getstate__(self):
        """Pickle the object-form state only (columnar mirrors are flushed).

        Checkpoints taken mid-columnar-run are therefore identical to
        checkpoints of an object run; transient array mirrors are rebuilt
        from the stores when the next block arrives.
        """
        self._decolumnarise()
        return dict(self.__dict__)

    def process_all(self, interactions: Iterable[Interaction]) -> int:
        """Apply every interaction of an iterable; returns the count processed.

        Convenience wrapper used by tests and small scripts; the benchmark
        harness drives policies through :class:`repro.core.engine.ProvenanceEngine`
        instead, which adds instrumentation.
        """
        count = 0
        for interaction in interactions:
            self.process(interaction)
            count += 1
        return count

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def buffer_total(self, vertex: Vertex) -> float:
        """The buffered quantity ``|B_v|`` of ``vertex`` (0.0 if untouched)."""

    @abc.abstractmethod
    def origins(self, vertex: Vertex) -> OriginSet:
        """The origin decomposition ``O(t, B_v)`` of ``vertex``'s buffer.

        Policies that do not track provenance return an empty set.
        """

    @abc.abstractmethod
    def tracked_vertices(self) -> Iterator[Vertex]:
        """Vertices whose buffers currently hold a positive quantity."""

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def entry_count(self) -> int:
        """Total number of provenance entries currently stored.

        For entry-based policies this is the number of buffered triples or
        pairs; for vector-based policies the number of non-zero vector
        positions (or ``|V|``-times-vertices for dense vectors).
        """

    def describe(self) -> str:
        """A short human-readable description used in reports."""
        return self.name or type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
