"""The provenance-store interface shared by every backend.

The paper frames provenance tracking as a *memory-bound* problem: selection
policies differ precisely in how much annotation state they keep per vertex
buffer (Tables 7 and 8).  A :class:`ProvenanceStore` abstracts that state —
a keyed map from vertices to per-vertex annotation values (scalar totals,
entry buffers, sparse dict vectors or dense numpy vectors) — so a policy's
*algorithm* is decoupled from *where its state lives*:

* :class:`~repro.stores.dict_store.DictStore` keeps everything in a plain
  Python dict (the seed behaviour, and the default);
* :class:`~repro.stores.dense.DenseNumpyStore` packs fixed-dimension numpy
  vectors into one contiguous matrix (backing the dense proportional
  policy);
* :class:`~repro.stores.sqlite_store.SqliteStore` bounds the resident
  entries and spills the overflow to an SQLite file, so runs whose
  annotation state exceeds memory can still complete.

Backends are *semantically interchangeable*: a run on any backend must
produce bit-identical origin decompositions and buffer totals to a run on
``DictStore`` (the equivalence tests under ``tests/stores/`` enforce this
for every registered policy, per-interaction and batched).

Store values may be mutated in place by policies (buffers are drained,
vectors updated) — backends therefore treat every *resident* value as
dirty.  The only protocol requirement on policies is that all values used
inside one ``process()`` step are fetched before any of them is mutated;
spilling backends guarantee that fetching a value never displaces either of
the two most recently fetched entries.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = ["ProvenanceStore", "StoreStats", "merge_store_stats"]


@dataclass
class StoreStats:
    """Accounting snapshot of one provenance store.

    ``entries`` counts every stored key (resident plus spilled);
    ``resident_entries`` only those held in memory.  ``evictions`` counts
    spill events, ``spilled_bytes`` the serialized bytes written to the
    cold tier, and ``spill_reads`` the number of entries faulted back in.
    In-memory backends report ``entries == resident_entries`` and zeros for
    the spill counters.
    """

    backend: str = "dict"
    entries: int = 0
    resident_entries: int = 0
    evictions: int = 0
    spilled_bytes: int = 0
    spill_reads: int = 0
    memory_bytes: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by JSON exports."""
        return {
            "backend": self.backend,
            "entries": self.entries,
            "resident_entries": self.resident_entries,
            "evictions": self.evictions,
            "spilled_bytes": self.spilled_bytes,
            "spill_reads": self.spill_reads,
            "memory_bytes": self.memory_bytes,
        }


def merge_store_stats(
    per_store: Iterable[Mapping[str, StoreStats]]
) -> Dict[str, StoreStats]:
    """Aggregate role-keyed store stats over several policies (e.g. shards).

    Counters are summed per role; the backend label is taken from the first
    occurrence (shards of one run always share a backend).
    """
    merged: Dict[str, StoreStats] = {}
    for stats_by_role in per_store:
        for role, stats in stats_by_role.items():
            existing = merged.get(role)
            if existing is None:
                merged[role] = StoreStats(**stats.to_dict())
            else:
                existing.entries += stats.entries
                existing.resident_entries += stats.resident_entries
                existing.evictions += stats.evictions
                existing.spilled_bytes += stats.spilled_bytes
                existing.spill_reads += stats.spill_reads
                existing.memory_bytes += stats.memory_bytes
    return merged


class ProvenanceStore(abc.ABC):
    """Keyed storage of per-vertex provenance state (see module docstring).

    Keys are vertices (any hashable with deterministic pickling); values are
    whatever annotation the owning policy keeps per vertex.  ``merge`` and
    ``merge_many`` implement *numeric* accumulation (``existing + amount``
    with a missing entry treated as absent, not zero-filled) — they are
    defined for value types supporting ``+`` (floats, numpy vectors).
    """

    # ------------------------------------------------------------------
    # point access
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value stored under ``key`` (``default`` when absent)."""

    @abc.abstractmethod
    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """The value under ``key``, creating and storing ``factory()`` on miss."""

    @abc.abstractmethod
    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``, replacing any previous value."""

    @abc.abstractmethod
    def merge(self, key: Hashable, amount: Any) -> None:
        """Accumulate ``amount`` into ``key``: ``existing + amount``, or
        ``amount`` alone when the key is absent."""

    def merge_many(self, items: Iterable[Tuple[Hashable, Any]]) -> None:
        """Apply :meth:`merge` to every ``(key, amount)`` pair, in order.

        Bulk entry point for batched execution; the default implementation
        loops, backends may override with a tighter loop.  Application order
        is part of the contract — floating-point accumulation must match a
        sequence of individual merges bit for bit.
        """
        merge = self.merge
        for key, amount in items:
            merge(key, amount)

    @abc.abstractmethod
    def evict(self, key: Hashable) -> Any:
        """Remove ``key`` from the store entirely; returns the removed value
        (``None`` when the key was absent)."""

    # ------------------------------------------------------------------
    # iteration / bulk state
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def items(self) -> Iterable[Tuple[Hashable, Any]]:
        """Iterate over all ``(key, value)`` pairs (resident and spilled)."""

    @abc.abstractmethod
    def keys(self) -> Iterable[Hashable]:
        """Iterate over all stored keys."""

    def values(self) -> Iterable[Any]:
        """Iterate over all stored values."""
        return (value for _key, value in self.items())

    def entry_total(self, measure: Callable[[Any], int] = len) -> int:
        """Sum of ``measure(value)`` over every stored value.

        This is how the entry-buffer and sparse-vector policies count their
        provenance entries (``measure`` defaults to ``len``: entries per
        buffer, non-zero components per vector).  The default implementation
        scans every value; spilling backends override it with an
        incremental counter so counting does not deserialise the cold tier
        (see :meth:`repro.stores.SqliteStore.entry_total`).
        """
        return sum(measure(value) for value in self.values())

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.keys())

    def __contains__(self, key: Hashable) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored keys (resident plus spilled)."""

    @abc.abstractmethod
    def snapshot(self) -> Dict[Hashable, Any]:
        """A plain-dict materialisation of the full store contents.

        Spilled entries are deserialised; resident values are returned
        as-is (shallow), except where the backend must copy (the dense
        store copies its matrix rows so the snapshot outlives the store).
        """

    @abc.abstractmethod
    def restore(self, mapping: Mapping[Hashable, Any]) -> None:
        """Replace the store contents with ``mapping`` (checkpoint restore)."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop every stored entry (spill counters are cumulative and kept)."""

    # ------------------------------------------------------------------
    # accounting / lifecycle
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def stats(self) -> StoreStats:
        """Current accounting snapshot (see :class:`StoreStats`)."""

    def memory_bytes(self) -> int:
        """Estimated *resident* bytes (spilled entries excluded).

        Equals ``deep_sizeof(self)``, but values that report their own size
        (entry buffers) are charged it instead of being walked, so the
        ``memory_bytes`` every ``RunResult`` carries costs a few C-level
        passes per buffer (:func:`repro.metrics.memory.counted_sizeof`).
        """
        from repro.metrics.memory import counted_sizeof

        return counted_sizeof(self)

    def raw_dict(self) -> Optional[dict]:
        """The backing dict when the store is a plain in-memory dict.

        Fast-path hook for the batched ``process_many`` implementations:
        when non-``None``, policies may read and write the returned dict
        directly (bypassing the method interface, not the semantics).
        Spilling and dense backends return ``None``.
        """
        return None

    def close(self) -> None:
        """Release external resources (files, connections); idempotent."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(entries={len(self)})"
