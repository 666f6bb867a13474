"""Per-vertex buffer data structures used by the selection policies.

Every vertex ``v`` of a TIN owns a buffer ``B_v`` that accumulates incoming
quantities.  The paper's selection policies differ only in how a buffer is
organised and which stored quantity elements are selected when an
interaction relays quantity out of the buffer:

* generation-time policies (Section 4.1) keep ``(origin, birth_time,
  quantity)`` triples in a min- or max-heap keyed by birth time;
* receipt-order policies (Section 4.2) keep ``(origin, quantity)`` pairs in
  a FIFO queue or a LIFO stack;
* the proportional policy (Section 4.3) keeps a provenance vector (dense or
  sparse), implemented in :mod:`repro.policies.proportional`.

The classes here implement the first two families together with the shared
bookkeeping (buffer totals, iteration, provenance extraction).  Each buffer
entry optionally carries a transfer *path* so the same structures also back
how-provenance tracking (Section 6).

:meth:`QuantityBuffer.memory_bytes` returns exactly what
:func:`repro.metrics.memory.deep_sizeof` would find by walking a buffer, as
a few C-level ``getsizeof`` sums over its entries' fields instead of one
traversal step per entry.  The stores read it for every ``RunResult``.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Deque, Iterator, List, Optional, Sequence, Tuple

from repro.core.interaction import Vertex
from repro.core.provenance import OriginSet
from repro.metrics.memory import SCALAR_TYPES

__all__ = [
    "BufferEntry",
    "QuantityBuffer",
    "HeapBuffer",
    "FifoBuffer",
    "LifoBuffer",
]

# Tolerance below which a residual quantity is considered exhausted.  Using a
# small epsilon keeps floating point round-off from creating zero-quantity
# entries that would bloat the buffers.
_EPSILON = 1e-12

_getsizeof = sys.getsizeof


@dataclass(slots=True)
class BufferEntry:
    """One quantity element stored in a vertex buffer.

    Attributes
    ----------
    origin:
        The vertex that generated (gave birth to) this quantity.
    quantity:
        The amount of quantity carried by this element.
    birth_time:
        The time at which the quantity was generated.  Receipt-order buffers
        do not need it for selection but keep it for reporting.
    path:
        Optional transfer path (sequence of vertices, starting at ``origin``)
        used by how-provenance tracking.  ``None`` when path tracking is off.
    """

    origin: Vertex
    quantity: float
    birth_time: float = 0.0
    path: Optional[Tuple[Vertex, ...]] = None

    def split(self, amount: float) -> "BufferEntry":
        """Remove ``amount`` from this entry and return it as a new entry.

        The new entry shares the origin, birth time and path of this entry,
        mirroring the triple split of Algorithm 2 (lines 8-12).
        """
        if amount <= 0:
            raise ValueError(f"split amount must be positive, got {amount!r}")
        if amount > self.quantity + _EPSILON:
            raise ValueError(
                f"cannot split {amount!r} from an entry holding {self.quantity!r}"
            )
        self.quantity -= amount
        return BufferEntry(
            origin=self.origin,
            quantity=amount,
            birth_time=self.birth_time,
            path=self.path,
        )

    def copy(self) -> "BufferEntry":
        """Return an independent copy of this entry."""
        return BufferEntry(self.origin, self.quantity, self.birth_time, self.path)

    def __reduce__(self):
        # Positional: the default reduction of a slotted object pickles a
        # {slot name: value} dict per entry, which makes checkpoints, shm
        # commits and the policies a stream finish returns slower to pickle.
        return (BufferEntry, (self.origin, self.quantity, self.birth_time, self.path))

    def __setstate__(self, state) -> None:
        # Checkpoints written while entries were plain (unslotted) objects
        # pickled each one as its attribute dict.
        for name, value in state.items():
            setattr(self, name, value)


#: ``getsizeof`` of an entry object plus its ``None`` path.
_ENTRY_BYTES = _getsizeof(BufferEntry(0, 0.0)) + _getsizeof(None)
#: ``getsizeof`` of the ``(key, counter, entry)`` tuple a heap item is.
_HEAP_ITEM_BYTES = _getsizeof((0.0, 0, None))
_FLOAT_BYTES = _getsizeof(0.0)
_FLOAT_ONLY = {float}
_entry_fields = attrgetter("origin", "quantity", "birth_time", "path")


def _scalar_bytes(*columns: Sequence) -> Optional[int]:
    """``getsizeof`` summed over scalar columns; ``None`` if one is not scalar.

    The walk sizes scalars per reference but counts any other object once
    however often it is referenced, which a sum cannot do.
    """
    total = 0
    for column in columns:
        types = set(map(type, column))
        if types == _FLOAT_ONLY:  # every float has one size
            total += len(column) * _FLOAT_BYTES
        elif types <= SCALAR_TYPES:
            total += sum(map(_getsizeof, column))
        else:
            return None
    return total


def _entries_bytes(entries: Sequence[BufferEntry]) -> Optional[int]:
    """What ``deep_sizeof`` charges for distinct buffered ``entries``.

    An entry costs its object plus the ``getsizeof`` of each field.  ``None``
    when an entry has a path (the walk counts a tuple shared by several
    entries once) or a field the walk does not size per reference.
    """
    if not entries:
        return 0
    origins, quantities, births, paths = zip(*map(_entry_fields, entries))
    if paths.count(None) != len(paths):
        return None
    fields = _scalar_bytes(origins, quantities, births)
    if fields is None:
        return None
    return len(entries) * _ENTRY_BYTES + fields


class QuantityBuffer:
    """Base class for entry-based buffers (heap, FIFO, LIFO).

    Subclasses define the *selection order*: which stored entry is handed
    out next when quantity must leave the buffer.  The base class maintains
    the running total ``|B_v|`` and implements provenance extraction, which
    is identical for every entry-based policy.
    """

    __slots__ = ("_total",)

    def __init__(self) -> None:
        self._total = 0.0

    # -- interface to implement -----------------------------------------
    def push(self, entry: BufferEntry) -> None:
        """Add an entry to the buffer (updates the total)."""
        raise NotImplementedError

    def _peek(self) -> BufferEntry:
        """Return (without removing) the entry that would be selected next."""
        raise NotImplementedError

    def _pop(self) -> BufferEntry:
        """Remove and return the entry that would be selected next."""
        raise NotImplementedError

    def entries(self) -> Iterator[BufferEntry]:
        """Iterate over all stored entries (order unspecified)."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of stored entries."""
        raise NotImplementedError

    def _slot_bytes(self) -> Optional[int]:
        """``deep_sizeof`` of the subclass's own slot values, or ``None``.

        That is its container plus the stored items (entries, and a heap's
        item tuples); ``None`` when :func:`_entries_bytes` cannot sum them.
        """
        raise NotImplementedError

    # -- shared behaviour -------------------------------------------------
    @property
    def total(self) -> float:
        """The buffered quantity ``|B_v|``."""
        return self._total

    def is_empty(self) -> bool:
        return len(self) == 0 or self._total <= _EPSILON

    def drain(self, amount: float) -> List[BufferEntry]:
        """Remove up to ``amount`` of quantity in selection order.

        Returns the list of entries (splitting the last one if needed) whose
        quantities sum to ``min(amount, total)``.  This is the selection loop
        of Algorithm 2, shared by the generation-time and receipt-order
        policies.
        """
        if amount < 0:
            raise ValueError(f"drain amount must be non-negative, got {amount!r}")
        selected: List[BufferEntry] = []
        residue = amount
        while residue > _EPSILON and len(self) > 0:
            head = self._peek()
            if head.quantity > residue + _EPSILON:
                piece = head.split(residue)
                self._total -= residue
                selected.append(piece)
                residue = 0.0
            else:
                entry = self._pop()
                self._total -= entry.quantity
                residue -= entry.quantity
                selected.append(entry)
        if self._total < _EPSILON:
            self._total = 0.0
        return selected

    def memory_bytes(self) -> Optional[int]:
        """``deep_sizeof(self)``, exactly, without walking the entries.

        ``None`` when the buffer holds an entry that cannot be summed (see
        :func:`_entries_bytes`); callers then walk it.
        """
        held = self._slot_bytes()
        if held is None:
            return None
        return held + _getsizeof(self) + _getsizeof(self._total)

    def origins(self) -> OriginSet:
        """Aggregate the stored entries into an :class:`OriginSet`."""
        origin_set = OriginSet()
        for entry in self.entries():
            origin_set.add(entry.origin, entry.quantity)
        return origin_set

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(total={self._total:g}, entries={len(self)})"


class HeapBuffer(QuantityBuffer):
    """Buffer ordered by birth time, used by the generation-time policies.

    With ``oldest_first=True`` the buffer behaves as a min-heap (least
    recently born selection); with ``oldest_first=False`` as a max-heap
    (most recently born selection).  A monotonically increasing counter
    breaks timestamp ties deterministically.
    """

    __slots__ = ("_heap", "_oldest_first", "_counter")

    def __init__(self, oldest_first: bool = True) -> None:
        super().__init__()
        self._heap: List[Tuple[float, int, BufferEntry]] = []
        self._oldest_first = oldest_first
        self._counter = 0

    @property
    def oldest_first(self) -> bool:
        """True when the buffer selects the least recently born entry first."""
        return self._oldest_first

    def _key(self, entry: BufferEntry) -> float:
        return entry.birth_time if self._oldest_first else -entry.birth_time

    def push(self, entry: BufferEntry) -> None:
        heapq.heappush(self._heap, (self._key(entry), self._counter, entry))
        self._counter += 1
        self._total += entry.quantity

    def _peek(self) -> BufferEntry:
        return self._heap[0][2]

    def _pop(self) -> BufferEntry:
        return heapq.heappop(self._heap)[2]

    def entries(self) -> Iterator[BufferEntry]:
        return (item[2] for item in self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def _slot_bytes(self) -> Optional[int]:
        container = (
            _getsizeof(self._heap)
            + _getsizeof(self._oldest_first)
            + _getsizeof(self._counter)
        )
        if not self._heap:
            return container
        keys, orders, entries = zip(*self._heap)
        items = _scalar_bytes(keys, orders)
        held = _entries_bytes(entries)
        if items is None or held is None:
            return None
        return container + len(entries) * _HEAP_ITEM_BYTES + items + held


class FifoBuffer(QuantityBuffer):
    """Receipt-order buffer selecting the least recently *added* entry first."""

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        super().__init__()
        self._queue: Deque[BufferEntry] = deque()

    def push(self, entry: BufferEntry) -> None:
        self._queue.append(entry)
        self._total += entry.quantity

    def _peek(self) -> BufferEntry:
        return self._queue[0]

    def _pop(self) -> BufferEntry:
        return self._queue.popleft()

    def entries(self) -> Iterator[BufferEntry]:
        return iter(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def _slot_bytes(self) -> Optional[int]:
        held = _entries_bytes(self._queue)
        return None if held is None else _getsizeof(self._queue) + held


class LifoBuffer(QuantityBuffer):
    """Receipt-order buffer selecting the most recently *added* entry first."""

    __slots__ = ("_stack",)

    def __init__(self) -> None:
        super().__init__()
        self._stack: List[BufferEntry] = []

    def push(self, entry: BufferEntry) -> None:
        self._stack.append(entry)
        self._total += entry.quantity

    def _peek(self) -> BufferEntry:
        return self._stack[-1]

    def _pop(self) -> BufferEntry:
        return self._stack.pop()

    def entries(self) -> Iterator[BufferEntry]:
        return iter(self._stack)

    def __len__(self) -> int:
        return len(self._stack)

    def _slot_bytes(self) -> Optional[int]:
        held = _entries_bytes(self._stack)
        return None if held is None else _getsizeof(self._stack) + held
