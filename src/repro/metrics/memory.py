"""Deep memory estimation of provenance state.

The paper's Tables 8 and the memory curves of Figures 5-8 report the peak
memory consumed by the provenance annotations.  The authors' C
implementation measures process RSS; in Python, process-level numbers are
dominated by the interpreter, so this module instead *accounts* for the
objects actually reachable from a policy (buffers, heaps, dicts, numpy
arrays) with :func:`deep_sizeof`, and offers a :class:`MemoryCeiling`
observer that reproduces the "infeasible / out of memory" entries of the
paper without exhausting physical RAM.

The walk sizes scalars (``SCALAR_TYPES``) per reference wherever they sit:
in dicts, lists, tuples and object slots alike.  That rule makes the size
of an entry buffer a sum over its entries' fields, which the buffer takes
with a few C-level passes instead of one traversal step per entry
(:meth:`repro.core.buffer.QuantityBuffer.memory_bytes`), and the stores
report ``memory_bytes`` through :func:`counted_sizeof`, which charges such
self-reported sizes instead of walking what they cover.  :func:`deep_sizeof`
stays the definition: the tests check every reported size against it, byte
for byte.
"""

from __future__ import annotations

import sys
from collections import deque
from functools import lru_cache
from typing import Any, Callable, Optional, Set, Tuple

import numpy as np

from repro.exceptions import MemoryBudgetExceededError

__all__ = [
    "SCALAR_TYPES",
    "deep_sizeof",
    "counted_sizeof",
    "policy_memory_bytes",
    "MemoryCeiling",
    "format_bytes",
]


#: Leaf types whose size is just ``sys.getsizeof``, charged per reference:
#: handled inline in the container loops below so the million-float
#: provenance dicts never pay a per-element traversal frame.  ``bool`` is a
#: subclass of ``int`` and needs no separate entry; subclasses of these fall
#: through to the slow path, matching the old recursive ``isinstance``
#: behaviour.
SCALAR_TYPES = frozenset(
    (str, bytes, bytearray, int, float, complex, bool, type(None))
)


def deep_sizeof(obj: Any, *, _seen: Optional[Set[int]] = None) -> int:
    """Estimate the memory footprint of ``obj`` in bytes.

    Handles the container types used by the library (dict, list, tuple, set,
    deque, dataclass-like objects with ``__dict__`` or ``__slots__``) and
    numpy arrays (counted by ``nbytes`` plus object overhead).  Shared
    containers and arrays are counted once; scalar leaves are sized per
    reference, as container items and as slot values alike (deduplicating
    interned ints or floats would shave noise-level bytes at the cost of an
    id-set probe for every entry of every store).

    The traversal is an explicit work stack, and containers holding only
    scalars — provenance stores are overwhelmingly flat ``{vertex: float}``
    dicts — are sized with C-level ``map``/``sum`` passes instead of a
    Python-level loop per element.
    """
    return _walk(obj, _seen if _seen is not None else set(), counted=False)


def counted_sizeof(obj: Any) -> int:
    """:func:`deep_sizeof` of ``obj``, using the sizes objects report.

    Any object below ``obj`` with a ``memory_bytes()`` method that returns an
    int (an entry buffer, a store) is charged that number instead of being
    walked; one that returns ``None`` is walked as usual.  The result equals
    ``deep_sizeof(obj)`` whenever the reported sizes are exact, which the
    store tests check.  ``obj`` itself is always walked, so a store can
    define its own ``memory_bytes`` as ``counted_sizeof(self)``.
    """
    return _walk(obj, set(), counted=True)


def _walk(root: Any, seen: Set[int], *, counted: bool) -> int:
    seen_add = seen.add
    getsizeof = sys.getsizeof
    scalar_types = SCALAR_TYPES
    total = 0
    stack = [root]
    while stack:
        current = stack.pop()
        object_id = id(current)
        if object_id in seen:
            continue
        seen_add(object_id)

        if isinstance(current, np.ndarray):
            base = current.base
            if isinstance(base, np.ndarray):
                # A view (e.g. an arena row, or thousands of them) owns no
                # data: charge only the view object and push the backing
                # buffer, which the seen-set counts exactly once however
                # many views share it.  This is what keeps dense/mmap
                # arena accounting linear instead of per-view quadratic.
                total += getsizeof(current, 0)
                stack.append(base)
                continue
            if isinstance(base, np.memmap) or isinstance(current, np.memmap):
                # Memory-mapped buffers are file-backed pages, not heap:
                # count the object overhead, not nbytes (copy-on-write
                # pages that were actually dirtied are invisible from
                # here; the conservative choice keeps mmap resume from
                # instantly tripping memory ceilings sized for the heap).
                total += getsizeof(current, 0)
                continue
            total += int(current.nbytes) + getsizeof(current, 0)
            continue

        if isinstance(current, dict):
            total += getsizeof(current, 0)
            values = current.values()
            if (
                set(map(type, current)) <= scalar_types
                and set(map(type, values)) <= scalar_types
            ):
                total += sum(map(getsizeof, current)) + sum(map(getsizeof, values))
            else:
                for key, value in current.items():
                    if type(key) in scalar_types:
                        total += getsizeof(key, 0)
                    else:
                        stack.append(key)
                    if type(value) in scalar_types:
                        total += getsizeof(value, 0)
                    else:
                        stack.append(value)
            continue

        if isinstance(current, (list, tuple, set, frozenset, deque)):
            total += getsizeof(current, 0)
            if set(map(type, current)) <= scalar_types:
                total += sum(map(getsizeof, current))
            else:
                for item in current:
                    if type(item) in scalar_types:
                        total += getsizeof(item, 0)
                    else:
                        stack.append(item)
            continue

        if isinstance(
            current, (str, bytes, bytearray, int, float, complex, bool)
        ) or current is None:
            total += getsizeof(current, 0)
            continue

        if counted and current is not root:
            measure = getattr(current, "memory_bytes", None)
            if callable(measure):
                size = measure()
                if size is not None:
                    total += size
                    continue

        # Generic objects: follow __dict__ and __slots__ attributes.
        total += getsizeof(current, 0)
        obj_dict = getattr(current, "__dict__", None)
        if obj_dict is not None:
            stack.append(obj_dict)
        for slot in _all_slots(type(current)):
            if hasattr(current, slot):
                value = getattr(current, slot)
                if type(value) in scalar_types:
                    total += getsizeof(value, 0)
                else:
                    stack.append(value)
    return total


@lru_cache(maxsize=None)
def _all_slots(cls: type) -> Tuple[str, ...]:
    """The data ``__slots__`` declared along the MRO of ``cls``, once each.

    Reads each class's own ``__slots__`` (``getattr`` would hand a subclass
    without slots its parent's, counting them twice) and skips ``__dict__``,
    which the walk follows anyway, and ``__weakref__``.
    """
    names = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(name for name in slots if name not in ("__dict__", "__weakref__"))
    return tuple(names)


def policy_memory_bytes(policy: Any) -> int:
    """Estimated bytes consumed by a policy's *resident* provenance state.

    Walks the policy's stores like any other attribute, which makes the
    accounting store-aware for free: a spilling backend
    (:class:`repro.stores.SqliteStore`) only exposes its hot tier to the
    traversal, so entries spilled to disk do not count against memory
    ceilings — exactly the semantics that lets a spill-backed run stay
    feasible where the dict-backed equivalent exceeds the ceiling.
    """
    return deep_sizeof(policy)


def format_bytes(num_bytes: float) -> str:
    """Render a byte count with a binary unit suffix (KB, MB, GB)."""
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{value:.0f}{unit}"
            return f"{value:.2f}{unit}"
        value /= 1024.0
    return f"{value:.2f}TB"  # pragma: no cover - unreachable


class MemoryCeiling:
    """An engine observer that aborts a run when memory grows past a ceiling.

    Checking the deep size of a policy is itself expensive, so the check
    runs every ``check_every`` interactions.  When the ceiling is exceeded a
    :class:`~repro.exceptions.MemoryBudgetExceededError` is raised; the
    benchmark harness catches it and reports the configuration as
    infeasible, mirroring the "--" entries of Tables 7 and 8.
    """

    def __init__(
        self,
        ceiling_bytes: int,
        *,
        check_every: int = 1000,
        measure: Callable[[Any], int] = policy_memory_bytes,
    ) -> None:
        if ceiling_bytes <= 0:
            raise ValueError(f"ceiling_bytes must be positive, got {ceiling_bytes!r}")
        if check_every <= 0:
            raise ValueError(f"check_every must be positive, got {check_every!r}")
        self.ceiling_bytes = ceiling_bytes
        self.check_every = check_every
        self.measure = measure
        self.peak_bytes = 0

    def __call__(self, engine, interaction, position: int) -> None:
        if (position + 1) % self.check_every:
            return
        used = self.measure(engine.policy)
        self.peak_bytes = max(self.peak_bytes, used)
        if used > self.ceiling_bytes:
            raise MemoryBudgetExceededError(
                used_bytes=used,
                ceiling_bytes=self.ceiling_bytes,
                context=f"after {position + 1} interactions with policy "
                f"{engine.policy.describe()}",
            )
