"""Zero-copy shared-memory shard fabric for process-pool sharded runs.

The pickled process executor ships every shard whole — interaction objects,
column arrays, vertex tuples — through the fork boundary, once per run.
For the networks the paper targets that payload dwarfs the actual work
dispatch.  This module replaces it with a *shard fabric*:

* :class:`SharedBlockPool` via :func:`build_shared_plan` — the four
  ``InteractionBlock`` column arrays of every shard, plus one pickled copy
  of the :class:`~repro.core.blocks.VertexInterner` vertex table and the
  per-shard vertex lists, are placed into a single
  :mod:`multiprocessing.shared_memory` segment (an mmap-backed temp file
  where POSIX shared memory is unavailable).  The shard columns
  ``partition_network`` routed are copied in column by column.
* A **persistent worker pool** (:class:`ShardWorkerPool`) — workers fork
  once, attach each segment once, and then receive shard-index handle
  messages per run; repeated and streaming runs amortise fork+attach
  instead of paying it per run.  Dispatch payloads are
  ``(segment, offset, length, dtype)`` handles plus the (state-empty)
  policy — a few KB where the pickled path ships MBs.
* Worker-side zero-copy views — :func:`InteractionBlock` instances built
  with ``np.frombuffer`` over the attached segment, read-only, with the
  segment lease as their ``owner`` so plain refcounting keeps the mapping
  alive while any view exists.
* Zero-copy **result state** — a worker whose policy keeps dense state
  (:class:`~repro.stores.DenseNumpyStore` matrices, float-valued scalar
  maps such as the proportional policies' totals) packs it into a second
  segment and ships only the handle back; the parent adopts the matrix as
  a view (:meth:`DenseNumpyStore.adopt_packed`) instead of unpickling a
  copy.

Lifetime and crash safety: every segment name is generated by the parent
(including the per-shard result segments, which workers create on demand),
recorded in a process-local registry, unlinked as soon as the run is
merged, and force-unlinked by an ``atexit`` guard — so no ``/dev/shm``
segment survives a crashed run as long as the parent process gets to exit.
Results are bit-identical to serial and pickled-process runs for every
policy × store (``tests/runtime/test_shm_equivalence.py``).
"""

from __future__ import annotations

import atexit
import errno as _errno
import mmap as _mmap_module
import os
import pickle
import tempfile
import time as _time
from dataclasses import dataclass
from queue import Empty
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.blocks import InteractionBlock, VertexInterner
from repro.core.engine import ProvenanceEngine, RunStatistics
from repro.core.interaction import Vertex
from repro.exceptions import RunConfigurationError, SegmentAllocationError
from repro.policies.base import SelectionPolicy
from repro.runtime import faults as _faults
from repro.stores import StoreStats
from repro.stores.dense import DenseNumpyStore

__all__ = [
    "SegmentHandle",
    "ArraySpec",
    "BytesSpec",
    "BlockHandle",
    "PlanHandle",
    "ShardTask",
    "ShardOutcome",
    "StateHandle",
    "StreamOpen",
    "AppendTask",
    "SegmentLease",
    "ShardWorkerPool",
    "ShardStreamFabric",
    "WorkerCrashedError",
    "ShardQuarantinedError",
    "RespawnStormError",
    "shm_backend",
    "build_shared_plan",
    "attach_block",
    "run_shards_shared",
    "get_worker_pool",
    "shutdown_worker_pool",
    "active_segments",
]

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Force a segment backend for testing: ``None`` (autodetect), ``"shm"`` or
#: ``"mmap"``.  The mmap fallback is always available, so tests exercise it
#: by setting this rather than simulating a missing ``shared_memory`` module.
_FORCED_KIND: Optional[str] = None

try:  # pragma: no cover - availability depends on the platform build
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

if _shared_memory is not None:

    class _QuietSharedMemory(_shared_memory.SharedMemory):
        """A SharedMemory whose destructor tolerates still-exported views.

        Zero-copy blocks legitimately outlive the ``_Segment`` wrapper (the
        lease closes the mapping only when the last view dies); the stock
        destructor would print ``BufferError: cannot close exported
        pointers exist`` on every such segment.  Memory is reclaimed when
        the views release the buffer, and the *name* is always removed by
        an explicit ``unlink`` — suppressing the destructor close is safe.
        """

        def __del__(self):
            try:
                super().__del__()
            except BufferError:
                pass

else:  # pragma: no cover - mmap-only platforms
    _QuietSharedMemory = None


def shm_backend() -> str:
    """The segment backend in use: ``"shm"`` or the ``"mmap"`` fallback."""
    if _FORCED_KIND is not None:
        return _FORCED_KIND
    return "shm" if _shared_memory is not None else "mmap"


# ----------------------------------------------------------------------
# picklable handles (what actually crosses the fork boundary)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentHandle:
    """Name of a shared segment: enough for any process to attach it."""

    kind: str  # "shm" | "mmap"
    name: str  # shm segment name, or the basename of the mmap backing file
    size: int


@dataclass(frozen=True)
class ArraySpec:
    """One flat array inside a segment: ``(offset, count, dtype)``."""

    offset: int
    count: int
    dtype: str


@dataclass(frozen=True)
class BytesSpec:
    """One raw byte region inside a segment (pickled metadata)."""

    offset: int
    length: int


@dataclass(frozen=True)
class BlockHandle:
    """One shard's interaction columns inside the plan segment."""

    rows: int
    src: ArraySpec
    dst: ArraySpec
    times: ArraySpec
    quantities: ArraySpec


@dataclass(frozen=True)
class PlanHandle:
    """Everything a worker needs to reconstruct any shard of a plan."""

    segment: SegmentHandle
    meta: BytesSpec  # pickled {"table": [...], "shard_vertices": [...]}
    blocks: Tuple[BlockHandle, ...]


@dataclass(frozen=True)
class MatrixSpec:
    """A packed 2-D float64 matrix inside a state segment."""

    offset: int
    rows: int
    dim: int


@dataclass(frozen=True)
class StateHandle:
    """Zero-copy policy state a worker exported for the parent to adopt."""

    segment: SegmentHandle
    meta: BytesSpec  # pickled {"dense": {role: keys}, "scalars": {role: keys}}
    dense: Mapping[str, MatrixSpec]
    scalars: Mapping[str, ArraySpec]


@dataclass
class ShardTask:
    """One shard-run dispatch message (everything except the bulk data)."""

    shard_index: int
    policy: SelectionPolicy
    batch_size: int = 0
    sample_every: int = 0
    #: Pre-declared name of the segment the worker may export dense result
    #: state into; the parent owns (and can force-clean) the name either way.
    state_kind: str = "shm"
    state_name: Optional[str] = None
    #: Fault-injection directive resolved by the dispatcher for THIS attempt
    #: (``("kill",)`` / ``("delay", seconds)``); executed by the worker on
    #: receipt.  Always ``None`` outside chaos tests.
    fault: Optional[Tuple] = None


@dataclass
class ShardOutcome:
    """What a worker sends back: statistics plus (state-light) policy."""

    shard_index: int
    statistics: RunStatistics
    last_time: Optional[float]
    store_stats: Dict[str, StoreStats]
    policy: SelectionPolicy
    state: Optional[StateHandle] = None
    kernel_stats: Optional[Dict[str, object]] = None


@dataclass(frozen=True)
class StreamOpen:
    """Open one resident per-shard streaming session in a pool worker.

    The worker attaches the shard's ring segments once, restores the
    session from ``base`` and opens an
    :meth:`~repro.core.engine.ProvenanceEngine.stream_run`; everything that
    follows is incremental :class:`AppendTask` messages.
    """

    stream_id: str
    shard_index: int
    #: The pickled state the session starts from, in the one recovery-base
    #: format: a checkpoint state dict (``policy``, ``table`` — the initial
    #: vertex table, which appends extend — ``interactions_processed`` and
    #: ``current_time``), as a worker's commit produces it.  A fresh
    #: session's base carries ``universe`` instead of the counters, and its
    #: policy is reset with it: ``Shard.universe()`` for dataset-backed
    #: streams, empty for pure live sources (matching the single-consumer
    #: scheduler, which resets with no universe either).
    base: bytes
    #: The shard's ring of reusable column segments, slot order.
    ring: Tuple[SegmentHandle, ...]
    #: Column layout shared by every ring slot (``capacity`` rows each).
    layout: BlockHandle
    capacity: int
    sample_every: int = 0
    state_kind: str = "shm"
    state_name: Optional[str] = None


@dataclass(frozen=True)
class AppendTask:
    """One micro-batch append: columns are already in ring slot ``slot``."""

    stream_id: str
    slot: int
    rows: int
    #: Vertices interned by the parent since the last message to this shard
    #: — the incremental extension of the session's vertex table.
    new_vertices: Tuple[Vertex, ...] = ()
    #: Fault-injection directive for this append attempt (see
    #: :class:`ShardTask.fault`); ``None`` outside chaos tests.
    fault: Optional[Tuple] = None


class WorkerCrashedError(RuntimeError):
    """A pool worker died (crashed or was killed) while running a shard."""


class ShardQuarantinedError(WorkerCrashedError):
    """A shard deterministically crashed its worker past the retry budget.

    The supervisor respawned the worker and re-dispatched the shard up to
    ``max_task_retries`` times; every attempt died.  Retrying further would
    loop, so the shard is quarantined and the run fails fast.
    ``diagnostics`` carries one dict per quarantined shard
    (``shard``/``attempts``/``crashes``) for the error report.
    """

    def __init__(self, message: str, diagnostics: List[Dict[str, Any]]):
        super().__init__(message)
        self.diagnostics = diagnostics


class RespawnStormError(WorkerCrashedError):
    """Workers die faster than supervision makes progress (infrastructure).

    Unlike a quarantine (one poisoned shard), a respawn storm points at the
    environment — under ``RunConfig(degradation="auto")`` the runner reacts
    by demoting the run off the shm fabric.
    """


class WorkerTaskError(RuntimeError):
    """A shard task failed remotely with an exception that cannot pickle."""


class _RecoveryInterrupt(BaseException):
    """Internal: a worker died while another loss was being recovered.

    Unwinds the in-progress (idempotent) replay back to the recovery
    driver, which queues the new loss and restarts.  ``BaseException`` so
    no intermediate handler can accidentally swallow it.
    """


# ----------------------------------------------------------------------
# segments: creation, attachment, cleanup registry
# ----------------------------------------------------------------------
_ALIGN = 8

#: Segments created (and not yet unlinked) by THIS process, for the atexit
#: guard.  Workers clear the inherited copy on startup and hand ownership of
#: their export segments to the parent, so exactly one process is ever
#: responsible for a name.
_CREATED: set = set()

_NAME_COUNTER = 0


def _segment_name(suffix: str = "") -> str:
    """A short unique segment name (macOS caps names at 31 chars)."""
    global _NAME_COUNTER
    _NAME_COUNTER += 1
    return f"rp{os.getpid():x}x{_NAME_COUNTER:x}{suffix}"


def _mmap_path(name: str) -> str:
    return os.path.join(tempfile.gettempdir(), name)


class _Segment:
    """A mapped shared segment, uniform over the shm and mmap backends."""

    __slots__ = ("kind", "name", "size", "buf", "_shm", "_mmap", "_owns")

    def __init__(self, kind, name, size, buf, shm=None, mm=None, owns=False):
        self.kind = kind
        self.name = name
        self.size = size
        self.buf = buf
        self._shm = shm
        self._mmap = mm
        self._owns = owns

    @property
    def handle(self) -> SegmentHandle:
        return SegmentHandle(self.kind, self.name, self.size)

    def close(self) -> None:
        """Drop this process's mapping (BufferError if views are alive)."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None
        elif self._mmap is not None:
            self._mmap.close()
            self._mmap = None

    def close_quietly(self) -> None:
        """Best-effort :meth:`close`; live views just defer to GC."""
        try:
            self.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        """Remove the segment's name; existing mappings stay valid."""
        _CREATED.discard((self.kind, self.name))
        if self.kind == "shm":
            if self._shm is not None:
                try:
                    self._shm.unlink()
                except FileNotFoundError:
                    pass
            else:  # mapping already dropped; remove the name directly
                _force_unlink(self.kind, self.name)
        else:
            try:
                os.unlink(_mmap_path(self.name))
            except FileNotFoundError:
                pass


def _create_segment(
    size: int, *, name: Optional[str] = None, kind: Optional[str] = None
) -> _Segment:
    kind = kind or shm_backend()
    name = name or _segment_name()
    size = max(size, 1)
    # Fault-injection seam: an armed FaultPlan can fail this allocation
    # exactly as the OS would with /dev/shm full.
    _faults.check_segment_alloc(name)
    if kind == "shm":
        try:
            shm = _QuietSharedMemory(name=name, create=True, size=size)
        except OSError as error:
            _raise_if_allocation_failure(error, name, size)
            raise
        segment = _Segment(kind, name, size, shm.buf, shm=shm, owns=True)
    else:
        path = _mmap_path(name)
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        try:
            try:
                os.ftruncate(fd, size)
                mm = _mmap_module.mmap(fd, size)
            except OSError as error:
                try:
                    os.unlink(path)
                except OSError:
                    pass
                _raise_if_allocation_failure(error, name, size)
                raise
        finally:
            os.close(fd)
        segment = _Segment(kind, name, size, memoryview(mm), mm=mm, owns=True)
    _CREATED.add((kind, name))
    return segment


def _raise_if_allocation_failure(error: OSError, name: str, size: int) -> None:
    """Re-raise capacity errors as :class:`SegmentAllocationError`.

    Only genuine resource exhaustion qualifies (full /dev/shm or tmpdir, no
    memory, fd limit) — name collisions and permission errors stay what
    they are, because retrying them on a different transport cannot help.
    """
    if error.errno in (_errno.ENOSPC, _errno.ENOMEM, _errno.EMFILE, _errno.ENFILE):
        raise SegmentAllocationError(
            error.errno,
            f"cannot allocate {size}-byte shared segment {name!r}: "
            f"{error.strerror or error}",
        ) from error


def _attach_segment(handle: SegmentHandle) -> _Segment:
    if handle.kind == "shm":
        if _shared_memory is None:  # pragma: no cover - mismatched processes
            raise RunConfigurationError(
                "cannot attach a shared_memory segment: module unavailable"
            )
        shm = _QuietSharedMemory(name=handle.name)
        return _Segment(handle.kind, handle.name, shm.size, shm.buf, shm=shm)
    path = _mmap_path(handle.name)
    fd = os.open(path, os.O_RDWR)
    try:
        size = os.fstat(fd).st_size
        mm = _mmap_module.mmap(fd, size)
    finally:
        os.close(fd)
    return _Segment(handle.kind, handle.name, size, memoryview(mm), mm=mm)


def _force_unlink(kind: str, name: str) -> None:
    """Remove a segment by name without needing a mapping (idempotent)."""
    _CREATED.discard((kind, name))
    if kind == "shm":
        if _shared_memory is None:  # pragma: no cover
            return
        try:
            segment = _QuietSharedMemory(name=name)
        except (FileNotFoundError, OSError):
            return
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - unlink race
            pass
        segment.close()
    else:
        try:
            os.unlink(_mmap_path(name))
        except OSError:
            pass


def active_segments() -> List[Tuple[str, str]]:
    """Segments this process created and has not yet unlinked (leak probe)."""
    return sorted(_CREATED)


def _cleanup_created_segments() -> None:
    for kind, name in list(_CREATED):
        _force_unlink(kind, name)


atexit.register(_cleanup_created_segments)


class SegmentLease:
    """Keeps a segment mapping alive while zero-copy views reference it.

    Handed to :class:`InteractionBlock` views and adopted
    :class:`DenseNumpyStore` matrices as their ``owner``: ordinary Python
    refcounting then guarantees the mapping outlives every view, and the
    mapping is dropped (best-effort) when the last holder dies.
    """

    __slots__ = ("_segment",)

    def __init__(self, segment: _Segment):
        self._segment = segment

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self._segment.close_quietly()
        except Exception:
            pass


def _ndarray(segment: _Segment, spec: ArraySpec, *, writable: bool = False) -> np.ndarray:
    array = np.frombuffer(
        segment.buf, dtype=np.dtype(spec.dtype), count=spec.count, offset=spec.offset
    )
    if not writable:
        read_only = array[:]
        read_only.flags.writeable = False
        return read_only
    return array


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ----------------------------------------------------------------------
# plan segment: parent-side build, worker-side attach
# ----------------------------------------------------------------------
def _layout_blocks(row_counts: Sequence[int]) -> Tuple[List[BlockHandle], int]:
    """Column layout for a list of shard row counts; returns (handles, end)."""
    offset = 0
    handles: List[BlockHandle] = []
    for rows in row_counts:
        specs = []
        for dtype, itemsize in (("int32", 4), ("int32", 4), ("float64", 8), ("float64", 8)):
            offset = _aligned(offset)
            specs.append(ArraySpec(offset, rows, dtype))
            offset += rows * itemsize
        handles.append(BlockHandle(rows, *specs))
    return handles, offset


def build_shared_plan(plan):
    """Materialise a partition plan's shard columns into one shared segment.

    Returns ``(segment, handle)``.  Two sources, in preference order:

    1. shard blocks already attached to the plan (``partition_network``
       routes them with one vectorised fancy-index at partition time) —
       copied column-wise into the segment, no membership recomputation.
    2. the shards' interaction objects — columnarised against one fresh
       shared interner (the object-only path; slower, but keeps
       ``run_shards(shared_memory=True)`` available for hand-built plans
       whose shards carry no block).
    """
    shards = plan.shards
    if shards and all(shard.block is not None for shard in shards):
        shard_blocks = [shard.block for shard in shards]
        interner = shard_blocks[0].interner
    else:
        interner = VertexInterner()
        shard_blocks = [
            InteractionBlock.from_interactions(shard.interactions, interner)
            for shard in shards
        ]
    row_counts = [len(b) for b in shard_blocks]

    handles, columns_end = _layout_blocks(row_counts)
    meta_bytes = pickle.dumps(
        {
            "table": interner.vertices,
            "shard_vertices": [shard.vertices for shard in shards],
        },
        protocol=_PROTOCOL,
    )
    meta_offset = _aligned(columns_end)
    segment = _create_segment(meta_offset + len(meta_bytes))
    segment.buf[meta_offset : meta_offset + len(meta_bytes)] = meta_bytes

    for block_handle, source in zip(handles, shard_blocks):
        np.copyto(_ndarray(segment, block_handle.src, writable=True), source.src_ids)
        np.copyto(_ndarray(segment, block_handle.dst, writable=True), source.dst_ids)
        np.copyto(_ndarray(segment, block_handle.times, writable=True), source.times)
        np.copyto(
            _ndarray(segment, block_handle.quantities, writable=True), source.quantities
        )

    handle = PlanHandle(
        segment=segment.handle,
        meta=BytesSpec(meta_offset, len(meta_bytes)),
        blocks=tuple(handles),
    )
    return segment, handle


class _AttachedPlan:
    """Worker-side cache entry: one attached plan segment plus metadata."""

    __slots__ = ("segment", "lease", "table", "shard_vertices", "interner")

    def __init__(self, handle: PlanHandle):
        self.segment = _attach_segment(handle.segment)
        self.lease = SegmentLease(self.segment)
        meta = pickle.loads(
            bytes(self.segment.buf[handle.meta.offset : handle.meta.offset + handle.meta.length])
        )
        self.table: List[Vertex] = meta["table"]
        self.shard_vertices: List[Tuple[Vertex, ...]] = meta["shard_vertices"]
        self.interner = VertexInterner()
        self.interner.restore(self.table)


def attach_block(attached: "_AttachedPlan", handle: BlockHandle) -> InteractionBlock:
    """A zero-copy, read-only block view over an attached plan segment."""
    return InteractionBlock(
        _ndarray(attached.segment, handle.src),
        _ndarray(attached.segment, handle.dst),
        _ndarray(attached.segment, handle.times),
        _ndarray(attached.segment, handle.quantities),
        attached.interner,
        owner=attached.lease,
    )


def _shard_universe(
    vertices: Sequence[Vertex], block: InteractionBlock, table: Sequence[Vertex]
) -> Tuple[Vertex, ...]:
    """Reproduce ``Shard.universe()`` from the shard's block view.

    Same iteration order — the shard's own vertices in registration order,
    then each interaction's source before its destination, row by row — so
    dense policies see exactly the universe an object run would.
    """
    from repro.runtime.partition import block_universe

    return block_universe(vertices, block.src_ids, block.dst_ids, table)


# ----------------------------------------------------------------------
# zero-copy result state (dense matrices + scalar float maps)
# ----------------------------------------------------------------------
def _export_shared_state(
    policy: SelectionPolicy, kind: str, name: str
) -> Optional[StateHandle]:
    """Pack a policy's array-friendly state into a fresh shared segment.

    Dense arenas (:class:`DenseNumpyStore` contents) are gathered with one
    fancy-indexed row copy straight into the segment view; dict-backed
    stores holding pure float values (buffer/generated totals) become a
    float64 column plus a pickled key list.  Packed stores
    are cleared afterwards so the policy pickles back to the parent with a
    near-empty state; everything else (entry buffers, sparse vectors,
    spill stores) stays in the pickle unchanged.  Returns ``None`` when the
    policy holds nothing worth packing.
    """
    stores = policy.stores()
    dense_stores: Dict[str, DenseNumpyStore] = {}
    scalar_stores: Dict[str, dict] = {}
    for role, store in stores.items():
        if isinstance(store, DenseNumpyStore) and len(store):
            dense_stores[role] = store
            continue
        raw = store.raw_dict()
        if raw and all(type(value) is float for value in raw.values()):
            scalar_stores[role] = raw
    if not dense_stores and not scalar_stores:
        return None

    offset = 0
    dense_specs: Dict[str, MatrixSpec] = {}
    for role, store in dense_stores.items():
        offset = _aligned(offset)
        dense_specs[role] = MatrixSpec(offset, len(store), store.dimension)
        offset += len(store) * store.dimension * 8
    scalar_specs: Dict[str, ArraySpec] = {}
    for role, raw in scalar_stores.items():
        offset = _aligned(offset)
        scalar_specs[role] = ArraySpec(offset, len(raw), "float64")
        offset += len(raw) * 8

    # Key lists are known up front (pack_rows writes in key-insertion
    # order), so the metadata — and with it the final segment size — is
    # computed before creation: exactly one segment, under the name the
    # parent pre-declared, which is what makes crash cleanup airtight.
    meta = {
        "dense": {role: list(store.keys()) for role, store in dense_stores.items()},
        "scalars": {role: list(raw) for role, raw in scalar_stores.items()},
    }
    meta_bytes = pickle.dumps(meta, protocol=_PROTOCOL)
    meta_offset = _aligned(offset)
    segment = _create_segment(meta_offset + len(meta_bytes), name=name, kind=kind)
    for role, store in dense_stores.items():
        spec = dense_specs[role]
        matrix = np.frombuffer(
            segment.buf, dtype=np.float64, count=spec.rows * spec.dim, offset=spec.offset
        ).reshape(spec.rows, spec.dim)
        store.pack_rows(matrix)
        store.clear()
    for role, raw in scalar_stores.items():
        values = _ndarray(segment, scalar_specs[role], writable=True)
        values[:] = np.fromiter(raw.values(), dtype=np.float64, count=len(raw))
        raw.clear()
    segment.buf[meta_offset : meta_offset + len(meta_bytes)] = meta_bytes
    handle = StateHandle(
        segment=segment.handle,
        meta=BytesSpec(meta_offset, len(meta_bytes)),
        dense=dict(dense_specs),
        scalars=dict(scalar_specs),
    )
    # Ownership of the name belongs to the parent (which pre-declared it and
    # cleans it up); this process must not unlink it at exit.
    _CREATED.discard((segment.kind, segment.name))
    segment.close_quietly()
    return handle


def _adopt_shared_state(policy: SelectionPolicy, handle: StateHandle) -> None:
    """Re-attach a worker-exported state segment into the parent's policy.

    Dense matrices are adopted zero-copy: the segment view is installed
    *as the store arena* (:meth:`DenseNumpyStore.adopt_packed`, an O(1)
    pointer swap with the lease as lifetime owner); scalar float maps are
    rebuilt into their dict stores in the original insertion order.  Safe
    to call before the segment is unlinked; views stay valid afterwards
    because the lease keeps the mapping open.
    """
    segment = _attach_segment(handle.segment)
    lease = SegmentLease(segment)
    meta = pickle.loads(
        bytes(segment.buf[handle.meta.offset : handle.meta.offset + handle.meta.length])
    )
    stores = policy.stores()
    for role, spec in handle.dense.items():
        matrix = np.frombuffer(
            segment.buf, dtype=np.float64, count=spec.rows * spec.dim, offset=spec.offset
        ).reshape(spec.rows, spec.dim)
        stores[role].adopt_packed(meta["dense"][role], matrix, owner=lease)
    for role, spec in handle.scalars.items():
        raw = stores[role].raw_dict()
        raw.update(zip(meta["scalars"][role], _ndarray(segment, spec).tolist()))


# ----------------------------------------------------------------------
# worker-side streaming sessions
# ----------------------------------------------------------------------
class _StreamSession:
    """One shard's resident streaming state inside a pool worker.

    Holds the attached ring segments, the session vertex table (extended
    incrementally by appends), the engine with its policy, and the open
    :class:`~repro.core.engine.EngineStreamRun` whose cumulative clipping
    makes the concatenation of all fed batches one logical run.
    """

    __slots__ = (
        "shard_index",
        "segments",
        "leases",
        "layout",
        "capacity",
        "interner",
        "policy",
        "engine",
        "run",
        "state_kind",
        "state_name",
        "batches",
    )

    def __init__(self, message: StreamOpen) -> None:
        self.shard_index = message.shard_index
        self.segments = [_attach_segment(handle) for handle in message.ring]
        self.leases = [SegmentLease(segment) for segment in self.segments]
        self.layout = message.layout
        self.capacity = message.capacity
        base = pickle.loads(message.base)
        self.interner = VertexInterner()
        self.interner.restore(list(base["table"]))
        policy = base["policy"]
        self.policy = policy
        engine = ProvenanceEngine(policy)
        if "universe" in base:
            policy.reset(base["universe"])
        else:
            # The policy arrives carrying its committed state; only the
            # engine counters need restoring, exactly like
            # ``engine_from_checkpoint`` on the single-consumer path.
            engine._interactions_processed = int(base["interactions_processed"])
            engine._last_time = base["current_time"]
        self.engine = engine
        self.run = engine.stream_run(sample_every=message.sample_every)
        self.state_kind = message.state_kind
        self.state_name = message.state_name
        self.batches = 0

    def append(self, task: AppendTask) -> int:
        _apply_worker_fault(task.fault)
        intern = self.interner.intern
        for vertex in task.new_vertices:
            intern(vertex)
        segment = self.segments[task.slot]
        layout = self.layout
        rows = task.rows
        block = InteractionBlock(
            _ndarray(segment, layout.src)[:rows],
            _ndarray(segment, layout.dst)[:rows],
            _ndarray(segment, layout.times)[:rows],
            _ndarray(segment, layout.quantities)[:rows],
            self.interner,
            owner=self.leases[task.slot],
        )
        self.run.feed(block)
        self.batches += 1
        return rows

    def commit(self) -> Tuple[bytes, int]:
        """The session's checkpoint state, pickled once, and its processed
        count.

        The bytes are a recovery base (``StreamOpen.base``) that the parent
        keeps opaque; it unpickles them only to write a checkpoint
        manifest.  The policy pickles via its ``__getstate__``, which
        flushes columnar mirrors first.
        """
        state = self.engine.checkpoint_state()
        state["table"] = self.interner.snapshot()
        state["batches"] = self.batches
        state_bytes = pickle.dumps(state, protocol=_PROTOCOL)
        return state_bytes, self.engine.interactions_processed

    def finish(self) -> ShardOutcome:
        statistics = self.run.finish()
        store_stats = self.policy.store_stats()
        state = None
        if self.state_name is not None:
            state = _export_shared_state(self.policy, self.state_kind, self.state_name)
        outcome = ShardOutcome(
            shard_index=self.shard_index,
            statistics=statistics,
            last_time=self.engine.current_time,
            store_stats=store_stats,
            policy=self.policy,
            state=state,
            kernel_stats=self.engine.kernel_stats(),
        )
        self.close()
        return outcome

    def close(self) -> None:
        for segment in self.segments:
            segment.close_quietly()
        self.segments = []
        self.leases = []


def _execute_stream_message(kind: str, body: bytes, sessions: Dict[str, _StreamSession]):
    if kind == "stream_open":
        message: StreamOpen = pickle.loads(body)
        sessions[message.stream_id] = _StreamSession(message)
        return ("opened", message.shard_index)
    if kind == "stream_append":
        task: AppendTask = pickle.loads(body)
        rows = sessions[task.stream_id].append(task)
        return ("ack", task.stream_id, task.slot, rows)
    if kind == "stream_state":
        stream_id = pickle.loads(body)
        return sessions[stream_id].commit()
    if kind == "stream_finish":
        stream_id = pickle.loads(body)
        session = sessions.pop(stream_id)
        return ("finished", session.finish())
    raise RunConfigurationError(f"unknown stream message {kind!r}")


# ----------------------------------------------------------------------
# worker loop
# ----------------------------------------------------------------------
def _apply_worker_fault(fault: Optional[Tuple]) -> None:
    """Execute a dispatcher-resolved fault directive inside the worker.

    ``("kill",)`` dies exactly like a segfaulting worker (no cleanup, no
    reply); ``("delay", seconds)`` stalls the task to exercise dispatcher
    patience.  Directives only ever appear when a chaos test armed a
    :class:`repro.runtime.faults.FaultPlan` in the dispatching process.
    """
    if not fault:
        return
    if fault[0] == "kill":
        os._exit(137)
    elif fault[0] == "delay":
        _time.sleep(float(fault[1]))


def _execute_task(
    plan_handle: PlanHandle, task: ShardTask, attachments: Dict[str, _AttachedPlan]
) -> ShardOutcome:
    _apply_worker_fault(task.fault)
    attached = attachments.get(plan_handle.segment.name)
    if attached is None:
        attached = _AttachedPlan(plan_handle)
        attachments[plan_handle.segment.name] = attached
    block = attach_block(attached, plan_handle.blocks[task.shard_index])
    universe = _shard_universe(
        attached.shard_vertices[task.shard_index], block, attached.table
    )
    policy = task.policy
    engine = ProvenanceEngine(policy)
    policy.reset(universe)
    statistics = engine.run(
        block,
        reset=False,
        sample_every=task.sample_every,
        batch_size=task.batch_size,
    )
    store_stats = policy.store_stats()
    state = None
    if task.state_name is not None:
        state = _export_shared_state(policy, task.state_kind, task.state_name)
    return ShardOutcome(
        shard_index=task.shard_index,
        statistics=statistics,
        last_time=engine.current_time,
        store_stats=store_stats,
        policy=policy,
        state=state,
        kernel_stats=engine.kernel_stats(),
    )


def _pool_worker_main(task_queue, result_queue) -> None:
    """Persistent worker: attach segments once, serve shard tasks forever."""
    # The forked copy of the parent's registry must not trigger this
    # worker's atexit guard — the parent owns those segments.
    _CREATED.clear()
    attachments: Dict[str, _AttachedPlan] = {}
    sessions: Dict[str, _StreamSession] = {}
    while True:
        message = task_queue.get()
        kind = message[0]
        if kind == "stop":
            break
        if kind == "release":
            for name in message[1]:
                attached = attachments.pop(name, None)
                if attached is not None:
                    attached.segment.close_quietly()
            continue
        if kind == "stream_multi":
            # A coalesced batch of stream messages: one queue wake-up, one
            # combined reply.  Executed strictly in order; an error drops
            # the rest of the batch (the stream is torn down anyway) but
            # still reaches the parent tagged with its message id.
            replies = []
            for sub_kind, sub_id, sub_body in pickle.loads(message[2]):
                try:
                    replies.append(
                        ("ok", sub_id, _execute_stream_message(sub_kind, sub_body, sessions))
                    )
                except BaseException as error:  # noqa: BLE001 - forwarded
                    try:
                        pickle.dumps(error, protocol=_PROTOCOL)
                    except Exception:
                        import traceback

                        error = WorkerTaskError(traceback.format_exc())
                    replies.append(("error", sub_id, error))
                    break
            result_queue.put(pickle.dumps(("multi", 0, replies), protocol=_PROTOCOL))
            continue
        _, task_id, body = message
        try:
            if kind == "run":
                plan_handle, task = pickle.loads(body)
                outcome = _execute_task(plan_handle, task, attachments)
            else:
                outcome = _execute_stream_message(kind, body, sessions)
            payload = pickle.dumps(("ok", task_id, outcome), protocol=_PROTOCOL)
        except BaseException as error:  # noqa: BLE001 - forwarded to parent
            try:
                payload = pickle.dumps(("error", task_id, error), protocol=_PROTOCOL)
            except Exception:
                import traceback

                payload = pickle.dumps(
                    ("error", task_id, WorkerTaskError(traceback.format_exc())),
                    protocol=_PROTOCOL,
                )
        result_queue.put(payload)
    for attached in attachments.values():
        attached.segment.close_quietly()
    for session in sessions.values():
        session.close()


# ----------------------------------------------------------------------
# the persistent pool
# ----------------------------------------------------------------------
class _ResultChannel:
    """The workers' shared reply pipe to the parent, written synchronously.

    A worker writes each (already pickled) reply in its own thread, under a
    cross-process lock, before it reads its next task.  A worker that dies
    while running a task (a crash, or an injected kill) therefore never
    holds the lock nor leaves half a reply in the pipe.  Not a
    ``multiprocessing.Queue``: its writes run on a feeder thread that such a
    death can cut off mid-write, leaving every other worker blocked on the
    lock and the parent waiting for replies forever.
    """

    def __init__(self, ctx) -> None:
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._lock = ctx.Lock()

    def put(self, payload: bytes) -> None:
        with self._lock:
            self._writer.send_bytes(payload)

    def get(self, timeout: Optional[float] = None) -> bytes:
        """The next reply; raises :class:`queue.Empty` after ``timeout``."""
        if not self._reader.poll(timeout):
            raise Empty
        return self._reader.recv_bytes()

    def get_nowait(self) -> bytes:
        return self.get(0)


class ShardWorkerPool:
    """A persistent process pool speaking shard-handle messages.

    Each worker owns a private task queue (so segment-release broadcasts
    reach every worker deterministically) and shares one result channel.
    Workers survive across runs — segments are attached once per run and
    the fork cost is paid once per pool, which is what makes repeated and
    streaming sharded runs cheap.
    """

    def __init__(self, context=None):
        import multiprocessing
        import threading

        self._ctx = context or multiprocessing.get_context()
        self._workers: List[Tuple[Any, Any]] = []  # (process, task_queue)
        self._results = _ResultChannel(self._ctx)
        self._task_counter = 0
        self._closed = False
        # One run at a time per pool: concurrent consumers of the shared
        # result queue would steal each other's outcomes.  Concurrent
        # threads would contend for the same workers anyway, so serialising
        # dispatch is the honest semantics (the pickled executor pays a
        # fresh pool per run instead).
        self._dispatch_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------
    @property
    def alive_workers(self) -> int:
        return sum(1 for process, _queue in self._workers if process.is_alive())

    def ensure_workers(self, count: int) -> None:
        """Grow the pool to ``count`` live workers, replacing dead ones."""
        if self._closed:
            raise RunConfigurationError("worker pool is closed")
        if _shared_memory is not None:
            # Start the parent's resource tracker BEFORE forking: workers
            # then inherit its pipe and their segment (un)registrations land
            # in the same tracker as the parent's unlinks.  A worker that
            # lazily spawned its own tracker would warn about "leaked"
            # segments the parent already cleaned up.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # pragma: no cover - tracker internals moved
                pass
        self._workers = [
            (process, queue) for process, queue in self._workers if process.is_alive()
        ]
        while len(self._workers) < count:
            self._workers.append(self._spawn_worker(len(self._workers)))

    def _spawn_worker(self, index: int) -> Tuple[Any, Any]:
        queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(queue, self._results),
            daemon=True,
            name=f"repro-shard-worker-{index}",
        )
        process.start()
        return process, queue

    def _respawn_worker(self, index: int) -> None:
        """Replace the (dead) worker at slot ``index`` with a fresh process.

        The replacement gets a fresh task queue — messages buffered for the
        dead worker are deliberately orphaned, because the supervisor
        re-dispatches everything the dead worker had not answered.
        """
        _old_process, old_queue = self._workers[index]
        self._workers[index] = self._spawn_worker(index)
        try:
            old_queue.close()
        except Exception:  # pragma: no cover - teardown race
            pass

    def close(self, *, join_timeout: float = 5.0) -> None:
        """Stop every worker; queued segments are released by worker exit.

        Shutdown escalates and can never hang: cooperative stop, then
        ``join(join_timeout)``, then SIGTERM, then SIGKILL with a final
        blocking join (SIGKILL fells even a SIGSTOPped worker, so the last
        join always returns).
        """
        if self._closed:
            return
        self._closed = True
        for process, queue in self._workers:
            if process.is_alive():
                try:
                    queue.put(("stop",))
                except Exception:  # pragma: no cover - teardown race
                    pass
        for process, _queue in self._workers:
            process.join(timeout=join_timeout)
            if process.is_alive():  # stuck worker: escalate
                process.terminate()
                process.join(timeout=join_timeout)
            if process.is_alive():  # SIGTERM blocked/stopped: go nuclear
                process.kill()
                process.join()
        self._workers = []

    # -- dispatch -------------------------------------------------------
    def run_tasks(
        self,
        plan_handle: PlanHandle,
        tasks: Sequence[ShardTask],
        *,
        max_retries: int = 0,
        retry_backoff: float = 0.0,
        fault_stats: Optional[Dict[str, Any]] = None,
    ) -> Tuple[List[ShardOutcome], int]:
        """Run every task (round-robin over workers); returns (outcomes, bytes).

        ``bytes`` is the exact number of dispatch-payload bytes that crossed
        the fork boundary (the tasks are pickled here, once per attempt, and
        shipped as opaque bytes).

        Supervision: when a worker dies mid-run, its slot is respawned and
        every task it had not answered is re-dispatched, up to
        ``max_retries`` extra attempts per shard with exponential
        ``retry_backoff``.  A shard whose every attempt crashes its worker
        is quarantined: no further retries anywhere, the remaining live
        workers are drained, and :class:`ShardQuarantinedError` carries the
        per-shard diagnostics.  With ``max_retries=0`` a crash degenerates
        to the unsupervised behaviour (drain, then
        :class:`WorkerCrashedError`).  Either way no worker is still
        writing a segment when the error is raised — ``run_shards_shared``
        keys its cleanup strategy on the ``__repro_drained__`` flag.
        Runs are serialised per pool (see ``_dispatch_lock``); concurrent
        callers simply queue up.  ``fault_stats`` (when given) accumulates
        ``respawns``/``retries``/``recovery_seconds``/``quarantined``.
        """
        if not tasks:
            return [], 0
        with self._dispatch_lock:
            self.ensure_workers(min(len(tasks), max(len(self._workers), 1)))
            dispatch_bytes = 0
            #: task_id -> (worker slot, task); retries get fresh ids, so a
            #: straggler reply from a crashed attempt can never be confused
            #: with its replacement.
            pending: Dict[int, Tuple[int, ShardTask]] = {}
            attempts: Dict[int, int] = {}
            crash_log: Dict[int, List[str]] = {}
            quarantined: List[Dict[str, Any]] = []
            respawns = 0
            retries = 0
            recovery_seconds = 0.0
            # Backstop against spontaneously dying workers (not task-caused):
            # task-caused crashes are already bounded by the retry budget.
            respawn_budget = len(tasks) * (max_retries + 1) + 2
            storm = False

            def dispatch(task: ShardTask, slot: int) -> None:
                nonlocal dispatch_bytes
                self._task_counter += 1
                task_id = self._task_counter
                task.fault = _faults.task_directive(task.shard_index)
                body = pickle.dumps((plan_handle, task), protocol=_PROTOCOL)
                dispatch_bytes += len(body)
                self._workers[slot][1].put(("run", task_id, body))
                pending[task_id] = (slot, task)

            for position, task in enumerate(tasks):
                attempts[task.shard_index] = 1
                dispatch(task, position % len(self._workers))

            outcomes: List[ShardOutcome] = []
            failures: List[BaseException] = []
            while pending:
                try:
                    payload = self._results.get(timeout=0.2)
                except Empty:
                    dead_slots = sorted(
                        {
                            slot
                            for slot, _task in pending.values()
                            if not self._workers[slot][0].is_alive()
                        }
                    )
                    if not dead_slots:
                        continue
                    started = _time.perf_counter()
                    for slot in dead_slots:
                        process = self._workers[slot][0]
                        lost = [
                            (task_id, task)
                            for task_id, (owner, task) in pending.items()
                            if owner == slot
                        ]
                        for task_id, _task in lost:
                            pending.pop(task_id)
                        self._respawn_worker(slot)
                        respawns += 1
                        if respawns > respawn_budget:
                            storm = True
                        for _task_id, task in lost:
                            shard = task.shard_index
                            crash_log.setdefault(shard, []).append(
                                f"worker {process.name} (pid {process.pid}) "
                                f"exit code {process.exitcode}"
                            )
                            exhausted = attempts[shard] > max_retries
                            if exhausted or quarantined or storm:
                                # Fail fast: once one shard is quarantined
                                # (or the pool is storming) nothing new is
                                # dispatched; we only drain what is already
                                # running.
                                if exhausted:
                                    quarantined.append(
                                        {
                                            "shard": shard,
                                            "attempts": attempts[shard],
                                            "crashes": crash_log[shard],
                                        }
                                    )
                                elif not storm:
                                    failures.append(
                                        WorkerCrashedError(
                                            f"shard {shard} abandoned after "
                                            f"another shard was quarantined "
                                            f"({crash_log[shard][-1]})"
                                        )
                                    )
                                continue
                            if task.state_name is not None:
                                # The dead worker may have created the
                                # pre-declared export segment mid-crash;
                                # clear the name so the retry can re-create
                                # it.
                                _force_unlink(task.state_kind, task.state_name)
                            if retry_backoff > 0:
                                _time.sleep(
                                    min(
                                        retry_backoff * (2 ** (attempts[shard] - 1)),
                                        2.0,
                                    )
                                )
                            attempts[shard] += 1
                            retries += 1
                            dispatch(task, slot)
                    recovery_seconds += _time.perf_counter() - started
                    continue
                kind, task_id, result = pickle.loads(payload)
                if task_id not in pending:  # late straggler / retried attempt
                    continue
                pending.pop(task_id)
                if kind == "ok":
                    outcomes.append(result)
                else:
                    failures.append(result)
            if fault_stats is not None:
                fault_stats["respawns"] = fault_stats.get("respawns", 0) + respawns
                fault_stats["retries"] = fault_stats.get("retries", 0) + retries
                fault_stats["recovery_seconds"] = (
                    fault_stats.get("recovery_seconds", 0.0) + recovery_seconds
                )
                if quarantined:
                    fault_stats.setdefault("quarantined", []).extend(quarantined)
            if quarantined:
                details = "; ".join(
                    f"shard {diag['shard']}: {diag['attempts']} attempt(s), "
                    f"{diag['crashes'][-1]}"
                    for diag in quarantined
                )
                error: BaseException = ShardQuarantinedError(
                    f"{len(quarantined)} shard(s) quarantined after "
                    f"{max_retries} retr{'y' if max_retries == 1 else 'ies'} "
                    f"each — {details}",
                    quarantined,
                )
                error.__repro_drained__ = True
                raise error
            if storm:
                failures.insert(
                    0,
                    RespawnStormError(
                        f"worker pool respawned {respawns} times for "
                        f"{len(tasks)} tasks (budget {respawn_budget}); "
                        f"giving up on the shm fabric"
                    ),
                )
            if failures:
                error = failures[0]
                try:
                    # Every task resolved (finished or its worker died)
                    # before this raise: no worker can still be writing a
                    # segment.
                    error.__repro_drained__ = True
                except Exception:  # pragma: no cover - exotic exceptions
                    pass
                raise error
            return outcomes, dispatch_bytes

    def release_segments(self, names: Sequence[str]) -> None:
        """Tell every worker to drop its mappings of the named segments."""
        for process, queue in self._workers:
            if process.is_alive():
                try:
                    queue.put(("release", list(names)))
                except Exception:  # pragma: no cover - teardown race
                    pass


_GLOBAL_POOL: Optional[ShardWorkerPool] = None


def get_worker_pool() -> ShardWorkerPool:
    """The process-wide persistent shard pool (created on first use)."""
    global _GLOBAL_POOL
    if _GLOBAL_POOL is None or _GLOBAL_POOL._closed:
        _GLOBAL_POOL = ShardWorkerPool()
    return _GLOBAL_POOL


def shutdown_worker_pool() -> None:
    """Close the global pool (tests; also wired into atexit)."""
    global _GLOBAL_POOL
    if _GLOBAL_POOL is not None:
        _GLOBAL_POOL.close()
        _GLOBAL_POOL = None


atexit.register(shutdown_worker_pool)


# ----------------------------------------------------------------------
# the run entry point
# ----------------------------------------------------------------------
def run_shards_shared(
    plan,
    policies: Sequence[SelectionPolicy],
    *,
    batch_size: int = 0,
    sample_every: int = 0,
    max_workers: Optional[int] = None,
    max_retries: int = 1,
    retry_backoff: float = 0.05,
    fault_stats: Optional[Dict[str, Any]] = None,
) -> Tuple[List[Any], RunStatistics, Dict[str, Any]]:
    """Run a partition plan on the shared-memory shard fabric.

    The zero-copy counterpart of
    :func:`repro.runtime.partition.run_shards(executor="processes")`:
    results are bit-identical; only the transport changes.  Returns
    ``(shard_runs, merged_statistics, shm_stats)`` where ``shm_stats``
    records the fabric accounting (backend, workers, segment bytes, exact
    dispatch bytes, adopted state bytes).

    Self-healing by default: a crashed worker is respawned and its shard
    re-run up to ``max_retries`` times (policies are deterministic over an
    interaction prefix, so a re-run is bit-identical); a shard that crashes
    every attempt raises :class:`ShardQuarantinedError` with per-shard
    diagnostics.  ``fault_stats`` (when given) accumulates the supervision
    counters.
    """
    from repro.runtime.partition import ShardRun, merge_statistics

    if len(policies) != len(plan.shards):
        raise RunConfigurationError(
            f"need one policy per shard: {len(plan.shards)} shards, "
            f"{len(policies)} policies"
        )
    start = _time.perf_counter()
    pool = get_worker_pool()
    workers = min(len(plan.shards), max_workers or os.cpu_count() or 1)
    pool.ensure_workers(max(workers, 1))

    segment, handle = build_shared_plan(plan)
    kind = segment.kind
    state_names = [_segment_name(f"s{index}") for index in range(len(plan.shards))]
    # Pre-declared result-segment names belong to the parent from the start:
    # the atexit guard can clean them up even if a worker dies mid-export.
    _CREATED.update((kind, name) for name in state_names)
    tasks = [
        ShardTask(
            shard_index=index,
            policy=policy,
            batch_size=batch_size,
            sample_every=sample_every,
            state_kind=kind,
            state_name=state_names[index],
        )
        for index, policy in enumerate(policies)
    ]
    try:
        outcomes, dispatch_bytes = pool.run_tasks(
            handle,
            tasks,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            fault_stats=fault_stats,
        )
    except BaseException as error:
        drained = getattr(error, "__repro_drained__", False)
        for name in state_names:
            _force_unlink(kind, name)
            # run_tasks drains live workers before raising on a crash or a
            # remote task error, but a parent-side abort (KeyboardInterrupt,
            # dispatch failure) can leave a worker mid-export that re-creates
            # the name after this pass; keep such names registered so the
            # atexit sweep retries.
            if not drained:
                _CREATED.add((kind, name))
        raise
    finally:
        pool.release_segments([handle.segment.name])
        segment.unlink()
        segment.close_quietly()  # parent-side views (if any) hold the lease

    runs: List[ShardRun] = []
    state_bytes = 0
    for outcome in sorted(outcomes, key=lambda item: item.shard_index):
        if outcome.state is not None:
            _adopt_shared_state(outcome.policy, outcome.state)
            state_bytes += outcome.state.segment.size
            _force_unlink(outcome.state.segment.kind, outcome.state.segment.name)
        runs.append(
            ShardRun(
                shard=plan.shards[outcome.shard_index],
                policy=outcome.policy,
                statistics=outcome.statistics,
                last_time=outcome.last_time,
                store_stats=outcome.store_stats,
                kernel_stats=outcome.kernel_stats,
            )
        )
    for name in state_names:  # shards that exported nothing never created theirs
        _CREATED.discard((kind, name))
    elapsed = _time.perf_counter() - start
    merged = merge_statistics(
        [run.statistics for run in runs], elapsed_seconds=elapsed
    )
    shm_stats = {
        "backend": kind,
        "workers": pool.alive_workers,
        "segment_bytes": segment.size,
        "dispatch_bytes": dispatch_bytes,
        "state_bytes": state_bytes,
    }
    return runs, merged, shm_stats


# ----------------------------------------------------------------------
# the streaming fabric: rolling ring segments over the persistent pool
# ----------------------------------------------------------------------
#: Replay-buffer bytes per row: int32 source and destination ids, float64
#: time and quantity.
_ROW_BYTES = 24


class ShardStreamFabric:
    """Partitioned streaming dispatch over rolling shared-memory segments.

    Where :func:`run_shards_shared` ships one frozen plan segment per run,
    the stream fabric keeps a small **ring** of fixed-capacity column
    segments per shard and rolls micro-batches through it: the parent
    writes a flushed batch's columns into a free slot (one vectorised copy)
    and sends a handle-sized :class:`AppendTask`; the owning worker feeds
    the slot to its resident engine and its "ok" reply *is* the slot-free
    acknowledgement.  A shard with all slots in flight therefore applies
    natural backpressure — the parent blocks (counting the stall) until an
    ack frees a slot, so a stream is never buffered more than
    ``ring × capacity`` rows per shard beyond the scheduler's own bound.

    Supervision (``max_retries > 0``) keeps, per shard, a recovery base —
    the pickled session state, held as opaque bytes — and copies of the
    columns appended since; a lost worker is respawned and its sessions
    re-open from their bases and replay the suffix.  A shard commits (its
    worker sends its state, pickled, and the suffix it covers is dropped)
    once the suffix's columns weigh as much as its last base.  The commit
    request is sent like an append and its reply is adopted whenever it
    arrives, so dispatch never waits on a commit.

    Lifecycle mirrors the batch fabric: every segment name (ring slots and
    per-shard result-state exports) is generated and registered by the
    parent before any worker touches it, so a crash anywhere still leaves
    nothing behind in ``/dev/shm`` once the parent exits.  One stream at a
    time per pool (the pool's dispatch lock is held for the stream's
    lifetime).
    """

    def __init__(
        self,
        num_shards: int,
        *,
        capacity: int,
        ring: int = 4,
        sample_every: int = 0,
        max_workers: Optional[int] = None,
        result_timeout: float = 0.2,
        max_retries: int = 1,
        retry_backoff: float = 0.05,
        fault_stats: Optional[Dict[str, Any]] = None,
    ) -> None:
        if num_shards < 1:
            raise RunConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        if capacity < 1:
            raise RunConfigurationError(f"capacity must be >= 1, got {capacity}")
        if ring < 1:
            raise RunConfigurationError(f"ring must be >= 1, got {ring}")
        self.num_shards = num_shards
        self.capacity = capacity
        self.ring = ring
        self._sample_every = sample_every
        #: Supervision: ``max_retries`` worker respawns per shard before the
        #: shard quarantines; 0 disables recovery (a crash aborts the
        #: stream, pre-supervision behaviour).
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._supervised = max_retries > 0
        fault = fault_stats if fault_stats is not None else {}
        for key in (
            "respawns", "retries", "replayed_batches", "commits", "commit_bytes"
        ):
            fault.setdefault(key, 0)
        fault.setdefault("recovery_seconds", 0.0)
        self._fault = fault
        self._pool = pool = get_worker_pool()
        workers = max(1, min(num_shards, max_workers or os.cpu_count() or 1))
        pool.ensure_workers(workers)
        pool._dispatch_lock.acquire()
        self._locked = True
        self._workers = list(pool._workers)
        self._result_timeout = result_timeout
        kind = shm_backend()
        self._kind = kind
        layout_handles, slot_bytes = _layout_blocks([capacity])
        self._layout = layout_handles[0]
        self._slot_bytes = slot_bytes
        self._segments: List[List[_Segment]] = []
        self._views: List[List[Tuple[np.ndarray, ...]]] = []
        self._closed = False
        try:
            for shard in range(num_shards):
                row: List[_Segment] = []
                view_row: List[Tuple[np.ndarray, ...]] = []
                for slot in range(ring):
                    segment = _create_segment(
                        slot_bytes,
                        name=_segment_name(f"r{shard}x{slot}"),
                        kind=kind,
                    )
                    row.append(segment)
                    view_row.append(
                        (
                            _ndarray(segment, self._layout.src, writable=True),
                            _ndarray(segment, self._layout.dst, writable=True),
                            _ndarray(segment, self._layout.times, writable=True),
                            _ndarray(segment, self._layout.quantities, writable=True),
                        )
                    )
                self._segments.append(row)
                self._views.append(view_row)
        except BaseException:
            self._cleanup(drained=True)
            raise
        self._state_names = [_segment_name(f"t{shard}") for shard in range(num_shards)]
        _CREATED.update((kind, name) for name in self._state_names)
        self._stream_ids = [f"{name}q" for name in self._state_names]
        from collections import deque as _deque

        self._free = [_deque(range(ring)) for _ in range(num_shards)]
        #: Per-worker outgoing message buffer: messages for co-resident
        #: shards coalesce into one ``stream_multi`` per worker wake-up
        #: (the dominant fixed cost when shards outnumber cores is queue
        #: round-trips, not bytes).  A worker's buffer flushes as soon as
        #: every shard it serves has a message queued (so with one shard
        #: per worker nothing is ever deferred) and before any blocking
        #: wait, which preserves both ordering and backpressure.
        worker_count = len(self._workers)
        self._outbox: List[List[Tuple[str, int, bytes]]] = [
            [] for _ in range(worker_count)
        ]
        self._outbox_shards: List[set] = [set() for _ in range(worker_count)]
        self._resident = [
            sum(1 for shard in range(num_shards) if shard % worker_count == index)
            for index in range(worker_count)
        ]
        #: msg_id -> ("ack", shard, slot) | ("commit", shard, ordinal) |
        #: ("open"|"state"|"finish", shard)
        self._pending: Dict[int, Tuple] = {}
        self._done: Dict[int, Tuple] = {}
        self._inflight = 0
        self._opened = [False] * num_shards
        self._known = [0] * num_shards
        self._batches = [0] * num_shards
        self._interactions = [0] * num_shards
        self._uses = [0] * num_shards
        self._reuses = [0] * num_shards
        self._stalls = 0
        self._dispatch_bytes = 0
        self._state_bytes = 0
        # -- supervision state --------------------------------------------
        #: What to re-open each shard's session from after a worker loss
        #: (``StreamOpen.base`` bytes, never unpickled here): initially the
        #: caller's ``open`` arguments, replaced by the shard's committed
        #: state at every checkpoint/auto-commit.
        self._base: List[Optional[bytes]] = [None] * num_shards
        #: Batch ordinal the base covers (0: the open) and its engine count.
        self._base_ordinal = [0] * num_shards
        self._base_processed = [0] * num_shards
        #: Uncommitted appends per shard: ``(ordinal, src, dst, times,
        #: quantities, new_vertices)`` column copies, replayed verbatim
        #: after a re-open.  Truncated at every commit.
        self._replay: List[List[Tuple]] = [[] for _ in range(num_shards)]
        #: Column bytes held in each replay buffer (``_ROW_BYTES`` per row).
        self._replay_bytes = [0] * num_shards
        #: Shards with an auto-commit request awaiting its reply.
        self._committing = [False] * num_shards
        self._attempts = [0] * num_shards
        #: Resume offsets for statistics reconciliation: a session re-opened
        #: from a mid-run commit counts interactions like a *resumed* run
        #: (only past the commit), so ``finish`` adds back the difference
        #: between the live session's resume point and the caller's.
        self._initial_processed = [0] * num_shards
        self._session_start = [0] * num_shards
        #: Replies redirected during recovery: re-sent message id -> the
        #: original id a caller is blocked waiting for.
        self._alias: Dict[int, int] = {}
        #: Worker slots whose crash has been observed but not yet recovered.
        self._crash_queue: List[int] = []
        self._in_recovery = False

    # -- messaging ------------------------------------------------------
    def _send(self, shard: int, kind: str, payload, meta: Tuple) -> int:
        pool = self._pool
        pool._task_counter += 1
        msg_id = pool._task_counter
        body = pickle.dumps(payload, protocol=_PROTOCOL)
        self._dispatch_bytes += len(body)
        worker_index = shard % len(self._workers)
        # Liveness is checked once per flush (and on receive timeouts), not
        # per buffered message — ``is_alive`` is a waitpid syscall.
        self._outbox[worker_index].append((kind, msg_id, body))
        self._outbox_shards[worker_index].add(shard)
        self._pending[msg_id] = meta
        if len(self._outbox_shards[worker_index]) >= self._resident[worker_index]:
            self._flush_outbox(worker_index)
        return msg_id

    def _flush_outbox(self, worker_index: Optional[int] = None) -> None:
        """Ship buffered messages (one ``stream_multi`` per busy worker)."""
        targets = (
            range(len(self._workers)) if worker_index is None else (worker_index,)
        )
        for index in targets:
            box = self._outbox[index]
            if not box:
                continue
            process, queue = self._workers[index]
            if not process.is_alive():
                self._handle_crash(index)
                continue  # recovery re-sent (or dropped) everything buffered
            if len(box) == 1:
                queue.put(box[0])
            else:
                queue.put(
                    ("stream_multi", 0, pickle.dumps(box, protocol=_PROTOCOL))
                )
            self._outbox[index] = []
            self._outbox_shards[index] = set()

    def _crashed(self, process, shard: int) -> WorkerCrashedError:
        error = WorkerCrashedError(
            f"stream worker {process.name} (pid {process.pid}) died while "
            f"serving shard {shard} (exit code {process.exitcode})"
        )
        # Streaming workers only create named segments during a finish
        # export, which is requested after every append is acknowledged —
        # a crash mid-stream therefore leaves no worker writing a segment.
        error.__repro_drained__ = True
        return error

    # -- supervision: worker loss recovery ------------------------------
    def _handle_crash(self, worker_index: int) -> None:
        """React to a dead worker: recover (supervised) or abort the stream.

        Recovery is driven by an explicit queue rather than recursion: a
        worker dying *while another loss is being recovered* (its replayed
        kill re-firing, or an unrelated worker falling over) enqueues the
        new loss and unwinds the in-progress replay with
        :class:`_RecoveryInterrupt`; the outer driver then restarts both
        replays from their (unchanged) base states.  Replays are idempotent
        — re-opening a session resets the worker and the replay buffers are
        only truncated on commit — so a restart is always safe.
        """
        if not self._supervised:
            raise self._crashed(
                self._workers[worker_index][0], self._first_shard(worker_index)
            )
        if worker_index not in self._crash_queue:
            self._crash_queue.append(worker_index)
        if self._in_recovery:
            raise _RecoveryInterrupt()
        self._in_recovery = True
        started = _time.perf_counter()
        try:
            restarts: List[int] = []
            while self._crash_queue or restarts:
                if self._crash_queue:
                    index = self._crash_queue.pop(0)
                    crashed = True
                else:
                    index = restarts.pop(0)
                    crashed = index in self._crash_queue
                    if crashed:
                        self._crash_queue.remove(index)
                try:
                    self._recover_worker(index, crashed=crashed)
                except _RecoveryInterrupt:
                    # The newly dead worker is queued; this one's replay
                    # restarts after it (idempotent, see above).
                    if index not in restarts:
                        restarts.append(index)
        finally:
            self._in_recovery = False
            self._fault["recovery_seconds"] += _time.perf_counter() - started
        # Ship anything recovery left buffered (re-opens, replayed appends,
        # redirected state/finish requests): the caller may go straight back
        # to blocking on the result queue.  A crash during this flush enters
        # a fresh recovery cycle.
        self._flush_outbox()

    def _first_shard(self, worker_index: int) -> int:
        for shard in range(self.num_shards):
            if shard % len(self._workers) == worker_index:
                return shard
        return 0

    def _recover_worker(self, worker_index: int, *, crashed: bool) -> None:
        """Respawn one lost worker and rebuild every session it carried."""
        process = self._workers[worker_index][0]
        shards = [
            shard
            for shard in range(self.num_shards)
            if shard % len(self._workers) == worker_index and self._opened[shard]
        ]
        if crashed:
            quarantined: List[dict] = []
            for shard in shards:
                self._attempts[shard] += 1
                if self._attempts[shard] > self._max_retries:
                    diag = {
                        "shard": shard,
                        "attempts": self._attempts[shard],
                        "crashes": [
                            f"worker {process.name} (pid {process.pid}) "
                            f"exit code {process.exitcode}"
                        ],
                        "replay_batches": len(self._replay[shard]),
                    }
                    self._fault.setdefault("quarantined", []).append(diag)
                    quarantined.append(diag)
            if quarantined:
                labels = ", ".join(str(diag["shard"]) for diag in quarantined)
                error = ShardQuarantinedError(
                    f"stream shard(s) {labels} quarantined after "
                    f"{quarantined[0]['attempts']} attempt(s): worker "
                    f"{process.name} (pid {process.pid}) died every time "
                    f"(last exit code {process.exitcode})",
                    quarantined,
                )
                error.__repro_drained__ = True
                raise error
        # Discard everything addressed to the lost worker: buffered outbox
        # messages, un-acked appends (their ring slots come back below),
        # pipelined opens and auto-commits, and pending state/finish
        # requests — the latter are re-sent after the replay, aliased to
        # their original ids so blocked waiters complete transparently.  A
        # dropped auto-commit is not re-sent: its shard's base and the full
        # suffix after it are still held, and the next append asks again.
        self._outbox[worker_index] = []
        self._outbox_shards[worker_index] = set()
        redo: List[Tuple[int, Tuple]] = []
        for msg_id, meta in list(self._pending.items()):
            if meta[1] % len(self._workers) != worker_index:
                continue
            del self._pending[msg_id]
            # If this message was itself a recovery re-send, keep aliasing
            # to the id the original caller is still blocked on.
            original = self._alias.pop(msg_id, msg_id)
            if meta[0] == "ack":
                self._inflight -= 1
            elif meta[0] == "commit":
                self._committing[meta[1]] = False
            elif meta[0] in ("state", "finish"):
                redo.append((original, meta))
        for shard in shards:
            self._free[shard].clear()
            self._free[shard].extend(range(self.ring))
        if crashed:
            if self._retry_backoff > 0:
                worst = max((self._attempts[shard] for shard in shards), default=1)
                _time.sleep(min(self._retry_backoff * (2 ** (worst - 1)), 2.0))
            self._pool._respawn_worker(worker_index)
            self._workers[worker_index] = self._pool._workers[worker_index]
            self._fault["respawns"] += 1
            self._fault["retries"] += len(shards)
        for shard in shards:
            self._replay_shard(shard)
        for old_id, meta in redo:
            shard = meta[1]
            message_kind = "stream_state" if meta[0] == "state" else "stream_finish"
            new_id = self._send(
                shard, message_kind, self._stream_ids[shard], (meta[0], shard)
            )
            self._alias[new_id] = old_id

    def _replay_shard(self, shard: int) -> None:
        """Re-open one shard's session and replay its uncommitted appends."""
        self._session_start[shard] = self._base_processed[shard]
        self._send_open(shard, self._base[shard])
        free = self._free[shard]
        for entry in self._replay[shard]:
            ordinal, src_ids, dst_ids, times, quantities, new_vertices = entry
            while not free:
                self._stalls += 1
                self._service(block=True)
            slot = free.popleft()
            rows = len(src_ids)
            src_view, dst_view, times_view, quantities_view = self._views[shard][slot]
            src_view[:rows] = src_ids
            dst_view[:rows] = dst_ids
            times_view[:rows] = times
            quantities_view[:rows] = quantities
            task = AppendTask(
                stream_id=self._stream_ids[shard],
                slot=slot,
                rows=rows,
                new_vertices=new_vertices,
                # The original batch ordinal re-consults the fault plan, so
                # an injected deterministic crasher keeps crashing its
                # replays (and quarantines) instead of being forgotten.
                fault=_faults.batch_directive(shard, ordinal),
            )
            self._send(shard, "stream_append", task, ("ack", shard, slot))
            self._inflight += 1
            self._fault["replayed_batches"] += 1

    def _commit_shard(
        self, shard: int, ordinal: int, state: bytes, processed: int
    ) -> None:
        """Adopt a shard's state as its new recovery base (offset commit).

        ``state`` covers every batch up to ``ordinal`` (policy + engine
        counters + session vertex table), so the replay buffer truncates
        up to it: recovery replays only what came after, exactly the
        semantics of resuming from a committed source offset.  A commit
        older than the current base is ignored.
        """
        if ordinal <= self._base_ordinal[shard]:
            return
        self._base[shard] = state
        self._base_ordinal[shard] = ordinal
        self._base_processed[shard] = processed
        replay = self._replay[shard]
        covered = 0
        while covered < len(replay) and replay[covered][0] <= ordinal:
            covered += 1
        del replay[:covered]
        self._replay_bytes[shard] = _ROW_BYTES * sum(len(entry[1]) for entry in replay)
        self._fault["commits"] += 1
        self._fault["commit_bytes"] += len(state)

    def _autocommit(self, shard: int) -> None:
        """Ask for a shard's state without waiting for it (a pipelined
        commit).

        The worker's task queue is FIFO, so the reply covers exactly the
        batches queued to the shard so far; ``_service`` adopts it when it
        arrives.  If the worker dies first, recovery drops the request.
        """
        self._committing[shard] = True
        self._send(
            shard,
            "stream_state",
            self._stream_ids[shard],
            ("commit", shard, self._batches[shard]),
        )

    def _service(self, *, wait_for: Optional[int] = None, block: bool = False):
        """Drain worker replies; frees ring slots as acks arrive.

        With ``wait_for`` blocks until that message's reply is available
        and returns its payload; otherwise drains what is ready (``block``
        forces at least one blocking receive) and returns ``None``.
        """
        if wait_for is not None or block:
            # Anything still buffered must reach the workers before we wait
            # on them — including, possibly, the very message waited for.
            self._flush_outbox()
        results = self._pool._results
        received_one = False
        while True:
            if wait_for is not None and wait_for in self._done:
                return self._done.pop(wait_for)
            must_block = wait_for is not None or (block and not received_one)
            try:
                if must_block:
                    payload = results.get(timeout=self._result_timeout)
                else:
                    payload = results.get_nowait()
            except Empty:
                if not must_block:
                    return None
                for index in range(len(self._workers)):
                    if not self._workers[index][0].is_alive():
                        self._handle_crash(index)
                continue
            received_one = True
            kind, msg_id, result = pickle.loads(payload)
            replies = result if kind == "multi" else ((kind, msg_id, result),)
            for sub_kind, sub_id, sub_result in replies:
                meta = self._pending.pop(sub_id, None)
                if meta is None:  # stale reply from an aborted earlier run
                    continue
                if sub_kind == "error":
                    raise sub_result
                if meta[0] == "ack":
                    _tag, shard, slot = meta
                    self._free[shard].append(slot)
                    self._inflight -= 1
                elif meta[0] == "commit":
                    _tag, shard, ordinal = meta
                    self._committing[shard] = False
                    self._commit_shard(shard, ordinal, *sub_result)
                elif meta[0] == "open":
                    pass  # opens are pipelined; the reply is flow-control only
                else:
                    # A reply re-requested during recovery files under the
                    # id the original caller is still waiting for.
                    self._done[self._alias.pop(sub_id, sub_id)] = sub_result

    # -- stream operations ---------------------------------------------
    def open(
        self,
        shard: int,
        policy: SelectionPolicy,
        universe: Sequence[Vertex],
        table: Sequence[Vertex],
        *,
        resume: Optional[dict] = None,
    ) -> None:
        """Open the resident worker session for one shard.

        Pipelined: the open is queued and the first appends may be queued
        right behind it — the worker's task queue is FIFO, so the session
        exists before any append reaches it.  An open failure surfaces at
        the next reply drain (the worker replies ``error``).
        """
        self._known[shard] = len(table)
        state: Dict[str, Any] = {"policy": policy, "table": tuple(table)}
        if resume is None:
            state["universe"] = tuple(universe)
        else:
            state["interactions_processed"] = int(resume["interactions_processed"])
            state["current_time"] = resume["current_time"]
        base = pickle.dumps(state, protocol=_PROTOCOL)
        if self._supervised:
            # Until the first commit a lost session re-opens from exactly
            # these arguments.
            self._base[shard] = base
            processed = state.get("interactions_processed", 0)
            self._initial_processed[shard] = processed
            self._session_start[shard] = processed
            self._base_processed[shard] = processed
        # Marked opened BEFORE the send: if the flush trips over a dead
        # worker, recovery must know this shard's session needs replaying.
        self._opened[shard] = True
        self._send_open(shard, base)

    def _send_open(self, shard: int, base: bytes) -> None:
        """Queue a :class:`StreamOpen` of ``shard``'s session from ``base``."""
        message = StreamOpen(
            stream_id=self._stream_ids[shard],
            shard_index=shard,
            base=base,
            ring=tuple(segment.handle for segment in self._segments[shard]),
            layout=self._layout,
            capacity=self.capacity,
            sample_every=self._sample_every,
            state_kind=self._kind,
            state_name=self._state_names[shard],
        )
        self._send(shard, "stream_open", message, ("open", shard))

    def append(
        self,
        shard: int,
        src_ids,
        dst_ids,
        times,
        quantities,
        table: Sequence[Vertex],
    ) -> None:
        """Dispatch one micro-batch of columns (global interner ids).

        ``table`` is the caller's current global vertex table; whatever the
        shard's session has not seen yet ships with the message.  Blocks
        while the shard's ring is exhausted (every slot in flight) — that
        wait is the backpressure, counted in ``stalls``.
        """
        rows = len(src_ids)
        if rows == 0:
            return
        if rows > self.capacity:
            raise RunConfigurationError(
                f"micro-batch of {rows} rows exceeds ring slot capacity "
                f"{self.capacity}"
            )
        self._service()  # opportunistic ack drain keeps rings rolling
        free = self._free[shard]
        while not free:
            self._stalls += 1
            self._service(block=True)
        slot = free.popleft()
        self._uses[shard] += 1
        if self._uses[shard] > self.ring:
            self._reuses[shard] += 1
        src_view, dst_view, times_view, quantities_view = self._views[shard][slot]
        src_view[:rows] = src_ids
        dst_view[:rows] = dst_ids
        times_view[:rows] = times
        quantities_view[:rows] = quantities
        known = self._known[shard]
        new_vertices = tuple(table[known:]) if len(table) > known else ()
        self._known[shard] = len(table)
        ordinal = self._batches[shard] + 1
        task = AppendTask(
            stream_id=self._stream_ids[shard],
            slot=slot,
            rows=rows,
            new_vertices=new_vertices,
            fault=_faults.batch_directive(shard, ordinal),
        )
        if self._supervised:
            # Column copies (the ring slot will be overwritten) queued for
            # replay; truncated at the next commit.
            self._replay[shard].append(
                (
                    ordinal,
                    np.array(src_view[:rows], copy=True),
                    np.array(dst_view[:rows], copy=True),
                    np.array(times_view[:rows], copy=True),
                    np.array(quantities_view[:rows], copy=True),
                    new_vertices,
                )
            )
            self._replay_bytes[shard] += _ROW_BYTES * rows
        self._send(shard, "stream_append", task, ("ack", shard, slot))
        self._inflight += 1
        self._batches[shard] += 1
        self._interactions[shard] += rows
        # Commit once the uncommitted columns weigh as much as the state
        # that would replace them: total commit bytes stay within
        # ``_ROW_BYTES`` per row plus one final state, and the replay
        # buffer within about one state.
        if (
            self._supervised
            and not self._committing[shard]
            and self._replay_bytes[shard] >= len(self._base[shard])
        ):
            self._autocommit(shard)

    def barrier(self) -> None:
        """Block until every dispatched append has been processed."""
        while self._inflight:
            self._service(block=True)

    def checkpoint_states(self) -> List[Optional[dict]]:
        """Per-shard engine/session states at a consistent stream position.

        Callers dispatch up to an exact global offset, call this, and embed
        the returned states in a partitioned checkpoint.  An explicit
        :meth:`barrier` is unnecessary: each worker queue is FIFO, so a
        shard's state reply is only produced after every append queued
        before it — and the shared results queue delivers those acks
        before the reply, so collecting every state also drains every
        in-flight append.
        """
        waits: List[Optional[int]] = []
        for shard in range(self.num_shards):
            if not self._opened[shard]:
                waits.append(None)
                continue
            waits.append(
                self._send(
                    shard, "stream_state", self._stream_ids[shard], ("state", shard)
                )
            )
        states: List[Optional[dict]] = []
        for shard, msg_id in enumerate(waits):
            if msg_id is None:
                states.append(None)
                continue
            state, processed = self._service(wait_for=msg_id)
            if self._supervised:
                # A checkpoint IS a commit: everything in this state is
                # durable, so recovery never needs to replay past it.
                self._commit_shard(shard, self._batches[shard], state, processed)
            states.append(pickle.loads(state))
        return states

    def finish(self) -> Tuple[List[ShardOutcome], Dict[str, Any]]:
        """End of stream: close every session and adopt exported state.

        Returns the per-shard outcomes (sorted by shard) and the fabric's
        accounting; every ring and state segment is unlinked before
        returning, success or not.
        """
        try:
            # No barrier: finishes queue behind any in-flight appends (FIFO
            # per worker) and the ack drain happens while awaiting replies,
            # so each worker handles its tail appends and the finish in one
            # wake-up instead of two.
            waits = []
            for shard in range(self.num_shards):
                if not self._opened[shard]:
                    continue
                waits.append(
                    self._send(
                        shard,
                        "stream_finish",
                        self._stream_ids[shard],
                        ("finish", shard),
                    )
                )
            outcomes: List[ShardOutcome] = []
            for msg_id in waits:
                payload = self._service(wait_for=msg_id)
                outcomes.append(payload[1])
        except BaseException as error:
            self._cleanup(drained=getattr(error, "__repro_drained__", False))
            raise
        for outcome in outcomes:
            if outcome.state is not None:
                _adopt_shared_state(outcome.policy, outcome.state)
                self._state_bytes += outcome.state.segment.size
                _force_unlink(outcome.state.segment.kind, outcome.state.segment.name)
            # A session re-opened from a mid-run commit reports statistics
            # like a resumed run; restore the caller's resume frame.
            committed = (
                self._session_start[outcome.shard_index]
                - self._initial_processed[outcome.shard_index]
            )
            if committed:
                outcome.statistics.interactions += committed
        self._cleanup(drained=True)
        return sorted(outcomes, key=lambda item: item.shard_index), self.stats()

    def abort(self) -> None:
        """Tear the stream down after an error; segments are force-cleaned."""
        self._cleanup(drained=True)

    def _cleanup(self, *, drained: bool) -> None:
        if self._closed:
            return
        self._closed = True
        self._views = []
        for row in self._segments:
            for segment in row:
                segment.unlink()
                segment.close_quietly()
        self._segments = []
        for name in getattr(self, "_state_names", ()):
            _force_unlink(self._kind, name)
            if not drained:
                # A worker may still be mid-export and re-create the name
                # after this pass; keep it registered so the atexit sweep
                # retries (mirrors run_shards_shared's abort path).
                _CREATED.add((self._kind, name))
        if self._locked:
            self._locked = False
            self._pool._dispatch_lock.release()

    # -- accounting -----------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "backend": self._kind,
            "workers": len(self._workers),
            "shards": self.num_shards,
            "ring": self.ring,
            "capacity": self.capacity,
            "segment_bytes": self._slot_bytes * self.ring * self.num_shards,
            "dispatch_bytes": self._dispatch_bytes,
            "state_bytes": self._state_bytes,
            "backpressure_stalls": self._stalls,
            "segment_reuses": sum(self._reuses),
            "batches": sum(self._batches),
            "per_shard": [
                {
                    "shard": shard,
                    "batches": self._batches[shard],
                    "interactions": self._interactions[shard],
                    "segment_reuses": self._reuses[shard],
                }
                for shard in range(self.num_shards)
            ],
        }
