"""Fused whole-run kernel tier: one dispatch seam, multiple backends.

The columnar kernels (``SelectionPolicy.process_block``) are Python
loops over numpy columns.  This package compiles the hot inner loops into
whole-run kernels resolved behind a single seam:

``get_kernel(name)``
    Resolve the best available compiled backend for a kernel name
    (``"noprov"`` or ``"proportional-dense"``) and return a
    :class:`KernelHandle`, or ``None`` when no compiled backend is
    available — callers then fall back to the always-available pure
    fused path (``process_block`` driven over whole clip spans with
    preallocated scratch).

Backends are tried in order ``numba`` → ``cc``:

- :mod:`repro.core.kernels.numba_backend` — optional ``numba.njit``
  kernels, auto-detected at resolution time; absent numba is a normal
  condition, not an error.
- :mod:`repro.core.kernels.cc_backend` — a tiny C translation unit
  compiled on first use with the system C compiler (strict IEEE
  flags, no fast-math, ``-ffp-contract=off``) and loaded via
  :mod:`ctypes`; shared objects are cached by source hash.

Every candidate is warmed up and verified bit-for-bit against the pure
reference implementations in :mod:`repro.core.kernels._reference`
before being handed out; any compile failure or mismatch demotes to the
next backend.  ``REPRO_JIT=0`` (also ``false`` / ``off`` / ``no``)
disables compiled backends entirely.  Resolution work is accumulated in
:func:`compile_seconds` so the engine can report compile time measured
outside the timed region.
"""

from __future__ import annotations

import os
import time as _time
from typing import Callable, Dict, Optional

__all__ = [
    "KERNEL_NAMES",
    "KernelHandle",
    "backend_failures",
    "backend_of",
    "compile_seconds",
    "get_kernel",
    "jit_enabled",
    "reset",
]

#: Kernel names served by the compiled backends.
KERNEL_NAMES = ("noprov", "proportional-dense")

#: Environment values that disable compiled backends.
_DISABLED_VALUES = {"0", "false", "off", "no"}


class KernelHandle:
    """A resolved compiled kernel: ``fn`` plus the backend that built it."""

    __slots__ = ("name", "backend", "fn")

    def __init__(self, name: str, backend: str, fn: Callable) -> None:
        self.name = name
        self.backend = backend
        self.fn = fn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelHandle(name={self.name!r}, backend={self.backend!r})"


#: Resolution cache: kernel name -> handle (or None when every backend
#: failed / was unavailable).  ``None`` is cached too so a run never pays
#: resolution twice.
_resolved: Dict[str, Optional[KernelHandle]] = {}

#: Why each (backend, kernel) candidate was rejected, for diagnostics.
_failures: Dict[str, str] = {}

#: Seconds spent resolving/compiling/verifying backends.
_compile_seconds = 0.0


def jit_enabled() -> bool:
    """True unless ``REPRO_JIT`` explicitly disables compiled backends."""
    value = os.environ.get("REPRO_JIT", "").strip().lower()
    return value not in _DISABLED_VALUES


def compile_seconds() -> float:
    """Total seconds spent resolving backends (compile + verify)."""
    return _compile_seconds


def backend_failures() -> Dict[str, str]:
    """Copy of the rejected-candidate log (``"backend:kernel" -> reason``)."""
    return dict(_failures)


def reset() -> None:
    """Forget resolved backends so tests can re-resolve under a changed
    environment (``REPRO_JIT``, monkeypatched backends)."""
    global _compile_seconds
    _resolved.clear()
    _failures.clear()
    _compile_seconds = 0.0


def get_kernel(name: str) -> Optional[KernelHandle]:
    """Resolve the best compiled backend for ``name`` (cached).

    Returns ``None`` when compiled backends are disabled, unavailable, or
    every candidate failed its build or bit-identity check; callers fall
    back to the pure fused path.
    """
    if name not in KERNEL_NAMES:
        raise KeyError(f"unknown kernel {name!r}; expected one of {KERNEL_NAMES}")
    if name in _resolved:
        return _resolved[name]
    handle = _build(name) if jit_enabled() else None
    _resolved[name] = handle
    return handle


def backend_of(name: str) -> Optional[str]:
    """Backend label serving ``name`` (``"numba"`` / ``"cc"``) or ``None``."""
    handle = get_kernel(name)
    return None if handle is None else handle.backend


def _build(name: str) -> Optional[KernelHandle]:
    global _compile_seconds
    from repro.core.kernels import _reference, cc_backend, numba_backend

    for backend in (numba_backend, cc_backend):
        if not backend.available():
            continue
        started = _time.perf_counter()
        try:
            fn = backend.build(name)
            _reference.verify(name, fn)
        except Exception as error:  # demote: fall through to the next backend
            _failures[f"{backend.BACKEND}:{name}"] = (
                f"{type(error).__name__}: {error}"
            )
            continue
        finally:
            _compile_seconds += _time.perf_counter() - started
        return KernelHandle(name, backend.BACKEND, fn)
    return None
