"""Backend resolution, fallback and verification gates of the kernel seam.

Compiled backends are a pure acceleration: every resolution outcome —
numba, cc, or nothing at all — must leave results bit-identical, and every
failure (missing compiler, broken build, bit-identity mismatch, explicit
``REPRO_JIT=0``) must demote silently to the next tier rather than error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.kernels import _reference, cc_backend, numba_backend
from repro.datasets.catalog import load_preset
from repro.runtime import RunConfig, Runner


@pytest.fixture(autouse=True)
def fresh_resolution():
    """Each test resolves from scratch and leaves no cached monkeypatched
    handles behind (the .so cache makes re-resolution cheap)."""
    kernels.reset()
    yield
    kernels.reset()


@pytest.fixture(scope="module")
def network():
    return load_preset("taxis", scale=0.05)


def snapshot_dict(result):
    snapshot = result.snapshot()
    return {vertex: snapshot[vertex].as_dict() for vertex in snapshot}


def fused_run(network, policy_name):
    # Kernels serve the dict and dense stores only; pin the dict store so a
    # session default (REPRO_DEFAULT_STORE) cannot route around them.
    return Runner(RunConfig(dataset=network, policy=policy_name, store="dict")).run()


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
def test_unknown_kernel_name_raises():
    with pytest.raises(KeyError):
        kernels.get_kernel("bogus")


def test_resolution_is_cached(monkeypatch):
    first = kernels.get_kernel("noprov")
    calls = []
    monkeypatch.setattr(
        kernels, "_build", lambda name: calls.append(name)
    )
    assert kernels.get_kernel("noprov") is first
    assert calls == []


def test_compile_seconds_accumulates():
    before = kernels.compile_seconds()
    handle = kernels.get_kernel("noprov")
    if handle is not None:
        assert kernels.compile_seconds() > before


def test_backend_of_labels():
    backend = kernels.backend_of("noprov")
    assert backend in (None, "numba", "cc")


# ----------------------------------------------------------------------
# the REPRO_JIT escape hatch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value", ["0", "false", "off", "no", " OFF "])
def test_repro_jit_disables_compiled_backends(monkeypatch, value):
    monkeypatch.setenv("REPRO_JIT", value)
    kernels.reset()
    assert not kernels.jit_enabled()
    assert kernels.get_kernel("noprov") is None
    assert kernels.get_kernel("proportional-dense") is None


def test_repro_jit_run_is_identical(monkeypatch, network):
    compiled = {
        name: fused_run(network, name)
        for name in ("noprov", "proportional-dense")
    }
    monkeypatch.setenv("REPRO_JIT", "0")
    kernels.reset()
    for name, reference in compiled.items():
        pure = fused_run(network, name)
        assert pure.kernel_stats["backend"] == "numpy"
        assert pure.kernel_stats["compile_seconds"] == 0.0
        assert snapshot_dict(reference) == snapshot_dict(pure)
        assert dict(reference.buffer_totals()) == dict(pure.buffer_totals())


# ----------------------------------------------------------------------
# backend fallback ladder
# ----------------------------------------------------------------------
def test_numba_missing_falls_back_to_cc(monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "1")  # the ladder, not the escape hatch
    monkeypatch.setattr(numba_backend, "available", lambda: False)
    handle = kernels.get_kernel("noprov")
    if cc_backend.available():
        assert handle is not None and handle.backend == "cc"
    else:
        assert handle is None


def test_no_backends_fall_back_to_pure(monkeypatch, network):
    monkeypatch.setattr(numba_backend, "available", lambda: False)
    monkeypatch.setattr(cc_backend, "available", lambda: False)
    assert kernels.get_kernel("noprov") is None
    result = fused_run(network, "noprov")
    assert result.kernel_stats["backend"] == "numpy"


def test_build_failure_demotes_and_logs(monkeypatch, network):
    def broken_build(name):
        raise RuntimeError("compiler exploded")

    monkeypatch.setenv("REPRO_JIT", "1")
    monkeypatch.setattr(numba_backend, "available", lambda: True)
    monkeypatch.setattr(numba_backend, "build", broken_build)
    monkeypatch.setattr(cc_backend, "available", lambda: True)
    monkeypatch.setattr(cc_backend, "build", broken_build)
    assert kernels.get_kernel("noprov") is None
    # Both ladder rungs were tried and both rejections were logged.
    assert "numba:noprov" in kernels.backend_failures()
    assert "cc:noprov" in kernels.backend_failures()
    assert "compiler exploded" in kernels.backend_failures()["cc:noprov"]
    # The run still succeeds on the pure fused tier.
    result = fused_run(network, "noprov")
    assert result.kernel_stats["backend"] == "numpy"


def test_bit_identity_gate_rejects_wrong_kernels(monkeypatch):
    """A backend whose output deviates from the pure reference never ships."""

    def wrong_noprov(src, dst, qty, buffers, generated, gen_order):
        # Plausible but wrong: drops the generated-quantity bookkeeping.
        for i in range(len(src)):
            buffers[dst[i]] += qty[i]
            buffers[src[i]] = max(0.0, buffers[src[i]] - qty[i])
        return 0

    monkeypatch.setenv("REPRO_JIT", "1")
    monkeypatch.setattr(numba_backend, "available", lambda: False)
    monkeypatch.setattr(cc_backend, "available", lambda: True)
    monkeypatch.setattr(cc_backend, "build", lambda name: wrong_noprov)
    assert kernels.get_kernel("noprov") is None
    assert "cc:noprov" in kernels.backend_failures()


def test_numba_serves_propdense_when_installed():
    """The arena layout fits nopython mode: with numba installed, the
    proportional-dense kernel must resolve to the numba backend (the old
    pointer-table demotion to cc is gone) and pass the bit-identity gate
    with no failure logged."""
    if not numba_backend.available():
        pytest.skip("numba not installed")
    fn = numba_backend.build("proportional-dense")
    _reference.verify("proportional-dense", fn)
    assert kernels.backend_of("proportional-dense") == "numba"
    assert "numba:proportional-dense" not in kernels.backend_failures()


# ----------------------------------------------------------------------
# reference implementations agree with the policies
# ----------------------------------------------------------------------
def test_reference_verify_accepts_references():
    _reference.verify("noprov", _reference.noprov_reference)
    _reference.verify("proportional-dense", _reference.propdense_reference)


def test_resolved_backends_verified_on_this_host():
    """Whatever resolves here passed the build-time bit-identity gate."""
    for name in kernels.KERNEL_NAMES:
        handle = kernels.get_kernel(name)
        if handle is not None:
            _reference.verify(name, handle.fn)
