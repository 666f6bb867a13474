"""Outside-in span tracing of one benchmark run.

The tracer wraps the public callables each layer exposes to the Runner,
from the benchmark's own files: the library is not modified and untraced
runs execute none of this code.  Spans (name, start, end, parent) are kept
in memory and written out once, when the run ends.  A layer's self time is
its span time minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (span name, owner path, attribute).  Runner helpers are patched on the
#: runner module because it binds them at import; the span name carries the
#: layer (module) the call enters.
TRACED: Tuple[Tuple[str, str, str], ...] = (
    ("datasets.read_network_csv", "repro.runtime.runner", "read_network_csv"),
    ("runtime.partition_network", "repro.runtime.runner", "partition_network"),
    ("runtime.build_policy", "repro.runtime.runner", "build_policy"),
    ("core.blocks.to_block", "repro.core.network:TemporalInteractionNetwork", "to_block"),
    ("core.engine.run", "repro.core.engine:ProvenanceEngine", "run"),
    ("stores.store_stats", "repro.policies.base:SelectionPolicy", "store_stats"),
    ("runtime.shm.open", "repro.runtime.shm:ShardStreamFabric", "open"),
    ("runtime.shm.append", "repro.runtime.shm:ShardStreamFabric", "append"),
    ("runtime.shm.finish", "repro.runtime.shm:ShardStreamFabric", "finish"),
    ("query.top_buffers", "repro.runtime.runner:RunResult", "top_buffers"),
    ("query.origins", "repro.runtime.runner:RunResult", "origins"),
    ("core.kernels.get_kernel", "repro.core.kernels", "get_kernel"),
    ("runtime.shm.ensure_workers", "repro.runtime.shm:ShardWorkerPool", "ensure_workers"),
)


def _resolve(path: str) -> Any:
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Span recorder for one process; single-threaded callers only."""

    def __init__(self) -> None:
        #: Rows of ``[name, start, end, parent index or -1]``.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        for name, owner_path, attribute in TRACED:
            owner = _resolve(owner_path)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self._wrap(name, original))
            self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def _wrap(self, name: str, original: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            row = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                return original(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def layer_times(self, start: float, end: float) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self seconds of the spans
        that began inside ``[start, end)``."""
        child_time = [0.0] * len(self.spans)
        for _name, begin, finish, parent in self.spans:
            if parent >= 0:
                child_time[parent] += finish - begin
        layers: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (name, begin, finish, _parent) in enumerate(self.spans):
            if start <= begin < end:
                layer = layers[name]
                layer["count"] += 1
                layer["total_s"] += finish - begin
                layer["self_s"] += finish - begin - child_time[index]
        return dict(layers)

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level spans."""
        covered = sum(
            max(0.0, min(finish, end) - max(begin, start))
            for _name, begin, finish, parent in self.spans
            if parent < 0
        )
        return covered / (end - start)

    def write_chrome_trace(self, path: str, origin: float, pid: int) -> None:
        """Write the spans as Chrome trace events (viewable in Perfetto)."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (begin - origin) * 1e6,
                "dur": (finish - begin) * 1e6,
                "pid": pid,
                "tid": 0,
            }
            for name, begin, finish, _parent in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
