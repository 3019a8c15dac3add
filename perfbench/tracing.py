"""Span recording around the public entry points of each ``repro`` layer.

The program has no tracing of its own, so the traced run installs
wrappers from here: each wrapped call records a span ``(name, start, end,
parent, phase)`` in memory.  :meth:`Tracer.uninstall` puts every original
back.  Nothing the wrappers do touches program state, so a traced run must
reproduce the untraced run's logical meters exactly (the benchmark checks
that).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, str]


def layer_targets() -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    from repro.core.doimis import DOIMISMaintainer
    from repro.core.maintainer import MISMaintainer
    from repro.graph.csr import CSRPartition
    from repro.runtime.base import InlineExecutor
    from repro.runtime.parallel import ParallelRuntime
    from repro.scaleg.engine import ScaleGEngine
    from repro.serve.reads import QueryEngine, SnapshotRegistry
    from repro.serve.service import IngestionService
    from repro.serve.wal import WriteAheadLog
    from repro.stream import StreamingSession

    return [
        (IngestionService, "submit", "service.submit"),
        (IngestionService, "drain", "service.drain"),
        (WriteAheadLog, "append", "wal.append"),
        (StreamingSession, "flush", "stream.flush"),
        (DOIMISMaintainer, "apply_batch", "core.apply_batch"),
        (CSRPartition, "ensure", "graph.csr_ensure"),
        (CSRPartition, "sync_states", "graph.csr_sync_states"),
        # ScaleGEngine.run during construction is the static run
        (ScaleGEngine, "run", "scaleg.run"),
        (ScaleGEngine, "charge_graph_update", "scaleg.charge_update"),
        (InlineExecutor, "sweep_scaleg", "runtime.sweep"),
        (ParallelRuntime, "sweep_scaleg", "runtime.sweep"),
        (SnapshotRegistry, "publish", "reads.publish"),
        (QueryEngine, "point", "reads.point"),
        (QueryEngine, "batch", "reads.batch"),
        (QueryEngine, "why_not", "reads.why_not"),
        (MISMaintainer, "save", "checkpoint.save"),
    ]


#: span names while the tracer is in the ``setup`` phase
SETUP_NAMES = {"scaleg.run": "setup.static_run"}
#: spans reported from the setup phase; every other span is reported from
#: the measured (``run``) phase only
SETUP_SPANS = ("setup.static_run", "checkpoint.save")


class _OsView:
    """``os`` as seen by one module, with ``fsync`` replaced."""

    def __init__(self, real, fsync: Callable):
        self._real = real
        self.fsync = fsync

    def __getattr__(self, name: str):
        return getattr(self._real, name)


class Tracer:
    """In-memory span recorder; spans nest by call stack (one thread)."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.phase = "setup"
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        setup_name = SETUP_NAMES.get(name, name)

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                phase = self.phase
                spans[index] = (
                    setup_name if phase == "setup" else name,
                    start, end, parent, phase,
                )

        return traced

    def install(self) -> None:
        import repro.serve.wal as wal_module

        for owner, attr, name in layer_targets():
            original = owner.__dict__[attr]  # never shadow an inherited one
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        self._installed.append((wal_module, "os", wal_module.os))
        wal_module.os = _OsView(os, self.wrap("wal.fsync", os.fsync))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting -------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{name: {calls, busy_s, self_s}}`` over the measured phase's
        spans plus the setup phase's :data:`SETUP_SPANS`.

        Self time is busy time minus the time of direct child spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, _, phase = span
            if phase != "run" and not (
                phase == "setup" and name in SETUP_SPANS
            ):
                continue
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[index]
        return out

    def top_level_busy(self, phase: str) -> float:
        """Summed duration of the root spans recorded in ``phase``."""
        return sum(
            span[2] - span[1] for span in self.spans
            if span is not None and span[3] < 0 and span[4] == phase
        )

    def write_jsonl(self, path: str) -> None:
        origin = next((s[1] for s in self.spans if s is not None), 0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, phase = span
                handle.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "phase": phase, "start_s": start - origin,
                    "end_s": end - origin,
                }) + "\n")
