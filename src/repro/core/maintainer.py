"""Public facade: :class:`MISMaintainer`.

This is the class a downstream user instantiates: point it at a graph, get
the near-maximum independent set, feed it updates, read the set back at any
time.  It is :class:`~repro.core.doimis.DOIMISMaintainer` (the paper's
DOIMIS* by default) plus ergonomics: construction from edge lists or files,
self-verification, and a statistics snapshot.

Example
-------
>>> from repro import MISMaintainer
>>> m = MISMaintainer.from_edges([(1, 2), (2, 3), (3, 4)])
>>> sorted(m.independent_set())
[1, 4]
>>> m.delete_edge(2, 3)
>>> sorted(m.independent_set())
[1, 3]
>>> m.verify()  # raises VerificationError if the invariants ever break
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.core.activation import ActivationStrategy
from repro.core.doimis import DOIMISMaintainer
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.io import read_edge_list
from repro.pregel.partition import Partitioner

CHECKPOINT_FORMAT = "repro-mis-checkpoint"
#: bump when the payload schema changes; :meth:`MISMaintainer.load` accepts
#: every version up to this one and rejects anything newer
CHECKPOINT_VERSION = 1


class MISMaintainer(DOIMISMaintainer):
    """Distributed near-maximum independent set maintenance (DOIMIS*)."""

    def __init__(
        self,
        graph: DynamicGraph,
        num_workers: int = 10,
        strategy: ActivationStrategy = ActivationStrategy.SAME_STATUS,
        partitioner: Optional[Partitioner] = None,
        keep_records: bool = False,
        resume_states=None,
        faults=None,
        membership=None,
        runtime=None,
        sanitize=None,
        representation=None,
    ):
        super().__init__(
            graph,
            num_workers=num_workers,
            strategy=strategy,
            partitioner=partitioner,
            keep_records=keep_records,
            resume_states=resume_states,
            faults=faults,
            membership=membership,
            runtime=runtime,
            sanitize=sanitize,
            representation=representation,
        )

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        vertices: Iterable[int] = (),
        **kwargs,
    ) -> "MISMaintainer":
        """Build a maintainer from an edge iterable."""
        return cls(DynamicGraph.from_edges(edges, vertices=vertices), **kwargs)

    @classmethod
    def from_edge_list_file(cls, path, **kwargs) -> "MISMaintainer":
        """Build a maintainer from a SNAP-style edge-list file."""
        return cls(read_edge_list(path), **kwargs)

    def save(self, path) -> None:
        """Checkpoint graph + maintained set to a JSON file.

        A checkpoint restores in O(n + m) with **no recomputation** — the
        stored set is the fixpoint already (restore calls :meth:`verify`).
        """
        import json

        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "num_workers": self.num_workers,
            "strategy": self.strategy.value,
            "vertices": self.graph.sorted_vertices(),
            "edges": [list(e) for e in self.graph.sorted_edges()],
            "independent_set": sorted(self.independent_set()),
            "updates_applied": self.updates_applied,
        }
        # one C-encoder dumps call: json.dump streams through the much
        # slower pure-Python encoder, for the same bytes
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload))

    @classmethod
    def load(cls, path, verify: bool = True,
             num_workers: Optional[int] = None, **kwargs) -> "MISMaintainer":
        """Restore a maintainer from a :meth:`save` checkpoint.

        Every way a checkpoint can be bad — missing file, truncated or
        corrupt JSON, wrong or future schema version, malformed vertex ids —
        raises :class:`~repro.errors.CheckpointError` naming the path and
        the reason; callers never see a bare ``json.JSONDecodeError`` or
        ``KeyError``.

        ``num_workers`` pins the cluster size the caller's engine is
        configured for: a checkpoint saved under a different worker count
        raises ``CheckpointError("partition mismatch: ...")`` with both
        counts instead of silently resuming onto the wrong partitioning
        (host/guest directories would disagree with every meter and with a
        failover coordinator's membership view).  ``None`` (the default)
        adopts the checkpoint's own count.  Extra keyword arguments
        (``faults``, ``membership``, ``partitioner``, ``runtime``, ...)
        pass through to the constructor.
        """
        import json

        from repro.errors import CheckpointError

        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise CheckpointError(path, exc.strerror or str(exc)) from exc
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                path, f"truncated or corrupt JSON ({exc})"
            ) from exc
        if not isinstance(payload, dict) \
                or payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                path, f"not a {CHECKPOINT_FORMAT} document"
            )
        version = payload.get("version")
        if not isinstance(version, int) or not 1 <= version <= CHECKPOINT_VERSION:
            raise CheckpointError(
                path,
                f"unsupported checkpoint version {version!r} "
                f"(this build reads 1..{CHECKPOINT_VERSION})",
            )
        try:
            vertices = [int(u) for u in payload["vertices"]]
            edges = [(int(u), int(v)) for u, v in payload["edges"]]
            members = {int(u) for u in payload["independent_set"]}
            saved_workers = int(payload["num_workers"])
            strategy = ActivationStrategy(payload["strategy"])
            updates_applied = int(payload.get("updates_applied", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(path, f"malformed payload: {exc}") from exc
        bad = [u for u in vertices if u < 0]
        bad += [u for e in edges for u in e if u < 0]
        if bad:
            raise CheckpointError(
                path, f"negative vertex id(s): {sorted(set(bad))[:5]}"
            )
        if saved_workers < 1:
            raise CheckpointError(
                path, f"num_workers must be >= 1, got {saved_workers}"
            )
        if num_workers is not None and num_workers != saved_workers:
            raise CheckpointError(
                path,
                f"partition mismatch: checkpoint has {saved_workers} "
                f"worker(s), engine configured for {num_workers}",
            )
        try:
            graph = DynamicGraph.from_edges(edges, vertices=vertices)
        except Exception as exc:
            raise CheckpointError(path, f"invalid graph: {exc}") from exc
        maintainer = cls(
            graph,
            num_workers=saved_workers,
            strategy=strategy,
            resume_states={u: (u in members) for u in graph.vertices()},
            **kwargs,
        )
        maintainer.updates_applied = updates_applied
        if verify:
            maintainer.verify()
        return maintainer

    def stats(self) -> Dict[str, float]:
        """A snapshot of set size and accumulated maintenance costs."""
        snapshot = {
            "vertices": self.graph.num_vertices,
            "edges": self.graph.num_edges,
            "set_size": float(len(self)),
            "updates_applied": float(self.updates_applied),
            "batches_applied": float(self.batches_applied),
            "supersteps": float(self.update_metrics.supersteps),
            "active_vertices": float(self.update_metrics.active_vertices),
            "communication_mb": self.update_metrics.communication_mb,
            "memory_mb": self.update_metrics.memory_mb,
            "wall_time_s": self.update_metrics.wall_time_s,
        }
        # fault-recovery and anti-entropy overhead accrues on whichever run
        # was faulted (the initial static run or the update runs) — report
        # the sum
        init_recovery = self.init_metrics.recovery_summary()
        for name, value in self.update_metrics.recovery_summary().items():
            snapshot[name] = float(init_recovery[name] + value)
        init_divergence = self.init_metrics.divergence_summary()
        for name, value in self.update_metrics.divergence_summary().items():
            snapshot[name] = float(init_divergence[name] + value)
        return snapshot
