"""Superstep checkpoints and recovery costing.

ScaleG/Pregel recovery follows the classic BSP rollback protocol:

1. at the top of every superstep (while an injector is active) the engine
   captures a :class:`SuperstepCheckpoint` — vertex states, the pending
   activation set, and the guest directory;
2. a crash detected at the barrier aborts the attempt *before* any buffered
   write commits, raises-and-handles a typed
   :class:`~repro.errors.WorkerFailure` internally, restores the checkpoint
   (defensive: even a program that broke double-buffer discipline mid-sweep
   is rolled back), rebuilds the crashed workers' guest tables from host
   state, and replays the superstep;
3. everything the recovery cost — the aborted sweep's compute, the guest
   rebuild bytes — lands on the ``recovery_*`` meters, never the logical
   ones, so a recovered run's logical meters are bit-identical to the
   fault-free run's (the chaos oracle).

The checkpoint's JSON payload follows the
:meth:`~repro.core.maintainer.MISMaintainer.save` conventions (``format`` /
``version`` header, sorted vertex keys) so checkpoints can be persisted and
audited with the same tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.errors import CheckpointError
from repro.pregel.metrics import MESSAGE_OVERHEAD_BYTES, VERTEX_ID_BYTES

FORMAT = "repro-mis-superstep-checkpoint"
VERSION = 1


def _snapshot_states(states: Dict[int, Any]) -> Dict[int, Any]:
    """Value snapshot of a state map (deep-copies mutable states)."""
    from repro.analysis.runtime import _snapshot

    return {u: _snapshot(s) for u, s in states.items()}


@dataclass
class SuperstepCheckpoint:
    """Everything needed to replay one superstep after a barrier crash."""

    superstep: int
    #: vertex states as of the *previous* barrier
    states: Dict[int, Any]
    #: pending activations — the vertices due to run this superstep
    active: List[int]
    #: guest directory: vertex -> machines holding a guest copy
    guests: Dict[int, List[int]]

    @classmethod
    def capture(cls, superstep: int, states: Dict[int, Any],
                active: List[int], dgraph=None) -> "SuperstepCheckpoint":
        """Snapshot the barrier state (guest tables included when the engine
        runs on ScaleG's guest directory; Pregel has no guest copies)."""
        guests: Dict[int, List[int]] = {}
        if dgraph is not None:
            guests = {
                u: machines
                for u in states
                if (machines := sorted(dgraph.guest_machines(u)))
            }
        return cls(
            superstep=superstep,
            states=_snapshot_states(states),
            active=list(active),
            guests=guests,
        )

    def restore(self, states: Dict[int, Any]) -> List[int]:
        """Reset ``states`` (in place) to the checkpoint; returns the pending
        activation set to replay.  Entries the checkpoint lacks are
        dropped; every other entry is overwritten in one ``update`` (a
        vectorized row write when ``states`` is the CSR bitmap view)."""
        for u in states.keys() - self.states.keys():
            del states[u]
        states.update(_snapshot_states(self.states))
        return list(self.active)

    # ------------------------------------------------------------------
    # persistence (MISMaintainer.save conventions)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """A JSON-able payload (states must themselves be JSON-able)."""
        return {
            "format": FORMAT,
            "version": VERSION,
            "superstep": self.superstep,
            "active": sorted(self.active),
            "states": {str(u): self.states[u] for u in sorted(self.states)},
            "guests": {str(u): self.guests[u] for u in sorted(self.guests)},
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any],
                     path: str = "<payload>") -> "SuperstepCheckpoint":
        """Rebuild from :meth:`to_payload` output, validating the header."""
        if not isinstance(payload, dict) or payload.get("format") != FORMAT:
            raise CheckpointError(path, f"not a {FORMAT} document")
        version = payload.get("version")
        if not isinstance(version, int) or version > VERSION or version < 1:
            raise CheckpointError(
                path, f"unsupported checkpoint version {version!r} "
                f"(this build reads <= {VERSION})"
            )
        try:
            return cls(
                superstep=int(payload["superstep"]),
                states={int(u): s for u, s in payload["states"].items()},
                active=[int(u) for u in payload["active"]],
                guests={int(u): [int(w) for w in ws]
                        for u, ws in payload.get("guests", {}).items()},
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(path, f"malformed payload: {exc}") from exc


def guest_rebuild_cost(dgraph, crashed_workers, sync_bytes_of,
                       states: Dict[int, Any]):
    """Cost of reconstructing guest copies lost with ``crashed_workers``.

    A crashed worker loses every guest copy it hosted; each is rebuilt by
    shipping the owning vertex's current state from its host machine — one
    record per lost copy, priced like a normal sync record.  The guest
    directory (kept in lock-step with the graph) makes enumerating the lost
    copies cheap.  Returns ``(bytes, records)``.
    """
    from repro.scaleg.guest import guest_vertices_on

    crashed = set(crashed_workers)
    bytes_total = 0
    records = 0
    for worker in sorted(crashed):
        for u in guest_vertices_on(dgraph, worker):
            state = states.get(u)
            payload = VERTEX_ID_BYTES + (
                sync_bytes_of(state) if state is not None else 8
            )
            bytes_total += MESSAGE_OVERHEAD_BYTES + payload
            records += 1
    return bytes_total, records
