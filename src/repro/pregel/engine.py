"""Classic message-passing Pregel engine (simulated BSP cluster).

One process simulates ``W`` workers executing Bulk-Synchronous-Parallel
supersteps.  Semantics follow Malewicz et al.:

- A vertex is *active* in superstep ``s+1`` iff it received a message sent
  during superstep ``s`` (or superstep 0, where a caller-selected set — by
  default every vertex — is active).
- ``compute`` sees the messages addressed to the vertex and may send
  messages (delivered next superstep) and update the vertex's state.
- The run terminates when no messages are in flight and no vertex is active.

Costs: messages whose source and destination live on different workers are
charged to the communication meter (framing + payload bytes, after the
optional combiner); worker-local messages are free on the wire but still
counted.  Compute work is whatever the program charges via
:meth:`PregelContext.charge` (the MIS programs charge one unit per neighbour
examined).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.distributed_graph import DistributedGraph
from repro.pregel.aggregator import Aggregator, AggregatorRegistry
from repro.pregel.combiner import Combiner
from repro.pregel.message import Message
from repro.pregel.metrics import RunMetrics
from repro.runtime.bsp import BSPEngine


class PregelProgram(ABC):
    """A vertex program for the message-passing engine."""

    @abstractmethod
    def initial_state(self, dgraph: "DistributedGraph", u: int) -> Any:
        """The state of vertex ``u`` before superstep 0."""

    @abstractmethod
    def compute(self, ctx: "PregelContext") -> None:
        """One vertex's superstep: read ``ctx.messages``, send, set state."""

    def state_bytes(self, state: Any) -> int:
        """Modelled resident size of a vertex state (memory meter)."""
        return 8

    def aggregators(self) -> Dict[str, Aggregator]:
        """Aggregators this program uses (empty by default)."""
        return {}

    def combiner(self) -> Optional[Combiner]:
        """Optional message combiner applied per (worker, destination)."""
        return None

    def contract_members(self, states: Dict[int, Any]) -> Optional[Set[int]]:
        """Members of the independent set this program maintains, or ``None``.

        Programs that compute an independent set override this so the
        runtime contract checker (:mod:`repro.analysis.runtime`) can assert
        independence + maximality at convergence; ``None`` (the default)
        skips the convergence contract.
        """
        return None


class PregelContext:
    """Per-vertex view handed to :meth:`PregelProgram.compute`."""

    __slots__ = (
        "_engine", "vertex", "superstep", "messages", "_state", "_new_state",
        "_changed", "_work",
    )

    def __init__(self, engine: "PregelEngine", vertex: int, superstep: int,
                 messages: List[Any], state: Any):
        self._engine = engine
        self.vertex = vertex
        self.superstep = superstep
        #: payloads of messages received this superstep
        self.messages = messages
        self._state = state
        self._new_state = state
        self._changed = False
        self._work = 0

    # -- state ---------------------------------------------------------
    @property
    def state(self) -> Any:
        """Current state (new value if already set this superstep)."""
        return self._new_state

    def set_state(self, new_state: Any) -> None:
        """Replace the vertex state; change detection is by ``!=``."""
        self._new_state = new_state
        self._changed = new_state != self._state

    # -- topology ------------------------------------------------------
    def neighbors(self) -> Set[int]:
        """This vertex's neighbour ids (local adjacency)."""
        return self._engine.dgraph.neighbors(self.vertex)

    def degree(self) -> int:
        return self._engine.dgraph.degree(self.vertex)

    @property
    def num_vertices(self) -> int:
        return self._engine.dgraph.graph.num_vertices

    # -- messaging -----------------------------------------------------
    def send(self, dest: int, payload: Any, payload_bytes: int) -> None:
        """Send a message to ``dest`` (delivered and activates next superstep)."""
        self._engine._outbox.append(
            Message(self.vertex, dest, payload, payload_bytes)
        )

    def broadcast(self, payload: Any, payload_bytes: int) -> None:
        """Send the same message to every neighbour (in id order, so the
        outbox — and everything downstream of it: combiner grouping, inbox
        payload order — is independent of set-iteration order)."""
        for v in sorted(self.neighbors()):
            self.send(v, payload, payload_bytes)

    # -- bookkeeping ---------------------------------------------------
    def charge(self, work: int = 1) -> None:
        """Account ``work`` compute units (e.g. neighbour comparisons)."""
        self._work += work

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute to a named aggregator (visible next superstep)."""
        self._engine._aggregators.contribute(name, value)

    def aggregated(self, name: str) -> Any:
        """Read last superstep's reduced aggregator value."""
        return self._engine._aggregators.previous(name)


@dataclass
class PregelResult:
    """Final vertex states plus the run's metrics."""

    states: Dict[int, Any]
    metrics: RunMetrics
    aggregates: Dict[str, Any] = field(default_factory=dict)


class PregelEngine(BSPEngine):
    """Executes a :class:`PregelProgram` over a :class:`DistributedGraph`.

    The superstep loop, barrier fault processing and recovery live in
    :class:`~repro.runtime.bsp.BSPEngine`; this class adds message
    delivery (combiner, cost accounting), inbox resync and degraded
    failover, and aggregators.
    """

    def __init__(self, dgraph: "DistributedGraph", contracts=None, faults=None,
                 membership=None, runtime=None, sanitize=None):
        """Arguments as for :class:`~repro.runtime.bsp.BSPEngine`.
        ``membership`` failover here is degraded: no guest copies exist,
        so lost partitions reload from the barrier checkpoint.  The
        message discipline keeps per-vertex message payloads and arbitrary
        state dicts, so sweeps always run the dict reference path."""
        super().__init__(dgraph, contracts=contracts, faults=faults,
                         membership=membership, runtime=runtime,
                         sanitize=sanitize)
        self._outbox: List[Message] = []
        self._aggregators = AggregatorRegistry()
        self._combiner: Optional[Combiner] = None
        #: payloads delivered to each destination at the last barrier
        self._inbox: Dict[int, List[Any]] = {}
        #: wire bytes delivered per destination at the last barrier — the
        #: cost of re-fetching a crashed worker's inbox from the senders'
        #: logs (kept only on fault runs)
        self._inbox_bytes: Dict[int, int] = {}

    def run(
        self,
        program: PregelProgram,
        initial_active: Optional[Iterable[int]] = None,
        max_supersteps: Optional[int] = None,
        states: Optional[Dict[int, Any]] = None,
        metrics: Optional[RunMetrics] = None,
        keep_records: bool = True,
    ) -> PregelResult:
        """Run ``program`` to quiescence and return states + metrics.

        ``initial_active`` defaults to all vertices (static computation);
        dynamic callers pass the affected set.  ``states`` lets a caller
        resume from previously computed states (dynamic maintenance);
        otherwise states come from :meth:`PregelProgram.initial_state`.
        ``metrics`` lets a caller accumulate several runs — possibly across
        engines — into one shared meter (matching
        :meth:`~repro.scaleg.engine.ScaleGEngine.run`): counters add up and
        ``wall_time_s`` accumulates instead of being overwritten.
        ``keep_records`` retains per-superstep records on the meter.

        Raises :class:`SuperstepLimitExceeded` if the program does not
        converge within ``max_supersteps`` (default ``4n + 16``, safely above
        the paper's ``O(n)`` bound).

        Exception safety: if the run raises, every entry of ``states`` is
        restored to its value at run entry — no partially converged
        superstep leaks into a caller's resumed states.
        """
        started = time.perf_counter()
        states, active, max_supersteps, metrics = self._run_entry(
            program, initial_active, max_supersteps, states, metrics
        )
        self._aggregators = AggregatorRegistry(program.aggregators())
        self._combiner = program.combiner()
        self._inbox = {}
        self._inbox_bytes = {}

        self._superstep_loop(
            program, states, active, max_supersteps, metrics, keep_records
        )
        metrics.wall_time_s += time.perf_counter() - started
        aggregates = {
            name: self._aggregators.previous(name)
            for name in self._aggregators.names()
        }
        return PregelResult(states=states, metrics=metrics, aggregates=aggregates)

    # -- BSPEngine hooks -------------------------------------------------
    def _sweep(self, states, active, superstep, draws):
        self._outbox = []
        return self._runtime.sweep_pregel(
            states, active, superstep, self._inbox, draws
        )

    def _fail_over(self, program, failover, lost, superstep, checkpoint,
                   states, metrics):
        # degraded failover: no guest copies to reconstruct from, so the
        # lost partitions reload from the barrier checkpoint
        lost_set = set(lost)
        failover.fail_over_degraded(
            lost_set, superstep, checkpoint, states, metrics,
            program.state_bytes,
        )
        self._replay_prepare(lost_set, metrics)

    def _rebuild_crashed(self, program, crashed, checkpoint, metrics):
        self._replay_prepare(set(crashed), metrics)

    def _replay_prepare(self, workers: Set[int], metrics: RunMetrics) -> None:
        """Ready a replay after ``workers`` failed: they lost their received
        messages (re-fetched from the senders' outbox logs, charged as
        resync), and the aborted sweep's aggregator contributions must not
        double-count."""
        worker_of = self.dgraph.worker_of
        for dest, payloads in self._inbox.items():
            if worker_of(dest) in workers:
                metrics.recovery_resync_bytes += self._inbox_bytes.get(dest, 0)
                metrics.recovery_resync_messages += len(payloads)
        self._aggregators.reset_current()

    def _barrier_transitions(self, program, failover, superstep, states,
                             metrics):
        failover.barrier_transitions(
            superstep, states, metrics, program.state_bytes, self._faults
        )

    def _charge(self, program, sweep, record, superstep, states, metrics):
        """Deliver the outbox (with combining and cost accounting); the
        next active set is the destinations."""
        record.state_changes = len(sweep.new_states)
        injector = self._faults
        graph = self.dgraph.graph
        outbox = self._outbox
        if self._combiner is not None and outbox:
            outbox = self._apply_combiner(self._combiner, outbox)
        if injector is not None:
            outbox = self._shipping_order(superstep, outbox, metrics)
        inbox: Dict[int, List[Any]] = {}
        inbox_bytes: Dict[int, int] = {}
        for msg in outbox:
            if not graph.has_vertex(msg.dest):
                continue  # racing with vertex deletion: drop
            wire = msg.wire_bytes()
            remote = self.dgraph.is_remote_pair(msg.source, msg.dest)
            if injector is not None and remote:
                self._charge_resends(
                    superstep, msg.source, msg.dest, wire, metrics
                )
            record.messages += 1
            if remote:
                record.remote_messages += 1
                record.bytes_sent += wire
            inbox.setdefault(msg.dest, []).append(msg.payload)
            if injector is not None:
                inbox_bytes[msg.dest] = inbox_bytes.get(msg.dest, 0) + wire
        self._inbox = inbox
        self._inbox_bytes = inbox_bytes
        self._aggregators.roll()
        return inbox

    def _snapshot_due(self, superstep):
        # structure + in-flight queue: after the first barrier and after
        # every barrier that leaves messages queued
        return superstep == 0 or bool(self._inbox)

    # ------------------------------------------------------------------
    def _apply_combiner(
        self, combiner: Combiner, outbox: List[Message]
    ) -> List[Message]:
        """Combine messages per (sending worker, destination vertex)."""
        groups: Dict[tuple, List[Message]] = {}
        for msg in outbox:
            key = (self.dgraph.worker_of(msg.source), msg.dest)
            groups.setdefault(key, []).append(msg)
        combined: List[Message] = []
        for key in sorted(groups):
            combined.extend(combiner.combine(groups[key]))
        return combined

    def _memory_snapshot(
        self, program: PregelProgram, states: Dict[int, Any]
    ) -> Dict[int, int]:
        state_bytes = {u: program.state_bytes(s) for u, s in sorted(states.items())}
        per_worker = self.dgraph.structural_memory_bytes(state_bytes)
        for dest, payloads in self._inbox.items():
            per_worker[self.dgraph.worker_of(dest)] += 16 * len(payloads)
        return per_worker
