"""ScaleG: synchronization-based vertex-centric engine.

ScaleG (Wang et al., TKDE 2021) is the Pregel variation the paper deploys
on.  Instead of per-edge messages, every vertex ``u`` keeps a *guest copy*
of its state on each other machine hosting a neighbour of ``u``; at the end
of a superstep, changed states are synced **once per machine** and remote
neighbours are activated through the guest's inverted index.  Every vertex
can therefore read all neighbours' states locally in the next superstep —
exactly what OIMIS's line 5 needs.

Semantics implemented here:

- BSP with double-buffered states: ``compute`` for superstep ``s`` reads the
  states as of the end of superstep ``s-1`` (its own included).
- A vertex runs in superstep ``s+1`` iff something activated it during
  superstep ``s`` (programs activate explicitly; the engine never
  auto-activates).
- Cost accounting per superstep:
  * each changed vertex ships ``id + sync_bytes(state)`` (+framing) to each
    guest machine;
  * each remotely-activated neighbour adds a compact activation entry,
    piggybacked on the sync record when the activator changed state, or a
    standalone small message otherwise;
  * worker-local syncs and activations are free on the wire.
- Compute work: one unit per neighbour-state read
  (:meth:`ScaleGContext.neighbor_state` / :meth:`ScaleGContext.rank_of`),
  so an early-``break`` scan (OIMIS line 8) is measurably cheaper than a
  full scan (the SCALL baseline).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import (
    SuperstepLimitExceeded,
    SyncRetryExhausted,
    WorkerFailure,
    WorkerLoss,
)
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.distributed_graph import DistributedGraph
    from repro.graph.rank_cache import RankedAdjacency
from repro.pregel.metrics import (
    ACTIVATION_ENTRY_BYTES,
    MESSAGE_OVERHEAD_BYTES,
    VERTEX_ID_BYTES,
    RunMetrics,
    SuperstepRecord,
)


class ScaleGProgram(ABC):
    """A vertex program for the synchronization-based engine."""

    @abstractmethod
    def initial_state(self, dgraph: "DistributedGraph", u: int) -> Any:
        """State of ``u`` before the first superstep."""

    @abstractmethod
    def compute(self, ctx: "ScaleGContext") -> None:
        """One vertex's superstep: read neighbour states, set own state,
        request activations."""

    @abstractmethod
    def sync_bytes(self, state: Any) -> int:
        """Serialized size of ``state`` when synced to a guest copy."""

    def state_bytes(self, state: Any) -> int:
        """Resident size of ``state`` (memory meter); defaults to sync size."""
        return self.sync_bytes(state)

    def contract_members(self, states: Dict[int, Any]) -> Optional[Set[int]]:
        """Members of the independent set this program maintains, or ``None``.

        Programs that compute an independent set override this so the
        runtime contract checker (:mod:`repro.analysis.runtime`) can assert
        independence + maximality at convergence; ``None`` (the default)
        skips the convergence contract.
        """
        return None

    def rank_cache(self, graph) -> RankedAdjacency:
        """The rank-ordered adjacency cache ``compute`` scans via
        :meth:`ScaleGContext.ranked_neighbors`.

        Defaults to the graph's shared ``(degree, id)`` cache — the paper's
        ``≺``.  Programs driven by a different total order (the weighted
        extension's ``≺_w``) override this with a custom-key cache.
        """
        return graph.rank_cache()

    def csr_kernel(self):
        """Array-native sweep kernel for ``representation="csr"``, or
        ``None`` (the default) when this program only runs the dict path.

        A kernel (e.g. :class:`~repro.graph.csr.OIMISKernel`) replays the
        whole compute sweep as vectorized array passes and must be
        bit-identical to ``compute`` on every meter; programs without one
        silently keep the dict path even under ``representation="csr"``.
        """
        return None

    def uniform_state_bytes(self) -> Optional[int]:
        """Constant resident size per state, or ``None`` if state sizes
        vary.  A constant lets the engine take the O(num_workers)
        closed-form memory snapshot instead of the O(n) per-vertex walk;
        both produce identical integers."""
        return None


class ScaleGContext:
    """Per-vertex view handed to :meth:`ScaleGProgram.compute`."""

    __slots__ = ("_engine", "vertex", "superstep", "_old", "_new", "_changed",
                 "_work", "_activations", "_pred_activations", "_force_sync")

    def __init__(self, engine: "ScaleGEngine", vertex: int, superstep: int,
                 state: Any):
        self._engine = engine
        self.vertex = vertex
        self.superstep = superstep
        self._old = state
        self._new = state
        self._changed = False
        self._work = 0
        #: activation targets without a predicate (the common case — kept
        #: as bare ids so the hot loop allocates no per-activation tuples)
        self._activations: List[int] = []
        #: activation targets whose predicate runs at the barrier
        self._pred_activations: List[Tuple[int, Any]] = []
        self._force_sync = False

    def _reset(self, vertex: int, superstep: int, state: Any) -> None:
        """Rearm for the next vertex (the engine reuses one context across
        the whole active sweep; activation lists are detached on hand-off,
        so they are always empty here)."""
        self.vertex = vertex
        self.superstep = superstep
        self._old = state
        self._new = state
        self._changed = False
        self._work = 0
        self._force_sync = False

    # -- own state -----------------------------------------------------
    @property
    def state(self) -> Any:
        """Own state (the value being written this superstep)."""
        return self._new

    def set_state(self, new_state: Any) -> None:
        self._new = new_state
        self._changed = new_state != self._old

    @property
    def changed(self) -> bool:
        """Whether :meth:`set_state` changed the value this superstep."""
        return self._changed

    # -- neighbour reads (each charged one work unit) -------------------
    def neighbor_state(self, v: int) -> Any:
        """State of neighbour ``v`` as of the previous superstep.

        Served from the local guest copy — free on the wire, one compute
        unit on the meter.
        """
        self._work += 1
        return self._engine._states[v]

    def rank_of(self, v: int) -> Tuple[int, int]:
        """``(degree, id)`` of ``v`` — the paper's total order ``≺`` key.

        Degrees live with the (guest) vertex record, so this is a local
        read; charged with the accompanying state read, not separately.
        """
        return (self._engine.dgraph.degree(v), v)

    def neighbors(self) -> Set[int]:
        return self._engine.dgraph.neighbors(self.vertex)

    def sorted_neighbors(self) -> List[int]:
        """Neighbours in ascending id order (deterministic scans)."""
        return sorted(self._engine.dgraph.neighbors(self.vertex))

    def ranked_neighbors(self) -> List[int]:
        """Neighbours in ascending ``≺`` rank order (a live cached view —
        do not mutate).

        Served from the engine's rank-ordered adjacency cache, which graph
        updates repair incrementally; like the adjacency itself it lives
        with the (guest) vertex records, so reading it is free on the meter.
        Scanning in this order lets Algorithm 2's early ``break`` stop at
        the first dominating in-neighbour — and stop scanning entirely once
        a neighbour no longer precedes this vertex.
        """
        ranked = self._engine._ranked
        if ranked is None:
            # context used outside run() (tests, tools): default ≺ cache
            ranked = self._engine._ranked = self._engine.dgraph.graph.rank_cache()
        return ranked.ranked_neighbors(self.vertex)

    def degree(self) -> int:
        return self._engine.dgraph.degree(self.vertex)

    # -- activation ------------------------------------------------------
    def activate(self, v: int, predicate: Any = None) -> None:
        """Schedule ``v`` to run in the next superstep.

        ``predicate``, if given, is ``f(source_state, target_state) -> bool``
        evaluated *after* every vertex's new state is applied — i.e. against
        the end-of-superstep states, which is what a real ScaleG deployment
        sees when the guest sync lands.  A false predicate drops the
        activation before it is shipped (no wire cost).  The same-status
        optimization (Lemma 5.2) needs exactly this: comparing statuses at
        the end of the superstep, not mid-compute snapshots.
        """
        if predicate is None:
            self._activations.append(v)
        else:
            self._pred_activations.append((v, predicate))

    def force_sync(self) -> None:
        """Ship this vertex's state to its guest copies even if unchanged.

        Models DisMIS's synchronization superstep (Algorithm 1 line 22),
        where still-``Unknown`` vertices re-broadcast ``(id, status, info)``
        each round — the main source of DisMIS's extra communication that
        Table II measures.
        """
        self._force_sync = True

    def charge(self, work: int = 1) -> None:
        """Account extra compute units beyond neighbour reads."""
        self._work += work


@dataclass
class ScaleGResult:
    """Final vertex states plus the run's metrics."""

    states: Dict[int, Any]
    metrics: RunMetrics
    #: run-entry value of every state the run overwrote (a vertex whose
    #: state changed and changed back is listed too)
    overwritten: Dict[int, Any] = field(default_factory=dict)


class ScaleGEngine:
    """Executes a :class:`ScaleGProgram` over a :class:`DistributedGraph`.

    The engine can be reused across runs on the same (mutating) graph: the
    dynamic maintenance driver keeps one engine, mutates the graph between
    runs, and passes the previous run's states back in.
    """

    def __init__(self, dgraph: "DistributedGraph", contracts=None, faults=None,
                 membership=None, runtime=None, sanitize=None,
                 representation=None):
        """``contracts``: ``None`` defers to the ``REPRO_CONTRACTS`` env
        flag, ``True``/``False`` force runtime contract checking on/off, or
        pass a :class:`~repro.analysis.runtime.ContractChecker` directly.
        ``faults``: a :class:`~repro.faults.plan.FaultPlan` or
        :class:`~repro.faults.injector.FaultInjector` enabling seeded fault
        injection + recovery; ``None`` (or an empty plan) leaves the hot
        loop exactly as in the fault-free build.
        ``membership``: a :class:`~repro.faults.membership.MembershipConfig`
        or :class:`~repro.faults.membership.FailoverCoordinator` enabling
        permanent-loss failover and guest anti-entropy; ``None``
        auto-attaches a default coordinator exactly when the fault plan
        schedules losses or guest corruption.
        ``runtime``: execution backend for the compute sweep — ``None`` /
        ``"inline"`` (serial, the default), ``"process"`` (multi-process
        :class:`~repro.runtime.parallel.ParallelRuntime`), or an
        :class:`~repro.runtime.base.ExecutionBackend` instance (shared
        backends stay owned by the caller).
        ``sanitize``: ``None`` defers to the ``REPRO_SANITIZE`` env flag,
        ``True``/``False`` force the superstep race sanitizer on/off, or
        pass a :class:`~repro.analysis.parallel.RaceSanitizer` directly;
        when on, the backend is wrapped to record per-worker read/write
        sets each superstep and flag races.
        ``representation``: ``"dict"`` (the reference hot path) or
        ``"csr"`` (flat-array partition mirror, vectorized sweeps for
        programs that provide a :meth:`ScaleGProgram.csr_kernel`);
        ``None`` defers to the ``REPRO_REPRESENTATION`` env flag."""
        from repro.analysis.parallel.sanitizer import resolve_sanitizer
        from repro.analysis.runtime import resolve_contracts
        from repro.faults.injector import resolve_faults
        from repro.faults.membership import resolve_membership
        from repro.graph.csr import resolve_representation
        from repro.runtime import resolve_runtime

        self.dgraph = dgraph
        self._states: Dict[int, Any] = {}
        self._ranked: Optional[RankedAdjacency] = None
        self._representation = resolve_representation(representation)
        #: CSR mirror + kernel for the current run (None on the dict path)
        self._csr = None
        self._csr_kernel = None
        #: True when the run can use typed-delta barriers (no faults, no
        #: sanitizer, no isolation snapshots)
        self._csr_fast = False
        self._contracts = resolve_contracts(contracts)
        self._faults = resolve_faults(faults)
        self._membership = membership
        self._failover = resolve_membership(membership, self._faults, dgraph)
        self._sanitizer = resolve_sanitizer(sanitize)
        backend = resolve_runtime(runtime)
        if self._sanitizer is not None:
            backend = self._sanitizer.wrap(backend)
        self._runtime = backend

    @property
    def failover(self):
        """The attached failover coordinator (``None`` when neither the
        fault plan nor the caller asked for membership tracking)."""
        return self._failover

    @property
    def runtime(self):
        """The execution backend driving this engine's compute sweeps."""
        return self._runtime

    @property
    def sanitizer(self):
        """The attached race sanitizer (``None`` when sanitizing is off)."""
        return self._sanitizer

    @property
    def representation(self) -> str:
        """Partition representation driving the sweeps (``dict``/``csr``)."""
        return self._representation

    def close(self) -> None:
        """Release the execution backend's resources (worker processes,
        published shared-memory frames)."""
        self._runtime.close()
        part = getattr(self.dgraph, "_csr_partition", None)
        if part is not None:
            part.release_shared()

    def run(
        self,
        program: ScaleGProgram,
        initial_active: Optional[Iterable[int]] = None,
        max_supersteps: Optional[int] = None,
        states: Optional[Dict[int, Any]] = None,
        metrics: Optional[RunMetrics] = None,
        keep_records: bool = True,
        faults=None,
    ) -> ScaleGResult:
        """Run ``program`` until no vertex is active.

        ``initial_active`` defaults to all vertices (static computation).
        ``states`` resumes from existing states (dynamic maintenance).  On
        the CSR path, passing the partition's own
        :class:`~repro.graph.csr.CSRStates` runs on the bitmap with no
        copy; any other dict is bulk loaded into the bitmap at entry and
        receives the overwritten entries back on success.
        ``metrics`` lets callers accumulate multiple runs into one meter.
        ``keep_records`` disables per-superstep record retention for very
        long update streams (the aggregate counters still accumulate).
        ``faults`` overrides the engine's fault injector for this run.

        Exception safety: if the run raises (:class:`SuperstepLimitExceeded`,
        an unrecoverable :class:`WorkerFailure`, a contract violation), every
        entry of ``states`` is restored to its value at run entry — no
        partially converged superstep leaks into a caller's resumed states.
        """
        from repro.faults.injector import resolve_faults
        graph = self.dgraph.graph
        own_metrics = metrics if metrics is not None else RunMetrics(
            num_workers=self.dgraph.num_workers
        )
        started = time.perf_counter()

        if states is None:
            states = {
                u: program.initial_state(self.dgraph, u) for u in graph.vertices()
            }
        caller_states = states
        if max_supersteps is None:
            max_supersteps = 4 * max(graph.num_vertices, 1) + 16

        if initial_active is None:
            active: List[int] = graph.sorted_vertices()
        else:
            active = sorted(set(initial_active) & graph.vertex_keys())

        dgraph = self.dgraph
        is_remote_pair = dgraph.is_remote_pair
        contracts = self._contracts
        if faults is not None:
            injector = resolve_faults(faults)
            failover = self._failover
            if failover is None:
                from repro.faults.membership import resolve_membership

                failover = resolve_membership(self._membership, injector, dgraph)
        else:
            injector = self._faults
            failover = self._failover
        if injector is not None:
            injector.begin_run()
        # marking corrupted guest copies needs both the schedule and the
        # auditor that will eventually catch them
        corrupts = (
            injector is not None and failover is not None
            and injector.plan.schedules_corruption
        )
        # the O(active·deg) read-set sweep is only needed when the checker
        # actually snapshots (isolation on); otherwise skip it entirely
        check_isolation = contracts is not None and contracts.check_isolation
        self._csr = None
        self._csr_kernel = None
        self._csr_fast = False
        kernel = (
            program.csr_kernel() if self._representation == "csr" else None
        )
        if kernel is not None:
            from repro.graph.csr import CSRPartition

            part = CSRPartition.attach(dgraph)
            part.ensure()
            if states is not part.states:
                part.sync_states(states)  # a dict from outside: bulk load
                states = part.states
            self._csr = part
            self._csr_kernel = kernel
            # typed-delta barriers only when nothing needs the standard
            # request lists; otherwise the kernel materializes them and
            # the dict-path barrier below runs unchanged
            self._csr_fast = (
                injector is None
                and self._sanitizer is None
                and not check_isolation
            )
            # ranked cache not needed for kernel sweeps; the context
            # lazily builds the default one if recovery paths ask
            self._ranked = None
        else:
            self._ranked = program.rank_cache(graph)
        self._states = states
        runtime = self._runtime
        runtime.bind(self)
        runtime.begin_run(program, states)
        sanitizer = self._sanitizer
        if sanitizer is not None:
            sanitizer.begin_engine_run(own_metrics, dgraph.num_workers)

        superstep = 0
        ran_supersteps = 0
        #: run-entry values of every state this run overwrote, restored if
        #: the run raises (exception safety for resumed maintenance states)
        dirty: Dict[int, Any] = {}
        try:
            while active:
                if ran_supersteps >= max_supersteps:
                    raise SuperstepLimitExceeded(max_supersteps)
                record = SuperstepRecord(superstep=superstep)
                record.worker_work = [0] * dgraph.num_workers

                checkpoint = None
                if injector is not None:
                    from repro.faults.recovery import SuperstepCheckpoint

                    checkpoint = SuperstepCheckpoint.capture(
                        superstep, states, active, dgraph
                    )

                if check_isolation:
                    read_set: Set[int] = set(active)
                    for u in active:
                        read_set.update(graph.neighbors(u))
                    contracts.begin_superstep(superstep, read_set, states)

                # parallel backends pre-draw the barrier's fault schedule
                # so the owning worker processes observe their own faults;
                # draws are pure keyed hashes + fire-once, so the values
                # match what the inline barrier would draw below
                draws = None
                if injector is not None:
                    draws = runtime.predraw(
                        injector, superstep, dgraph.num_workers
                    )

                try:
                    sweep = runtime.sweep_scaleg(active, superstep, draws)
                    new_states = sweep.new_states
                    changed = sweep.changed
                    forced = sweep.forced
                    requests = sweep.requests
                    record.compute_work = sweep.compute_work
                    record.worker_work = sweep.worker_work
                    record.active_vertices = len(active)

                    if injector is not None:
                        if draws is not None and sweep.fault_echo != draws.echo():
                            from repro.errors import ParallelRuntimeError

                            raise ParallelRuntimeError(
                                f"superstep {superstep}: worker fault echo "
                                f"{sweep.fault_echo!r} disagrees with the "
                                f"barrier draws {draws.echo()!r}"
                            )
                        if failover is not None:
                            failover.view.advance()
                        # -- worker sweep: straggler delays (modelled time)
                        if draws is None:
                            for w in range(dgraph.num_workers):
                                delay = injector.straggler_delay(superstep, w)
                                if delay:
                                    own_metrics.recovery_straggler_s += delay
                                    own_metrics.wall_time_s += delay
                                if failover is not None and not failover.is_dead(w):
                                    # injector delays are *flagged* stragglers:
                                    # the detector must never count them toward
                                    # suspicion (slow is not dead)
                                    failover.view.heartbeat(
                                        w, delay_s=delay, injected=True
                                    )
                        else:
                            # pre-drawn path: apply each worker's echoed
                            # increments exactly once, in ascending worker
                            # order — the inline accumulation order, so the
                            # float meters stay bit-identical
                            for w, delay in enumerate(draws.delays):
                                if delay:
                                    own_metrics.merge_delta({
                                        "recovery_straggler_s": delay,
                                        "wall_time_s": delay,
                                    })
                                if failover is not None and not failover.is_dead(w):
                                    failover.view.heartbeat(
                                        w, delay_s=delay, injected=True
                                    )
                        # -- barrier: permanent losses (silence, not delay)
                        lost = draws.lost if draws is not None else (
                            injector.lost_workers(
                                superstep, range(dgraph.num_workers)
                            )
                        )
                        if lost:
                            raise_loss = WorkerLoss(
                                lost[0], superstep,
                                f"{len(lost)} worker(s) declared permanently "
                                "dead at the barrier",
                            )
                            raise_loss.workers = lost
                            raise raise_loss
                        # -- barrier commit: crash detection
                        crashed = draws.crashed if draws is not None else (
                            injector.crashed_workers(
                                superstep, range(dgraph.num_workers)
                            )
                        )
                        if crashed:
                            failure = WorkerFailure(
                                crashed[0], superstep,
                                f"{len(crashed)} worker(s) crashed at the "
                                "barrier",
                            )
                            failure.workers = crashed
                            raise failure
                except SyncRetryExhausted:
                    raise  # unrecoverable: escalate to the caller
                except WorkerLoss as loss:
                    if checkpoint is None or failover is None:
                        raise  # no membership subsystem: unrecoverable
                    # membership failover: declare the workers dead, hand
                    # their partitions to survivors (rendezvous), rebuild
                    # each lost host from the freshest surviving guest copy
                    # (or the delta log / barrier checkpoint), then replay
                    # the superstep on the shrunken cluster.  All costs go
                    # to the recovery meters; the logical meters keep the
                    # fault-free placement.
                    own_metrics.recovery_replayed_supersteps += 1
                    own_metrics.recovery_compute_work += record.compute_work
                    targets = failover.fail_over(
                        loss.workers or [loss.worker], superstep,
                        checkpoint, states, own_metrics, program.sync_bytes,
                    )
                    active = checkpoint.restore(states)
                    if targets:
                        self._recovery_sweep(
                            program, targets, superstep, own_metrics
                        )
                    continue
                except WorkerFailure as failure:
                    if checkpoint is None:
                        raise  # not injected by us: no checkpoint to replay
                    # rollback-and-replay: nothing from this attempt has
                    # committed; restore the barrier checkpoint, rebuild the
                    # crashed workers' guest copies from host state, charge
                    # everything to the recovery meters, and replay.
                    from repro.faults.recovery import guest_rebuild_cost

                    crashed = getattr(failure, "workers", [failure.worker])
                    own_metrics.recovery_crashes += len(crashed)
                    own_metrics.recovery_replayed_supersteps += 1
                    own_metrics.recovery_compute_work += record.compute_work
                    rebuild_bytes, rebuild_records = guest_rebuild_cost(
                        dgraph, crashed, program.sync_bytes, checkpoint.states
                    )
                    own_metrics.recovery_resync_bytes += rebuild_bytes
                    own_metrics.recovery_resync_messages += rebuild_records
                    active = checkpoint.restore(states)
                    continue

                if contracts is not None:
                    contracts.at_barrier(superstep, states)
                for u in new_states:
                    if u not in dirty:
                        dirty[u] = states[u]
                states.update(new_states)
                runtime.commit(new_states)

                if sweep.csr is not None:
                    # array fast path: sync + activation charging from the
                    # typed delta arrays (post-commit, like the loops below)
                    from repro.graph.csr import finish_barrier

                    next_active = finish_barrier(
                        self._csr, self._csr_kernel, sweep.csr, changed,
                        record, dgraph,
                    )
                    own_metrics.observe(record, keep_record=keep_records)
                    if failover is not None:
                        self._apply_membership_transitions(
                            failover, injector, superstep, states,
                            own_metrics, program.sync_bytes,
                        )
                    active = sorted(next_active)
                    superstep += 1
                    ran_supersteps += 1
                    continue

                # --- charge state sync: once per (synced vertex, guest machine)
                changed_set = set(changed)
                record.state_changes = len(changed)
                guest_machines = dgraph.guest_machines
                sync_bytes = program.sync_bytes
                sync_order = changed + forced
                if injector is not None:
                    permuted = injector.permute(superstep, sync_order)
                    if permuted is not sync_order:
                        own_metrics.recovery_reorders += 1
                        sync_order = permuted
                for u in sync_order:
                    payload = VERTEX_ID_BYTES + sync_bytes(states[u])
                    for _machine in guest_machines(u):
                        wire = MESSAGE_OVERHEAD_BYTES + payload
                        if injector is not None:
                            drops = injector.sync_drops(superstep, u, _machine)
                            if drops:
                                if drops > injector.max_retries:
                                    raise SyncRetryExhausted(
                                        u, _machine, drops, superstep
                                    )
                                own_metrics.recovery_sync_retries += drops
                                own_metrics.recovery_resync_bytes += drops * wire
                                own_metrics.recovery_resync_messages += drops
                                own_metrics.recovery_backoff_s += (
                                    injector.backoff_time(drops)
                                )
                            dups = injector.sync_duplicates(superstep, u, _machine)
                            if dups:
                                own_metrics.recovery_sync_duplicates += dups
                                own_metrics.recovery_resync_bytes += dups * wire
                                own_metrics.recovery_resync_messages += dups
                            if corrupts and injector.corrupt_guest(
                                superstep, u, _machine
                            ):
                                # the delivered copy silently diverges in the
                                # replica — only the auditor can see it
                                failover.mark_corrupted(u, _machine)
                        record.remote_messages += 1
                        record.bytes_sent += wire

                # --- filter + charge activation routing, build next active ----
                synced_set = changed_set.union(forced)
                next_active: Set[int] = set()
                has_vertex = graph.has_vertex
                for source, plain, predicated in requests:
                    for target in plain:
                        if not has_vertex(target):
                            continue
                        next_active.add(target)
                        record.messages += 1
                        if is_remote_pair(source, target):
                            record.remote_messages += 1
                            if source in synced_set:
                                # piggybacked on the sync record already shipped
                                # to the target's machine
                                record.bytes_sent += ACTIVATION_ENTRY_BYTES
                            else:
                                record.bytes_sent += (
                                    MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                                )
                    if not predicated:
                        continue
                    source_state = states[source]
                    for target, predicate in predicated:
                        if not has_vertex(target):
                            continue
                        if not predicate(source_state, states[target]):
                            continue
                        next_active.add(target)
                        record.messages += 1
                        if is_remote_pair(source, target):
                            record.remote_messages += 1
                            if source in synced_set:
                                record.bytes_sent += ACTIVATION_ENTRY_BYTES
                            else:
                                record.bytes_sent += (
                                    MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                                )
                if injector is not None and failover is not None:
                    # bounded delta log (reconstruction source for solitary
                    # vertices) + this superstep's sampled anti-entropy pass
                    failover.record_deltas(
                        changed, states, sync_bytes, own_metrics
                    )
                    failover.audit(states, sync_bytes, own_metrics)
                own_metrics.observe(record, keep_record=keep_records)
                if failover is not None:
                    self._apply_membership_transitions(
                        failover, injector, superstep, states,
                        own_metrics, program.sync_bytes,
                    )
                active = sorted(next_active)
                superstep += 1
                ran_supersteps += 1
        except BaseException:
            # leave no partial superstep behind: callers resuming from
            # ``states`` (dynamic maintenance) see their run-entry values
            for u, value in sorted(dirty.items()):
                states[u] = value
            raise
        finally:
            if sanitizer is not None:
                sanitizer.end_engine_run(own_metrics)

        if states is not caller_states:
            for u in dirty:
                caller_states[u] = states[u]
        if self._contracts is not None:
            members = program.contract_members(states)
            if members is not None:
                self._contracts.at_convergence(graph, members)

        per_worker = self._memory_snapshot(program, states)
        own_metrics.observe_memory(per_worker)
        own_metrics.wall_time_s += time.perf_counter() - started
        return ScaleGResult(states=caller_states, metrics=own_metrics,
                            overwritten=dirty)

    # ------------------------------------------------------------------
    def _apply_membership_transitions(
        self, failover, injector, superstep: int, states: Dict[int, Any],
        metrics: RunMetrics, sync_bytes,
    ) -> None:
        """Apply voluntary joins/drains due at this barrier's end.

        Runs *after* commit, so a crash raised earlier this superstep has
        already rolled back before any transition consumes (and the
        injector's fire-once keys make a replayed barrier safe anyway).
        A transition invalidates the published CSR frame: the partition's
        structure version bumps so the next sweep reships it.
        """
        applied_before = len(failover.transitions)
        failover.barrier_transitions(
            superstep, states, metrics, sync_bytes, injector
        )
        if len(failover.transitions) > applied_before and self._csr is not None:
            self._csr.mark_membership_change()

    # ------------------------------------------------------------------
    def _recovery_sweep(self, program: ScaleGProgram, targets: List[int],
                        superstep: int, metrics: RunMetrics) -> None:
        """Re-examine the DOIMIS affected set after a failover.

        Every reconstructed host and each of its neighbours recomputes
        against the restored barrier states.  Reconstruction is exact —
        surviving guest copies are barrier-fresh, the delta log and the
        checkpoint are barrier snapshots — so this sweep *verifies* rather
        than repairs: state writes and activation requests are discarded
        (the replayed superstep redoes the real work), and the verification
        work is charged to ``recovery_compute_work`` so the logical meters
        stay bit-identical to the fault-free run's.
        """
        ctx = ScaleGContext(self, 0, 0, None)
        states = self._states
        graph = self.dgraph.graph
        for u in targets:
            if not graph.has_vertex(u) or u not in states:
                continue
            ctx._reset(u, superstep, states[u])
            program.compute(ctx)
            metrics.recovery_compute_work += max(ctx._work, 1)
            ctx._activations = []
            ctx._pred_activations = []

    # ------------------------------------------------------------------
    def charge_graph_update(
        self,
        endpoints: Iterable[int],
        new_guests: Iterable[int],
        program: ScaleGProgram,
        states: Dict[int, Any],
        metrics: RunMetrics,
    ) -> None:
        """Charge the communication a graph update itself costs.

        Per the paper (Section IV-A): an edge update changes the degrees of
        its endpoints, and "the updated degree of a vertex will be sent to
        its copies in other machines".  Additionally, a brand-new guest copy
        (an endpoint becomes adjacent to a machine that had no replica)
        ships the full vertex state once: ``new_guests`` lists the vertex
        gaining each new copy (one entry per copy), so variable-size states
        (weighted programs, dict states) are priced at *that* vertex's own
        ``sync_bytes``, not an arbitrary sample's.
        """
        from repro.pregel.metrics import DEGREE_BYTES

        for u in endpoints:
            if not self.dgraph.has_vertex(u):
                continue
            copies = len(self.dgraph.guest_machines(u))
            metrics.bytes_sent += copies * (
                MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES + DEGREE_BYTES
            )
            metrics.remote_messages += copies
        for u in new_guests:
            state = states.get(u)
            payload = VERTEX_ID_BYTES + (
                program.sync_bytes(state) if state is not None else 8
            )
            metrics.bytes_sent += MESSAGE_OVERHEAD_BYTES + payload
            metrics.remote_messages += 1

    def _memory_snapshot(
        self, program: ScaleGProgram, states: Dict[int, Any]
    ) -> Dict[int, int]:
        uniform = program.uniform_state_bytes()
        if uniform is not None and len(states) == self.dgraph.graph.num_vertices:
            # constant state size: closed-form per-worker totals (same
            # integers as the per-vertex walk, O(num_workers) instead of
            # O(n + guests))
            return self.dgraph.structural_memory_bytes_uniform(uniform)
        state_bytes = {u: program.state_bytes(s) for u, s in sorted(states.items())}
        return self.dgraph.structural_memory_bytes(state_bytes)
