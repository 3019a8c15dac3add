"""The superstep loop both BSP engines share (:class:`BSPEngine`).

:class:`~repro.scaleg.engine.ScaleGEngine` (guest-copy sync) and
:class:`~repro.pregel.engine.PregelEngine` (message passing) differ in how
a vertex reads its neighbours and in what a barrier ships, but not in the
barrier itself.  This module owns that skeleton once:

- the superstep limit, the fault-run checkpoint capture, the isolation
  contract's read set and the backend's fault pre-draw and echo check;
- the barrier's fault processing: straggler delays and heartbeats, then
  permanent losses (:class:`~repro.errors.WorkerLoss` → failover), then
  crashes (:class:`~repro.errors.WorkerFailure` → rollback and replay),
  with the recovery meters both engines charge alike;
- the commit (double-buffer contract, run-entry dirty map, state update,
  backend commit), the voluntary membership transitions after it, and the
  rollback of every committed state if the run raises;
- sanitizer begin/end, the convergence contract and the memory snapshot.

An engine keeps its own ``run`` for entry (state and CSR setup) and exit
(result object) and supplies these hooks:

- ``_sweep(states, active, superstep, draws)``: the backend compute sweep;
- ``_charge(program, sweep, record, superstep, states, metrics)``: the
  post-commit charging (ScaleG: sync and activation routing; Pregel:
  combiner and delivery), returning the next active vertices;
- ``_fail_over(program, failover, lost, superstep, checkpoint, states,
  metrics)`` and ``_rebuild_crashed(program, crashed, checkpoint,
  metrics)``: the engine part of loss and crash recovery, run after the
  checkpoint is restored (ScaleG: full failover and guest rebuild; Pregel:
  degraded failover and inbox resync);
- ``_barrier_transitions(program, failover, superstep, states,
  metrics)``: the voluntary joins/drains due at the barrier's end (after
  commit, so a crash this superstep has already rolled back);
- ``_memory_snapshot(program, states)``: modelled resident bytes per
  worker, plus ``_snapshot_due(superstep)`` when barriers snapshot too.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set

from repro.errors import (
    ParallelRuntimeError,
    SuperstepLimitExceeded,
    SyncRetryExhausted,
    WorkerFailure,
    WorkerLoss,
)


class BSPEngine:
    """Shared constructor, properties and superstep loop of the engines."""

    #: vertices read neighbour states through guest copies (ScaleG): the
    #: fault checkpoint then captures the guest directory, and the
    #: isolation contract snapshots the active vertices' neighbours too
    _guest_reads = False

    def __init__(self, dgraph, contracts=None, faults=None, membership=None,
                 runtime=None, sanitize=None):
        """``contracts``: ``None`` defers to the ``REPRO_CONTRACTS`` env
        flag, ``True``/``False`` force runtime contract checking on/off, or
        pass a :class:`~repro.analysis.runtime.ContractChecker` directly.
        ``faults``: a :class:`~repro.faults.plan.FaultPlan` or
        :class:`~repro.faults.injector.FaultInjector` enabling seeded fault
        injection + recovery; ``None`` (or an empty plan) leaves the hot
        loop exactly as in the fault-free build.
        ``membership``: a :class:`~repro.faults.membership.MembershipConfig`
        or :class:`~repro.faults.membership.FailoverCoordinator` enabling
        permanent-loss failover (and, on ScaleG, guest anti-entropy);
        ``None`` auto-attaches a default coordinator exactly when the fault
        plan schedules losses, guest corruption or membership transitions.
        ``runtime``: execution backend for the compute sweep — ``None`` /
        ``"inline"`` (serial, the default), ``"process"`` (multi-process
        :class:`~repro.runtime.parallel.ParallelRuntime`), or an
        :class:`~repro.runtime.base.ExecutionBackend` instance (shared
        backends stay owned by the caller).
        ``sanitize``: ``None`` defers to the ``REPRO_SANITIZE`` env flag,
        ``True``/``False`` force the superstep race sanitizer on/off, or
        pass a :class:`~repro.analysis.parallel.RaceSanitizer` directly;
        when on, the backend is wrapped to record per-worker read/write
        sets each superstep and flag races."""
        from repro.analysis.parallel.sanitizer import resolve_sanitizer
        from repro.analysis.runtime import resolve_contracts
        from repro.faults.injector import resolve_faults
        from repro.faults.membership import resolve_membership
        from repro.runtime.base import resolve_runtime

        self.dgraph = dgraph
        self._contracts = resolve_contracts(contracts)
        self._faults = resolve_faults(faults)
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

    def close(self) -> None:
        """Release the execution backend's resources (worker processes)."""
        self._runtime.close()

    # ------------------------------------------------------------------
    def _run_entry(self, program, initial_active: Optional[Iterable[int]],
                   max_supersteps: Optional[int],
                   states: Optional[Dict[int, Any]], metrics):
        """Resolve ``run``'s defaults: ``(states, active, limit, metrics)``.

        States default to :meth:`initial_state` of every vertex, the active
        set to every vertex, the superstep limit to ``4n + 16`` (safely above
        the paper's ``O(n)`` bound) and the meter to a fresh one.
        """
        from repro.pregel.metrics import RunMetrics

        graph = self.dgraph.graph
        if states is None:
            states = {
                u: program.initial_state(self.dgraph, u) for u in graph.vertices()
            }
        if initial_active is None:
            active: List[int] = graph.sorted_vertices()
        else:
            active = sorted(set(initial_active) & graph.vertex_keys())
        if max_supersteps is None:
            max_supersteps = 4 * max(graph.num_vertices, 1) + 16
        if metrics is None:
            metrics = RunMetrics(num_workers=self.dgraph.num_workers)
        return states, active, max_supersteps, metrics

    def _superstep_loop(self, program, states: Dict[int, Any],
                        active: List[int], max_supersteps: int, metrics,
                        keep_records: bool) -> Dict[int, Any]:
        """Run supersteps until no vertex is active; returns the dirty map
        (run-entry value of every state the run overwrote).

        Exception safety: if the loop raises, every overwritten entry of
        ``states`` is restored to its run-entry value first.
        """
        from repro.pregel.metrics import SuperstepRecord

        dgraph = self.dgraph
        graph = dgraph.graph
        num_workers = dgraph.num_workers
        contracts = self._contracts
        injector = self._faults
        failover = self._failover
        runtime = self._runtime
        sanitizer = self._sanitizer
        # the O(active·deg) read-set sweep is only needed when the checker
        # actually snapshots (isolation on); otherwise skip it entirely
        check_isolation = contracts is not None and contracts.check_isolation
        if injector is not None:
            from repro.faults.recovery import SuperstepCheckpoint

            injector.begin_run()
        runtime.bind(self)
        runtime.begin_run(program, states)
        if sanitizer is not None:
            sanitizer.begin_engine_run(metrics, num_workers)

        superstep = 0
        took_snapshot = False
        #: run-entry values of every state this run overwrote, restored if
        #: the run raises (exception safety for resumed maintenance states)
        dirty: Dict[int, Any] = {}
        try:
            # Pregel's next active set is its inbox's keys, so an empty
            # active set means no message is in flight either
            while active:
                if superstep >= max_supersteps:
                    raise SuperstepLimitExceeded(max_supersteps)
                record = SuperstepRecord(superstep=superstep)
                record.worker_work = [0] * num_workers

                checkpoint = None
                draws = None
                if injector is not None:
                    checkpoint = SuperstepCheckpoint.capture(
                        superstep, states, active,
                        dgraph if self._guest_reads else None,
                    )
                    # parallel backends pre-draw the barrier's fault
                    # schedule so the owning worker processes observe their
                    # own faults; draws are pure keyed hashes + fire-once,
                    # so the values match what the barrier would draw below
                    draws = runtime.predraw(injector, superstep, num_workers)

                if check_isolation:
                    read_set: Set[int] = set(active)
                    if self._guest_reads:
                        for u in active:
                            read_set.update(graph.neighbors(u))
                    contracts.begin_superstep(superstep, read_set, states)

                try:
                    sweep = self._sweep(states, active, superstep, draws)
                    record.active_vertices = len(active)
                    record.compute_work = sweep.compute_work
                    record.worker_work = sweep.worker_work

                    if injector is not None:
                        if draws is not None and sweep.fault_echo != draws.echo():
                            raise ParallelRuntimeError(
                                f"superstep {superstep}: worker fault echo "
                                f"{sweep.fault_echo!r} disagrees with the "
                                f"barrier draws {draws.echo()!r}"
                            )
                        if failover is not None:
                            failover.view.advance()
                        # -- worker sweep: straggler delays (modelled time),
                        # applied once per worker in ascending worker order
                        # so the float meters accumulate identically on
                        # every backend
                        delays = draws.delays if draws is not None else [
                            injector.straggler_delay(superstep, w)
                            for w in range(num_workers)
                        ]
                        for w, delay in enumerate(delays):
                            if delay:
                                metrics.merge_delta({
                                    "recovery_straggler_s": delay,
                                    "wall_time_s": delay,
                                })
                            if failover is not None and not failover.is_dead(w):
                                # injector delays are *flagged* stragglers:
                                # the detector must never count them toward
                                # suspicion (slow is not dead)
                                failover.view.heartbeat(
                                    w, delay_s=delay, injected=True
                                )
                        # -- barrier: permanent losses (silence, not delay)
                        lost = draws.lost if draws is not None else (
                            injector.lost_workers(superstep, range(num_workers))
                        )
                        if lost:
                            loss = WorkerLoss(
                                lost[0], superstep,
                                f"{len(lost)} worker(s) declared permanently "
                                "dead at the barrier",
                            )
                            loss.workers = lost
                            raise loss
                        # -- barrier commit: crash detection
                        crashed = draws.crashed if draws is not None else (
                            injector.crashed_workers(
                                superstep, range(num_workers)
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
                    # failover: restore the barrier checkpoint, declare the
                    # workers dead, hand their partitions to survivors
                    # (rendezvous), rebuild the lost hosts, then replay the
                    # superstep on the shrunken cluster.  All costs go to
                    # the recovery meters; the logical meters keep the
                    # fault-free placement.
                    metrics.recovery_replayed_supersteps += 1
                    metrics.recovery_compute_work += record.compute_work
                    active = checkpoint.restore(states)
                    self._fail_over(
                        program, failover, loss.workers or [loss.worker],
                        superstep, checkpoint, states, metrics,
                    )
                    continue
                except WorkerFailure as failure:
                    if checkpoint is None:
                        raise  # not injected by us: no checkpoint to replay
                    # rollback-and-replay: nothing from this attempt has
                    # committed; restore the barrier checkpoint, rebuild
                    # what the crashed workers lost, charge everything to
                    # the recovery meters, and replay.
                    crashed = getattr(failure, "workers", [failure.worker])
                    metrics.recovery_crashes += len(crashed)
                    metrics.recovery_replayed_supersteps += 1
                    metrics.recovery_compute_work += record.compute_work
                    active = checkpoint.restore(states)
                    self._rebuild_crashed(program, crashed, checkpoint, metrics)
                    continue

                if contracts is not None:
                    contracts.at_barrier(superstep, states)
                new_states = sweep.new_states
                for u in new_states:
                    if u not in dirty:
                        dirty[u] = states[u]
                states.update(new_states)
                runtime.commit(new_states)

                next_active = self._charge(program, sweep, record, superstep,
                                           states, metrics)
                metrics.observe(record, keep_record=keep_records)
                if failover is not None:
                    self._barrier_transitions(
                        program, failover, superstep, states, metrics
                    )
                if self._snapshot_due(superstep):
                    metrics.observe_memory(self._memory_snapshot(program, states))
                    took_snapshot = True
                active = sorted(next_active)
                superstep += 1
        except BaseException:
            # leave no partial superstep behind: callers resuming from
            # ``states`` (dynamic maintenance) see their run-entry values
            for u, value in sorted(dirty.items()):
                states[u] = value
            raise
        finally:
            if sanitizer is not None:
                sanitizer.end_engine_run(metrics)

        if contracts is not None:
            members = program.contract_members(states)
            if members is not None:
                contracts.at_convergence(graph, members)
        # guarantee >= 1 snapshot per run — keyed on this run, not the
        # meter: a shared meter may arrive with a peak from an earlier run
        if not took_snapshot:
            metrics.observe_memory(self._memory_snapshot(program, states))
        return dirty

    def _charge_resends(self, superstep: int, source: int, dest: int,
                        wire: int, metrics) -> None:
        """Charge one shipped record's injected drops (resent with
        exponential backoff) and duplicates (discarded by the receiver,
        which deduplicates by ``(source, seq)``) to the recovery meters."""
        injector = self._faults
        drops = injector.sync_drops(superstep, source, dest)
        if drops:
            if drops > injector.max_retries:
                raise SyncRetryExhausted(source, dest, drops, superstep)
            metrics.recovery_sync_retries += drops
            metrics.recovery_resync_bytes += drops * wire
            metrics.recovery_resync_messages += drops
            metrics.recovery_backoff_s += injector.backoff_time(drops)
        dups = injector.sync_duplicates(superstep, source, dest)
        if dups:
            metrics.recovery_sync_duplicates += dups
            metrics.recovery_resync_bytes += dups * wire
            metrics.recovery_resync_messages += dups

    def _shipping_order(self, superstep: int, items: List, metrics) -> List:
        """``items`` in the order the barrier ships them: permuted when the
        plan schedules a reorder (counted in ``recovery_reorders``)."""
        permuted = self._faults.permute(superstep, items)
        if permuted is not items:
            metrics.recovery_reorders += 1
        return permuted

    def _snapshot_due(self, superstep: int) -> bool:
        """Whether the barrier ending ``superstep`` takes a memory snapshot
        (otherwise one is taken when the run converges)."""
        return False

