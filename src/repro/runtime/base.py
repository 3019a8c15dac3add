"""Pluggable execution backends for the BSP engines.

Both engines (:class:`~repro.scaleg.engine.ScaleGEngine` and
:class:`~repro.pregel.engine.PregelEngine`) drive their per-superstep
*compute sweep* through an :class:`ExecutionBackend`:

- :class:`InlineExecutor` — today's behavior and the default: all logical
  workers execute serially in the calling process.  This is the reference
  implementation every other backend must match bit-for-bit.
- :class:`~repro.runtime.parallel.ParallelRuntime` — persistent OS worker
  processes, each owning a fixed subset of the logical partitions for the
  whole run; only per-superstep deltas cross the pipe.

The contract that makes backends interchangeable: a sweep is a *pure
function* of ``(states as of the last barrier, active set, superstep)``.
Everything order-sensitive stays on the coordinating side, fed from the
:class:`ScaleGSweep` / :class:`PregelSweep` the backend returns: barrier
commit, fault processing and recovery in the superstep loop both engines
share (:class:`~repro.runtime.bsp.BSPEngine`), sync charging, activation
filtering and message delivery in each engine's post-commit hook.  The
backend merges per-partition results in partition order (ascending vertex
id within the sweep), so members, ``members_checksum`` and every logical
meter are bit-identical across backends; ``bench-perf --check`` and the
chaos convergence oracle double as the backend-equivalence harness.

Fault injection composes through :meth:`ExecutionBackend.predraw`: a
parallel backend pre-draws the barrier's crash/loss/straggler schedule
(draws are pure keyed hashes plus a fire-once set, so drawing before the
sweep yields the same values as drawing at the barrier), ships each worker
process the slice it owns, and the engine verifies the workers' echo
against the draws before acting on them.  The inline backend returns
``None`` and the engine draws at the barrier exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class BarrierDraws:
    """One superstep's pre-drawn fault schedule (parallel backends only).

    Drawn by the engine *before* dispatching the sweep so the owning worker
    processes can observe their own faults; the engine then processes the
    same draws at the barrier in the exact order the inline path would have
    drawn them (stragglers per worker, then losses, then crashes).
    """

    #: modelled straggler delay per logical worker (0.0 = on time)
    delays: List[float]
    #: logical workers declared permanently dead at this barrier
    lost: List[int]
    #: logical workers that crash (transient) at this barrier
    crashed: List[int]

    def slice_for(self, owned: List[int]) -> Tuple[Any, ...]:
        """The portion of the schedule owned by one worker process."""
        owned_set = set(owned)
        return (
            [(w, d) for w, d in enumerate(self.delays) if d and w in owned_set],
            [w for w in self.lost if w in owned_set],
            [w for w in self.crashed if w in owned_set],
        )

    def echo(self) -> Tuple[Any, ...]:
        """What a faithful set of workers should echo back, merged."""
        return (self.delays, self.lost, self.crashed)


def predraw_barrier_faults(injector, superstep: int, num_workers: int) -> BarrierDraws:
    """Draw the barrier fault schedule ahead of the sweep.

    Every injector draw is a pure ``blake2b`` keyed lookup guarded by a
    fire-once set, so the values are independent of *when* they are drawn
    relative to the sweep; the draw order here mirrors the inline barrier
    (stragglers in worker order, then losses, then crashes) so the
    fire-once bookkeeping matches too.
    """
    delays = [
        injector.straggler_delay(superstep, w) for w in range(num_workers)
    ]
    lost = injector.lost_workers(superstep, range(num_workers))
    crashed = injector.crashed_workers(superstep, range(num_workers))
    return BarrierDraws(delays=delays, lost=lost, crashed=crashed)


@dataclass
class ScaleGSweep:
    """One ScaleG compute sweep's outcome, merged in partition order."""

    #: vertex -> new state for every vertex whose state changed
    new_states: Dict[int, Any]
    #: changed vertices in ascending id order (the inline sweep order)
    changed: List[int]
    #: unchanged vertices that called ``force_sync`` (ascending)
    forced: List[int]
    #: (source, plain activation targets, predicated targets) per requester
    requests: List[Tuple[int, List[int], List[Tuple[int, Any]]]]
    #: total compute units charged this sweep
    compute_work: int
    #: compute units per logical worker (load-balance record)
    worker_work: List[int]
    #: (delays, lost, crashed) observed inside the worker processes;
    #: ``None`` for inline sweeps (the engine draws at the barrier itself)
    fault_echo: Optional[Tuple[Any, ...]] = None
    #: :class:`~repro.graph.csr.CSRSweepExtras` when the sweep ran on the
    #: array-native fast path — the engine then charges the barrier from
    #: the typed delta arrays instead of ``requests`` (which stays empty)
    csr: Any = None


@dataclass
class PregelSweep:
    """One Pregel compute sweep's outcome, merged in partition order."""

    #: vertex -> new state for every vertex whose state changed
    new_states: Dict[int, Any]
    compute_work: int
    worker_work: List[int]
    fault_echo: Optional[Tuple[Any, ...]] = None


class ExecutionBackend:
    """Interface every execution backend implements.

    Lifecycle: ``bind(engine)`` once per run entry, ``begin_run`` after the
    engine resolved program + states, then per superstep ``predraw`` (fault
    runs only) and one ``sweep_*`` call, ``commit`` after each barrier that
    commits, and ``close`` when the owning engine/maintainer is done.
    """

    #: short name surfaced in CLI/bench output
    kind = "inline"

    def bind(self, engine) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def begin_run(self, program, states: Dict[int, Any]) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def predraw(self, injector, superstep: int, num_workers: int):
        """Pre-draw barrier faults, or ``None`` to draw at the barrier."""
        return None

    def sweep_scaleg(self, active, superstep: int, draws=None) -> ScaleGSweep:
        raise NotImplementedError  # pragma: no cover - interface

    def sweep_pregel(
        self, states, active, superstep: int, inbox, draws=None
    ) -> PregelSweep:
        raise NotImplementedError  # pragma: no cover - interface

    def commit(self, new_states: Dict[int, Any]) -> None:
        """A barrier committed ``new_states`` into the master states."""

    def close(self) -> None:
        """Release any resources (worker processes, pipes)."""


class InlineExecutor(ExecutionBackend):
    """Serial in-process execution — the reference backend.

    The sweep bodies below are the engines' original hot loops, moved
    verbatim; every instruction that touches a meter runs in the same
    order, so this backend *defines* bit-identity.
    """

    kind = "inline"

    def __init__(self) -> None:
        self._engine = None
        self._program = None
        self._ctx = None

    def bind(self, engine) -> None:
        if engine is not self._engine:
            self._engine = engine
            self._ctx = None

    def begin_run(self, program, states: Dict[int, Any]) -> None:
        self._program = program
        self._ctx = None

    # -- ScaleG ---------------------------------------------------------
    def sweep_scaleg(self, active, superstep: int, draws=None) -> ScaleGSweep:
        engine = self._engine
        kernel = getattr(engine, "_csr_kernel", None)
        if kernel is not None:
            # array-native representation: the whole sweep is a few
            # vectorized passes (bit-identical to the loop below)
            return kernel.sweep(engine, active, superstep)
        states = engine._states
        worker_of = engine.dgraph.worker_of
        ctx = self._ctx
        if ctx is None:
            # one context reused across every compute call (programs may
            # not retain it across supersteps — BSP discipline, enforced
            # by lint)
            from repro.scaleg.engine import ScaleGContext

            ctx = self._ctx = ScaleGContext(engine, 0, 0, None)
        compute = self._program.compute
        worker_work = [0] * engine.dgraph.num_workers
        compute_work = 0
        new_states: Dict[int, Any] = {}
        changed: List[int] = []
        forced: List[int] = []
        requests: List[Tuple[int, List[int], List[Tuple[int, Any]]]] = []
        for u in active:
            ctx._reset(u, superstep, states[u])
            compute(ctx)
            work = ctx._work
            compute_work += work
            worker_work[worker_of(u)] += work if work > 1 else 1
            if ctx._changed:
                new_states[u] = ctx._new
                changed.append(u)
            elif ctx._force_sync:
                forced.append(u)
            if ctx._activations or ctx._pred_activations:
                requests.append((u, ctx._activations, ctx._pred_activations))
                ctx._activations = []
                ctx._pred_activations = []
        return ScaleGSweep(
            new_states=new_states,
            changed=changed,
            forced=forced,
            requests=requests,
            compute_work=compute_work,
            worker_work=worker_work,
        )

    # -- Pregel ---------------------------------------------------------
    def sweep_pregel(
        self, states, active, superstep: int, inbox, draws=None
    ) -> PregelSweep:
        engine = self._engine
        worker_of = engine.dgraph.worker_of
        from repro.pregel.engine import PregelContext

        program_compute = self._program.compute
        worker_work = [0] * engine.dgraph.num_workers
        compute_work = 0
        new_states: Dict[int, Any] = {}
        for u in active:
            ctx = PregelContext(engine, u, superstep, inbox.get(u, []), states[u])
            program_compute(ctx)
            compute_work += ctx._work
            worker_work[worker_of(u)] += max(ctx._work, 1)
            if ctx._changed:
                new_states[u] = ctx._new_state
        return PregelSweep(
            new_states=new_states,
            compute_work=compute_work,
            worker_work=worker_work,
        )


def resolve_runtime(runtime, procs: Optional[int] = None) -> ExecutionBackend:
    """Resolve the engine constructors' ``runtime=`` argument.

    ``None`` or ``"inline"`` build an :class:`InlineExecutor`; ``"process"``
    builds a :class:`~repro.runtime.parallel.ParallelRuntime` with ``procs``
    worker processes; an :class:`ExecutionBackend` instance passes through
    (the caller owns its lifecycle and may share it across engines).
    """
    if runtime is None or runtime == "inline":
        return InlineExecutor()
    if isinstance(runtime, ExecutionBackend):
        return runtime
    if runtime == "process":
        from repro.runtime.parallel import ParallelRuntime

        return ParallelRuntime(procs=procs)
    raise ValueError(
        f"unknown runtime {runtime!r}: expected 'inline', 'process', or an "
        "ExecutionBackend instance"
    )
