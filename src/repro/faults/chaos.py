"""Chaos harness: the one differential oracle for faulted, sanitized and
elastic runs.

Theorems 4.2/6.1 make DOIMIS self-checking under failure: the maintained set
is the *unique* greedy fixpoint of ``≺``, so whatever faults the engines
survive, the final set must be **bit-identical** to the fault-free run — and
because recovery detects crashes at the barrier *before* anything commits,
every logical meter must match too.  Each chaos case therefore asserts:

1. the faulted final set equals the fault-free reference set, member for
   member;
2. the set is a valid MIS fixpoint (independence + maximality + the greedy
   order, via :func:`~repro.core.verification.assert_valid_mis`);
3. all logical meters (the ``bench-perf`` ``LOGICAL_FIELDS`` plus
   ``compute_work``) are bit-identical to the reference — recovery overhead
   may only appear under the ``recovery_*`` meter family;
4. for the ``none`` preset additionally: zero faults injected, zero
   recovery events (the empty plan is byte-for-byte the fault-free build).

The reference is always the inline, dict-path, fault-free run, computed
once per workload, so a case on the CSR layout or the process runtime is
checked against the reference layout too.  Every driver runs here:
``repro-mis chaos`` sweeps presets (:func:`chaos_suite`); ``repro-mis
sanitize`` is the same sweep with a race sanitizer per case, whose races
fail it; ``repro-mis rebalance`` and the ``elastic_*`` bench scenarios run
scripted joins/drains (:func:`run_elastic_case`); and the serve crash and
drain replays compare two services with the same
:func:`drift_failures` messages.

Workloads are scaled-down Fig. 10/11 protocols (delete ``k`` random edges,
re-insert them; single-update and batched) on the small stand-in datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.activation import ActivationStrategy
from repro.core.doimis import DOIMISMaintainer
from repro.errors import ReproError, WorkloadError
from repro.faults.injector import FaultInjector
from repro.faults.plan import DrainSpec, FaultPlan, JoinSpec, LossSpec

#: fault-plan presets swept by ``repro-mis chaos`` — kwargs for
#: :class:`FaultPlan` (the seed is supplied per case).  Probabilities are
#: per-opportunity; the smoke-scale workloads run thousands of them, so
#: every preset fires many times per case.
PLAN_PRESETS: Dict[str, Dict[str, Any]] = {
    "none": {},
    "crash": {"crash_prob": 0.02},
    "drop": {"drop_prob": 0.01},
    "duplicate": {"duplicate_prob": 0.02},
    "straggler": {"straggler_prob": 0.05, "straggler_delay_s": 0.01},
    # permute every superstep that syncs >= 2 records — reorder is an
    # order-independence probe, so the adversarial schedule is "always"
    "reorder": {"reorder_prob": 1.0},
    "composed": {
        "crash_prob": 0.01,
        "drop_prob": 0.005,
        "duplicate_prob": 0.01,
        "straggler_prob": 0.02,
        "straggler_delay_s": 0.01,
        "reorder_prob": 0.1,
    },
    # a worker dies for good: the failure detector declares it dead at the
    # barrier, its partition rendezvous-reassigns to survivors, and every
    # lost host vertex reconstructs from the freshest surviving guest copy
    "worker-loss": {"loss_prob": 0.002},
    # many workers die across the stream (the injector never kills the last
    # survivor) — rendezvous reassignment must compose across deaths, and
    # reconstruction must survive a host dying together with its replicas
    "cascading-loss": {"loss_prob": 0.008},
    # losses pinned to mid-stream maintenance runs: failover interleaves
    # with the update protocol, not just the initial static computation
    "loss-under-stream": {
        "losses": (
            LossSpec(superstep=0, worker=2, run=3),
            LossSpec(superstep=0, worker=7, run=6),
        ),
    },
    # guest copies silently diverge from host state after a sync — only the
    # anti-entropy auditor (sampled checksums + read-repair) can see it
    "corrupt-guest": {"corrupt_prob": 0.02},
    # voluntary elasticity: workers drain mid-stream at a barrier, their
    # partitions migrating to survivors *before* they leave — all movement
    # cost must land on the rebalance_* family, never on recovery_*
    "drain-under-stream": {
        "drains": (
            DrainSpec(superstep=0, worker=3, run=4),
            DrainSpec(superstep=0, worker=6, run=8),
        ),
    },
    # a join and a drain in one stream: the pool grows by a new worker,
    # then shrinks — placement is re-rendezvoused at each epoch and the
    # fixpoint must stay bit-identical to the static-membership run
    "elastic": {
        "joins": (JoinSpec(superstep=0, worker=10, run=2),),
        "drains": (DrainSpec(superstep=0, worker=4, run=5),),
    },
    # the ISSUE's race: a voluntary drain with crashes firing around it —
    # the drained worker must never be drawn for a crash, and both the
    # drain's rebalance and the crashes' recovery must converge
    "drain-crash-race": {
        "drains": (DrainSpec(superstep=0, worker=2, run=3),),
        "crash_prob": 0.02,
    },
}


@dataclass(frozen=True)
class ChaosWorkload:
    """One Fig. 10/11-shaped maintenance workload at chaos-smoke scale."""

    tag: str  # stand-in dataset tag
    k: int  # delete k random edges, re-insert them (2k ops)
    batch_size: int
    workload_seed: int = 0

    @property
    def name(self) -> str:
        fig = "fig10_single" if self.batch_size == 1 else "fig11_batch"
        return f"{fig}_{self.tag}"


#: default sweep — one single-update stream and one batched stream, on the
#: two smallest stand-ins (chaos replays every workload once per preset per
#: seed, so smoke scale matters)
CHAOS_WORKLOADS: Tuple[ChaosWorkload, ...] = (
    ChaosWorkload(tag="AM", k=25, batch_size=1, workload_seed=5),
    ChaosWorkload(tag="SL", k=40, batch_size=10, workload_seed=9),
)

#: cluster size every chaos, sanitize and elastic case runs on
NUM_WORKERS = 10

#: logical meters that must be bit-identical between the faulted run and
#: the fault-free reference (superset of ``bench-perf``'s LOGICAL_FIELDS:
#: recovery replays charge their compute to ``recovery_compute_work``, so
#: the logical ``compute_work`` must match too)
LOGICAL_METERS = (
    "supersteps", "active_vertices", "state_changes",
    "messages", "remote_messages", "bytes_sent", "compute_work",
)


def plan_for(preset: str, seed: int) -> FaultPlan:
    """The :class:`FaultPlan` for a named preset at ``seed``."""
    try:
        kwargs = PLAN_PRESETS[preset]
    except KeyError:
        raise WorkloadError(
            f"unknown chaos preset {preset!r}; "
            f"known: {', '.join(PLAN_PRESETS)}"
        ) from None
    return FaultPlan(seed=seed, **kwargs)


@dataclass
class Observables:
    """What the oracle compares between two runs: members + logical meters."""

    members: List[int]
    logical: Dict[str, int]
    #: logical meters of the initial static computation (faults fire there
    #: too — run 0 of the injector's schedule); empty for a serve trace,
    #: whose meters are cumulative over every committed window
    init_logical: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, maintainer) -> "Observables":
        return cls(
            members=sorted(maintainer.independent_set()),
            logical=_logical_fingerprint(maintainer.update_metrics),
            init_logical=_logical_fingerprint(maintainer.init_metrics),
        )


def drift_failures(
    observed: Observables, reference: Observables, label: str,
    reference_label: str = "reference",
) -> List[str]:
    """One message per member or logical-meter drift from ``reference``.

    The bit-identity half of every driver's oracle (chaos, sanitize,
    rebalance, serve crash and drain replay).
    """
    failures = []
    if observed.members != reference.members:
        failures.append(
            f"members diverged: |{label}|={len(observed.members)} "
            f"|{reference_label}|={len(reference.members)}"
        )
    for scope, ours, theirs in (
        ("logical meter", observed.logical, reference.logical),
        ("init logical meter", observed.init_logical,
         reference.init_logical),
    ):
        for name, value in theirs.items():
            if ours[name] != value:
                failures.append(
                    f"{scope} {name} drifted: {label}={ours[name]} "
                    f"{reference_label}={value}"
                )
    return failures


@dataclass
class ChaosCaseResult:
    """Outcome of one (workload, preset, seed) chaos case."""

    workload: str
    preset: str
    seed: int
    injected: Dict[str, int] = field(default_factory=dict)
    recovery: Dict[str, float] = field(default_factory=dict)
    divergence: Dict[str, int] = field(default_factory=dict)
    rebalance: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    #: race-sanitizer evidence (empty unless the case ran under one): the
    #: violations collected, the keyed-hash trace digest that replays under
    #: any ``PYTHONHASHSEED``, and the supersteps checked
    races: List[str] = field(default_factory=list)
    trace_digest: str = ""
    supersteps_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and not self.races

    @property
    def injected_total(self) -> int:
        return sum(self.injected.values())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "preset": self.preset,
            "seed": self.seed,
            "ok": self.ok,
            "injected": dict(self.injected),
            "recovery": dict(self.recovery),
            "divergence": dict(self.divergence),
            "rebalance": dict(self.rebalance),
            "failures": list(self.failures),
        }


def _build_case(workload: ChaosWorkload):
    """(graph copy, ops) for one workload — deterministic per workload."""
    from repro.bench.workloads import delete_reinsert_workload
    from repro.graph.datasets import load_dataset

    base = load_dataset(workload.tag)
    ops = delete_reinsert_workload(base, workload.k, seed=workload.workload_seed)
    return base, ops


def _logical_fingerprint(metrics) -> Dict[str, int]:
    return {name: getattr(metrics, name) for name in LOGICAL_METERS}


def _run_maintenance(
    workload: ChaosWorkload, faults=None, membership=None,
    runtime=None, sanitize=None, representation=None,
) -> DOIMISMaintainer:
    graph, ops = _build_case(workload)
    maintainer = DOIMISMaintainer(
        graph,
        num_workers=NUM_WORKERS,
        strategy=ActivationStrategy.SAME_STATUS,
        faults=faults,
        membership=membership,
        runtime=runtime,
        sanitize=sanitize,
        representation=representation,
    )
    try:
        maintainer.apply_stream(ops, batch_size=workload.batch_size)
    finally:
        if runtime is not None:
            maintainer.close()
    return maintainer


def reference_run(workload: ChaosWorkload) -> Observables:
    """The fault-free observables every case compares against: always the
    inline, dict-path run, whatever layout or backend the case uses."""
    return Observables.of(
        _run_maintenance(workload, representation="dict")
    )


def _combined(maintainer, summary: str) -> Dict[str, Any]:
    """A meter family over the initial run plus the updates (faults fire in
    both, so each run's charges live on its own metrics)."""
    init = getattr(maintainer.init_metrics, summary)()
    update = getattr(maintainer.update_metrics, summary)()
    return {name: init[name] + update[name] for name in update}


def _run_case(
    workload: ChaosWorkload, preset: str, seed: int, plan: FaultPlan,
    reference: Optional[Observables] = None, membership=None,
    representation=None, runtime=None, sanitizer=None,
) -> Tuple[ChaosCaseResult, Optional[DOIMISMaintainer]]:
    """Replay ``workload`` under ``plan`` and check the oracle; returns the
    result and the faulted maintainer (``None`` when the run raised)."""
    if reference is None:
        reference = reference_run(workload)
    result = ChaosCaseResult(workload=workload.name, preset=preset, seed=seed)
    injector = FaultInjector(plan)
    try:
        maintainer = _run_maintenance(
            workload, faults=injector, membership=membership,
            runtime=runtime, sanitize=sanitizer,
            representation=representation,
        )
        # close-out anti-entropy: corruption injected too recently for its
        # rotation slot must still be caught before we compare observables
        maintainer.final_audit()
    except Exception as exc:  # noqa: BLE001 - survey, don't abort the sweep
        # SyncRetryExhausted (drops beyond the retry budget) is the one
        # *designed* escalation; anything else is an oracle failure outright
        maintainer = None
        result.failures.append(f"run raised {type(exc).__name__}: {exc}")
    finally:
        result.injected = injector.stats.as_dict()
        if sanitizer is not None:
            result.races = [str(v) for v in sanitizer.violations]
            result.trace_digest = sanitizer.trace_digest()
            result.supersteps_checked = sanitizer.supersteps_checked
    if maintainer is None:
        return result, None

    result.recovery = _combined(maintainer, "recovery_summary")
    result.divergence = _combined(maintainer, "divergence_summary")
    result.rebalance = _combined(maintainer, "rebalance_summary")

    failover = maintainer.failover
    if failover is not None:
        leftover = failover.auditor.corrupted_pairs()
        if leftover:
            result.failures.append(
                f"{len(leftover)} corrupted guest cop(ies) survived the "
                f"final audit: {leftover[:5]}"
            )
    result.failures.extend(
        drift_failures(Observables.of(maintainer), reference, "faulted")
    )
    try:
        maintainer.verify()
    except ReproError as exc:
        result.failures.append(f"fixpoint verification failed: {exc}")

    if plan.is_empty:
        if result.injected_total:
            result.failures.append(
                f"empty plan injected {result.injected_total} fault(s)"
            )
        for family in ("recovery", "divergence", "rebalance"):
            meters = getattr(result, family)
            if sum(meters.values()):
                result.failures.append(
                    f"empty plan charged {family} meters: {meters}"
                )
    if plan.schedules_transitions:
        applied = (result.injected.get("drains", 0)
                   + result.injected.get("joins", 0))
        if not applied:
            result.failures.append(
                "plan schedules membership transitions but none applied"
            )
        if not result.rebalance.get("rebalance_moved_vertices"):
            result.failures.append(
                "membership transitions applied but no movement was "
                "charged to the rebalance meters"
            )
    return result, maintainer


def run_chaos_case(
    workload: ChaosWorkload,
    preset: str,
    seed: int,
    reference: Optional[Observables] = None,
    membership=None,
    representation=None,
    runtime=None,
    sanitizer=None,
) -> ChaosCaseResult:
    """Replay ``workload`` under ``preset``'s seeded plan; check the oracle.

    Each case asserts the fixpoint, the oracle's bit-identity with
    ``reference`` and, for an empty plan, that nothing fired and no
    recovery, divergence or rebalance meter moved.  ``reference`` lets a
    sweep reuse one fault-free run per workload; when omitted it is
    computed here.  ``membership`` overrides the failover tunables (losses
    and guest corruption auto-attach a default coordinator otherwise).
    ``runtime`` is the execution backend (closed with the run; inline when
    ``None``); ``sanitizer`` a
    :class:`~repro.analysis.parallel.sanitizer.RaceSanitizer` whose races
    fail the case.  Never raises for an oracle violation — failures are
    reported on the result so a sweep surveys the whole grid.
    """
    result, _maintainer = _run_case(
        workload, preset, seed, plan_for(preset, seed), reference,
        membership=membership, representation=representation,
        runtime=runtime, sanitizer=sanitizer,
    )
    return result


def run_elastic_case(
    workload: ChaosWorkload,
    joins: Sequence[Tuple[int, int]] = (),
    drains: Sequence[Tuple[int, int]] = (),
    runtime=None,
    representation=None,
) -> Tuple[ChaosCaseResult, Optional[DOIMISMaintainer]]:
    """Scripted voluntary joins/drains, checked like any chaos case.

    ``joins``/``drains`` are ``(worker, run)`` pairs, each applied at the
    first barrier of update run ``run``.  Returns the result and the
    elastic maintainer (``None`` when the run raised) for
    :func:`elastic_report`; ``repro-mis rebalance`` and the ``elastic_*``
    bench scenarios both run here.
    """
    plan = FaultPlan(
        seed=0,
        joins=tuple(JoinSpec(superstep=0, worker=w, run=r) for w, r in joins),
        drains=tuple(DrainSpec(superstep=0, worker=w, run=r)
                     for w, r in drains),
    )
    return _run_case(
        workload, "scripted", 0, plan, runtime=runtime,
        representation=representation,
    )


def elastic_report(maintainer) -> Dict[str, Any]:
    """Membership after an elastic run: the epoch, the live member count,
    the transition trace, and the residency skew (max/mean resident
    vertices per live worker under the effective placement)."""
    failover = maintainer.failover
    members = failover.view.members()
    counts = {w: 0 for w in members}
    for u in maintainer.graph.vertices():
        w = failover.worker_of(u)
        counts[w] = counts.get(w, 0) + 1
    loads = list(counts.values())
    mean = sum(loads) / len(loads) if loads else 0.0
    return {
        "epoch": failover.epoch,
        "members": len(members),
        "transitions": [
            {"superstep": e.superstep, "joined": list(e.joined),
             "drained": list(e.drained), "moved": e.moved,
             "epoch": e.epoch, "stall_s": e.stall_s}
            for e in failover.transitions
        ],
        "post_skew": round(max(loads) / mean, 4) if mean else 1.0,
    }


def _serve_observables(service) -> Observables:
    """A closed service's members and cumulative logical meters."""
    totals = service.logical_totals()
    return Observables(
        members=sorted(service.maintainer.independent_set()),
        logical={name: totals[name] for name in LOGICAL_METERS},
    )


def _serve_controller():
    from repro.serve import AdaptiveWindowController, WindowConfig

    return AdaptiveWindowController(
        WindowConfig(min_window=4, max_window=64, initial_window=8)
    )


def _serve_trace(tag: str, num_ops: int, seed: int, poison_prob=0.0):
    from repro.graph.datasets import load_dataset
    from repro.serve import TraceConfig, bursty_trace

    return bursty_trace(
        load_dataset(tag),
        TraceConfig(num_ops=num_ops, seed=seed, poison_prob=poison_prob),
    )


def _serve_maintainer(tag: str, runtime_factory, representation, faults):
    from repro.core.maintainer import MISMaintainer
    from repro.graph.datasets import load_dataset

    return MISMaintainer(
        load_dataset(tag),
        num_workers=NUM_WORKERS,
        strategy=ActivationStrategy.SAME_STATUS,
        runtime=runtime_factory() if runtime_factory else None,
        representation=representation,
        faults=faults,
    )


def _audit_failures(label: str, directory: str) -> List[str]:
    """The exactly-once audit of one log directory: no problem, and every
    logged event applied or quarantined, none pending."""
    from repro.serve import audit_log

    problems, summary = audit_log(directory)
    failures = [f"{label} log audit: {p}" for p in problems]
    if (summary["events"] != summary["applied"] + summary["quarantined"]
            or summary["pending"]):
        failures.append(f"{label} log lost events: {summary}")
    return failures


@dataclass
class ServeChaosResult:
    """Outcome of one serve crash/replay chaos case.

    The oracle: a service killed mid-window (``abandon`` — no drain, no
    final commit, no closing checkpoint) and recovered from its WAL must
    finish the trace with the *same members and the same cumulative
    logical meters* as a service that never crashed.  ``audit`` must also
    certify exactly-once accounting on both log directories.
    """

    tag: str
    seed: int
    num_ops: int
    crashed_after: int = 0
    replayed_windows: int = 0
    replayed_events: int = 0
    quarantined: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tag": self.tag,
            "seed": self.seed,
            "num_ops": self.num_ops,
            "ok": self.ok,
            "crashed_after": self.crashed_after,
            "replayed_windows": self.replayed_windows,
            "replayed_events": self.replayed_events,
            "quarantined": self.quarantined,
            "failures": list(self.failures),
        }


def serve_crash_replay(
    tag: str = "AM",
    num_ops: int = 240,
    seed: int = 7,
    poison_prob: float = 0.0,
    crash_commits: int = 4,
    runtime_factory=None,
    representation=None,
    faults_factory=None,
    wal_root: Optional[str] = None,
) -> ServeChaosResult:
    """Kill an ingestion service mid-window, recover it, assert bit-identity.

    Runs the same seeded bursty trace twice: once uninterrupted, once
    crashed (``abandon``) after ``crash_commits`` committed windows with
    events still pending, then recovered via WAL replay and finished.
    ``runtime_factory`` builds a fresh execution runtime per maintainer
    (the crashed one's pool dies with it); ``faults_factory`` builds a
    fresh :class:`~repro.faults.injector.FaultInjector` per run so
    injected transient faults compose with the retry path.
    """
    import shutil
    import tempfile

    from repro.serve import IngestionService, RetryPolicy

    result = ServeChaosResult(tag=tag, seed=seed, num_ops=num_ops)
    ops, timestamps = _serve_trace(tag, num_ops, seed, poison_prob)

    def make_service(directory):
        return IngestionService(
            _serve_maintainer(
                tag, runtime_factory, representation,
                faults_factory() if faults_factory else None,
            ),
            directory, controller=_serve_controller(), retry=retry,
            checkpoint_every=3,
        )

    retry = RetryPolicy(max_retries=2, backoff_base_s=0.2)
    root = wal_root or tempfile.mkdtemp(prefix="serve-chaos-")
    dir_ref = f"{root}/reference"
    dir_crash = f"{root}/crashed"
    try:
        reference = make_service(dir_ref)
        for op, ts in zip(ops, timestamps):
            reference.submit(op, ts)
        reference.close()

        crashed = make_service(dir_crash)
        cut = 0
        for i, (op, ts) in enumerate(zip(ops, timestamps)):
            crashed.submit(op, ts)
            if crashed.windows_committed >= crash_commits and crashed.pending >= 2:
                cut = i + 1
                break
        crashed.abandon()  # the "kill": no drain, no commit, no checkpoint
        if not cut or cut >= len(ops):
            result.failures.append(
                f"trace too short to crash mid-window (cut={cut})"
            )
            return result
        result.crashed_after = cut

        recovered = IngestionService.recover(
            dir_crash,
            maintainer_kwargs={
                "runtime": runtime_factory() if runtime_factory else None,
                "representation": representation,
                "faults": faults_factory() if faults_factory else None,
            },
            controller=_serve_controller(), retry=retry, checkpoint_every=3,
        )
        result.replayed_windows = recovered.stats.replayed_windows
        result.replayed_events = recovered.stats.replayed_events
        for op, ts in zip(ops[cut:], timestamps[cut:]):
            recovered.submit(op, ts)
        recovered.close()
        result.quarantined = recovered.stats.quarantined

        result.failures.extend(drift_failures(
            _serve_observables(recovered), _serve_observables(reference),
            "recovered",
        ))
        result.failures.extend(_audit_failures("reference", dir_ref))
        result.failures.extend(_audit_failures("crashed", dir_crash))
    finally:
        if wal_root is None:
            shutil.rmtree(root, ignore_errors=True)
    return result


def serve_drain_replay(
    tag: str = "AM",
    num_ops: int = 160,
    seed: int = 7,
    preset: str = "drain-under-stream",
    runtime_factory=None,
    representation=None,
    wal_root: Optional[str] = None,
) -> ServeChaosResult:
    """Drain worker(s) mid-window of a bursty serve trace; assert the oracle.

    Runs the same seeded trace twice: once with static membership, once
    with ``preset``'s scheduled drains/joins firing at mid-stream barriers.
    Theorem 4.2/6.1 makes the comparison exact: members and every
    cumulative logical meter must be bit-identical to the
    static-membership run, with all transition costs confined to the
    ``rebalance_*`` family.
    """
    import shutil
    import tempfile

    from repro.serve import IngestionService

    result = ServeChaosResult(tag=tag, seed=seed, num_ops=num_ops)
    ops, timestamps = _serve_trace(tag, num_ops, seed)
    root = wal_root or tempfile.mkdtemp(prefix="serve-drain-")
    try:
        runs = {}
        for label, faults in (
            ("static", None),
            ("elastic", FaultInjector(plan_for(preset, seed))),
        ):
            service = IngestionService(
                _serve_maintainer(tag, runtime_factory, representation,
                                  faults),
                f"{root}/{label}",
                controller=_serve_controller(), checkpoint_every=3,
            )
            for op, ts in zip(ops, timestamps):
                service.submit(op, ts)
            service.close()
            runs[label] = service
            result.failures.extend(_audit_failures(label, f"{root}/{label}"))
        elastic = runs["elastic"]
        result.failures.extend(drift_failures(
            _serve_observables(elastic), _serve_observables(runs["static"]),
            "elastic", reference_label="static",
        ))
        rebalance = elastic.maintainer.update_metrics.rebalance_summary()
        if not rebalance["rebalance_drains"]:
            result.failures.append(
                f"preset {preset!r} applied no drain mid-stream"
            )
        if not rebalance["rebalance_moved_vertices"]:
            result.failures.append(
                "drain applied but no movement charged to rebalance meters"
            )
        failover = elastic.maintainer.failover
        if failover is not None and failover.epoch < 1:
            result.failures.append("membership epoch never advanced")
    finally:
        if wal_root is None:
            shutil.rmtree(root, ignore_errors=True)
    return result


def chaos_suite(
    presets: Sequence[str] = (),
    seeds: Iterable[int] = (0,),
    workloads: Sequence[ChaosWorkload] = CHAOS_WORKLOADS,
    membership=None,
    representation=None,
    procs: int = 1,
    sanitize: bool = False,
) -> List[ChaosCaseResult]:
    """Sweep ``presets x seeds`` over ``workloads`` (reference once each).

    Defaults to every preset in :data:`PLAN_PRESETS`.  ``membership``
    overrides the failover tunables for every case.  ``procs > 1`` runs
    each case on a fresh :class:`~repro.runtime.parallel.ParallelRuntime`
    of that many worker processes; ``sanitize`` wraps each case's backend
    in a fresh collecting (``strict=False``)
    :class:`~repro.analysis.parallel.sanitizer.RaceSanitizer`, so one case
    surveys a whole run (``repro-mis sanitize``).  Returns one
    :class:`ChaosCaseResult` per case; callers decide whether any failure
    is fatal (``repro-mis chaos`` exits non-zero).
    """
    from repro.analysis.parallel.sanitizer import RaceSanitizer
    from repro.runtime.parallel import ParallelRuntime

    selected = list(presets) or list(PLAN_PRESETS)
    for preset in selected:
        plan_for(preset, 0)  # reject an unknown name before any run
    results: List[ChaosCaseResult] = []
    for workload in workloads:
        reference = reference_run(workload)
        for preset in selected:
            for seed in seeds:
                results.append(
                    run_chaos_case(
                        workload, preset, seed,
                        reference=reference, membership=membership,
                        representation=representation,
                        runtime=ParallelRuntime(procs=procs)
                        if procs > 1 else None,
                        sanitizer=RaceSanitizer(strict=False)
                        if sanitize else None,
                    )
                )
    return results
