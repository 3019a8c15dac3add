"""Closed-loop ingest and read benchmark for the MIS ingestion service.

Run from the repository root::

    python3 perfbench/run.py --workload ingest_single --seed 1 --seconds 20 --trace 0

One producer drives the public API from one process: ``MISMaintainer`` →
``IngestionService.submit`` / ``drain`` → ``query_point`` /
``query_batch`` / ``query_why_not``.  The service is synchronous, so the
load is a closed loop: each ``submit`` returns before the next starts.
Inputs (a 10^5-vertex Chung–Lu graph and a delete-then-reinsert update
stream, see :mod:`perfbench.inputs`) come from ``--seed`` and are built
before any timing starts.  Every run checks its answers; the last line of
stdout is the JSON result, the line before it the run's details (input
checksums, sample counts, per-setup times).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
untraced run and then a traced run over the same operations, with spans
recorded around each layer's public entry points
(:mod:`perfbench.tracing`), and reports the per-layer metrics.

Exit codes: 0 when every check passed, 1 when a check failed (the result
line then says ``"correct": false`` and carries no timing), 2 when the
benchmark could not run at all (no result line).
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for WAL directories and trace files, inside the checkout
WORK = os.path.join(ROOT, ".perfbench")

#: the seed runs use unless told otherwise, and the held-out seed a claimed
#: gain must also hold on (never tune against it)
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
#: sha256 of the generated graph for the two named seeds — generation is
#: this benchmark's own code, so a mismatch means the inputs moved
PINNED_GRAPHS = {
    DEFAULT_SEED:
        "bbf0793b0df86691c27fffec45acff88b602c19f8cad89e7dfba30a9d5ba50b9",
    HELD_OUT_SEED:
        "af66c8c7b27e7ec2949e71981588d3ef817af3c525b75e69469699cb627c71b6",
}

#: flags that would change what the program runs; cleared before import
HERMETIC_ENV = ("REPRO_REPRESENTATION", "REPRO_SANITIZE", "REPRO_CONTRACTS")
NUM_WORKERS = 10
#: an end-to-end run sets up this many times, each setup followed by one
#: slice of the measured time: the slices sample the host at moments
#: ~20 s apart, so a burst of host slowness moves one slice rather than
#: the whole run.  setup_s is the median of the slices' setups.
SLICES = 3
#: latency percentiles are taken per segment of consecutive samples, and
#: the median over the segments is reported: the shared host's speed
#: drifts by up to 1.7x on scales of 0.1 s to a minute, and the stalls of
#: a slow stretch gather in the tail of a single percentile over the whole
#: run (or of a mean over segments), while the median segment stays put.
#: Reads are segmented by this many:
SEGMENT_READS = 5_000
#: a timed run goes on past ``--seconds`` until this many windows have
#: committed (over all its slices), so that ten lie beyond the commit p90
MIN_WINDOWS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    #: edges deleted then reinserted per stream block; a run stops only at
    #: a block boundary, where the graph is the original again
    block_edges: int
    #: the pre-generated stream holds distinct blocks for this many updates
    #: per second; a faster run replays it from the start, which is valid
    #: because every whole block restores the graph
    max_rate: int
    #: worker processes of the process runtime; 0 runs inline
    procs: int
    #: (min, max) window size; (1, 1) is a fixed window of one update
    window: tuple
    #: commit latencies are segmented by this many consecutive events
    #: (at least 100, so each segment's p90 has ten samples beyond it)
    commit_segment: int
    #: seeded reads issued after every submit
    reads_per_write: int = 0
    #: workloads that serve no reads while writing measure read latency
    #: on an idle epoch instead: a burst of this many reads after every
    #: stream block, with the run's clock paused (the window is one
    #: update, so nothing is pending across a burst)
    probe_reads: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload("ingest_single", block_edges=32, max_rate=500, procs=0,
                 window=(1, 1), commit_segment=100,
                 probe_reads=SEGMENT_READS),
        Workload("read_mix", block_edges=256, max_rate=1500, procs=2,
                 window=(4, 64), commit_segment=1024,
                 reads_per_write=20),
    )
}
#: read bursts of the idle-epoch probe held by the generated schedule; a
#: longer run reuses them from the start
PROBE_BURSTS = 64


class GateFailure(Exception):
    """A correctness check failed; the run reports no timing."""


@dataclass
class Inputs:
    edges: List[tuple]
    vertices: int
    graph_sha256: str
    ops: list
    stream_sha256: str
    reads: Any = None
    probe: Any = None


@dataclass
class RunResult:
    setup_s: float
    blocks: int = 0
    writes: int = 0
    failed_writes: int = 0
    reads: int = 0
    failed_reads: int = 0
    wall_s: float = 0.0
    commit_s: List[float] = field(default_factory=list)
    read_s: List[float] = field(default_factory=list)
    #: seconds of probe reads inside the drive, left out of ``wall_s``
    probe_s: float = 0.0
    peak_rss_mb: float = 0.0
    logical: Dict[str, Any] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def updates_per_s(self) -> float:
        return self.writes / self.wall_s


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
    return ordered[rank - 1]


def segments(runs: List[List[float]], size: int) -> List[List[float]]:
    """Consecutive whole segments of ``size`` samples from each run (a
    run's last, partial segment is dropped)."""
    return [samples[i:i + size] for samples in runs
            for i in range(0, len(samples) - size + 1, size)]


def segment_percentile(parts: List[List[float]], q: float) -> float:
    """Median over ``parts`` of each part's ``q`` percentile."""
    return statistics.median(percentile(part, q) for part in parts)


def build_inputs(workload: Workload, seed: int, seconds: int) -> Inputs:
    from perfbench import inputs as gen
    from repro.graph.updates import EdgeDeletion, EdgeInsertion

    edges = gen.chung_lu_edges(seed)
    graph_sha = gen.sha256(edges)
    pinned = PINNED_GRAPHS.get(seed)
    if pinned is not None and pinned != graph_sha:
        raise GateFailure(
            f"seed {seed} graph checksum {graph_sha} != pinned {pinned}"
        )
    per_block = 2 * workload.block_edges
    blocks = -(-workload.max_rate * seconds // per_block) + 1
    stream = gen.update_stream(seed, len(edges), workload.block_edges, blocks)
    edge_list = [tuple(e) for e in edges.tolist()]
    half = workload.block_edges
    ops = []
    for row in stream.tolist():
        ops.extend(EdgeDeletion(*edge_list[i]) for i in row[:half])
        ops.extend(EdgeInsertion(*edge_list[i]) for i in row[half:])
    result = Inputs(edge_list, gen.NUM_VERTICES, graph_sha, ops,
                    gen.sha256(stream))
    if workload.reads_per_write:
        result.reads = gen.read_schedule(
            seed, workload.reads_per_write * len(ops)
        )
    if workload.probe_reads:
        result.probe = gen.read_schedule(
            seed, PROBE_BURSTS * workload.probe_reads, probe=True
        )
    return result


# ----------------------------------------------------------------------
# correctness checks
# ----------------------------------------------------------------------
class ReadChecker:
    """Checks each answer against the maintainer at the same epoch (the
    service's committed-window count)."""

    def __init__(self, svc):
        self.svc = svc
        self.maintainer = svc.maintainer

    def point(self, answer, vertex) -> bool:
        return (answer["epoch"] == self.svc.windows_committed
                and answer["member"] == self.maintainer.contains(vertex))

    def batch(self, answer, vertices) -> bool:
        contains = self.maintainer.contains
        return (answer["epoch"] == self.svc.windows_committed
                and answer["members"] == [contains(v) for v in vertices])

    def why_not(self, answer, vertex) -> bool:
        m = self.maintainer
        member = m.contains(vertex)
        if (answer["epoch"] != self.svc.windows_committed
                or answer["member"] != member):
            return False
        blocker = answer["blocker"]
        if member:
            return blocker is None
        # the certificate: an in-set neighbour ranked below the vertex
        graph = m.graph
        return (blocker is not None and m.contains(blocker)
                and blocker in graph.neighbors(vertex)
                and (graph.degree(blocker), blocker)
                < (graph.degree(vertex), vertex))


def issue_reads(schedule, start: int, count: int, queries, checker,
                result: RunResult) -> None:
    """Issue reads ``start .. start + count`` of ``schedule``, timing each
    ``query_*`` call and checking its answer."""
    from perfbench.inputs import BATCH, POINT

    clock = time.perf_counter
    kinds = schedule.kinds
    vertices = schedule.vertices
    point, batch, why_not = queries
    latencies = result.read_s
    for i in range(start, start + count):
        kind = kinds[i]
        if kind == POINT:
            v = int(vertices[i])
            t0 = clock()
            answer = point(v)
            t1 = clock()
            ok = checker.point(answer, v)
        elif kind == BATCH:
            vs = schedule.batches[schedule.batch_row[i]].tolist()
            t0 = clock()
            answer = batch(vs)
            t1 = clock()
            ok = checker.batch(answer, vs)
        else:
            v = int(vertices[i])
            t0 = clock()
            answer = why_not(v)
            t1 = clock()
            ok = checker.why_not(answer, v)
        latencies.append(t1 - t0)
        result.reads += 1
        if not ok:
            result.failed_reads += 1


class SegmentWatch:
    """Records the shared-memory segments this process creates, so the
    leak check looks at the program's own segments and nothing else."""

    def __enter__(self) -> "SegmentWatch":
        from multiprocessing import shared_memory

        self._module = shared_memory
        self._original = original = shared_memory.SharedMemory
        created = self.created = []

        class Recorded(original):
            def __init__(self, name=None, create=False, size=0, **kwargs):
                super().__init__(name, create, size, **kwargs)
                if create:
                    created.append(self.name)

        shared_memory.SharedMemory = Recorded
        return self

    def __exit__(self, *exc) -> None:
        self._module.SharedMemory = self._original

    def leaked(self) -> List[str]:
        return [name for name in self.created
                if os.path.exists(os.path.join("/dev/shm", name))]


def worker_peak_rss_mb() -> float:
    """Summed peak RSS of the live child processes (the worker pool)."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# one run: set up, drive the closed loop, check
# ----------------------------------------------------------------------
class Service:
    """One maintainer + ingestion service over a fresh temp WAL dir."""

    def __init__(self, workload: Workload, graph):
        from repro import MISMaintainer
        from repro.core.activation import ActivationStrategy
        from repro.runtime.parallel import ParallelRuntime
        from repro.serve import (
            AdaptiveWindowController,
            FixedWindowController,
            IngestionService,
            WindowConfig,
        )

        lo, hi = workload.window
        if lo == hi:
            controller = FixedWindowController(lo)
        else:
            controller = AdaptiveWindowController(WindowConfig(
                min_window=lo, max_window=hi,
                initial_window=min(max(16, lo), hi),
            ))
        runtime = (ParallelRuntime(procs=workload.procs)
                   if workload.procs else "inline")
        os.makedirs(WORK, exist_ok=True)
        self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=WORK)
        self.maintainer = None
        self.svc = None
        try:
            started = time.perf_counter()
            self.maintainer = MISMaintainer(
                graph, num_workers=NUM_WORKERS,
                strategy=ActivationStrategy.SAME_STATUS,
                runtime=runtime, representation="csr",
            )
            self.svc = IngestionService(
                self.maintainer, self.wal_dir, controller=controller,
                fsync="commit", checkpoint_every=0,
                serve_reads=workload.reads_per_write > 0,
            )
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.abandon()
            raise

    def abandon(self) -> None:
        """Release everything without a closing checkpoint."""
        if self.svc is not None:
            self.svc.abandon()
        elif self.maintainer is not None:
            self.maintainer.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)


class ReadProbe:
    """Idle-epoch read latency for a workload that serves no reads while
    writing: at each stream block boundary, where every event has
    committed, publish the current state as an epoch of a registry of the
    probe's own and issue one burst of the probe schedule's reads."""

    def __init__(self, svc, schedule, burst: int):
        from repro.serve import QueryEngine, SnapshotRegistry

        self.svc = svc
        self.schedule = schedule
        self.burst_reads = burst
        self.bursts = 0
        self.registry = SnapshotRegistry(svc.maintainer)
        engine = QueryEngine(self.registry)
        self.queries = (engine.point, engine.batch, engine.why_not)
        self.checker = ReadChecker(svc)

    def burst(self, result: RunResult) -> None:
        svc = self.svc
        self.registry.publish(epoch=svc.windows_committed,
                              watermark=svc.applied_watermark)
        start = self.bursts % PROBE_BURSTS * self.burst_reads
        issue_reads(self.schedule, start, self.burst_reads, self.queries,
                    self.checker, result)
        self.bursts += 1

    def close(self) -> None:
        self.registry.close()


def drive(svc, workload: Workload, inputs: Inputs, result: RunResult,
          seconds: Optional[float], max_blocks: Optional[int],
          min_windows: int, tracer=None, probe: Optional[ReadProbe] = None,
          ) -> None:
    """The closed loop: submit block after block until ``seconds`` have
    passed and ``min_windows`` have committed (or until ``max_blocks``
    are done), then drain.  With a ``probe``, a read burst follows every
    block, off the run's clock."""
    clock = time.perf_counter
    per_block = 2 * workload.block_edges
    ops = inputs.ops
    reads_per_write = workload.reads_per_write
    reads = inputs.reads
    if reads_per_write:
        checker = ReadChecker(svc)
        queries = (svc.query_point, svc.query_batch, svc.query_why_not)
    starts: List[float] = []
    commit = result.commit_s
    resolved = 0
    submit = svc.submit
    distinct_blocks = len(ops) // per_block
    paused = 0.0
    if tracer is not None:
        tracer.phase = "run"
    first = clock()
    deadline = first + seconds if seconds is not None else None
    while max_blocks is None or result.blocks < max_blocks:
        base = result.blocks % distinct_blocks * per_block
        for i in range(base, base + per_block):
            t0 = clock()
            outcome = submit(ops[i])
            t1 = clock()
            starts.append(t0)
            if not outcome.accepted or outcome.seq != len(starts):
                result.failed_writes += 1
            watermark = svc.applied_watermark
            while resolved < watermark:
                commit.append(t1 - starts[resolved])
                resolved += 1
            if reads_per_write:
                issue_reads(reads, i * reads_per_write, reads_per_write,
                            queries, checker, result)
        result.blocks += 1
        if probe is not None:
            if resolved != len(starts):
                raise GateFailure("events pending across a read probe")
            t0 = clock()
            probe.burst(result)
            paused += clock() - t0
        if (deadline is not None and clock() - paused >= deadline
                and svc.windows_committed >= min_windows):
            break
    svc.drain()
    end = clock()
    if tracer is not None:
        tracer.phase = "check"
    while resolved < len(starts):
        commit.append(end - starts[resolved])
        resolved += 1
    result.writes = len(starts)
    result.probe_s = paused
    result.wall_s = end - first - paused


def check_run(svc, inputs: Inputs, result: RunResult,
              members_at_setup) -> None:
    """The untimed correctness gate of one run."""
    from repro.serial.greedy import greedy_mis
    from repro.serve import audit_log

    maintainer = svc.maintainer
    problems, audit = audit_log(svc.wal_dir)
    if problems:
        raise GateFailure(f"WAL audit: {problems[:3]}")
    if (audit["applied"] != result.writes or audit["quarantined"]
            or audit["pending"] or svc.stats.quarantined):
        raise GateFailure(f"WAL audit {audit} vs {result.writes} submitted")
    graph = maintainer.graph
    if graph.num_edges != len(inputs.edges) or not all(
        graph.has_edge(op.u, op.v) for op in inputs.ops[:result.writes]
    ):
        raise GateFailure("the stream did not restore the graph")
    members = maintainer.independent_set()
    if members != greedy_mis(graph):
        raise GateFailure("members differ from the greedy fixpoint")
    if members != members_at_setup:
        raise GateFailure("members differ from the members after setup")
    if result.failed_writes or result.failed_reads:
        raise GateFailure(
            f"{result.failed_writes} failed write(s), "
            f"{result.failed_reads} failed read(s)"
        )
    result.logical = {
        "totals": svc.logical_totals(),
        "windows": svc.windows_committed,
        "members": sorted(members),
    }
    if svc.query_engine is not None:
        result.logical["reads"] = svc.query_engine.logical_stats()


def layer_counters(svc) -> Dict[str, float]:
    """Cumulative layer counters from the program's public meters; the
    traced run reports their change over the measured phase."""
    from repro.graph.csr import CSRPartition

    maintainer = svc.maintainer
    metrics = maintainer.update_metrics
    part = CSRPartition.attach(maintainer.dgraph)
    runtime = maintainer.runtime
    frames = (runtime.frame_stats() if hasattr(runtime, "frame_stats")
              else dict.fromkeys(FRAME_STATS, 0))
    counters = {
        "service.windows": svc.windows_committed,
        "service.updates": maintainer.updates_applied,
        "admission.blocked": svc.admission.stats.blocked,
        "wal.bytes": sum(os.path.getsize(p) for p in svc.wal.segments()),
        "graph.csr_repairs": part.repairs,
        "graph.csr_rebuilds": part.rebuilds,
        "scaleg.supersteps": metrics.supersteps,
        "scaleg.active_vertices": metrics.active_vertices,
        "scaleg.state_changes": metrics.state_changes,
        "scaleg.compute_work": metrics.compute_work,
        "reads.epochs_published":
            svc.reads.epochs_published if svc.reads is not None else 0,
    }
    for key in FRAME_STATS:
        counters[f"runtime.{key}"] = frames[key]
    return counters


@dataclass
class Bench:
    """One benchmark process: its workload, inputs and the runs so far."""

    workload: Workload
    inputs: Inputs
    base_graph: Any
    segments: SegmentWatch
    runs: List[RunResult] = field(default_factory=list)

    def check_hermetic(self) -> None:
        leftover = multiprocessing.active_children()
        if leftover:
            raise GateFailure(f"worker processes outlived the run: {leftover}")
        leaked = self.segments.leaked()
        if leaked:
            raise GateFailure(f"shared-memory segments leaked: {leaked}")

    def one_run(self, seconds, max_blocks=None, min_windows=MIN_WINDOWS,
                tracer=None, probe=False) -> RunResult:
        """Set up, drive, check and tear down one service (with read
        bursts after each block if ``probe``); records and returns its
        measurements.  Raises :class:`GateFailure` on a failed check."""
        service = Service(self.workload, self.base_graph.copy())
        result = RunResult(setup_s=service.setup_s)
        self.runs.append(result)
        reader = None
        try:
            svc = service.svc
            members_at_setup = svc.maintainer.independent_set()
            if probe:
                reader = ReadProbe(svc, self.inputs.probe,
                                   self.workload.probe_reads)
            before = layer_counters(svc)
            gc.collect()
            drive(svc, self.workload, self.inputs, result, seconds,
                  max_blocks, min_windows, tracer, reader)
            after = layer_counters(svc)
            result.layer = {k: after[k] - before[k] for k in after}
            check_run(svc, self.inputs, result, members_at_setup)
            result.peak_rss_mb = worker_peak_rss_mb()
        finally:
            if reader is not None:
                reader.close()
            # abandon, not close(): the closing checkpoint close() would
            # write is not part of the benchmark (the WAL is audited above)
            service.abandon()
            del service
        gc.collect()
        self.check_hermetic()
        return result


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def end_to_end(bench: Bench, seconds: float):
    workload = bench.workload
    slices = [
        bench.one_run(seconds / SLICES,
                      min_windows=-(-MIN_WINDOWS // SLICES),
                      probe=workload.probe_reads > 0)
        for _ in range(SLICES)
    ]
    commit = segments([run.commit_s for run in slices],
                      workload.commit_segment)
    reads = segments([run.read_s for run in slices], SEGMENT_READS)
    self_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worker_peak_mb = max(run.peak_rss_mb for run in slices)
    metrics = {
        "setup_s": (statistics.median(run.setup_s for run in slices), "s"),
        "updates_per_s": (
            sum(run.writes for run in slices)
            / sum(run.wall_s for run in slices), "1/s",
        ),
        "commit_p50_ms": (segment_percentile(commit, 0.50) * 1e3, "ms"),
        "commit_p90_ms": (segment_percentile(commit, 0.90) * 1e3, "ms"),
        "read_p50_us": (segment_percentile(reads, 0.50) * 1e6, "us"),
        "read_p99_us": (segment_percentile(reads, 0.99) * 1e6, "us"),
        "peak_rss_mb": (self_peak_mb + worker_peak_mb, "MB"),
    }
    details = {
        "setup_s": [run.setup_s for run in slices],
        "wall_s": [run.wall_s for run in slices],
        "probe_s": [run.probe_s for run in slices],
        "blocks": [run.blocks for run in slices],
        "windows": [run.logical["windows"] for run in slices],
        "commit_samples": sum(len(run.commit_s) for run in slices),
        "commit_segments": len(commit),
        "read_samples": sum(len(run.read_s) for run in slices),
        "read_segments": len(reads),
    }
    return metrics, details


def per_layer(bench: Bench, seconds: float):
    from perfbench.tracing import Tracer

    # the untraced/traced pair runs one end-to-end slice's length each
    plain = bench.one_run(seconds / SLICES,
                          min_windows=-(-MIN_WINDOWS // SLICES))
    tracer = Tracer()
    with tracer:
        traced = bench.one_run(None, max_blocks=plain.blocks, tracer=tracer)
    if traced.logical != plain.logical:
        raise GateFailure("the traced run's logical meters or members "
                          "differ from the untraced run's")
    os.makedirs(WORK, exist_ok=True)
    tracer.write_jsonl(
        os.path.join(WORK, f"trace-{bench.workload.name}.jsonl")
    )
    spans = tracer.summary()
    metrics: Dict[str, tuple] = {}
    for name in SPAN_METRICS:
        row = spans.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.busy_s"] = (row["busy_s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    layer = dict(traced.layer)
    layer["wal.fsyncs"] = metrics["wal.fsync.calls"][0]
    layer["service.window_ops_mean"] = (
        layer["service.updates"] / layer["service.windows"]
    )
    active = layer["scaleg.active_vertices"]
    layer["scaleg.useful_ratio"] = (
        layer["scaleg.state_changes"] / active if active else 0.0
    )
    for name, unit in COUNT_METRICS.items():
        metrics[name] = (layer[name], unit)
    covered = tracer.top_level_busy("run")
    metrics["trace.uncovered_share"] = (
        (traced.wall_s - covered) / traced.wall_s, "ratio"
    )
    metrics["trace.updates_per_s_untraced"] = (plain.updates_per_s, "1/s")
    metrics["trace.updates_per_s_traced"] = (traced.updates_per_s, "1/s")
    metrics["trace.overhead_updates_per_s"] = (
        plain.updates_per_s - traced.updates_per_s, "1/s"
    )
    details = {"blocks": plain.blocks, "spans": len(tracer.spans)}
    return metrics, details


#: spans reported as ``<name>.calls`` / ``.busy_s`` / ``.self_s``
SPAN_METRICS = (
    "service.submit", "service.drain", "wal.append", "wal.fsync",
    "stream.flush", "core.apply_batch", "graph.csr_ensure",
    "graph.csr_sync_states", "scaleg.run", "scaleg.charge_update",
    "runtime.sweep", "reads.publish", "reads.point", "reads.batch",
    "reads.why_not", "checkpoint.save", "setup.static_run",
)
FRAME_STATS = ("frames_sent", "frame_bytes_sent", "frame_bytes_received",
               "sweeps_dispatched")
#: layer counts over the measured phase, from :func:`layer_counters`
COUNT_METRICS = {
    "service.windows": "count",
    "service.window_ops_mean": "count",
    "admission.blocked": "count",
    "wal.bytes": "B",
    "wal.fsyncs": "count",
    "graph.csr_repairs": "count",
    "graph.csr_rebuilds": "count",
    "scaleg.supersteps": "count",
    "scaleg.active_vertices": "count",
    "scaleg.state_changes": "count",
    "scaleg.compute_work": "count",
    "scaleg.useful_ratio": "ratio",
    "runtime.frames_sent": "count",
    "runtime.frame_bytes_sent": "B",
    "runtime.frame_bytes_received": "B",
    "runtime.sweeps_dispatched": "count",
    "reads.epochs_published": "count",
}


def stop_resource_tracker() -> None:
    """Shared memory starts multiprocessing's resource tracker process;
    stop it and wait for it so nothing outlives the benchmark."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    for name in HERMETIC_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from repro.graph.dynamic_graph import DynamicGraph

    workload = WORKLOADS[args.workload]
    bench = None
    try:
        inputs = build_inputs(workload, args.seed, int(args.seconds) + 1)
        base_graph = DynamicGraph.from_edges(
            inputs.edges, vertices=range(inputs.vertices)
        )
        measure = per_layer if args.trace else end_to_end
        with SegmentWatch() as segments:
            bench = Bench(workload, inputs, base_graph, segments)
            metrics, details = measure(bench, args.seconds)
    except Exception:  # a failed check or a program error: no timing
        traceback.print_exc()
        runs = bench.runs if bench is not None else []
        attempted = max(1, sum(r.writes + r.reads for r in runs))
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1
    finally:
        stop_resource_tracker()
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    details.update({
        "workload": workload.name, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "graph_sha256": inputs.graph_sha256,
        "stream_sha256": inputs.stream_sha256,
        "reads_sha256": (inputs.reads or inputs.probe).checksum(),
    })
    print(json.dumps({"details": details}))
    attempted = sum(r.writes + r.reads for r in bench.runs)
    failed = sum(r.failed_writes + r.failed_reads for r in bench.runs)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
