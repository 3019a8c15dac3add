"""Tests for the epoch-consistent read path (:mod:`repro.serve.reads`).

The contract under test: every published epoch is an immutable barrier
snapshot of a committed window, so any query answered at epoch ``e`` is
bit-identical to querying a maintainer restored to that window's
checkpoint — across local (dict/inline) and shared (process + csr)
backings, across crash-rollback-replay, and across drain/join
membership transitions.  Epochs are strictly monotonic, staleness is
bounded by admission control, and the shared path serves reads with
zero per-query pickling.
"""

from __future__ import annotations

import pickle

import pytest

np = pytest.importorskip("numpy")

from repro.core.maintainer import MISMaintainer
from repro.bench.workloads import delete_reinsert_workload
from repro.errors import QueryError, WorkloadError
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi
from repro.serve import (
    AdaptiveWindowController,
    AdmissionConfig,
    IngestionService,
    QueryEngine,
    SnapshotRegistry,
    TraceConfig,
    WindowConfig,
    bursty_trace,
)

_HIGH_WATERMARK = 64


def _maintainer(tag="AM", **kw):
    return MISMaintainer(load_dataset(tag), num_workers=6, **kw)


def _service(tmp_path, name="wal", tag="AM", serve_reads=True, **kw):
    kw.setdefault("controller", AdaptiveWindowController(WindowConfig(
        min_window=4, max_window=32, initial_window=8,
    )))
    kw.setdefault("admission", AdmissionConfig(
        policy="block", high_watermark=_HIGH_WATERMARK, low_watermark=16,
    ))
    kw.setdefault("checkpoint_every", 0)
    return IngestionService(
        _maintainer(tag, **kw.pop("maintainer_kw", {})),
        str(tmp_path / name), serve_reads=serve_reads, **kw,
    )


def _snapshot_point(snapshot, vertex):
    """Point membership answered directly against a held snapshot."""
    row = snapshot.row_of(vertex)
    return bool(snapshot.in_[row]) if row is not None else False


# ---------------------------------------------------------------------------
# registry lifecycle
# ---------------------------------------------------------------------------
class TestSnapshotRegistry:
    def _registry(self):
        maintainer = _maintainer()
        return maintainer, SnapshotRegistry(maintainer)

    def test_publish_default_counter_and_monotonicity(self):
        _, registry = self._registry()
        assert registry.latest() is None
        first = registry.publish(watermark=0)
        second = registry.publish(watermark=5)
        assert (first.epoch, second.epoch) == (0, 1)
        assert registry.history == [(0, 0), (1, 5)]
        with pytest.raises(QueryError, match="strictly monotonic"):
            registry.publish(epoch=1, watermark=9)
        registry.close()

    def test_local_snapshot_matches_maintainer(self):
        maintainer, registry = self._registry()
        snapshot = registry.publish(watermark=0)
        assert snapshot.members() == sorted(maintainer.independent_set())
        assert snapshot.set_size == len(maintainer.independent_set())
        registry.close()

    def test_acquire_release_refcounting(self):
        _, registry = self._registry()
        with pytest.raises(QueryError, match="no epoch published"):
            registry.acquire()
        registry.publish(watermark=0)
        held = registry.acquire()
        assert held.refs == 2  # registry + reader
        registry.release(held)
        assert held.refs == 1  # the registry still holds its own
        registry.close()       # ... which close() drops
        with pytest.raises(QueryError, match="released more times"):
            registry.release(held)

    def test_superseded_epoch_survives_while_acquired(self):
        maintainer, registry = self._registry()
        registry.publish(watermark=0)
        held = registry.acquire()
        before = held.members()
        ops = delete_reinsert_workload(maintainer.graph, 10, seed=3)
        maintainer.apply_stream(ops, batch_size=5)
        registry.publish(watermark=20)
        assert held.members() == before  # the old epoch did not move
        assert registry.latest().epoch == 1
        registry.release(held)
        registry.close()

    def test_closed_registry_rejects_publish(self):
        _, registry = self._registry()
        registry.close()
        with pytest.raises(QueryError, match="closed"):
            registry.publish(watermark=0)

    def test_staleness_is_frontier_minus_watermark(self):
        maintainer = _maintainer()
        frontier = {"seq": 0}
        registry = SnapshotRegistry(
            maintainer, frontier_fn=lambda: frontier["seq"]
        )
        registry.publish(watermark=0)
        assert registry.staleness() == 0
        frontier["seq"] = 7
        assert registry.staleness() == 7
        registry.publish(watermark=7)
        assert registry.staleness() == 0
        registry.close()


# ---------------------------------------------------------------------------
# query semantics (local backing)
# ---------------------------------------------------------------------------
class TestQueryEngine:
    @pytest.fixture()
    def served(self):
        graph = erdos_renyi(60, 180, seed=17)
        maintainer = MISMaintainer(graph, num_workers=5)
        ops = delete_reinsert_workload(graph, 12, seed=17)
        maintainer.apply_stream(ops, batch_size=4)
        registry = SnapshotRegistry(maintainer)
        registry.publish(watermark=maintainer.updates_applied)
        yield maintainer, QueryEngine(registry)
        registry.close()

    def test_point_matches_maintainer(self, served):
        maintainer, engine = served
        members = set(maintainer.independent_set())
        for v in sorted(maintainer.graph.vertices()):
            answer = engine.point(v)
            assert answer["member"] == (v in members)
            assert answer["epoch"] == 0
        # unknown vertices are simply not in the set
        assert engine.point(10 ** 9)["member"] is False

    def test_batch_matches_point(self, served):
        maintainer, engine = served
        vertices = sorted(maintainer.graph.vertices())[:40] + [10 ** 9]
        batch = engine.batch(vertices)
        assert batch["members"] == [
            engine.point(v)["member"] for v in vertices
        ]
        assert engine.batch([])["members"] == []

    def test_neighborhood_matches_bfs_reference(self, served):
        maintainer, engine = served
        members = set(maintainer.independent_set())
        graph = maintainer.graph
        start = sorted(graph.vertices())[0]
        for hops in (0, 1, 2):
            frontier, seen = {start}, {start}
            for _ in range(hops):
                frontier = {
                    w for v in frontier for w in graph.neighbors(v)
                } - seen
                seen |= frontier
            expected = sorted(seen & members)
            answer = engine.neighborhood(start, hops=hops)
            assert answer["members"] == expected

    def test_neighborhood_validation(self, served):
        _, engine = served
        with pytest.raises(QueryError, match="not in the graph"):
            engine.neighborhood(10 ** 9)
        with pytest.raises(QueryError, match="hops"):
            engine.neighborhood(0, hops=-1)

    def test_why_not_certificates_are_checkable(self, served):
        maintainer, engine = served
        members = set(maintainer.independent_set())
        graph = maintainer.graph

        def key(v):
            return (graph.degree(v), v)

        for v in sorted(graph.vertices()):
            cert = engine.why_not(v)
            if v in members:
                assert cert["member"] and cert["blocker"] is None
            else:
                blocker = cert["blocker"]
                # at a fixpoint every non-member has a blocking witness:
                # an adjacent member ranked ≺-below it
                assert blocker in graph.neighbors(v)
                assert blocker in members
                assert key(blocker) < key(v)
        with pytest.raises(QueryError, match="not in the graph"):
            engine.why_not(10 ** 9)

    def test_counters_and_stats(self, served):
        _, engine = served
        engine.point(0)
        engine.batch([0, 1, 2])
        engine.why_not(0)
        logical = engine.logical_stats()
        assert logical["point_queries"] == 1
        assert logical["batch_queries"] == 1
        assert logical["batch_vertices"] == 3
        assert logical["max_batch_size"] == 3
        assert logical["why_not_queries"] == 1
        assert logical["reads_served"] == 5
        stats = engine.read_stats()
        assert stats["epoch"] == 0
        for tag in ("p50", "p95", "p99"):
            assert stats[f"latency_{tag}_ms"] >= 0.0

    def test_latency_memory_stays_bounded(self, served):
        from repro.serve.reads import _LATENCY_BATCH

        _, engine = served
        size = engine._latency.counts.size
        for i in range(3 * _LATENCY_BATCH):
            engine.point(i % 7)
            assert len(engine._latencies) <= _LATENCY_BATCH
        assert engine._latency.counts.size == size
        stats = engine.read_stats()
        assert engine._latency.count == 3 * _LATENCY_BATCH
        assert 0.0 < stats["latency_p50_ms"] <= stats["latency_p99_ms"]


class TestLatencyHistogram:
    def test_nearest_rank_within_bucket_resolution(self):
        import random

        from repro.serve.reads import LatencyHistogram
        from repro.util import percentile

        rng = random.Random(5)
        samples = [rng.lognormvariate(-10, 2) for _ in range(5000)]
        hist = LatencyHistogram()
        hist.add(samples[:1000])
        hist.add(samples[1000:])
        exact = sorted(samples)
        for q in (0.01, 0.5, 0.9, 0.99, 0.999, 1.0):
            want = percentile(exact, q)
            got = hist.percentile(q)
            assert want <= got <= want * (1 + 1 / LatencyHistogram.SUB_BUCKETS)
        assert hist.count == len(samples)
        assert hist.total == pytest.approx(sum(samples))
        assert LatencyHistogram().percentile(0.5) == 0.0

# ---------------------------------------------------------------------------
# service wiring: epochs at commits, recovery, staleness, membership
# ---------------------------------------------------------------------------
class TestServiceReadPath:
    def test_initial_epoch_published_at_birth(self, tmp_path):
        service = _service(tmp_path)
        snapshot = service.reads.latest()
        assert (snapshot.epoch, snapshot.watermark) == (0, 0)
        assert (snapshot.members()
                == sorted(service.maintainer.independent_set()))
        service.close()

    def test_read_path_disabled_raises(self, tmp_path):
        service = _service(tmp_path, serve_reads=False)
        assert service.reads is None
        with pytest.raises(WorkloadError, match="serve_reads=True"):
            service.query_point(0)
        service.close()

    def test_every_epoch_bit_identical_to_restored_checkpoint(
        self, tmp_path
    ):
        """The tentpole oracle: hold every published epoch, checkpoint the
        maintainer at each commit, and post-hoc compare each held snapshot
        (members + point queries) against a maintainer restored to that
        epoch's checkpoint."""
        service = _service(tmp_path)
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=160, seed=7))
        held = {}  # epoch -> (snapshot, checkpoint path)
        sample = sorted(service.maintainer.graph.vertices())[:25]

        def capture():
            snapshot = service.reads.latest()
            if snapshot.epoch not in held:
                path = tmp_path / f"epoch-{snapshot.epoch}.json"
                service.maintainer.save(str(path))
                held[snapshot.epoch] = (service.reads.acquire(), path)

        capture()
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
            capture()
        service.drain()
        capture()
        assert len(held) >= 3

        epochs = [e for e, _ in service.reads.history]
        assert epochs == sorted(set(epochs))  # strictly monotonic

        for epoch, (snapshot, path) in sorted(held.items()):
            restored = MISMaintainer.load(str(path))
            members = set(restored.independent_set())
            assert snapshot.members() == sorted(members), (
                f"epoch {epoch} diverged from its checkpoint"
            )
            for v in sample:
                assert _snapshot_point(snapshot, v) == (v in members)
            service.reads.release(snapshot)
        service.close()

    def test_staleness_bounded_by_admission_control(self, tmp_path):
        service = _service(tmp_path)
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=200, seed=11))
        vertex = sorted(service.maintainer.graph.vertices())[0]
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
            answer = service.query_point(vertex)
            # the answering epoch is always the last committed window
            assert answer["watermark"] == service.applied_watermark
            # the block policy drains above the high watermark, so no
            # read can ever be more than that many events stale
            assert service.reads.staleness() <= _HIGH_WATERMARK
        service.drain()
        stats = service.query_engine.logical_stats()
        assert 0 < stats["staleness_max"] <= _HIGH_WATERMARK
        service.close()

    def test_stats_summary_reports_committed_reads(self, tmp_path):
        service = _service(tmp_path)
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=80, seed=3))
        vertex = sorted(service.maintainer.graph.vertices())[0]
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
            service.query_point(vertex)
        service.drain()
        service.close()
        summary = service.stats_summary()
        reads = summary["reads"]
        assert reads["reads_served"] == 80
        assert reads["watermark"] == summary["applied_watermark"]
        assert reads["epochs_published"] == len(service.reads.history)

    def test_crash_recovery_restores_read_watermark(self, tmp_path):
        """The read watermark survives WAL replay: a recovered service
        serves from an epoch equal to its replayed commit watermark, and
        queries keep matching the maintainer."""
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=160, seed=7))
        crashed = _service(tmp_path, name="crashed")
        cut = None
        for i, (op, ts) in enumerate(zip(ops, timestamps)):
            crashed.submit(op, ts)
            if crashed.windows_committed >= 3 and crashed.pending >= 2:
                crashed.abandon()
                cut = i + 1
                break
        assert cut is not None

        recovered = IngestionService.recover(
            crashed.wal_dir, serve_reads=True,
            controller=AdaptiveWindowController(WindowConfig(
                min_window=4, max_window=32, initial_window=8,
            )),
            checkpoint_every=0,
        )
        snapshot = recovered.reads.latest()
        assert snapshot.watermark == recovered.applied_watermark > 0
        assert (snapshot.members()
                == sorted(recovered.maintainer.independent_set()))

        before = recovered.reads.latest().epoch
        for op, ts in zip(ops[cut:], timestamps[cut:]):
            recovered.submit(op, ts)
        recovered.drain()
        assert recovered.reads.latest().epoch > before
        epochs = [e for e, _ in recovered.reads.history]
        assert epochs == sorted(set(epochs))
        members = set(recovered.maintainer.independent_set())
        for v in sorted(recovered.maintainer.graph.vertices())[:25]:
            assert recovered.query_point(v)["member"] == (v in members)
        recovered.close()

    def test_reads_consistent_across_drain_join_transitions(self, tmp_path):
        from repro.faults import (
            DrainSpec,
            FaultInjector,
            FaultPlan,
            JoinSpec,
        )

        plan = FaultPlan(
            seed=0,
            joins=(JoinSpec(superstep=0, worker=6, run=2),),
            drains=(DrainSpec(superstep=0, worker=2, run=4),),
        )
        service = _service(
            tmp_path, maintainer_kw={"faults": FaultInjector(plan)},
        )
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=120, seed=5))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.drain()
        failover = service.maintainer.failover
        assert failover is not None and failover.transitions
        epochs = [e for e, _ in service.reads.history]
        assert epochs == sorted(set(epochs))
        members = set(service.maintainer.independent_set())
        for v in sorted(service.maintainer.graph.vertices())[:25]:
            assert service.query_point(v)["member"] == (v in members)
        snapshot = service.reads.latest()
        assert snapshot.watermark == service.applied_watermark
        service.close()


# ---------------------------------------------------------------------------
# shared-memory backing: zero-copy, zero-pickle, worker offload
# ---------------------------------------------------------------------------
class TestSharedReadPath:
    @pytest.fixture()
    def shared_service(self, tmp_path):
        from repro.runtime import ParallelRuntime

        runtime = ParallelRuntime(procs=2, start_method="fork")
        service = _service(
            tmp_path,
            maintainer_kw={"runtime": runtime, "representation": "csr"},
        )
        yield service
        service.close()
        runtime.close()

    def test_snapshots_are_shared_and_queries_match(self, shared_service):
        service = shared_service
        assert service.reads.latest().shared
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=80, seed=7))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.drain()
        snapshot = service.reads.latest()
        assert snapshot.shared and snapshot.segment is not None
        members = set(service.maintainer.independent_set())
        assert snapshot.members() == sorted(members)
        for v in sorted(service.maintainer.graph.vertices())[:25]:
            assert service.query_point(v)["member"] == (v in members)

    def test_pinned_epoch_immutable_after_republish(self, shared_service):
        service = shared_service
        held = service.reads.acquire()
        segment = held.segment
        frozen = np.array(held.in_)  # private copy to compare against
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=60, seed=9))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.drain()
        fresh = service.reads.latest()
        assert fresh.epoch > held.epoch
        assert fresh.segment != segment  # writer moved to a new segment
        assert np.array_equal(held.in_, frozen)  # held epoch unchanged
        service.reads.release(held)

    def test_zero_pickling_on_in_process_reads(self, shared_service,
                                               monkeypatch):
        service = shared_service
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=40, seed=3))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.drain()
        vertices = sorted(service.maintainer.graph.vertices())
        counter = {"dumps": 0}
        real_dumps = pickle.dumps

        def counting_dumps(*args, **kwargs):
            counter["dumps"] += 1
            return real_dumps(*args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting_dumps)
        for v in vertices[:100]:
            service.query_point(v)
        service.query_batch(vertices[:200])
        service.query_why_not(vertices[0])
        assert counter["dumps"] == 0  # pure numpy over the mapped segment

    def test_worker_offload_matches_in_process(self, shared_service):
        service = shared_service
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=40, seed=5))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.drain()
        vertices = sorted(service.maintainer.graph.vertices())[:300]
        inproc = service.query_batch(vertices)
        offloaded = service.query_batch(vertices, offload=True)
        assert offloaded["members"] == inproc["members"]
        assert offloaded["epoch"] == inproc["epoch"]
        runtime = service.maintainer.runtime
        assert runtime.reads_dispatched >= 1
