"""Tests for the durable ingestion service (``repro.serve``).

Covers the WAL format (segments, checksums, torn tails, rotation), the
admission policies, the adaptive window controller, the bursty trace
generator, retry/bisect/quarantine exactly-once semantics, and — the heart
of the subsystem — crash recovery that is bit-identical to a run that
never crashed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.maintainer import MISMaintainer
from repro.errors import (
    BackpressureError,
    RecoveryError,
    WALError,
    WorkloadError,
)
from repro.graph.datasets import load_dataset
from repro.graph.updates import EdgeDeletion, EdgeInsertion, VertexInsertion
from repro.serve import (
    AdaptiveWindowController,
    AdmissionConfig,
    AdmissionController,
    DEAD_LETTER_NAME,
    FixedWindowController,
    IngestionService,
    LOGICAL_METERS,
    RetryPolicy,
    TraceConfig,
    WindowConfig,
    WriteAheadLog,
    audit_log,
    bursty_trace,
    is_poison,
)

_SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])


def _small_controller(max_window=32):
    return AdaptiveWindowController(WindowConfig(
        min_window=4, max_window=max_window, initial_window=8,
    ))


def _maintainer(tag="AM", **kw):
    return MISMaintainer(load_dataset(tag), num_workers=6, **kw)


def _service(tmp_path, name="wal", tag="AM", **kw):
    kw.setdefault("controller", _small_controller())
    kw.setdefault("checkpoint_every", 3)
    return IngestionService(_maintainer(tag), str(tmp_path / name), **kw)


# ---------------------------------------------------------------------------
# write-ahead log
# ---------------------------------------------------------------------------
class TestWAL:
    def test_append_scan_roundtrip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        payloads = [{"t": "ev", "q": i, "k": "ins", "u": i, "v": i + 1}
                    for i in range(1, 6)]
        for p in payloads:
            wal.append(p)
        wal.close()
        scan = WriteAheadLog(str(tmp_path)).scan()
        assert [r.payload for r in scan.records] == payloads
        assert scan.next_seq == 6
        assert scan.truncated_bytes == 0

    def test_segment_rotation(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_bytes=256)
        for i in range(1, 40):
            wal.append({"t": "ev", "q": i, "k": "ins", "u": i, "v": i + 1})
        wal.close()
        assert len(wal.segments()) > 1
        scan = WriteAheadLog(str(tmp_path), segment_bytes=256).scan()
        assert len(scan.records) == 39
        assert scan.next_seq == 40

    def test_append_resumes_tail_segment_after_scan(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append({"t": "ev", "q": 1, "k": "ins", "u": 0, "v": 1})
        wal.close()
        resumed = WriteAheadLog(str(tmp_path))
        resumed.scan()
        resumed.append({"t": "ev", "q": 2, "k": "ins", "u": 1, "v": 2})
        resumed.close()
        assert len(resumed.segments()) == 1
        records = list(WriteAheadLog(str(tmp_path)).iter_records())
        assert [r.payload["q"] for r in records] == [1, 2]

    def test_torn_tail_truncated_silently(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append({"t": "ev", "q": 1, "k": "ins", "u": 0, "v": 1})
        wal.append({"t": "ev", "q": 2, "k": "ins", "u": 1, "v": 2})
        wal.close()
        [segment] = wal.segments()
        with open(segment, "ab") as handle:
            handle.write(b"\x00\x00\x00\x0bGARBAGE")  # half a record
        scan = WriteAheadLog(str(tmp_path)).scan()
        assert [r.payload["q"] for r in scan.records] == [1, 2]
        assert scan.truncated_bytes > 0
        # after truncation the log appends cleanly again
        resumed = WriteAheadLog(str(tmp_path))
        resumed.scan()
        resumed.append({"t": "ev", "q": 3, "k": "ins", "u": 2, "v": 3})
        resumed.close()
        assert [r.payload["q"]
                for r in WriteAheadLog(str(tmp_path)).iter_records()] \
            == [1, 2, 3]

    def test_corruption_in_sealed_segment_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_bytes=256)
        for i in range(1, 40):
            wal.append({"t": "ev", "q": i, "k": "ins", "u": i, "v": i + 1})
        wal.close()
        first = wal.segments()[0]
        with open(first, "r+b") as handle:
            handle.seek(-4, os.SEEK_END)
            handle.write(b"\xff\xff\xff\xff")
        with pytest.raises(WALError, match="corruption, not a torn tail"):
            WriteAheadLog(str(tmp_path), segment_bytes=256).scan()

    def test_checksum_failure_at_tail_is_torn(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append({"t": "ev", "q": 1, "k": "ins", "u": 0, "v": 1})
        wal.append({"t": "ev", "q": 2, "k": "ins", "u": 1, "v": 2})
        wal.close()
        [segment] = wal.segments()
        with open(segment, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\x00")  # flip the last payload byte
        scan = WriteAheadLog(str(tmp_path)).scan()
        assert [r.payload["q"] for r in scan.records] == [1]
        assert scan.truncated_bytes > 0

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "wal-00000001.log"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(WALError, match="bad magic"):
            WriteAheadLog(str(tmp_path)).scan()

    def test_iter_records_does_not_truncate(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append({"t": "ev", "q": 1, "k": "ins", "u": 0, "v": 1})
        wal.close()
        [segment] = wal.segments()
        with open(segment, "ab") as handle:
            handle.write(b"torn")
        size_before = os.path.getsize(segment)
        records = list(WriteAheadLog(str(tmp_path)).iter_records())
        assert [r.payload["q"] for r in records] == [1]
        assert os.path.getsize(segment) == size_before

    def test_invalid_parameters(self, tmp_path):
        with pytest.raises(WorkloadError, match="fsync"):
            WriteAheadLog(str(tmp_path), fsync="sometimes")
        with pytest.raises(WorkloadError, match="segment_bytes"):
            WriteAheadLog(str(tmp_path), segment_bytes=10)


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_accept_below_high_watermark(self):
        ctl = AdmissionController(
            AdmissionConfig(high_watermark=4, low_watermark=1))
        assert ctl.admit(3) == "accept"
        ctl.accepted()
        assert ctl.stats.accepted == 1

    def test_shed_policy_counts(self):
        ctl = AdmissionController(
            AdmissionConfig(policy="shed", high_watermark=4, low_watermark=1))
        assert ctl.admit(4) == "shed"
        assert ctl.admit(9) == "shed"
        assert ctl.stats.shed == 2

    def test_error_policy_raises(self):
        ctl = AdmissionController(
            AdmissionConfig(policy="error", high_watermark=4, low_watermark=1))
        with pytest.raises(BackpressureError, match="4 pending"):
            ctl.admit(4)
        assert ctl.stats.rejected == 1

    def test_block_policy_drains(self):
        ctl = AdmissionController(
            AdmissionConfig(policy="block", high_watermark=4, low_watermark=2))
        assert ctl.admit(5) == "drain"
        assert ctl.stats.blocked == 1
        assert ctl.drain_target() == 2

    def test_config_validation(self):
        with pytest.raises(WorkloadError, match="policy"):
            AdmissionConfig(policy="bounce")
        with pytest.raises(WorkloadError, match="high_watermark"):
            AdmissionConfig(high_watermark=0)
        with pytest.raises(WorkloadError, match="low_watermark"):
            AdmissionConfig(high_watermark=4, low_watermark=5)


# ---------------------------------------------------------------------------
# adaptive window controller
# ---------------------------------------------------------------------------
class TestController:
    def test_grows_under_headroom(self):
        ctl = AdaptiveWindowController(WindowConfig(
            min_window=4, max_window=64, initial_window=8,
            target_supersteps=24.0))
        size = ctl.observe(operations=8, supersteps=2, churn=1)
        assert size > 8
        assert ctl.grows == 1

    def test_shrinks_on_cost_blowout(self):
        ctl = AdaptiveWindowController(WindowConfig(
            min_window=4, max_window=64, initial_window=16,
            target_supersteps=10.0))
        size = ctl.observe(operations=16, supersteps=50, churn=2)
        assert size == 8
        assert ctl.shrinks == 1

    def test_shrinks_on_churn_spike(self):
        ctl = AdaptiveWindowController(WindowConfig(
            min_window=4, max_window=64, initial_window=16,
            target_supersteps=100.0, churn_threshold=1.5))
        size = ctl.observe(operations=10, supersteps=5, churn=40)
        assert size == 8

    def test_respects_bounds(self):
        ctl = AdaptiveWindowController(WindowConfig(
            min_window=4, max_window=16, initial_window=8))
        for _ in range(10):
            ctl.observe(operations=ctl.window_size, supersteps=1, churn=0)
        assert ctl.window_size == 16
        for _ in range(10):
            ctl.observe(operations=ctl.window_size, supersteps=500, churn=0)
        assert ctl.window_size == 4

    def test_snapshot_restore_bit_exact(self):
        ctl = AdaptiveWindowController(_small_controller().config)
        for ops, steps, churn in ((8, 3, 2), (16, 7, 5), (32, 40, 1)):
            ctl.observe(ops, steps, churn)
        snap = json.loads(json.dumps(ctl.snapshot()))  # through JSON, as WAL
        other = AdaptiveWindowController(ctl.config)
        other.restore(snap)
        assert other.snapshot() == ctl.snapshot()
        assert other.window_size == ctl.window_size

    def test_restore_rejects_malformed(self):
        with pytest.raises(WorkloadError, match="malformed controller"):
            AdaptiveWindowController().restore({"w": "many"})
        with pytest.raises(WorkloadError, match="malformed controller"):
            AdaptiveWindowController().restore({})

    def test_fixed_controller_never_moves(self):
        ctl = FixedWindowController(12)
        ctl.observe(operations=12, supersteps=9999, churn=9999)
        assert ctl.window_size == 12
        assert ctl.grows == 0 and ctl.shrinks == 0

    def test_config_validation(self):
        with pytest.raises(WorkloadError):
            WindowConfig(min_window=10, max_window=4)
        with pytest.raises(WorkloadError):
            WindowConfig(initial_window=1000)
        with pytest.raises(WorkloadError):
            WindowConfig(growth=0.5)


# ---------------------------------------------------------------------------
# bursty trace generator
# ---------------------------------------------------------------------------
class TestTrace:
    def test_deterministic_per_seed(self):
        graph = load_dataset("AM")
        a = bursty_trace(graph, TraceConfig(num_ops=100, seed=3))
        b = bursty_trace(graph, TraceConfig(num_ops=100, seed=3))
        c = bursty_trace(graph, TraceConfig(num_ops=100, seed=4))
        assert a == b
        assert a != c

    def test_timestamps_non_decreasing(self):
        _, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=200, seed=1))
        assert all(t1 <= t2 for t1, t2 in zip(timestamps, timestamps[1:]))

    def test_valid_ops_apply_in_order(self):
        graph = load_dataset("AM")
        ops, _ = bursty_trace(graph, TraceConfig(num_ops=150, seed=9))
        work = graph.copy()
        for op in ops:  # add/remove raise GraphStateError on invalid traces
            if isinstance(op, EdgeInsertion):
                work.add_edge(op.u, op.v)
            else:
                work.remove_edge(op.u, op.v)

    def test_poison_ops_are_reserved_and_counted(self):
        graph = load_dataset("AM")
        ops, _ = bursty_trace(
            graph, TraceConfig(num_ops=200, seed=5, poison_prob=0.1))
        poison = [op for op in ops if is_poison(op, graph)]
        assert poison
        assert all(isinstance(op, EdgeDeletion) for op in poison)
        # quarantining poison leaves the remaining stream valid in order
        work = graph.copy()
        for op in ops:
            if is_poison(op, graph):
                continue
            if isinstance(op, EdgeInsertion):
                work.add_edge(op.u, op.v)
            else:
                work.remove_edge(op.u, op.v)

    def test_matches_the_sort_per_deletion_reference(self, monkeypatch):
        # deletions draw by index from a bisect-maintained sorted edge
        # list; the reference re-sorts the whole edge set per deletion
        import repro.serve.trace as trace_module
        from repro.graph.dynamic_graph import normalize_edge

        def reference(rng, vertices, present, ordered, insert_ratio):
            if rng.random() < insert_ratio:
                for _ in range(32):
                    edge = normalize_edge(*rng.sample(vertices, 2))
                    if edge not in present:
                        present.add(edge)
                        return EdgeInsertion(*edge)
            if present:
                edge = rng.choice(sorted(present))
                present.discard(edge)
                return EdgeDeletion(*edge)
            return None

        graph = load_dataset("SL")
        configs = [TraceConfig(num_ops=300, seed=seed, insert_ratio=ratio,
                               poison_prob=poison)
                   for seed, ratio, poison in ((0, 0.5, 0.0), (7, 0.2, 0.05),
                                               (11, 0.8, 0.05))]
        fast = [bursty_trace(graph, cfg) for cfg in configs]
        monkeypatch.setattr(trace_module, "_valid_op", reference)
        assert fast == [bursty_trace(graph, cfg) for cfg in configs]

    def test_needs_two_vertices(self):
        from repro.graph.dynamic_graph import DynamicGraph

        with pytest.raises(WorkloadError, match=">= 2 vertices"):
            bursty_trace(DynamicGraph(), TraceConfig(num_ops=5))

    def test_config_validation(self):
        with pytest.raises(WorkloadError):
            TraceConfig(num_ops=0)
        with pytest.raises(WorkloadError):
            TraceConfig(poison_prob=1.0)
        with pytest.raises(WorkloadError):
            TraceConfig(calm_gap_s=0.0)


# ---------------------------------------------------------------------------
# the service: ingestion, windows, checkpoints
# ---------------------------------------------------------------------------
class TestService:
    def test_exactly_once_happy_path(self, tmp_path):
        service = _service(tmp_path)
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=120, seed=3))
        for op, ts in zip(ops, timestamps):
            result = service.submit(op, ts)
            assert result.accepted
        service.close()
        problems, summary = audit_log(service.wal_dir)
        assert problems == []
        assert summary["applied"] == 120
        assert summary["pending"] == 0
        assert service.admission.stats.accepted == 120

    def test_initial_checkpoint_written_at_birth(self, tmp_path):
        service = _service(tmp_path)
        names = [n for n in os.listdir(service.wal_dir)
                 if n.startswith("checkpoint-")]
        assert names == ["checkpoint-000000000000.json"]
        service.close()

    def test_checkpoint_pruning_keeps_two(self, tmp_path):
        service = _service(tmp_path, checkpoint_every=1)
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=80, seed=3))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.close()
        names = [n for n in os.listdir(service.wal_dir)
                 if n.startswith("checkpoint-")]
        assert len(names) == 2
        assert service.stats.checkpoints > 2

    def test_refuses_existing_log_directory(self, tmp_path):
        service = _service(tmp_path)
        service.close()
        with pytest.raises(WALError, match="use IngestionService.recover"):
            IngestionService(_maintainer(), service.wal_dir)

    def test_closed_service_refuses_submits(self, tmp_path):
        service = _service(tmp_path)
        service.close()
        with pytest.raises(WorkloadError, match="closed"):
            service.submit(EdgeInsertion(0, 2))
        service.close()  # idempotent

    def test_rejects_non_edge_operations(self, tmp_path):
        service = _service(tmp_path)
        with pytest.raises(WorkloadError, match="edge updates only"):
            service.submit(VertexInsertion(999))
        service.close()

    def test_timestamps_must_be_monotone(self, tmp_path):
        service = _service(tmp_path)
        service.submit(EdgeInsertion(0, 2), timestamp=5.0)
        with pytest.raises(WorkloadError, match="non-decreasing"):
            service.submit(EdgeInsertion(0, 3), timestamp=1.0)
        service.abandon()

    def test_context_manager_closes(self, tmp_path):
        graph = load_dataset("AM")
        u, v = next(iter(graph.edges()))
        with _service(tmp_path) as service:
            service.submit(EdgeDeletion(u, v))
        problems, summary = audit_log(service.wal_dir)
        assert problems == []
        assert summary["applied"] == 1  # close drained the partial window

    def test_totals_match_maintainer_meters(self, tmp_path):
        service = _service(tmp_path)
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=60, seed=1))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.close()
        metrics = service.maintainer.update_metrics
        assert service.logical_totals() == {
            name: getattr(metrics, name) for name in LOGICAL_METERS
        }

    def test_block_policy_bounds_pending(self, tmp_path):
        service = _service(
            tmp_path,
            admission=AdmissionConfig(
                policy="block", high_watermark=12, low_watermark=4),
        )
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=100, seed=3))
        peak = 0
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
            peak = max(peak, service.pending)
        service.close()
        assert peak <= 12
        assert service.admission.stats.blocked > 0
        problems, summary = audit_log(service.wal_dir)
        assert problems == [] and summary["applied"] == 100

    def test_error_policy_raises_backpressure(self, tmp_path):
        # a stuck window freezes the pipeline, so the queue can exceed the
        # watermark while retries wait out their (event-time) backoff
        service = _service(
            tmp_path, tag="SL",
            admission=AdmissionConfig(
                policy="error", high_watermark=10, low_watermark=2),
            retry=RetryPolicy(max_retries=3, backoff_base_s=1000.0),
        )
        ops, timestamps = bursty_trace(
            load_dataset("SL"),
            TraceConfig(num_ops=120, seed=11, poison_prob=0.1))
        with pytest.raises(BackpressureError):
            for op, ts in zip(ops, timestamps):
                service.submit(op, ts)
        assert service.admission.stats.rejected == 1
        service.abandon()

    def test_needs_checkpointable_maintainer(self, tmp_path):
        class NoSave:
            pass

        with pytest.raises(WorkloadError, match="checkpointable"):
            IngestionService(NoSave(), str(tmp_path / "w"))


# ---------------------------------------------------------------------------
# retry, bisection, quarantine
# ---------------------------------------------------------------------------
class _FlakyMaintainer:
    """Delegates to a real maintainer, failing apply_batch N times first."""

    def __init__(self, inner, failures):
        self._inner = inner
        self._failures = failures
        self.attempts = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def apply_batch(self, ops):
        self.attempts += 1
        if self._failures > 0:
            self._failures -= 1
            raise WorkloadError("injected transient apply failure")
        return self._inner.apply_batch(ops)


class TestRetryQuarantine:
    def test_transient_failure_retried_without_quarantine(self, tmp_path):
        flaky = _FlakyMaintainer(_maintainer(), failures=1)
        service = IngestionService(
            flaky, str(tmp_path / "wal"),
            controller=FixedWindowController(5),
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.5),
            checkpoint_every=0,
        )
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=30, seed=3))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.close()
        assert service.stats.window_failures == 1
        assert service.stats.retries_scheduled == 1
        assert service.stats.quarantined == 0
        problems, summary = audit_log(service.wal_dir)
        assert problems == [] and summary["applied"] == 30

    def test_poison_ops_quarantined_valid_ops_applied(self, tmp_path):
        graph = load_dataset("SL")
        ops, timestamps = bursty_trace(
            graph, TraceConfig(num_ops=150, seed=11, poison_prob=0.06))
        poison_count = sum(1 for op in ops if is_poison(op, graph))
        assert poison_count > 0
        service = _service(
            tmp_path, tag="SL",
            retry=RetryPolicy(max_retries=1, backoff_base_s=0.2))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.close()
        problems, summary = audit_log(service.wal_dir)
        assert problems == []
        assert summary["quarantined"] == poison_count
        assert summary["applied"] == len(ops) - poison_count
        assert service.stats.bisections > 0

    def test_dead_letter_log_records_poison(self, tmp_path):
        graph = load_dataset("SL")
        ops, timestamps = bursty_trace(
            graph, TraceConfig(num_ops=120, seed=11, poison_prob=0.06))
        service = _service(
            tmp_path, tag="SL",
            retry=RetryPolicy(max_retries=0, backoff_base_s=0.1))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.close()
        dead_letter = Path(service.wal_dir) / DEAD_LETTER_NAME
        entries = [json.loads(line)
                   for line in dead_letter.read_text().splitlines()]
        assert len(entries) == service.stats.quarantined
        poison_edges = {(op.u, op.v) for op in ops if is_poison(op, graph)}
        assert {(e["u"], e["v"]) for e in entries} == poison_edges
        assert all(e["reason"] for e in entries)

    def test_maintained_set_matches_poison_free_replay(self, tmp_path):
        """Quarantine must leave exactly the valid substream applied."""
        graph = load_dataset("SL")
        ops, timestamps = bursty_trace(
            graph, TraceConfig(num_ops=120, seed=11, poison_prob=0.06))
        service = _service(
            tmp_path, tag="SL",
            retry=RetryPolicy(max_retries=0, backoff_base_s=0.1))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.close()
        clean = _maintainer("SL")
        clean.apply_batch([op for op in ops if not is_poison(op, graph)])
        assert (sorted(service.maintainer.independent_set())
                == sorted(clean.independent_set()))


# ---------------------------------------------------------------------------
# crash recovery
# ---------------------------------------------------------------------------
def _run_to_crash(service, ops, timestamps, min_commits=3, min_pending=2):
    """Submit until the service has committed windows AND a pending tail,
    then abandon (simulated kill).  Returns the crash cut index."""
    for i, (op, ts) in enumerate(zip(ops, timestamps)):
        service.submit(op, ts)
        if (service.windows_committed >= min_commits
                and service.pending >= min_pending):
            service.abandon()
            return i + 1
    raise AssertionError("trace ended before reaching a crash point")


class TestRecovery:
    def test_crash_mid_window_bit_identical(self, tmp_path):
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=200, seed=7))

        reference = _service(tmp_path, name="ref")
        for op, ts in zip(ops, timestamps):
            reference.submit(op, ts)
        reference.close()

        # checkpoint only at birth, so recovery must replay every commit
        crashed = _service(tmp_path, name="crashed", checkpoint_every=0)
        cut = _run_to_crash(crashed, ops, timestamps)

        recovered = IngestionService.recover(
            crashed.wal_dir, controller=_small_controller(),
            checkpoint_every=3)
        assert recovered.stats.replayed_windows > 0
        for op, ts in zip(ops[cut:], timestamps[cut:]):
            recovered.submit(op, ts)
        recovered.close()

        assert (sorted(recovered.maintainer.independent_set())
                == sorted(reference.maintainer.independent_set()))
        assert recovered.logical_totals() == reference.logical_totals()
        for directory in (reference.wal_dir, recovered.wal_dir):
            problems, summary = audit_log(directory)
            assert problems == []
            assert summary["applied"] == 200 and summary["pending"] == 0

    def test_recovery_is_idempotent(self, tmp_path):
        """Recovering, crashing again without progress, and recovering
        again must land in the same state (same watermark, same totals)."""
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=160, seed=7))
        crashed = _service(tmp_path, name="crashed")
        cut = _run_to_crash(crashed, ops, timestamps)

        first = IngestionService.recover(
            crashed.wal_dir, controller=_small_controller(),
            checkpoint_every=3)
        watermark = first.applied_watermark
        totals = first.logical_totals()
        first.abandon()

        second = IngestionService.recover(
            crashed.wal_dir, controller=_small_controller(),
            checkpoint_every=3)
        assert second.applied_watermark == watermark
        assert second.logical_totals() == totals
        for op, ts in zip(ops[cut:], timestamps[cut:]):
            second.submit(op, ts)
        second.close()
        problems, summary = audit_log(second.wal_dir)
        assert problems == []
        assert summary["applied"] == 160

    def test_recovery_skips_quarantined_events(self, tmp_path):
        graph = load_dataset("SL")
        ops, timestamps = bursty_trace(
            graph, TraceConfig(num_ops=150, seed=11, poison_prob=0.06))
        retry = RetryPolicy(max_retries=1, backoff_base_s=0.2)

        reference = _service(tmp_path, name="ref", tag="SL", retry=retry)
        for op, ts in zip(ops, timestamps):
            reference.submit(op, ts)
        reference.close()

        crashed = _service(tmp_path, name="crashed", tag="SL", retry=retry)
        cut = None
        for i, (op, ts) in enumerate(zip(ops, timestamps)):
            crashed.submit(op, ts)
            if crashed.stats.quarantined >= 2 and crashed.pending >= 2:
                cut = i + 1
                break
        assert cut is not None, "trace never hit the quarantine path"
        crashed.abandon()

        recovered = IngestionService.recover(
            crashed.wal_dir, maintainer_kwargs={"num_workers": 6},
            controller=_small_controller(), retry=retry, checkpoint_every=3)
        for op, ts in zip(ops[cut:], timestamps[cut:]):
            recovered.submit(op, ts)
        recovered.close()
        assert (sorted(recovered.maintainer.independent_set())
                == sorted(reference.maintainer.independent_set()))
        assert recovered.logical_totals() == reference.logical_totals()
        _, ref_summary = audit_log(reference.wal_dir)
        _, rec_summary = audit_log(recovered.wal_dir)
        assert rec_summary["quarantined"] == ref_summary["quarantined"]

    def test_recovery_survives_torn_tail(self, tmp_path):
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=160, seed=7))
        crashed = _service(tmp_path, name="crashed")
        cut = _run_to_crash(crashed, ops, timestamps)
        segments = sorted(
            p for p in (tmp_path / "crashed").iterdir()
            if p.name.startswith("wal-"))
        with open(segments[-1], "ab") as handle:
            handle.write(b"\x00\x00\x00\x20half-a-record")
        recovered = IngestionService.recover(
            crashed.wal_dir, controller=_small_controller(),
            checkpoint_every=3)
        assert recovered.stats.truncated_bytes > 0
        for op, ts in zip(ops[cut:], timestamps[cut:]):
            recovered.submit(op, ts)
        recovered.close()
        problems, summary = audit_log(recovered.wal_dir)
        assert problems == [] and summary["applied"] == 160

    def test_forged_commit_totals_raise_recovery_error(self, tmp_path):
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=160, seed=7))
        crashed = _service(tmp_path, name="crashed")
        _run_to_crash(crashed, ops, timestamps)
        # forge a commit over the pending tail claiming impossible meters
        scan = WriteAheadLog(crashed.wal_dir).scan()
        watermark = max(int(r.payload["l"]) for r in scan.records
                        if r.payload["t"] == "cm")
        forger = WriteAheadLog(crashed.wal_dir)
        forger.scan()
        forger.append({
            "t": "cm", "w": 999, "f": watermark + 1, "l": watermark + 1,
            "n": 1, "tot": {name: 1 for name in LOGICAL_METERS},
            "ctl": {"w": 8, "es": 0.0, "ec": 0.0, "n": 0, "g": 0, "s": 0},
        })
        forger.close()
        with pytest.raises(RecoveryError, match="diverged from the recorded"):
            IngestionService.recover(
                crashed.wal_dir, controller=_small_controller())

    def test_recover_requires_records(self, tmp_path):
        with pytest.raises(WALError, match="no log records"):
            IngestionService.recover(str(tmp_path / "empty"))

    def test_recover_requires_checkpoint(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w"))
        wal.append({"t": "ev", "q": 1, "k": "ins", "u": 0, "v": 1})
        wal.close()
        with pytest.raises(WALError, match="no loadable maintainer"):
            IngestionService.recover(str(tmp_path / "w"))


# ---------------------------------------------------------------------------
# chaos composition + runtime/representation matrix
# ---------------------------------------------------------------------------
class TestServeChaos:
    def test_crash_replay_oracle_clean(self):
        from repro.faults.chaos import serve_crash_replay

        result = serve_crash_replay(tag="AM", num_ops=200, seed=7)
        assert result.ok, result.failures
        assert result.replayed_events > 0

    def test_crash_replay_oracle_with_poison(self):
        from repro.faults.chaos import serve_crash_replay

        result = serve_crash_replay(
            tag="SL", num_ops=180, seed=11, poison_prob=0.05)
        assert result.ok, result.failures
        assert result.quarantined > 0

    def test_crash_replay_with_fault_injection(self):
        """Transient injected faults compose with the retry path without
        breaking the recovery bit-identity oracle."""
        from repro.faults.chaos import serve_crash_replay
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        result = serve_crash_replay(
            tag="AM", num_ops=180, seed=3,
            faults_factory=lambda: FaultInjector(
                FaultPlan(seed=1, drop_prob=0.005)))
        assert result.ok, result.failures

    def test_crash_replay_process_runtime_csr(self):
        from repro.faults.chaos import serve_crash_replay
        from repro.runtime import ParallelRuntime

        result = serve_crash_replay(
            tag="AM", num_ops=200, seed=5, crash_commits=3,
            runtime_factory=lambda: ParallelRuntime(
                procs=2, start_method="fork"),
            representation="csr",
        )
        assert result.ok, result.failures


_HASHSEED_SCRIPT = """
import tempfile
from repro.graph.datasets import load_dataset
from repro.core.maintainer import MISMaintainer
from repro.serve import (IngestionService, bursty_trace, TraceConfig,
                         AdaptiveWindowController, WindowConfig, RetryPolicy)

ops, timestamps = bursty_trace(
    load_dataset("SL"), TraceConfig(num_ops=120, seed=11, poison_prob=0.05))
maintainer = MISMaintainer(load_dataset("SL"), num_workers=6,
                           representation="csr")
service = IngestionService(
    maintainer, tempfile.mkdtemp(),
    controller=AdaptiveWindowController(WindowConfig(
        min_window=4, max_window=32, initial_window=8)),
    retry=RetryPolicy(max_retries=1, backoff_base_s=0.2),
    checkpoint_every=3)
for op, ts in zip(ops, timestamps):
    service.submit(op, ts)
service.close()
print(",".join(map(str, sorted(maintainer.independent_set()))))
totals = service.logical_totals()
print(",".join(f"{k}={totals[k]}" for k in sorted(totals)))
print(service.stats.quarantined, service.windows_committed)
"""


def test_serve_identical_under_different_hash_seeds():
    """The whole serve pipeline (windowing, retries, quarantine) is a
    function of logical meters and event time only — PYTHONHASHSEED must
    not leak into it (csr representation on purpose: the widest stack)."""
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = _SRC_ROOT
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            capture_output=True, text=True, env=env, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0]  # non-empty member list


# ---------------------------------------------------------------------------
# the audit itself
# ---------------------------------------------------------------------------
class TestAudit:
    def test_detects_double_commit(self, tmp_path):
        service = _service(tmp_path)
        ops, timestamps = bursty_trace(
            load_dataset("AM"), TraceConfig(num_ops=40, seed=3))
        for op, ts in zip(ops, timestamps):
            service.submit(op, ts)
        service.close()
        forger = WriteAheadLog(service.wal_dir)
        scan = forger.scan()
        commit = next(r.payload for r in scan.records
                      if r.payload["t"] == "cm")
        forger.append(dict(commit))  # the same window committed twice
        forger.close()
        problems, _ = audit_log(service.wal_dir)
        assert any("overlaps" in p or "twice" in p for p in problems)

    def test_detects_sequence_gap(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        # seq 2 was never written: a hole in the event stream
        wal.append({"t": "ev", "q": 1, "k": "ins", "u": 0, "v": 1})
        wal.append({"t": "ev", "q": 3, "k": "ins", "u": 1, "v": 2})
        wal.close()
        problems, _ = audit_log(str(tmp_path))
        assert any("not gapless" in p for p in problems)

    def test_detects_lost_sequence(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        # commits jump over seq 2: below the watermark but never applied
        for seq in (1, 2, 3):
            wal.append({"t": "ev", "q": seq, "k": "ins",
                        "u": seq, "v": seq + 1})
        wal.append({"t": "cm", "w": 1, "f": 1, "l": 1, "n": 1,
                    "tot": {}, "ctl": {}})
        wal.append({"t": "cm", "w": 2, "f": 3, "l": 3, "n": 1,
                    "tot": {}, "ctl": {}})
        wal.close()
        problems, _ = audit_log(str(tmp_path))
        assert any("lost" in p for p in problems)
