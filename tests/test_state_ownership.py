"""One authoritative vertex state on the CSR path.

With ``representation="csr"`` the partition's membership bitmap is the
only copy of OIMIS-family state: the maintainer holds a
:class:`~repro.graph.csr.CSRStates` view over it, the engine commits
through it, and ``CSRPartition.sync_states`` only bulk loads state that
arrives from outside.  Each applied batch reports its membership change
as ``(entered, left)``, and the streaming session folds that report into
its set instead of diffing the whole set.  The dict path stays the
bit-identity oracle throughout.
"""

from __future__ import annotations

import os
import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import delete_reinsert_workload
from repro.core.activation import ActivationStrategy
from repro.core.doimis import DOIMISMaintainer
from repro.core.oimis import OIMISProgram
from repro.errors import SuperstepLimitExceeded, WorkloadError
from repro.faults import FaultInjector, FaultPlan
from repro.graph.csr import CSRPartition
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.generators import erdos_renyi
from repro.graph.updates import EdgeDeletion, EdgeInsertion
from repro.runtime import ParallelRuntime
from repro.scaleg.engine import ScaleGEngine
from repro.serial.greedy import greedy_mis
from repro.stream import StreamingSession

#: worker-process count for the process-runtime cases (CI overrides)
_PROCS = int(os.environ.get("REPRO_TEST_PROCS", "2"))

_LOGICAL = ("supersteps", "active_vertices", "state_changes", "messages",
            "remote_messages", "bytes_sent", "compute_work")


@pytest.fixture
def sync_calls(monkeypatch):
    """Counts ``CSRPartition.sync_states`` calls (the bulk loader)."""
    calls = []
    original = CSRPartition.sync_states

    def counting(self, states):
        calls.append(len(states))
        return original(self, states)

    monkeypatch.setattr(CSRPartition, "sync_states", counting)
    return calls


def _logical(metrics):
    return {name: getattr(metrics, name) for name in _LOGICAL}


# ---------------------------------------------------------------------------
# the bitmap is the state
# ---------------------------------------------------------------------------
def test_maintainer_state_is_the_bitmap_and_updates_never_bulk_load(
        sync_calls):
    graph = erdos_renyi(60, 150, seed=3)
    ops = delete_reinsert_workload(graph, 25, seed=1)
    csr = DOIMISMaintainer(graph.copy(), num_workers=4,
                           representation="csr")
    ref = DOIMISMaintainer(graph.copy(), num_workers=4,
                           representation="dict")
    part = csr.state_partition
    assert part is not None and ref.state_partition is None
    assert csr._states is part.states
    loads_at_setup = len(sync_calls)
    csr.apply_stream(ops, batch_size=3)
    ref.apply_stream(ops, batch_size=3)
    assert len(sync_calls) == loads_at_setup  # O(affected) per update
    assert csr.independent_set() == ref.independent_set()
    assert len(csr) == len(ref)
    assert all(csr.contains(u) == ref.contains(u) for u in graph.vertices())
    assert not csr.contains(10**6)
    assert _logical(csr.update_metrics) == _logical(ref.update_metrics)


def test_view_mapping_semantics():
    graph = erdos_renyi(20, 40, seed=4)
    dgraph = DistributedGraph.create(graph, 3)
    part = CSRPartition.attach(dgraph)
    states = part.states
    assert len(states) == graph.num_vertices
    assert set(states) == set(graph.vertices())
    assert all(states.values())  # fresh rows start in the set
    states.update({0: False, 5: False})
    assert dict(states.items())[0] is False and states[5] is False
    assert states.members() == set(graph.vertices()) - {0, 5}
    assert states.member_count() == graph.num_vertices - 2
    with pytest.raises(KeyError):
        states[10**6] = True
    with pytest.raises(ValueError, match="still in the graph"):
        del states[0]
    assert states.pop(10**6, "absent") == "absent"


# ---------------------------------------------------------------------------
# rebuild, rollback and fault restore keep the bitmap right with no reload
# ---------------------------------------------------------------------------
def _converged(graph, workers=3):
    dgraph = DistributedGraph.create(graph, workers)
    engine = ScaleGEngine(dgraph, representation="csr")
    program = OIMISProgram(strategy=ActivationStrategy.SAME_STATUS)
    part = CSRPartition.attach(dgraph)
    engine.run(program, states=part.states)
    return dgraph, engine, program, part


def test_bitmap_survives_rebuild_without_bulk_load(sync_calls):
    graph = erdos_renyi(40, 100, seed=5)
    dgraph, engine, program, part = _converged(graph)
    assert part.states.members() == greedy_mis(dgraph.graph)
    before = dict(part.states.items())
    rebuilds = part.rebuilds
    dgraph.add_edge(0, 999)  # implicitly creates vertex 999: new row set
    states = part.states
    assert states[999] is True  # the vertex-insertion init
    assert part.rebuilds == rebuilds + 1
    assert {u: states[u] for u in before} == before  # bits carried over
    engine.run(program, initial_active=[0, 999] + sorted(graph.neighbors(0)),
               states=states)
    assert states.members() == greedy_mis(dgraph.graph)
    dgraph.remove_edge(0, 999)
    dgraph.remove_vertex(999)
    assert 999 not in states and len(states) == len(before)
    assert sync_calls == []


def test_bitmap_survives_superstep_limit_rollback(sync_calls):
    graph = erdos_renyi(40, 120, seed=15)
    dgraph = DistributedGraph.create(graph, 3)
    engine = ScaleGEngine(dgraph, representation="csr")
    program = OIMISProgram(strategy=ActivationStrategy.ALL)
    states = CSRPartition.attach(dgraph).states
    original = dict(states.items())
    with pytest.raises(SuperstepLimitExceeded):
        engine.run(program, states=states, max_supersteps=1)
    assert dict(states.items()) == original  # every overwritten row restored
    result = engine.run(program, states=states)
    assert result.states is states
    assert states.members() == greedy_mis(graph)
    assert sync_calls == []


def test_bitmap_survives_fault_checkpoint_restore(sync_calls):
    graph = erdos_renyi(50, 140, seed=6)
    ops = delete_reinsert_workload(graph, 20, seed=2)
    injector = FaultInjector(FaultPlan(seed=9, crash_prob=0.2))
    faulted = DOIMISMaintainer(graph.copy(), num_workers=4,
                               representation="csr", faults=injector)
    loads_at_setup = len(sync_calls)
    faulted.apply_stream(ops, batch_size=2)
    assert faulted.update_metrics.recovery_crashes > 0
    assert len(sync_calls) == loads_at_setup
    ref = DOIMISMaintainer(graph.copy(), num_workers=4, representation="dict")
    ref.apply_stream(ops, batch_size=2)
    assert faulted.independent_set() == ref.independent_set()
    assert _logical(faulted.update_metrics) == _logical(ref.update_metrics)


def test_foreign_dict_gets_overwritten_entries_back():
    graph = erdos_renyi(30, 80, seed=7)
    dgraph = DistributedGraph.create(graph, 3)
    engine = ScaleGEngine(dgraph, representation="csr")
    program = OIMISProgram(strategy=ActivationStrategy.ALL)
    states = {u: True for u in graph.vertices()}
    result = engine.run(program, states=states)
    assert result.states is states
    assert {u for u, s in states.items() if s} == greedy_mis(graph)
    assert set(result.overwritten) <= set(states)
    assert all(result.overwritten[u] is True for u in result.overwritten)


# ---------------------------------------------------------------------------
# the session's O(churn) report equals a full before/after diff
# ---------------------------------------------------------------------------
_CASES = [("dict", "inline"), ("csr", "inline"),
          ("dict", "process"), ("csr", "process")]


def _drive_session(seed, representation, runtime):
    rng = random.Random(seed)
    graph = erdos_renyi(18, 30, seed=seed % 97)
    maintainer = DOIMISMaintainer(
        graph.copy(), num_workers=3, runtime=runtime,
        representation=representation,
    )
    session = StreamingSession(maintainer, window_size=10**6)
    previous = maintainer.independent_set()
    edges = set(graph.sorted_edges())  # the edge set the buffer implies
    next_id = 100
    for _ in range(24):
        action = rng.random()
        vertices = sorted(set(maintainer.graph.vertices()).union(
            *map(set, edges)))
        if action < 0.55:
            if edges and rng.random() < 0.5:
                edge = rng.choice(sorted(edges))
                edges.discard(edge)
                session.offer(EdgeDeletion(*edge))
            else:
                u = rng.choice(vertices)
                if rng.random() < 0.25:  # implicit vertex creation
                    v, next_id = next_id, next_id + 1
                else:
                    v = rng.choice(vertices)
                edge = (min(u, v), max(u, v))
                if u != v and edge not in edges:
                    edges.add(edge)
                    session.offer(EdgeInsertion(*edge))
            continue
        if action < 0.65:
            # a poison window: it rolls back, then the valid ops retry
            session.offer(EdgeDeletion(10**6, 10**6 + 1))
            current = maintainer.independent_set()
            with pytest.raises(WorkloadError):
                session.flush()
            assert session.history[-1].failed
            assert session.history[-1].set_size == len(previous)
            retry = [op for op in session.take_pending() if op.u < 10**6]
            session.offer_many(retry)
            assert maintainer.independent_set() == current
            continue
        if action < 0.8 and not session.pending:
            # vertex insert/delete straight on the maintainer, between
            # windows: the next window's report must include them
            if rng.random() < 0.5:
                nbrs = rng.sample(vertices, min(2, len(vertices)))
                maintainer.insert_vertex(next_id, nbrs)
                edges |= {(min(next_id, v), max(next_id, v)) for v in nbrs}
                next_id += 1
            else:
                u = rng.choice(vertices)
                maintainer.delete_vertex(u)
                edges = {e for e in edges if u not in e}
            continue
        report = session.flush()
        after = maintainer.independent_set()
        if report is not None:
            assert report.entered == after - previous
            assert report.left == previous - after
            assert report.set_size == len(after)
            assert report.churn == len(after ^ previous)
            previous = after
        assert session.independent_set() == previous
    session.close()
    assert maintainer.independent_set() == greedy_mis(maintainer.graph)


@pytest.mark.parametrize("representation,runtime", _CASES)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_session_report_equals_full_diff(seed, representation, runtime):
    backend = None
    if runtime == "process":
        backend = ParallelRuntime(procs=_PROCS, start_method="fork")
    try:
        _drive_session(seed, representation, backend)
    finally:
        if backend is not None:
            backend.close()


# ---------------------------------------------------------------------------
# process runtime: light pools keep no state mirror
# ---------------------------------------------------------------------------
def test_light_to_full_upgrade_ships_current_states():
    graph = erdos_renyi(60, 160, seed=8)
    ops = delete_reinsert_workload(graph, 30, seed=3)
    runtime = ParallelRuntime(procs=_PROCS, start_method="fork")
    maintainer = DOIMISMaintainer(graph.copy(), num_workers=4,
                                  runtime=runtime, representation="csr")
    ref = DOIMISMaintainer(graph.copy(), num_workers=4,
                           representation="dict")
    plan = FaultPlan(seed=4, crash_prob=0.3)
    engine = maintainer._engine
    try:
        # many array-native runs on a light pool (no states shipped), a
        # faulted batch that sweeps the workers' replica (the pool
        # upgrades and must ship the current states), then more array
        # runs the full pool's mirror misses, and another replica run
        for light, faulted in (((0, 24), (24, 26)), ((26, 54), (54, 56))):
            for i in range(*light, 4):
                batch = ops[i:min(i + 4, light[1])]
                maintainer.apply_batch(batch)
                ref.apply_batch(batch)
            if light[0] == 0:
                assert runtime._init_kind == "light"
                assert runtime._mirror == {}
            engine._faults = FaultInjector(plan)
            batch = ops[slice(*faulted)]
            maintainer.apply_batch(batch)
            ref.apply_batch(batch)
            engine._faults = None
            assert runtime._init_kind == "full"
            assert runtime._mirror == dict(maintainer._states.items())
            assert maintainer.independent_set() == ref.independent_set()
        assert maintainer.update_metrics.recovery_crashes > 0
        assert _logical(maintainer.update_metrics) == _logical(
            ref.update_metrics)
    finally:
        maintainer.close()
