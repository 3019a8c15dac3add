"""Golden values of every engine meter under the fault-injection presets.

``bench-perf --check`` pins only the logical meters, and the chaos oracle
only compares logical meters against a fault-free run, so neither notices
when a change to the barrier skeleton moves a ``recovery_*``,
``divergence_*`` or ``rebalance_*`` meter.  This test pins all of them:
for every :data:`~repro.faults.chaos.PLAN_PRESETS` preset an engine
accepts, it replays a seeded case and compares every
:class:`~repro.pregel.metrics.RunMetrics` field except ``wall_time_s``
(per-superstep records and the modelled straggler, backoff and detection
seconds included), the injector's fault counts and the final members
against ``tests/fixtures/engine_meters_golden.json``.

Cases:

- ScaleG: the chaos harness's two maintenance workloads on
  :class:`~repro.core.doimis.DOIMISMaintainer` (initial static run and
  update stream metered separately), on the dict and the CSR layout;
- Pregel: six runs on one engine and one injector, alternating
  :class:`~repro.core.oimis.OIMISPregelProgram` and
  :class:`~repro.core.dismis.DisMISPregelProgram` (the elastic preset's
  join and drain are scheduled for runs 2 and 5).

Every case runs inline; with ``REPRO_TEST_PROCS`` set it also runs on the
process runtime with that many workers, against the same fixture (the
runtimes are bit-identical by contract).

The fixture is only rewritten on purpose, when a change is meant to move a
meter::

    PYTHONPATH=src python tests/test_engine_meters_golden.py --write
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, fields
from typing import Any, Dict, List

import pytest

from repro.core.activation import ActivationStrategy
from repro.core.dismis import DisMISPregelProgram
from repro.core.doimis import DOIMISMaintainer
from repro.core.oimis import OIMISPregelProgram
from repro.faults.chaos import CHAOS_WORKLOADS, _build_case, plan_for
from repro.faults.injector import FaultInjector
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.generators import erdos_renyi
from repro.pregel.engine import PregelEngine
from repro.pregel.metrics import RunMetrics
from repro.pregel.partition import HashPartitioner

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures",
    "engine_meters_golden.json",
)

SCALEG_PRESETS = ("crash", "composed", "worker-loss", "corrupt-guest", "elastic")
#: Pregel keeps no guest copies, so guest corruption has nothing to hit
PREGEL_PRESETS = ("crash", "composed", "worker-loss", "elastic")
SEED = 0
NUM_WORKERS = 10
PREGEL_RUNS = 6

#: the meter that proves each preset actually fired (the pin is vacuous
#: for a preset whose faults never fire on the case)
FIRES = {
    "crash": "recovery_crashes",
    "composed": "recovery_crashes",
    "worker-loss": "recovery_failovers",
    "corrupt-guest": "divergence_detected",
    "elastic": "rebalance_drains",
}

_PROCS = os.environ.get("REPRO_TEST_PROCS")
RUNTIMES = ("inline", "process") if _PROCS else ("inline",)


def _meters(metrics: RunMetrics) -> Dict[str, Any]:
    """Every field but the measured wall time, in JSON-able form."""
    out: Dict[str, Any] = {}
    for f in fields(RunMetrics):
        if f.name == "wall_time_s":
            continue
        value = getattr(metrics, f.name)
        if f.name == "records":
            value = [asdict(record) for record in value]
        elif f.name == "_worker_work_totals":
            value = {str(k): v for k, v in sorted(value.items())}
        out[f.name] = value
    return out


def _make_runtime(runtime: str):
    if runtime == "inline":
        return None
    from repro.runtime import ParallelRuntime

    return ParallelRuntime(procs=int(_PROCS), start_method="fork")


def scaleg_case(preset: str, workload_index: int, representation: str,
                runtime: str = "inline") -> Dict[str, Any]:
    workload = CHAOS_WORKLOADS[workload_index]
    graph, ops = _build_case(workload)
    injector = FaultInjector(plan_for(preset, SEED))
    maintainer = DOIMISMaintainer(
        graph, num_workers=NUM_WORKERS,
        strategy=ActivationStrategy.SAME_STATUS,
        faults=injector, runtime=_make_runtime(runtime),
        representation=representation,
    )
    try:
        maintainer.apply_stream(ops, batch_size=workload.batch_size)
        maintainer.final_audit()
        return {
            "members": sorted(maintainer.independent_set()),
            "injected": injector.stats.as_dict(),
            "init": _meters(maintainer.init_metrics),
            "update": _meters(maintainer.update_metrics),
        }
    finally:
        maintainer.close()


def pregel_case(preset: str, runtime: str = "inline") -> Dict[str, Any]:
    graph = erdos_renyi(300, 1200, seed=SEED)
    injector = FaultInjector(plan_for(preset, SEED))
    engine = PregelEngine(
        DistributedGraph(graph, HashPartitioner(NUM_WORKERS)),
        faults=injector, runtime=_make_runtime(runtime),
    )
    runs: List[Dict[str, Any]] = []
    try:
        for index in range(PREGEL_RUNS):
            program = (OIMISPregelProgram() if index % 2 == 0
                       else DisMISPregelProgram())
            metrics = RunMetrics(num_workers=NUM_WORKERS)
            result = engine.run(program, metrics=metrics)
            runs.append({
                "members": sorted(program.contract_members(result.states)),
                "metrics": _meters(metrics),
            })
    finally:
        engine.close()
    return {"injected": injector.stats.as_dict(), "runs": runs}


def _scaleg_key(preset: str, workload_index: int) -> str:
    return f"scaleg/{preset}/{CHAOS_WORKLOADS[workload_index].name}"


def capture() -> Dict[str, Any]:
    """Every case's observables (inline, dict layout)."""
    golden: Dict[str, Any] = {}
    for preset in SCALEG_PRESETS:
        for index in range(len(CHAOS_WORKLOADS)):
            golden[_scaleg_key(preset, index)] = scaleg_case(
                preset, index, "dict"
            )
    for preset in PREGEL_PRESETS:
        golden[f"pregel/{preset}"] = pregel_case(preset)
    return golden


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    with open(FIXTURE) as fh:
        return json.load(fh)


def _assert_matches(got: Dict[str, Any], expected: Dict[str, Any],
                    path: str = "") -> None:
    """Field-by-field comparison, so a failure names the meter that moved."""
    assert got.keys() == expected.keys(), path
    for key, value in expected.items():
        where = f"{path}/{key}"
        if isinstance(value, dict):
            _assert_matches(got[key], value, where)
        elif key == "runs":
            assert len(got[key]) == len(value), where
            for i, (g, e) in enumerate(zip(got[key], value)):
                _assert_matches(g, e, f"{where}[{i}]")
        else:
            assert got[key] == value, where


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("representation", ["dict", "csr"])
@pytest.mark.parametrize("workload_index", range(len(CHAOS_WORKLOADS)))
@pytest.mark.parametrize("preset", SCALEG_PRESETS)
def test_scaleg_meters_golden(golden, preset, workload_index, representation,
                              runtime):
    if representation == "csr":
        pytest.importorskip("numpy")
    got = json.loads(json.dumps(
        scaleg_case(preset, workload_index, representation, runtime)
    ))
    expected = golden[_scaleg_key(preset, workload_index)]
    fired = FIRES[preset]
    assert got["init"][fired] + got["update"][fired] > 0, fired
    _assert_matches(got, expected)


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("preset", PREGEL_PRESETS)
def test_pregel_meters_golden(golden, preset, runtime):
    got = json.loads(json.dumps(pregel_case(preset, runtime)))
    fired = FIRES[preset]
    assert sum(run["metrics"][fired] for run in got["runs"]) > 0, fired
    _assert_matches(got, golden[f"pregel/{preset}"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_engine_meters_golden.py --write")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    # one case per line: a regenerated fixture diffs case by case
    cases = sorted(capture().items())
    with open(FIXTURE, "w") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in cases
        ) + "\n}\n")
    print(f"wrote {FIXTURE}")
