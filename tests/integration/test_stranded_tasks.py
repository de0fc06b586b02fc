"""Every task lands in one bucket, even when a run ends with work left.

A run can end before its work does: every worker got isolated, or the
master was lost. ``ControllerLogic.outcome`` then records what is left
as lost and logs one ``TASKS_ABANDONED``, on all three engines, so
``completed + failed + lost == total`` holds for every run. (The
master-loss case is pinned by ``TestMasterOutage`` and
``TestMasterLoss``.)
"""

import pytest

from repro.cloud.cluster import ClusterSpec
from repro.core.fault import RetryPolicy
from repro.data.files import DataFile, Dataset, synthetic_dataset
from repro.engines.compute import FixedComputeModel
from repro.engines.simulated import SimulatedEngine, SimulationOptions
from repro.runtime.local import ThreadedEngine
from repro.runtime.tcp import TcpEngine

REAL_ENGINES = {
    "threaded": ThreadedEngine,
    "tcp": lambda n: TcpEngine(n, run_timeout=60),
}


def _counts(outcome) -> tuple[int, int, int, int]:
    return (
        outcome.tasks_completed,
        outcome.tasks_failed,
        outcome.tasks_lost,
        outcome.tasks_total,
    )


def _abandoned(outcome) -> list[str]:
    return [e.detail for e in outcome.controller_events if e.kind == "TASKS_ABANDONED"]


def _fails_on_f0(path: str) -> None:
    if path.endswith("f0.bin"):
        raise RuntimeError("bad input")


@pytest.mark.parametrize("engine", sorted(REAL_ENGINES))
def test_isolated_last_worker_leaves_its_queue_lost(tmp_path, engine):
    files = []
    for i in range(8):
        path = tmp_path / f"f{i}.bin"
        path.write_bytes(bytes([i]) * 64)
        files.append(DataFile(name=path.name, size=64, path=str(path)))
    outcome = REAL_ENGINES[engine](1).run(Dataset("inputs", files), command=_fails_on_f0)
    assert _counts(outcome) == (0, 1, 7, 8)
    assert _abandoned(outcome) == ["7 tasks stranded: every worker isolated"]


def test_simulated_fetch_failures_isolating_every_worker():
    outcome = SimulatedEngine(ClusterSpec(num_workers=2), SimulationOptions(seed=0)).run(
        synthetic_dataset("d", 40, 1_000_000),
        compute_model=FixedComputeModel(1.0),
        retry_policy=RetryPolicy.resilient(),
        isolate_after=3,
        transfer_fault_rate=0.5,
    )
    assert _counts(outcome) == (11, 0, 29, 40)
    assert _abandoned(outcome) == ["29 tasks stranded: every worker isolated"]
    counters = outcome.extra["metrics"]["counters"]
    assert counters["scheduler.tasks_lost"] == 29

