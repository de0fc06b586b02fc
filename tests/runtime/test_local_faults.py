"""Fault-path tests for the threaded execution plane.

The thread watchdog mirrors the TCP master's two detection paths: a
thread that exits abruptly is the broken-connection twin; a thread
that stops beating while alive is declared dead by the heartbeat
sweep. Both feed the same worker_lost → requeue → isolate path.
"""

import time

import pytest

from repro.core.fault import ANY_TASK, RetryPolicy
from repro.core.monitoring import HeartbeatConfig
from repro.core.strategies import StrategyKind
from repro.errors import ConfigurationError
from repro.runtime.local import ThreadedEngine


HB = dict(
    heartbeat_interval=0.05,
    heartbeat_config=HeartbeatConfig(suspect_after=0.15, dead_after=0.3),
)


@pytest.fixture
def input_files(tmp_path):
    paths = []
    for i in range(6):
        path = tmp_path / f"in{i}.dat"
        path.write_bytes(bytes([i]) * 64)
        paths.append(str(path))
    return paths


def slow_program(path):
    time.sleep(0.03)


def event_kinds(outcome):
    return [e.kind for e in outcome.controller_events]


class TestThreadCrash:
    def test_crashed_thread_work_retried_on_survivor(self, input_files):
        outcome = ThreadedEngine(num_workers=2).run(
            input_files,
            command=slow_program,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            retry_policy=RetryPolicy.resilient(),
            crash_worker_on_task={"local:1": 4},
        )
        assert outcome.tasks_completed == 6
        assert outcome.tasks_lost == 0
        kinds = event_kinds(outcome)
        assert "NODE_DECLARED_DEAD" not in kinds
        assert "WORKER_FAILED" in kinds

    def test_crash_without_retry_is_paper_faithful(self, input_files):
        outcome = ThreadedEngine(num_workers=2).run(
            input_files,
            command=slow_program,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            crash_worker_on_task={"local:1": 4},
        )
        assert outcome.tasks_lost >= 1
        assert outcome.tasks_completed + outcome.tasks_lost == outcome.tasks_total

    def test_crash_on_first_draw_under_pull(self, input_files):
        outcome = ThreadedEngine(num_workers=2).run(
            input_files,
            command=slow_program,
            retry_policy=RetryPolicy.resilient(),
            crash_worker_on_task={"local:0": ANY_TASK},
        )
        assert outcome.tasks_completed == 6
        assert any(r.attempt > 1 for r in outcome.task_records)


class TestThreadHang:
    def test_hung_thread_declared_dead_by_sweep(self, input_files):
        started = time.monotonic()
        outcome = ThreadedEngine(num_workers=3, **HB).run(
            input_files,
            command=slow_program,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            retry_policy=RetryPolicy.resilient(),
            hang_worker_on_task={"local:1": 2},
        )
        assert outcome.tasks_completed == 6
        assert time.monotonic() - started < 30
        assert "NODE_DECLARED_DEAD" in event_kinds(outcome)

    def test_hang_without_heartbeats_rejected(self, input_files):
        with pytest.raises(ConfigurationError):
            ThreadedEngine(num_workers=2).run(
                input_files,
                command=slow_program,
                hang_worker_on_task={"local:0": 1},
            )

    def test_healthy_run_with_heartbeats_declares_nobody(self, input_files):
        outcome = ThreadedEngine(num_workers=2, **HB).run(
            input_files, command=slow_program
        )
        assert outcome.tasks_completed == 6
        assert "NODE_DECLARED_DEAD" not in event_kinds(outcome)
