"""Fault-path integration tests for the TCP execution plane.

Covers the hardening work: registration window (no deadlock on a
worker that dies pre-REGISTER), heartbeat-driven death of a hung
worker, elastic rejoin of a crashed worker under a fresh id, scripted
wire faults (corrupt / drop / delay / truncate), staging-push crashes,
total-loss accounting, stale status reports, and master loss.
"""

import os
import threading
import time

import pytest

from repro.core.fault import ANY_TASK, RetryPolicy
from repro.core.monitoring import HeartbeatConfig
from repro.core.strategies import StrategyKind
from repro.runtime.faults import FaultRule, FaultScript
from repro.runtime.tcp import TcpEngine


HB = dict(
    heartbeat_interval=0.05,
    heartbeat_config=HeartbeatConfig(suspect_after=0.2, dead_after=0.45),
)


@pytest.fixture
def input_files(tmp_path):
    paths = []
    for i in range(6):
        path = tmp_path / f"in{i}.dat"
        path.write_bytes(bytes([i]) * (100 + i))
        paths.append(str(path))
    return paths


def slow_program(path, seconds=0.05):
    with open(path, "rb") as fh:
        fh.read()
    time.sleep(seconds)


def event_kinds(outcome):
    return [e.kind for e in outcome.controller_events]


class TestRegistrationWindow:
    def test_worker_dead_before_register_does_not_deadlock(self, input_files):
        # Regression: the old all_registered.wait() barrier hung the
        # whole run until run_timeout when any worker died pre-REGISTER.
        started = time.monotonic()
        outcome = TcpEngine(
            num_workers=3, run_timeout=60, registration_window=0.5
        ).run(
            input_files,
            command=lambda p: None,
            crash_before_register=["tcp:1"],
        )
        assert outcome.tasks_completed == 6
        assert time.monotonic() - started < 30
        assert "REGISTRATION_WINDOW_CLOSED" in event_kinds(outcome)

    def test_window_closes_with_partial_membership_static(self, input_files):
        # Static partitioning must cover the dataset with whoever
        # actually registered, not the configured worker count.
        outcome = TcpEngine(
            num_workers=3, run_timeout=60, registration_window=0.5
        ).run(
            input_files,
            command=lambda p: None,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            crash_before_register=["tcp:2"],
        )
        assert outcome.tasks_completed == 6
        assert outcome.tasks_lost == 0


class TestHeartbeatDeath:
    def test_hung_worker_declared_dead_and_work_recovered(self, input_files):
        outcome = TcpEngine(num_workers=3, run_timeout=60, **HB).run(
            input_files,
            command=slow_program,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            retry_policy=RetryPolicy.resilient(),
            hang_worker_on_task={"tcp:1": 2},
        )
        assert outcome.tasks_completed == 6
        assert outcome.extra["nodes_declared_dead"] == ["tcp:1"]
        kinds = event_kinds(outcome)
        assert "NODE_DECLARED_DEAD" in kinds
        assert "WORKER_FAILED" in kinds

    def test_hang_without_heartbeats_rejected(self, input_files):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TcpEngine(num_workers=2, run_timeout=60).run(
                input_files,
                command=lambda p: None,
                hang_worker_on_task={"tcp:0": 1},
            )

    def test_clean_run_declares_nobody_dead(self, input_files):
        # Gracefully drained workers must be forgotten by the monitor,
        # not declared dead for their post-exit silence.
        outcome = TcpEngine(num_workers=2, run_timeout=60, **HB).run(
            input_files, command=slow_program
        )
        assert outcome.tasks_completed == 6
        assert outcome.extra["nodes_declared_dead"] == []
        assert "NODE_DECLARED_DEAD" not in event_kinds(outcome)

    def test_combined_prereg_crash_and_hang(self, input_files):
        # The acceptance scenario: one worker dies pre-registration,
        # one crashes mid-task, one hangs; survivors finish everything
        # well before the run timeout.
        root = os.path.dirname(input_files[0])
        extra = []
        for i in range(6, 9):
            path = os.path.join(root, f"in{i}.dat")
            with open(path, "wb") as fh:
                fh.write(bytes([i]) * (100 + i))
            extra.append(path)
        paths = input_files + extra
        started = time.monotonic()
        outcome = TcpEngine(
            num_workers=4, run_timeout=90, registration_window=0.5, **HB
        ).run(
            paths,
            command=slow_program,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            retry_policy=RetryPolicy.resilient(),
            crash_before_register=["tcp:0"],
            crash_worker_on_task={"tcp:2": 4},
            hang_worker_on_task={"tcp:3": 6},
        )
        assert outcome.tasks_completed == 9
        assert outcome.tasks_lost == 0
        assert time.monotonic() - started < 60
        assert outcome.extra["nodes_declared_dead"] == ["tcp:3"]
        kinds = event_kinds(outcome)
        assert "REGISTRATION_WINDOW_CLOSED" in kinds
        assert "NODE_DECLARED_DEAD" in kinds


class TestElasticRejoin:
    def test_crashed_worker_rejoins_and_completes_requeued_work(self, input_files):
        outcome = TcpEngine(num_workers=2, run_timeout=60, **HB).run(
            input_files,
            command=lambda p: slow_program(p, 0.1),
            retry_policy=RetryPolicy.resilient(),
            crash_worker_on_task={"tcp:0": ANY_TASK},
            respawn_after_crash={"tcp:0": 0.05},
        )
        assert outcome.tasks_completed == 6
        assert outcome.extra["late_joins"] == ["tcp:0:r1"]
        assert "WORKER_JOINED_LATE" in event_kinds(outcome)
        rejoined = [r for r in outcome.task_records if r.worker_id == "tcp:0:r1"]
        assert rejoined, "the rejoined worker never completed a task"
        assert any(r.attempt > 1 for r in rejoined), (
            "the rejoined worker should have absorbed requeued work"
        )

    def test_duplicate_worker_id_rejected(self, input_files):
        # A rejoin must come back under a fresh id; the engine's
        # respawn hook does exactly that, and late_joins proves the
        # fresh id (not the dead one) was the accepted registration.
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files,
            command=lambda p: slow_program(p, 0.05),
            retry_policy=RetryPolicy.resilient(),
            crash_worker_on_task={"tcp:1": ANY_TASK},
            respawn_after_crash={"tcp:1": 0.05},
        )
        assert outcome.tasks_completed == 6
        assert all(j != "tcp:1" for j in outcome.extra["late_joins"])


class TestWireFaults:
    def test_corrupt_payload_retransmitted(self, input_files):
        script = FaultScript([FaultRule(action="corrupt", msg_type="FILE_DATA")])
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files, command=lambda p: None, fault_script=script
        )
        assert outcome.tasks_completed == 6
        assert outcome.extra["retransmits"] >= 1
        assert ("master", "corrupt", "FILE_DATA") in {
            (s, a, m) for (s, a, m, _t) in outcome.extra["injected_faults"]
        }

    def test_corrupted_bytes_never_reach_the_program(self, input_files):
        # The checksum layer must hand the program the original bytes,
        # not the corrupted ones.
        contents = {}
        lock = threading.Lock()

        def program(path):
            with open(path, "rb") as fh:
                with lock:
                    contents[os.path.basename(path)] = fh.read()

        script = FaultScript(
            [FaultRule(action="corrupt", msg_type="FILE_DATA", times=3)]
        )
        TcpEngine(num_workers=2, run_timeout=60).run(
            input_files, command=program, fault_script=script
        )
        for i in range(6):
            assert contents[f"in{i}.dat"] == bytes([i]) * (100 + i)

    def test_dropped_assignment_reissued(self, input_files):
        script = FaultScript([FaultRule(action="drop", msg_type="FILE_METADATA")])
        outcome = TcpEngine(num_workers=2, run_timeout=60, reply_timeout=0.3).run(
            input_files, command=lambda p: None, fault_script=script
        )
        assert outcome.tasks_completed == 6
        assert outcome.extra["reissued_requests"] >= 1

    def test_drop_without_reply_timeout_rejected(self, input_files):
        from repro.errors import ConfigurationError

        script = FaultScript([FaultRule(action="drop", msg_type="FILE_METADATA")])
        with pytest.raises(ConfigurationError):
            TcpEngine(num_workers=2, run_timeout=60).run(
                input_files, command=lambda p: None, fault_script=script
            )

    def test_truncated_frame_is_a_connection_loss(self, input_files):
        # Truncation (the TransferFaultModel failure mode) kills the
        # connection mid-frame; with retries on, survivors absorb it.
        script = FaultScript([FaultRule(action="truncate", msg_type="FILE_DATA")])
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files,
            command=lambda p: None,
            retry_policy=RetryPolicy.resilient(),
            fault_script=script,
        )
        assert outcome.tasks_completed == 6
        assert "WORKER_FAILED" in event_kinds(outcome)

    def test_delayed_frame_still_completes(self, input_files):
        script = FaultScript(
            [FaultRule(action="delay", msg_type="FILE_DATA", delay_s=0.2, times=2)]
        )
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files, command=lambda p: None, fault_script=script
        )
        assert outcome.tasks_completed == 6

    def test_delayed_reply_yields_stale_status(self, input_files):
        # Delay the assignment past the worker's reply timeout: the
        # worker re-asks (reissue), then the delayed original arrives
        # and the task runs twice — the second EXEC_STATUS must be
        # discarded as stale, not crash the master. Tasks are slow so
        # work is still outstanding when the duplicate status lands.
        script = FaultScript(
            [FaultRule(action="delay", msg_type="FILE_METADATA", delay_s=0.7)]
        )
        outcome = TcpEngine(num_workers=2, run_timeout=60, reply_timeout=0.3).run(
            input_files, command=lambda p: slow_program(p, 0.25), fault_script=script
        )
        assert outcome.tasks_completed == 6
        assert outcome.extra["reissued_requests"] >= 1
        assert outcome.extra["stale_statuses"] >= 1
        assert "STALE_STATUS" in event_kinds(outcome)


class TestCrashPaths:
    def test_crash_during_staging_push(self, input_files):
        # Task id -1 == the staging phase: the worker dies while the
        # master is pushing its chunk, before any task runs.
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files,
            command=lambda p: None,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            retry_policy=RetryPolicy.resilient(),
            crash_worker_on_task={"tcp:1": -1},
        )
        assert outcome.tasks_completed == 6
        assert "WORKER_FAILED" in event_kinds(outcome)

    def test_all_workers_crash_accounts_everything_lost(self, input_files):
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files,
            command=lambda p: None,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            crash_worker_on_task={"tcp:0": ANY_TASK, "tcp:1": ANY_TASK},
        )
        assert outcome.tasks_completed == 0
        assert outcome.tasks_lost == 6
        assert (
            outcome.tasks_completed + outcome.tasks_failed + outcome.tasks_lost
            == outcome.tasks_total
        )

    def test_crash_without_retry_is_paper_faithful(self, input_files):
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files,
            command=lambda p: None,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            crash_worker_on_task={"tcp:1": 4},
        )
        assert outcome.tasks_lost >= 1
        assert outcome.tasks_completed + outcome.tasks_lost == outcome.tasks_total


class TestMasterLoss:
    def test_workers_unwind_cleanly_when_master_dies(self, input_files):
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files,
            command=lambda p: slow_program(p, 0.05),
            crash_master_after_tasks=3,
        )
        assert outcome.extra["master_crashed"] is True
        # The threshold is checked per connection, so a concurrently
        # serving worker may land one extra completion before the
        # crash closes everything — at least 3, never all 6.
        assert 3 <= outcome.tasks_completed < outcome.tasks_total
        assert outcome.tasks_completed + outcome.tasks_lost == outcome.tasks_total
        kinds = event_kinds(outcome)
        assert "MASTER_LOST" in kinds
        assert "TASKS_ABANDONED" in kinds
