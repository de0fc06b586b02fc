"""Integration tests for the asyncio TCP master/worker runtime."""

import os
import threading

import pytest

from repro.core.fault import ANY_TASK, RetryPolicy
from repro.core.strategies import StrategyKind
from repro.data.partition import PartitionScheme
from repro.runtime.tcp import TcpEngine


def failed_workers(outcome):
    """Worker ids named by the controller's ``WORKER_FAILED`` events."""
    return [
        e.detail.partition(": ")[0]
        for e in outcome.controller_events
        if e.kind == "WORKER_FAILED"
    ]


@pytest.fixture
def input_files(tmp_path):
    paths = []
    for i in range(6):
        path = tmp_path / f"in{i}.dat"
        path.write_bytes(bytes([i]) * (100 + i))
        paths.append(str(path))
    return paths


class TestTcpExecution:
    def test_real_time_run(self, input_files):
        seen = []
        lock = threading.Lock()

        def program(path):
            with lock:
                seen.append(os.path.basename(path))

        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files, command=program, strategy=StrategyKind.REAL_TIME
        )
        assert outcome.tasks_completed == 6
        assert sorted(seen) == sorted(os.path.basename(p) for p in input_files)

    def test_payload_bytes_arrive_intact(self, input_files):
        contents = {}
        lock = threading.Lock()

        def program(path):
            with open(path, "rb") as fh:
                with lock:
                    contents[os.path.basename(path)] = fh.read()

        TcpEngine(num_workers=2, run_timeout=60).run(
            input_files, command=program, strategy=StrategyKind.REAL_TIME
        )
        for i in range(6):
            assert contents[f"in{i}.dat"] == bytes([i]) * (100 + i)

    def test_pre_partitioned_staging_pushes_chunks(self, input_files):
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files,
            command=lambda p: None,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
        )
        assert outcome.tasks_completed == 6
        total = sum(os.path.getsize(p) for p in input_files)
        assert outcome.bytes_transferred == total  # each file sent once

    def test_common_data_sends_everything_to_everyone(self, input_files):
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files,
            command=lambda p: None,
            strategy=StrategyKind.COMMON_DATA,
        )
        total = sum(os.path.getsize(p) for p in input_files)
        assert outcome.bytes_transferred == 2 * total

    def test_pairwise_grouping_over_tcp(self, input_files):
        pairs = []
        lock = threading.Lock()

        def program(a, b):
            with lock:
                pairs.append((os.path.basename(a), os.path.basename(b)))

        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files,
            command=program,
            grouping=PartitionScheme.PAIRWISE_ADJACENT,
        )
        assert outcome.tasks_completed == 3
        assert len(pairs) == 3

    def test_task_error_reported(self, input_files):
        def flaky(path):
            if path.endswith("in1.dat"):
                raise ValueError("bad record")

        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files, command=flaky, isolate_after=10
        )
        assert outcome.tasks_failed == 1
        assert outcome.tasks_completed == 5


class TestTcpFailureSemantics:
    def test_worker_crash_loses_task_paper_faithful(self, input_files):
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files,
            command=lambda p: None,
            strategy=StrategyKind.REAL_TIME,
            crash_worker_on_task={"tcp:0": ANY_TASK},
        )
        # tcp:0 dies on its first task, which is lost (no retries).
        assert outcome.tasks_lost >= 1
        assert outcome.tasks_completed + outcome.tasks_lost == outcome.tasks_total
        assert failed_workers(outcome) == ["tcp:0"]

    def test_worker_crash_with_retry_completes(self, input_files):
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files,
            command=lambda p: None,
            strategy=StrategyKind.REAL_TIME,
            retry_policy=RetryPolicy.resilient(),
            crash_worker_on_task={"tcp:1": ANY_TASK},
        )
        assert outcome.tasks_lost == 0
        assert outcome.tasks_completed == outcome.tasks_total
        assert failed_workers(outcome) == ["tcp:1"]
