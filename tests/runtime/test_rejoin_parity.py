"""Crash→rejoin id policy parity across engines.

Every engine mints rejoin ids through ``core/identity.py`` so one
physical worker's second life can never collide with a registration
another job already holds — the single-run assumption this breaks is
that "worker id = worker" for the lifetime of the process.
"""

import time

import pytest

from repro.core.identity import RejoinIdMinter, scratch_name, split_rejoin_id
from repro.core.fault import ANY_TASK, RetryPolicy
from repro.core.scheduler import MasterScheduler
from repro.core.strategies import StrategyKind, strategy_for
from repro.core.monitoring import HeartbeatConfig
from repro.data.files import synthetic_dataset
from repro.data.partition import PartitionScheme, generate_groups
from repro.errors import ProtocolError
from repro.runtime.local import ThreadedEngine


class TestMinter:
    def test_generation_sequence(self):
        minter = RejoinIdMinter()
        assert minter.mint("tcp:0") == "tcp:0:r1"
        assert minter.mint("tcp:0") == "tcp:0:r2"
        assert minter.mint("local:3") == "local:3:r1"

    def test_minting_from_a_prior_generation_advances_the_base(self):
        minter = RejoinIdMinter()
        assert minter.mint("tcp:0:r1") == "tcp:0:r2"
        assert minter.mint("tcp:0") == "tcp:0:r3"

    def test_split(self):
        assert split_rejoin_id("tcp:0") == ("tcp:0", 0)
        assert split_rejoin_id("tcp:0:r2") == ("tcp:0", 2)
        assert split_rejoin_id("w:r") == ("w:r", 0)

    def test_scratch_name_is_filesystem_safe(self):
        assert scratch_name("tcp:0:r1") == "tcp_0_r1"

    def test_minted_ids_register_cleanly_into_a_second_job(self):
        """The cross-job poisoning scenario: worker dies in job A,
        rejoins; the fresh id must be registrable in job B even though
        B already knows the original id."""
        minter = RejoinIdMinter()
        groups = generate_groups(synthetic_dataset("d", 4, 10), PartitionScheme.SINGLE)
        job_a = MasterScheduler(groups, strategy_for(StrategyKind.REAL_TIME))
        job_b = MasterScheduler(groups, strategy_for(StrategyKind.REAL_TIME))
        job_a.register_worker("w:0")
        job_b.register_worker("w:0")
        job_a.worker_lost("w:0", "crash")
        fresh = minter.mint("w:0")
        job_a.register_worker(fresh)
        job_b.register_worker(fresh)  # must not raise
        with pytest.raises(ProtocolError):
            job_b.register_worker("w:0")


class TestThreadedRejoin:
    """The threaded engine's respawn path must mirror the TCP one."""

    @pytest.fixture
    def input_files(self, tmp_path):
        paths = []
        for i in range(6):
            path = tmp_path / f"in{i}.dat"
            path.write_bytes(bytes([i]) * 64)
            paths.append(str(path))
        return paths

    def test_crashed_thread_rejoins_under_fresh_id(self, input_files):
        engine = ThreadedEngine(
            num_workers=2,
            heartbeat_interval=0.05,
            heartbeat_config=HeartbeatConfig(suspect_after=0.15, dead_after=0.3),
        )
        outcome = engine.run(
            input_files,
            command=lambda p: time.sleep(0.05),
            retry_policy=RetryPolicy.resilient(),
            crash_worker_on_task={"local:0": ANY_TASK},
            respawn_after_crash={"local:0": 0.05},
        )
        assert outcome.tasks_completed == 6
        assert outcome.tasks_lost == 0
        rejoined = [
            r for r in outcome.task_records if r.worker_id == "local:0:r1"
        ]
        assert rejoined, "the rejoined worker never completed a task"
        # A respawn is a late join, recorded the way TCP records its
        # rejoins (["tcp:0:r1"]).
        assert outcome.extra["late_joins"] == ["local:0:r1"]
        joined = [
            e.detail for e in outcome.controller_events if e.kind == "WORKER_JOINED_LATE"
        ]
        assert joined == ["local:0:r1"]

    def test_without_respawn_no_fresh_id_appears(self, input_files):
        outcome = ThreadedEngine(num_workers=2).run(
            input_files,
            command=lambda p: time.sleep(0.01),
            retry_policy=RetryPolicy.resilient(),
            crash_worker_on_task={"local:0": ANY_TASK},
        )
        assert outcome.tasks_completed == 6
        assert all(":r" not in r.worker_id for r in outcome.task_records)
