"""Scheduler edge cases: late joiners, overflow queue, mixed retries."""

import pytest

from repro.core.fault import FaultTracker, RetryPolicy
from repro.core.scheduler import MasterScheduler
from repro.core.strategies import StrategyKind, strategy_for
from repro.data.files import synthetic_dataset
from repro.data.partition import PartitionScheme, generate_groups


def build(n_files, strategy, workers, **kw):
    groups = generate_groups(synthetic_dataset("d", n_files, 10), PartitionScheme.SINGLE)
    sched = MasterScheduler(groups, strategy_for(strategy), **kw)
    for w in workers:
        sched.register_worker(w)
    sched.partition_among()
    return sched


class TestLateJoiners:
    def test_late_joiner_in_pull_mode_gets_work(self):
        sched = build(4, StrategyKind.REAL_TIME, ["w0"])
        sched.register_worker("late")
        assignment = sched.next_for("late")
        assert assignment is not None

    def test_late_joiner_in_static_mode_idles_without_requeues(self):
        sched = build(4, StrategyKind.PRE_PARTITIONED_REMOTE, ["w0"])
        sched.register_worker("late")
        assert sched.next_for("late") is None  # nothing reserved for it

    def test_late_joiner_drains_overflow_after_worker_loss(self):
        sched = build(
            4,
            StrategyKind.PRE_PARTITIONED_REMOTE,
            ["w0"],
            retry_policy=RetryPolicy.resilient(),
        )
        sched.next_for("w0")
        sched.register_worker("late")
        # w0 dies; its whole chunk requeues. The only healthy chunk
        # holder is... nobody (late has no chunk), so work lands on the
        # overflow queue and the late joiner picks it up.
        sched.worker_lost("w0")
        drained = []
        while True:
            assignment = sched.next_for("late")
            if assignment is None:
                break
            drained.append(assignment.task_id)
            sched.report_success("late", assignment.task_id)
        assert sorted(drained) == [0, 1, 2, 3]
        assert sched.done


RETRY_CONFIGS = {
    "off": RetryPolicy.paper_faithful(),
    "loss-only": RetryPolicy(max_attempts=3, retry_on_worker_loss=True),
    "error-only": RetryPolicy(max_attempts=3, retry_on_task_error=True),
    "both": RetryPolicy.resilient(),
}


class TestMayGetWorkLater:
    """The one idle-worker rule: an idle worker stays only if retries
    are on (either kind), the run is not done and it is not isolated."""

    @pytest.mark.parametrize("isolated", [False, True])
    @pytest.mark.parametrize("done", [False, True])
    @pytest.mark.parametrize("retry", sorted(RETRY_CONFIGS))
    def test_truth_table(self, retry, done, isolated):
        sched = build(
            4, StrategyKind.REAL_TIME, ["w0", "w1"], retry_policy=RETRY_CONFIGS[retry]
        )
        if done:
            while (assignment := sched.next_for("w1")) is not None:
                sched.report_success("w1", assignment.task_id)
        if isolated:
            sched.faults.record_error("w0", "bad")  # isolate_after=1
        assert sched.done is done
        assert sched.faults.is_isolated("w0") is isolated
        expected = retry != "off" and not done and not isolated
        assert sched.may_get_work_later("w0") is expected


class TestMixedRetrySemantics:
    def test_error_retry_without_loss_retry(self):
        policy = RetryPolicy(max_attempts=2, retry_on_task_error=True)
        sched = build(
            2,
            StrategyKind.REAL_TIME,
            ["w0", "w1"],
            retry_policy=policy,
            fault_tracker=FaultTracker(isolate_after=5),
        )
        a = sched.next_for("w0")
        assert sched.report_error("w0", a.task_id, "transient")
        sched.next_for("w0")  # task 1
        b = sched.next_for("w1")  # the retried task 0
        assert b.task_id == a.task_id
        sched.report_success("w1", b.task_id)
        sched.report_success("w0", 1)
        assert sched.done

    def test_loss_without_retry_keeps_errorless_accounting(self):
        sched = build(3, StrategyKind.REAL_TIME, ["w0", "w1"])
        sched.next_for("w0")
        sched.worker_lost("w0")
        summary = sched.summary()
        assert summary["lost"] == 1
        assert summary["failed"] == 0


class TestReservedRetryBudget:
    """Reserved-task requeues must consume retry attempts.

    Regression: a task reserved for a dead worker (never started) used
    to requeue with its attempt counter untouched, so repeated worker
    loss could bounce the same chunk between doomed workers forever.
    """

    def test_repeated_worker_loss_exhausts_budget(self):
        sched = build(
            2,
            StrategyKind.PRE_PARTITIONED_REMOTE,
            ["w0"],
            retry_policy=RetryPolicy(max_attempts=3, retry_on_worker_loss=True),
        )
        # Kill a chain of workers, each inheriting the requeued chunk
        # without ever starting it. Every loss burns one attempt.
        sched.register_worker("w1")  # standby chunk holder
        requeued = sched.worker_lost("w0")  # attempt 0 -> 1, lands on w1
        assert len(requeued) == 2
        for kill, (victim, heir) in enumerate(
            [("w1", "w2"), ("w2", "w3"), ("w3", "w4")], start=2
        ):
            sched.register_worker(heir)  # inherits via _requeue rebalance
            requeued = sched.worker_lost(victim)
            if kill < 4:
                assert len(requeued) == 2, f"kill #{kill} should still retry"
            else:
                # attempt == max_attempts: budget exhausted, tasks lost.
                assert requeued == []
        assert len(sched.lost_tasks) == 2
        assert sched.summary()["lost"] == 2
        assert sched.done

    def test_budget_shared_between_reserved_and_started(self):
        sched = build(
            1,
            StrategyKind.PRE_PARTITIONED_REMOTE,
            ["w0"],
            retry_policy=RetryPolicy(max_attempts=2, retry_on_worker_loss=True),
        )
        sched.worker_lost("w0")  # reserved loss: attempt 0 -> 1
        sched.register_worker("w1")
        a = sched.next_for("w1")  # started: attempt -> 2
        assert a.attempt == 2
        sched.worker_lost("w1")  # in-flight at the cap: lost for good
        assert sched.lost_tasks and sched.done


class TestChunkingEdge:
    def test_lpt_cost_requires_hint(self):
        from repro.errors import ProtocolError

        groups = generate_groups(synthetic_dataset("d", 4, 10), PartitionScheme.SINGLE)
        sched = MasterScheduler(groups, strategy_for(StrategyKind.PRE_PARTITIONED_REMOTE))
        sched.register_worker("w0")
        with pytest.raises(ProtocolError):
            sched.partition_among(chunking="lpt_cost")

    def test_lpt_chunks_processed_in_index_order(self):
        groups = generate_groups(synthetic_dataset("d", 6, 10), PartitionScheme.SINGLE)
        sched = MasterScheduler(groups, strategy_for(StrategyKind.PRE_PARTITIONED_REMOTE))
        sched.register_worker("w0")
        sched.partition_among(chunking="lpt_cost", cost_hint=lambda g: float(g.index))
        chunk = [g.index for g in sched.planned_chunk("w0")]
        assert chunk == sorted(chunk)

    def test_single_worker_gets_everything_under_lpt(self):
        groups = generate_groups(synthetic_dataset("d", 5, 10), PartitionScheme.SINGLE)
        sched = MasterScheduler(groups, strategy_for(StrategyKind.PRE_PARTITIONED_REMOTE))
        sched.register_worker("w0")
        sched.partition_among(chunking="lpt_size")
        assert len(sched.planned_chunk("w0")) == 5


def _pull_scheduler(n_files=4, workers=("w0", "w1")):
    groups = generate_groups(synthetic_dataset("d", n_files, 10), PartitionScheme.SINGLE)
    sched = MasterScheduler(groups, strategy_for(StrategyKind.REAL_TIME))
    for w in workers:
        sched.register_worker(w)
    sched.partition_among()
    return sched


class TestInFlightBookkeeping:
    def test_has_in_flight_tracks_assignment_lifecycle(self):
        sched = _pull_scheduler()
        a = sched.next_for("w0")
        assert sched.has_in_flight("w0", a.task_id)
        assert not sched.has_in_flight("w1", a.task_id)
        sched.report_success("w0", a.task_id)
        assert not sched.has_in_flight("w0", a.task_id)

    def test_assignment_in_flight_resends_same_task(self):
        # A repeated REQUEST_DATA (lost reply) must get the *same*
        # assignment back, not a second task.
        sched = _pull_scheduler()
        a = sched.next_for("w0")
        again = sched.assignment_in_flight("w0")
        assert again is not None and again.task_id == a.task_id
        assert sched.assignment_in_flight("w1") is None

    def test_assignment_in_flight_earliest_of_several(self):
        sched = _pull_scheduler(n_files=4, workers=("w0",))
        first = sched.next_for("w0")
        sched.next_for("w0")
        assert sched.assignment_in_flight("w0").task_id == first.task_id


class TestAbandonOutstanding:
    def test_everything_unresolved_becomes_lost(self):
        sched = _pull_scheduler(n_files=4)
        a = sched.next_for("w0")
        sched.report_success("w0", a.task_id)
        b = sched.next_for("w1")  # in flight, never reported
        lost = sched.abandon_outstanding("master connection lost")
        assert {x.task_id for x in lost} == {1, 2, 3} - {a.task_id} | {b.task_id}
        summary = sched.summary()
        assert summary["completed"] == 1
        assert summary["lost"] == 3
        assert sched.done

    def test_abandon_is_idempotent(self):
        sched = _pull_scheduler(n_files=2)
        sched.abandon_outstanding()
        assert sched.abandon_outstanding() == []
        assert sched.summary()["lost"] == 2

    def test_abandon_covers_static_chunks(self):
        groups = generate_groups(synthetic_dataset("d", 4, 10), PartitionScheme.SINGLE)
        sched = MasterScheduler(
            groups, strategy_for(StrategyKind.PRE_PARTITIONED_REMOTE)
        )
        sched.register_worker("w0")
        sched.partition_among()
        lost = sched.abandon_outstanding()
        assert len(lost) == 4  # reserved-but-unassigned chunk work counts
