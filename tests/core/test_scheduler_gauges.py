"""Regression tests: scheduler gauges must track actual pending work.

``queue.depth`` and ``run.completion_rate`` are the signals the
multi-tenant service (and SLO probes) read per job; any mutation path
that leaves them stale turns into a cross-job lie the moment two jobs
share the plane.  These tests audit the paths that historically
drifted: worker loss before partition time, error-count isolation
stranding a reserved static chunk, requeues, and the empty-workload
edge.
"""

import random

import pytest

from repro.core.fault import FaultTracker, RetryPolicy
from repro.core.scheduler import MasterScheduler
from repro.core.strategies import StrategyKind, strategy_for
from repro.data.files import synthetic_dataset
from repro.data.partition import PartitionScheme, generate_groups
from repro.telemetry.metrics import MetricsRegistry


def build(n_files, strategy, *, metrics, retry=None, faults=None):
    groups = generate_groups(synthetic_dataset("d", n_files, 100), PartitionScheme.SINGLE)
    return MasterScheduler(
        groups,
        strategy_for(strategy),
        retry_policy=retry or RetryPolicy.resilient(3),
        fault_tracker=faults or FaultTracker(),
        metrics=metrics,
    )


def actual_pending(sched):
    """Ground truth the gauge must equal: queued + still-reserved tasks."""
    return len(sched._queue) + sum(len(c) for c in sched._static_chunks.values())


def assert_gauge_consistent(sched, metrics):
    assert metrics.gauge("queue.depth").value == actual_pending(sched)
    assert sched.pending_count == actual_pending(sched)


class TestDepthGaugeDrift:
    def test_worker_lost_before_partition_does_not_strand_chunk(self):
        """A worker that dies inside the registration window must not be
        handed a static chunk nobody can ever serve."""
        metrics = MetricsRegistry()
        sched = build(4, StrategyKind.PRE_PARTITIONED_REMOTE, metrics=metrics)
        sched.register_worker("w0")
        sched.register_worker("w1")
        sched.worker_lost("w1")
        sched.partition_among()
        assert_gauge_consistent(sched, metrics)
        while (a := sched.next_for("w0")) is not None:
            sched.report_success("w0", a.task_id)
            assert_gauge_consistent(sched, metrics)
        assert sched.done
        assert sched.summary()["completed"] == 4
        assert metrics.gauge("queue.depth").value == 0

    def test_all_candidates_dead_leaves_work_on_queue(self):
        metrics = MetricsRegistry()
        sched = build(3, StrategyKind.PRE_PARTITIONED_REMOTE, metrics=metrics)
        sched.register_worker("w0")
        sched.worker_lost("w0")
        sched.partition_among()
        assert_gauge_consistent(sched, metrics)
        assert metrics.gauge("queue.depth").value == 3
        # A late elastic joiner can still drain the whole workload.
        sched.register_worker("w1")
        while (a := sched.next_for("w1")) is not None:
            sched.report_success("w1", a.task_id)
        assert sched.summary()["completed"] == 3
        assert metrics.gauge("queue.depth").value == 0

    def test_error_isolation_drains_reserved_chunk(self):
        """Isolation via error count (not loss) must redistribute the
        isolated worker's remaining reservation."""
        metrics = MetricsRegistry()
        sched = build(
            4,
            StrategyKind.PRE_PARTITIONED_REMOTE,
            metrics=metrics,
            faults=FaultTracker(isolate_after=1),
        )
        sched.register_worker("w0")
        sched.register_worker("w1")
        sched.partition_among()
        bad = sched.next_for("w1")
        retried = sched.report_error("w1", bad.task_id, "boom")
        assert retried
        assert sched.faults.is_isolated("w1")
        assert_gauge_consistent(sched, metrics)
        while (a := sched.next_for("w0")) is not None:
            sched.report_success("w0", a.task_id)
        assert sched.done
        assert sched.summary()["completed"] == 4
        assert metrics.gauge("queue.depth").value == 0

    def test_empty_workload_reports_complete(self):
        metrics = MetricsRegistry()
        sched = MasterScheduler([], strategy_for(StrategyKind.REAL_TIME), metrics=metrics)
        assert metrics.gauge("run.completion_rate").value == 1.0
        assert metrics.gauge("queue.depth").value == 0
        sched.register_worker("w0")
        sched.partition_among()
        assert sched.done


class TestChaosGaugeInvariant:
    @pytest.mark.parametrize(
        "strategy",
        [StrategyKind.REAL_TIME, StrategyKind.PRE_PARTITIONED_REMOTE],
    )
    @pytest.mark.parametrize("seed", [7, 21, 1234])
    def test_gauge_equals_pending_under_chaos(self, strategy, seed):
        """Drive a randomized mix of success/error/loss and
        assert gauge == actual pending after every single event."""
        rng = random.Random(seed)
        metrics = MetricsRegistry()
        sched = build(
            24,
            strategy,
            metrics=metrics,
            retry=RetryPolicy.resilient(3),
            faults=FaultTracker(isolate_after=2),
        )
        workers = [f"w{i}" for i in range(5)]
        for w in workers:
            sched.register_worker(w)
        sched.partition_among()
        assert_gauge_consistent(sched, metrics)

        alive = set(workers)
        for _ in range(600):
            if sched.done:
                break
            healthy = [w for w in alive if not sched.faults.is_isolated(w)]
            if not healthy:
                break
            roll = rng.random()
            if roll < 0.55:
                w = rng.choice(healthy)
                a = sched.next_for(w)
                if a is not None and rng.random() < 0.85:
                    sched.report_success(w, a.task_id)
            elif roll < 0.8:
                victims = [
                    (w, t) for (w, t) in sched._in_flight if w in healthy
                ]
                if victims:
                    w, t = rng.choice(victims)
                    sched.report_error(w, t, "chaos")
            elif roll < 0.9 and len(healthy) > 1:
                w = rng.choice(healthy)
                sched.worker_lost(w, "chaos kill")
                alive.discard(w)
            assert_gauge_consistent(sched, metrics)

        # Drain whatever is left with the survivors so the run ends in a
        # terminal state, then check the gauges one last time.
        for _ in range(400):
            if sched.done:
                break
            healthy = [w for w in alive if not sched.faults.is_isolated(w)]
            if not healthy:
                break
            w = healthy[0]
            a = sched.next_for(w)
            if a is None:
                inflight = [(wi, t) for (wi, t) in sched._in_flight]
                if not inflight:
                    break
                wi, t = inflight[0]
                sched.report_success(wi, t)
            else:
                sched.report_success(w, a.task_id)
            assert_gauge_consistent(sched, metrics)

        assert_gauge_consistent(sched, metrics)
        summary = sched.summary()
        resolved = summary["completed"] + summary["failed"] + summary["lost"]
        if sched.done and summary["in_flight"] == 0 and not sched.has_queued_work:
            assert resolved == summary["total"]
            assert metrics.gauge("queue.depth").value == 0
