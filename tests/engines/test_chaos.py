"""End-to-end chaos paths: silent death, link faults, transfer faults.

These exercise the closed failure loop — injection (cloud layer) →
detection (heartbeats / failed transfers) → recovery (requeue, retry,
isolation, elasticity) — on the simulated engine.
"""

import pytest

from repro.cloud.cluster import ClusterSpec
from repro.cloud.failures import FailureSchedule, LinkFaultSchedule
from repro.core.fault import ANY_TASK, RetryPolicy
from repro.core.monitoring import HeartbeatConfig
from repro.core.strategies import StrategyKind
from repro.data.files import synthetic_dataset
from repro.data.partition import PartitionScheme
from repro.engines.compute import FixedComputeModel
from repro.engines.simulated import SimulatedEngine, SimulationOptions
from repro.errors import ConfigurationError
from repro.transfer.base import TransferProtocol
from repro.transfer.retry import TransferRetryPolicy


class _Raw(TransferProtocol):
    handshake_latency = 0.0
    efficiency = 1.0
    streams = 1


def run_chaos(
    *,
    n_files=24,
    file_size="1 KB",
    cost=1.0,
    workers=2,
    strategy=StrategyKind.REAL_TIME,
    retry_policy=None,
    options=None,
    **run_kw,
):
    spec = ClusterSpec(num_workers=workers)
    engine = SimulatedEngine(spec, options or SimulationOptions(protocol=_Raw()))
    ds = synthetic_dataset("d", n_files, file_size)
    return engine.run(
        ds,
        compute_model=FixedComputeModel(cost),
        strategy=strategy,
        grouping=PartitionScheme.SINGLE,
        retry_policy=retry_policy,
        **run_kw,
    )


def heartbeat_options(**kw):
    return SimulationOptions(
        protocol=_Raw(),
        heartbeat_interval=1.0,
        heartbeat_config=HeartbeatConfig(suspect_after=2.0, dead_after=5.0),
        **kw,
    )


class TestSilentFailure:
    def test_silent_death_without_heartbeats_is_rejected(self):
        with pytest.raises(ConfigurationError):
            run_chaos(
                failure_schedule=FailureSchedule.of((3.0, "worker1", "silent")),
            )

    def test_heartbeat_sweep_declares_silent_node_dead(self):
        outcome = run_chaos(
            cost=2.0,
            options=heartbeat_options(),
            failure_schedule=FailureSchedule.of((3.0, "worker1", "silent")),
        )
        assert outcome.extra["nodes_declared_dead"] == ["worker1"]
        kinds = [e.kind for e in outcome.controller_events]
        assert "NODE_DECLARED_DEAD" in kinds
        assert "WORKER_FAILED" in kinds
        # Paper-faithful retry: the dead node's in-flight tasks are lost,
        # but the run still terminates (no hang on a silent worker).
        assert outcome.tasks_lost >= 1
        assert outcome.tasks_completed + outcome.tasks_lost == outcome.tasks_total

    def test_silent_death_with_retry_loses_nothing(self):
        outcome = run_chaos(
            cost=2.0,
            options=heartbeat_options(),
            failure_schedule=FailureSchedule.of((3.0, "worker1", "silent")),
            retry_policy=RetryPolicy.resilient(),
        )
        assert outcome.tasks_lost == 0
        assert outcome.tasks_completed == outcome.tasks_total
        assert outcome.extra["nodes_declared_dead"] == ["worker1"]

    def test_crash_failure_needs_no_heartbeat(self):
        # Connection-reported (non-silent) deaths keep working with the
        # liveness layer off — regression guard for the default path.
        outcome = run_chaos(
            cost=2.0,
            failure_schedule=FailureSchedule.of((3.0, "worker1")),
            retry_policy=RetryPolicy.resilient(),
        )
        assert outcome.tasks_completed == outcome.tasks_total
        assert outcome.extra["nodes_declared_dead"] == []

    def test_crash_not_double_declared_by_sweep(self):
        # A crashed node stops beating too; the sweep must not re-declare
        # a death the broken connection already reported.
        outcome = run_chaos(
            cost=2.0,
            options=heartbeat_options(),
            failure_schedule=FailureSchedule.of((3.0, "worker1")),
            retry_policy=RetryPolicy.resilient(),
        )
        assert outcome.extra["nodes_declared_dead"] == []
        kinds = [e.kind for e in outcome.controller_events]
        assert "WORKER_FAILED" in kinds
        assert "NODE_DECLARED_DEAD" not in kinds
        assert outcome.tasks_completed == outcome.tasks_total

    def test_detection_latency_bounded_by_config(self):
        outcome = run_chaos(
            cost=2.0,
            options=heartbeat_options(),
            failure_schedule=FailureSchedule.of((3.0, "worker1", "silent")),
            retry_policy=RetryPolicy.resilient(),
        )
        declared = [
            e for e in outcome.controller_events if e.kind == "NODE_DECLARED_DEAD"
        ]
        assert len(declared) == 1
        # Death at 3.0, last beat in [2, 3], dead after 5 s of silence,
        # sweep every 1 s: declared within (7, 9] plus sweep phase.
        assert 7.0 < declared[0].time <= 9.1


class TestTransferFaults:
    def test_resilient_retry_completes_everything(self):
        outcome = run_chaos(
            file_size="1 MB",
            options=SimulationOptions(
                protocol=_Raw(),
                transfer_retry=TransferRetryPolicy.resilient(),
                seed=3,
            ),
            transfer_fault_rate=0.2,
        )
        assert outcome.tasks_completed == outcome.tasks_total
        assert outcome.extra["transfer_failures"] == 0
        # Retries actually happened: more attempts than transfers.
        counters = outcome.extra["metrics"]["counters"]
        assert counters["transfer.retries"] > 0
        assert counters["transfer.faults"] > 0

    def test_paper_faithful_faults_degrade_to_task_errors(self):
        outcome = run_chaos(
            file_size="1 MB",
            options=SimulationOptions(protocol=_Raw(), seed=3),
            transfer_fault_rate=0.4,
        )
        # Single-attempt transfers: some fail, tasks error out, the
        # erroring workers are isolated — but nothing crashes and the
        # books still balance.
        assert outcome.extra["transfer_failures"] > 0
        assert outcome.tasks_failed + outcome.tasks_lost >= 1
        resolved = (
            outcome.tasks_completed + outcome.tasks_failed + outcome.tasks_lost
        )
        assert resolved <= outcome.tasks_total
        failed = [r for r in outcome.task_records if not r.ok]
        assert any("fetch failed" in r.error for r in failed)

    def test_deterministic_under_chaos(self):
        outcomes = []
        for _ in range(2):
            outcome = run_chaos(
                file_size="1 MB",
                options=SimulationOptions(
                    protocol=_Raw(),
                    transfer_retry=TransferRetryPolicy.resilient(),
                    seed=7,
                ),
                transfer_fault_rate=0.3,
            )
            outcomes.append(
                (
                    outcome.makespan,
                    outcome.tasks_completed,
                    outcome.extra["transfer_attempts"],
                )
            )
        assert outcomes[0] == outcomes[1]


class TestLinkFaults:
    def test_blackout_window_slows_the_run(self):
        kw = dict(file_size="4 MB", n_files=8, cost=0.1)
        clean = run_chaos(**kw)
        faulted = run_chaos(
            **kw,
            link_fault_schedule=LinkFaultSchedule.of(
                (0.5, "worker1.down", 20.0, 0.0),
                (0.5, "worker2.down", 20.0, 0.0),
            ),
        )
        assert faulted.extra["link_faults"] == 2
        assert faulted.makespan > clean.makespan
        # Flows resume after the window: the run still completes fully.
        assert faulted.tasks_completed == faulted.tasks_total

    def test_random_link_faults_deterministic(self):
        kw = dict(file_size="2 MB", n_files=12, cost=1.0)
        runs = []
        for _ in range(2):
            outcome = run_chaos(
                **kw,
                options=SimulationOptions(protocol=_Raw(), seed=5),
                link_fault_mtbf=1.0,
                link_fault_outage=1.0,
            )
            runs.append((outcome.makespan, outcome.extra["link_faults"]))
        assert runs[0] == runs[1]
        assert runs[0][1] >= 1


class TestIsolationElasticity:
    def test_node_isolation_notifies_elasticity_manager(self):
        outcome = run_chaos(
            cost=2.0,
            failure_schedule=FailureSchedule.of((3.0, "worker1")),
            retry_policy=RetryPolicy.resilient(),
        )
        counters = outcome.extra["metrics"]["counters"]
        assert counters["elasticity.removed"] == 1


class TestInjectedWorkerDeath:
    """Task-keyed crash/hang hooks — the simulated twins of the real
    engines' ``crash_worker_on_task`` / ``hang_worker_on_task``."""

    def test_injected_crash_retried_on_survivor(self):
        outcome = run_chaos(
            n_files=6,
            cost=2.0,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            retry_policy=RetryPolicy.resilient(),
            crash_worker_on_task={"worker1:0": 1},
            multicore=False,
        )
        assert outcome.tasks_completed == outcome.tasks_total
        kinds = [e.kind for e in outcome.controller_events]
        assert "WORKER_FAILED" in kinds
        assert "NODE_DECLARED_DEAD" not in kinds  # connection-reported

    def test_injected_crash_without_retry_loses_tasks(self):
        outcome = run_chaos(
            n_files=6,
            cost=2.0,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            crash_worker_on_task={"worker1:0": 1},
            multicore=False,
        )
        assert outcome.tasks_lost >= 1
        assert outcome.tasks_completed + outcome.tasks_lost == outcome.tasks_total

    def test_injected_hang_detected_by_sweep(self):
        outcome = run_chaos(
            n_files=6,
            cost=2.0,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            options=heartbeat_options(),
            retry_policy=RetryPolicy.resilient(),
            hang_worker_on_task={"worker1:0": 1},
            multicore=False,
        )
        assert outcome.tasks_completed == outcome.tasks_total
        assert outcome.extra["nodes_declared_dead"] == ["worker1"]
        assert "NODE_DECLARED_DEAD" in [e.kind for e in outcome.controller_events]

    def test_injected_hang_without_heartbeats_rejected(self):
        with pytest.raises(ConfigurationError):
            run_chaos(
                n_files=6,
                hang_worker_on_task={"worker1:0": 1},
                multicore=False,
            )

    # A real-time worker draws through the same step with or without
    # prefetch; a crash during any draw must reach the loss handler.
    @pytest.mark.parametrize("prefetch_depth", [0, 1])
    def test_any_task_sentinel_fires_on_first_draw(self, prefetch_depth):
        outcome = run_chaos(
            n_files=6,
            cost=2.0,
            options=SimulationOptions(protocol=_Raw(), prefetch_depth=prefetch_depth),
            retry_policy=RetryPolicy.resilient(),
            crash_worker_on_task={"worker1:0": ANY_TASK},
            multicore=False,
        )
        assert outcome.tasks_completed == outcome.tasks_total
        assert "WORKER_FAILED" in [e.kind for e in outcome.controller_events]

    @pytest.mark.parametrize("prefetch_depth", [0, 1])
    def test_any_task_crash_without_retry_loses_the_task(self, prefetch_depth):
        outcome = run_chaos(
            n_files=6,
            cost=2.0,
            options=SimulationOptions(protocol=_Raw(), prefetch_depth=prefetch_depth),
            crash_worker_on_task={"worker1:0": ANY_TASK},
            multicore=False,
        )
        assert outcome.tasks_lost == 1
        assert outcome.tasks_completed + outcome.tasks_lost == outcome.tasks_total
