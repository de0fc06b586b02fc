"""Unit tests for heartbeat monitoring and recovery planning."""

import pytest

from repro.core.monitoring import (
    HeartbeatConfig,
    HeartbeatMonitor,
    Liveness,
    RecoveryPlan,
)


class TestHeartbeatConfig:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            HeartbeatConfig(suspect_after=10, dead_after=5)
        with pytest.raises(ValueError):
            HeartbeatConfig(suspect_after=0, dead_after=5)


class TestHeartbeatMonitor:
    @pytest.fixture
    def monitor(self):
        return HeartbeatMonitor(HeartbeatConfig(suspect_after=5, dead_after=15))

    def test_unknown_component(self, monitor):
        assert monitor.liveness("ghost", 0.0) is Liveness.UNKNOWN

    def test_healthy_within_threshold(self, monitor):
        monitor.beat("w0", 10.0)
        assert monitor.liveness("w0", 14.0) is Liveness.HEALTHY

    def test_suspected_after_silence(self, monitor):
        monitor.beat("w0", 10.0)
        assert monitor.liveness("w0", 16.0) is Liveness.SUSPECTED

    def test_dead_after_long_silence(self, monitor):
        monitor.beat("w0", 10.0)
        assert monitor.liveness("w0", 26.0) is Liveness.DEAD

    def test_suspected_component_recovers_on_beat(self, monitor):
        monitor.beat("w0", 10.0)
        assert monitor.liveness("w0", 16.0) is Liveness.SUSPECTED
        monitor.beat("w0", 17.0)
        assert monitor.liveness("w0", 18.0) is Liveness.HEALTHY

    def test_dead_stays_dead_despite_beats(self, monitor):
        monitor.beat("w0", 0.0)
        monitor.sweep(20.0)  # declares w0 dead
        assert monitor.liveness("w0", 20.0) is Liveness.DEAD
        monitor.beat("w0", 21.0)  # ignored: must re-register
        assert monitor.liveness("w0", 21.5) is Liveness.DEAD

    def test_liveness_is_pure(self, monitor):
        """Reading DEAD does not declare death; only sweep() does."""
        monitor.beat("w0", 0.0)
        assert monitor.liveness("w0", 20.0) is Liveness.DEAD
        monitor.beat("w0", 21.0)  # never declared, so the beat lands
        assert monitor.liveness("w0", 21.5) is Liveness.HEALTHY

    def test_forget_allows_reregistration(self, monitor):
        monitor.beat("w0", 0.0)
        monitor.sweep(20.0)  # declared dead
        monitor.forget("w0")
        monitor.beat("w0", 30.0)
        assert monitor.liveness("w0", 31.0) is Liveness.HEALTHY

    def test_stale_beat_ignored_and_counted(self):
        from repro.telemetry.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        monitor = HeartbeatMonitor(
            HeartbeatConfig(suspect_after=5, dead_after=15), metrics=metrics
        )
        monitor.beat("w0", 10.0)
        monitor.beat("w0", 5.0)  # threaded-runtime clock race: benign
        assert monitor.liveness("w0", 14.0) is Liveness.HEALTHY
        assert metrics.counter("heartbeat.stale").value == 1
        assert metrics.counter("heartbeat.beats").value == 1

    def test_sweep_counts_transitions_not_observations(self):
        from repro.telemetry.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        monitor = HeartbeatMonitor(
            HeartbeatConfig(suspect_after=5, dead_after=15), metrics=metrics
        )
        monitor.beat("w0", 0.0)
        monitor.sweep(6.0)
        monitor.sweep(7.0)  # still suspected: no second increment
        assert metrics.counter("heartbeat.suspected").value == 1
        monitor.sweep(20.0)
        monitor.sweep(21.0)  # still dead: no second increment
        assert metrics.counter("heartbeat.dead").value == 1

    def test_sweep_classifies_everyone(self, monitor):
        monitor.beat("a", 0.0)
        monitor.beat("b", 10.0)
        states = monitor.sweep(16.0)
        assert states["a"] is Liveness.DEAD
        assert states["b"] is Liveness.SUSPECTED


class TestRecoveryPlan:
    def test_live_component_no_action(self):
        plan = RecoveryPlan()
        assert plan.decide("w0", Liveness.HEALTHY).action == "none"

    def test_dead_worker_isolated(self):
        plan = RecoveryPlan()
        action = plan.decide("w0", Liveness.DEAD)
        assert action.action == "isolate_worker"

    def test_dead_master_without_recovery_terminal(self):
        plan = RecoveryPlan(master_id="m", restart_master=False)
        action = plan.decide("m", Liveness.DEAD)
        assert action.action == "none"
        assert "single point of failure" in action.reason

    def test_dead_master_with_recovery_restarts(self):
        plan = RecoveryPlan(master_id="m", restart_master=True)
        assert plan.decide("m", Liveness.DEAD).action == "restart_master"
