"""Observability on the simulated engine: deterministic merged traces,
sampled gauges, and SLO probes over simulated time."""

from repro.cloud.cluster import ClusterSpec
from repro.core.strategies import StrategyKind
from repro.data.files import synthetic_dataset
from repro.engines.compute import FixedComputeModel
from repro.engines.simulated import SimulatedEngine, SimulationOptions
from repro.telemetry import (
    SloProbe,
    Telemetry,
    dump_chrome_trace,
    dump_metrics_json,
)
from repro.transfer.base import TransferProtocol


class _Raw(TransferProtocol):
    handshake_latency = 0.0
    efficiency = 1.0
    streams = 1


def run_traced(*, seed=7, slo_probes=(), sample_interval=0.0, **kwargs):
    tel = Telemetry(record=True)
    engine = SimulatedEngine(
        ClusterSpec(num_workers=2),
        SimulationOptions(
            protocol=_Raw(),
            heartbeat_interval=1.0,
            slo_probes=tuple(slo_probes),
            sample_interval=sample_interval,
            seed=seed,
        ),
    )
    dataset = synthetic_dataset("obs", 6, "1 MB")
    outcome = engine.run(
        dataset,
        compute_model=FixedComputeModel(3.0),
        strategy=StrategyKind.REAL_TIME,
        telemetry=tel,
        **kwargs,
    )
    return outcome, tel


class TestDeterministicTraces:
    def test_same_seed_byte_identical_trace_and_metrics(self):
        _, tel_a = run_traced(seed=11)
        _, tel_b = run_traced(seed=11)
        assert dump_chrome_trace(tel_a) == dump_chrome_trace(tel_b)
        assert dump_metrics_json(tel_a.metrics) == dump_metrics_json(tel_b.metrics)

    def test_slo_breach_values_are_deterministic(self):
        probes = [SloProbe("lat", "task.latency_seconds.p99", "<", 1e-6)]
        out_a, _ = run_traced(seed=3, slo_probes=probes)
        out_b, _ = run_traced(seed=3, slo_probes=probes)
        assert out_a.extra["slo_breaches"] == out_b.extra["slo_breaches"]
        assert out_a.extra["slo_breaches"]


class TestSampledSignals:
    def test_queue_depth_sampled_on_sim_clock(self):
        import pytest

        _, tel = run_traced(sample_interval=0.5)
        times = [e.time for e in tel.events if e.key == "queue.depth"]
        assert times
        # Fixed sim-time cadence: consecutive samples sit exactly one
        # interval apart — no wall-clock jitter can leak in.
        for earlier, later in zip(times, times[1:]):
            assert later - earlier == pytest.approx(0.5)

    def test_latency_histograms_populated(self):
        _, tel = run_traced()
        lat = tel.metrics.histogram("task.latency_seconds")
        wait = tel.metrics.histogram("queue.wait_seconds")
        assert lat.count == 6
        assert wait.count == 6
        assert lat.quantile(0.99) >= lat.quantile(0.50) > 0


class TestSimSlo:
    def test_edge_triggered_breach_in_outcome_extra(self):
        probes = [
            SloProbe("lat", "task.latency_seconds.p99", "<", 1e-6),
            SloProbe("done", "run.completion_rate", ">=", 0.0),
        ]
        outcome, tel = run_traced(slo_probes=probes)
        breached = {b[0] for b in outcome.extra["slo_breaches"]}
        assert breached == {"lat"}
        assert sum(1 for e in tel.events if e.key == "slo.breach") == 1

    def test_probes_without_recording_hub(self):
        # No ``telemetry=`` hub: probes still evaluate against the
        # engine's private metrics registry. The completion-rate gauge
        # sits below target until the run finishes, then recovers —
        # the mid-run breach stays on the record.
        engine = SimulatedEngine(
            ClusterSpec(num_workers=2),
            SimulationOptions(
                protocol=_Raw(),
                slo_probes=(SloProbe("done", "run.completion_rate", ">=", 0.99),),
                sample_interval=0.25,
                seed=1,
            ),
        )
        outcome = engine.run(
            synthetic_dataset("obs", 6, "1 MB"),
            compute_model=FixedComputeModel(5.0),
        )
        assert [b[0] for b in outcome.extra["slo_breaches"]] == ["done"]


class TestRecordVolume:
    def test_skewed_pull_records_no_per_flow_rate_instants(self):
        # Unequal files on one shared master uplink: every completion
        # changes every other flow's max-min rate. The record must stay
        # one span per flow, not one instant per flow per replan.
        tasks = 256
        tel = Telemetry(record=True)
        outcome = SimulatedEngine(ClusterSpec(num_workers=64)).run(
            synthetic_dataset("skew", tasks, "64 KB", size_cv=0.01),
            compute_model=FixedComputeModel(1.0),
            strategy=StrategyKind.REAL_TIME,
            telemetry=tel,
        )
        assert outcome.tasks_completed == tasks
        assert not [e for e in tel.events if e.key == "flow.rate"]
        assert len(tel.events) <= 2 * tasks
        # Every task pulls its input over at least one retired flow.
        assert sum(1 for s in tel.spans if s.key == "flow") >= tasks
