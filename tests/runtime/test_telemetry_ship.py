"""Integration tests: the distributed telemetry plane over TCP.

Workers run their own recording hubs and ship spans/metrics to the
master in ``TELEMETRY`` frames; the master folds them into per-worker
tracks at drain. These tests drive real TCP runs and assert on the
merged result — including through a mid-run crash/rejoin and through
injected wire corruption of the telemetry frames themselves.
"""

import time

import pytest

from repro.core.fault import ANY_TASK, RetryPolicy
from repro.runtime.faults import FaultRule, FaultScript
from repro.runtime.tcp import TcpEngine
from repro.telemetry import SloProbe, Telemetry, dump_chrome_trace


@pytest.fixture
def input_files(tmp_path):
    paths = []
    for i in range(6):
        path = tmp_path / f"in{i}.dat"
        path.write_bytes(bytes([i]) * (100 + i))
        paths.append(str(path))
    return paths


def worker_tracks(tel):
    """{track: {span keys}} for every worker:* track in the hub."""
    tracks = {}
    for span in tel.spans:
        if span.track.startswith("worker:"):
            tracks.setdefault(span.track, set()).add(span.key)
    return tracks


class TestWorkerShipping:
    def test_worker_spans_land_in_master_trace(self, input_files):
        tel = Telemetry(record=True)
        outcome = TcpEngine(
            num_workers=2, run_timeout=60, heartbeat_interval=0.05,
            telemetry_interval=0.1,
        ).run(input_files, command=lambda p: None, telemetry=tel)
        assert outcome.tasks_completed == 6
        assert outcome.extra["telemetry_batches"] >= 1
        tracks = worker_tracks(tel)
        assert set(tracks) == {"worker:tcp:0", "worker:tcp:1"}
        for keys in tracks.values():
            assert "task" in keys and "exec" in keys
        # Per-task accounting shipped from both workers.
        tasks = [s for s in tel.spans if s.key == "task"]
        assert len(tasks) == 6
        assert tel.metrics.counter("worker.tasks", ok=True).value == 6
        assert tel.metrics.histogram("task.exec_seconds").count == 6

    def test_clock_offsets_recorded_and_applied(self, input_files):
        tel = Telemetry(record=True)
        outcome = TcpEngine(
            num_workers=2, run_timeout=60, heartbeat_interval=0.05,
        ).run(
            input_files,
            command=lambda p: time.sleep(0.02),
            telemetry=tel,
        )
        offsets = outcome.extra["clock_offsets"]
        assert set(offsets) == {"tcp:0", "tcp:1"}
        # Worker clocks start after the master's: offsets are positive
        # and small (same process, same host).
        for offset in offsets.values():
            assert 0 <= offset < 5.0
        offset_events = {
            dict(e.tags)["worker"]: e.value
            for e in tel.events
            if e.key == "clock.offset"
        }
        assert offset_events == pytest.approx(offsets)
        # Merged spans sit on the master clock: no span may start
        # before the run span.
        run_start = min(s.start for s in tel.spans if s.key == "run")
        for span in tel.spans:
            assert span.start >= run_start

    def test_parent_links_survive_merge(self, input_files):
        tel = Telemetry(record=True)
        TcpEngine(num_workers=2, run_timeout=60).run(
            input_files, command=lambda p: None, telemetry=tel
        )
        by_id = {s.span_id: s for s in tel.spans}
        assert len(by_id) == len(tel.spans), "span ids must be unique after merge"
        execs = [s for s in tel.spans if s.key == "exec"]
        assert execs
        for span in execs:
            parent = by_id[span.parent_id]
            assert parent.key == "task"
            assert parent.track == span.track

    def test_disabled_telemetry_ships_nothing(self, input_files):
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files, command=lambda p: None
        )
        assert outcome.extra["telemetry_batches"] == 0
        assert outcome.extra["clock_offsets"] == {}


class TestCrashRejoin:
    def test_rejoined_worker_spans_present_after_midrun_crash(self, input_files):
        tel = Telemetry(record=True)
        outcome = TcpEngine(
            num_workers=2, run_timeout=60, heartbeat_interval=0.05,
            telemetry_interval=0.1,
        ).run(
            input_files,
            command=lambda p: time.sleep(0.1),
            retry_policy=RetryPolicy.resilient(),
            telemetry=tel,
            crash_worker_on_task={"tcp:0": ANY_TASK},
            respawn_after_crash={"tcp:0": 0.05},
        )
        assert outcome.tasks_completed == 6
        assert outcome.extra["late_joins"] == ["tcp:0:r1"]
        tracks = worker_tracks(tel)
        # The rejoined worker shipped its own track into the merge.
        assert "worker:tcp:0:r1" in tracks
        assert "exec" in tracks["worker:tcp:0:r1"]
        assert "tcp:0:r1" in outcome.extra["clock_offsets"]
        # And the whole thing still exports.
        assert "worker:tcp:0:r1" in dump_chrome_trace(tel)


class TestSloOverTcp:
    def test_probe_breaches_on_real_run(self, input_files):
        tel = Telemetry(record=True)
        outcome = TcpEngine(
            num_workers=2, run_timeout=60, telemetry_interval=0.05,
        ).run(
            input_files,
            command=lambda p: time.sleep(0.05),
            telemetry=tel,
            slo_probes=[
                SloProbe("lat", "task.latency_seconds.p99", "<", 1e-9),
                SloProbe("done", "run.completion_rate", ">=", 0.0),
            ],
        )
        breached = {b[0] for b in outcome.extra["slo_breaches"]}
        assert breached == {"lat"}
        assert any(e.key == "slo.breach" for e in tel.events)

    def test_probes_without_telemetry_hub_still_evaluate(self, input_files):
        outcome = TcpEngine(num_workers=2, run_timeout=60).run(
            input_files,
            command=lambda p: None,
            slo_probes=[SloProbe("depth", "queue.depth", "<", 0.5)],
        )
        # queue.depth gauge starts at 6 pending: the probe breaches even
        # though nothing records spans.
        assert [b[0] for b in outcome.extra["slo_breaches"]] == ["depth"]


class TestLossyTelemetry:
    def test_corrupt_telemetry_batch_dropped_not_retransmitted(self, input_files):
        tel = Telemetry(record=True)
        script = FaultScript(
            [FaultRule(action="corrupt", msg_type="TELEMETRY", side="worker")]
        )
        outcome = TcpEngine(
            num_workers=2, run_timeout=60, telemetry_interval=0.05,
        ).run(
            input_files,
            command=lambda p: time.sleep(0.02),
            telemetry=tel,
            fault_script=script,
        )
        assert outcome.tasks_completed == 6
        assert outcome.extra["telemetry_batches_dropped"] >= 1
        # Telemetry is lossy-tolerant: the data plane saw no retransmits.
        assert outcome.extra["retransmits"] == 0
        injected = {(s, a, m) for s, a, m, _ in script.injected}
        assert ("worker", "corrupt", "TELEMETRY") in injected
