"""Unit tests for the distributed telemetry plane: shipper, codec,
clock aligner, and merger."""

import pytest

from repro.errors import ProtocolError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.shipping import (
    BATCH_VERSION,
    ClockAligner,
    TelemetryMerger,
    TelemetryShipper,
    decode_batch,
    encode_batch,
)
from repro.telemetry.spans import Telemetry


def make_hub(t0=0.0):
    state = {"now": t0}
    tel = Telemetry(clock=lambda: state["now"], record=True, run="w")
    return tel, state


class TestShipper:
    def test_requires_recording_hub(self):
        with pytest.raises(ValueError):
            TelemetryShipper(Telemetry(record=False))

    def test_empty_hub_yields_no_batch(self):
        tel, _ = make_hub()
        assert TelemetryShipper(tel).take_batch() is None

    def test_batch_carries_only_new_records(self):
        tel, state = make_hub()
        shipper = TelemetryShipper(tel)
        with tel.span("task", track="worker:w", task=1):
            state["now"] = 1.0
        first = shipper.take_batch()
        assert first["seq"] == 1
        assert len(first["spans"]) == 1
        assert first["spans"][0][2] == "task"
        # Nothing new: no batch at all.
        assert shipper.take_batch() is None
        tel.event("x", 1, track="worker:w")
        second = shipper.take_batch()
        assert second["seq"] == 2
        assert second["spans"] == []
        assert len(second["events"]) == 1

    def test_counter_and_histogram_deltas(self):
        tel, _ = make_hub()
        shipper = TelemetryShipper(tel)
        tel.metrics.counter("c").inc(2)
        tel.metrics.histogram("h", buckets=(1.0,)).observe(0.5)
        b1 = shipper.take_batch()
        assert b1["counters"]["c"] == 2
        assert b1["hists"]["h"]["count"] == 1
        tel.metrics.counter("c").inc(3)
        tel.metrics.histogram("h").observe(0.5)
        b2 = shipper.take_batch()
        # Deltas, not totals.
        assert b2["counters"]["c"] == 3
        assert b2["hists"]["h"]["count"] == 1
        assert b2["hists"]["h"]["counts"] == [1, 0]

    def test_unchanged_metrics_not_reshipped(self):
        tel, _ = make_hub()
        shipper = TelemetryShipper(tel)
        tel.metrics.counter("c").inc()
        shipper.take_batch()
        tel.event("tick", track="worker:w")
        batch = shipper.take_batch()
        assert batch["counters"] == {}
        assert batch["hists"] == {}


class TestCodec:
    def test_round_trip(self):
        tel, _ = make_hub()
        shipper = TelemetryShipper(tel)
        tel.metrics.counter("c").inc()
        with tel.span("task", track="worker:w"):
            pass
        batch = shipper.take_batch()
        assert decode_batch(encode_batch(batch)) == batch

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError):
            decode_batch(b"\xff\xfe not json")
        with pytest.raises(ProtocolError):
            decode_batch(b'"a string"')

    def test_wrong_version_rejected(self):
        bad = encode_batch(
            {"v": BATCH_VERSION + 1, "seq": 1, "spans": [], "events": [],
             "counters": {}, "gauges": {}, "hists": {}}
        )
        with pytest.raises(ProtocolError):
            decode_batch(bad)

    def test_missing_field_rejected(self):
        bad = encode_batch({"v": BATCH_VERSION, "seq": 1, "spans": []})
        with pytest.raises(ProtocolError):
            decode_batch(bad)


class TestClockAligner:
    def test_min_delay_wins(self):
        aligner = ClockAligner()
        # offset 10 plus delays 0.3 / 0.1 / 0.5: min is the estimate.
        aligner.observe("w", 1.0, 11.3)
        aligner.observe("w", 2.0, 12.1)
        aligner.observe("w", 3.0, 13.5)
        assert aligner.offset("w") == pytest.approx(10.1)

    def test_negative_sent_at_skipped(self):
        aligner = ClockAligner()
        aligner.observe("w", -1.0, 5.0)
        assert aligner.offset("w") == 0.0

    def test_unknown_worker_offset_is_zero(self):
        assert ClockAligner().offset("nope") == 0.0

    def test_single_pair_degrades_to_zero_and_counts(self):
        """One pair cannot separate offset from delay: degrade, count."""
        metrics = MetricsRegistry()
        aligner = ClockAligner(metrics=metrics)
        aligner.observe("w", 1.0, 11.3)
        assert aligner.pairs("w") == 1
        assert aligner.offset("w") == 0.0
        assert metrics.counter("telemetry.unaligned").value == 1

    def test_zero_pairs_degrades_and_counts(self):
        metrics = MetricsRegistry()
        aligner = ClockAligner(metrics=metrics)
        assert aligner.offset("w") == 0.0
        assert metrics.counter("telemetry.unaligned").value == 1

    def test_negative_min_delta_degrades_and_counts(self):
        """A worker clock stepping backwards mid-run produces a negative
        minimum delta; the estimate is inconsistent, not just skewed."""
        metrics = MetricsRegistry()
        aligner = ClockAligner(metrics=metrics)
        aligner.observe("w", 1.0, 11.0)
        aligner.observe("w", 20.0, 12.0)  # delta -8: clock stepped back
        assert aligner.pairs("w") == 2
        assert aligner.offset("w") == 0.0
        assert metrics.counter("telemetry.unaligned").value == 1

    def test_two_good_pairs_align(self):
        metrics = MetricsRegistry()
        aligner = ClockAligner(metrics=metrics)
        aligner.observe("w", 1.0, 11.3)
        aligner.observe("w", 2.0, 12.1)
        assert aligner.offset("w") == pytest.approx(10.1)
        assert metrics.counter("telemetry.unaligned").value == 0

    def test_merger_counts_unaligned_in_run_metrics(self):
        """A fold over a worker with one heartbeat pair must leave the
        degradation visible in the merged registry."""
        master = Telemetry(record=True, clock=lambda: 0.0)
        merger = TelemetryMerger(master)
        worker = Telemetry(record=True, clock=lambda: 1.0)
        worker.event("worker.start", 1)
        shipper = TelemetryShipper(worker)
        merger.add_batch("w0", shipper.take_batch())
        merger.observe_clock("w0", 1.0, 51.2)  # only one pair
        offsets = merger.fold()
        assert offsets == {"w0": 0.0}
        assert master.metrics.counter("telemetry.unaligned").value == 1


class TestMerger:
    def test_requires_recording_hub(self):
        with pytest.raises(ValueError):
            TelemetryMerger(Telemetry(record=False))

    def ship_one(self, *, offset_pairs=(), task=1, t0=0.0):
        """One worker hub with one task span tree, shipped as batches."""
        wtel, state = make_hub(t0)
        shipper = TelemetryShipper(wtel)
        parent = wtel.span("task", track="worker:w0", task=task)
        state["now"] = t0 + 1.0
        child = wtel.span("exec", parent=parent, track="worker:w0")
        state["now"] = t0 + 2.0
        child.end()
        parent.end()
        wtel.metrics.counter("worker.tasks").inc()
        wtel.metrics.histogram("task.exec_seconds", buckets=(1.0, 10.0)).observe(1.0)
        return shipper.take_batch()

    def test_fold_remaps_ids_and_applies_offset(self):
        master = Telemetry(clock=lambda: 100.0, record=True, run="run")
        # Burn some ids so worker ids would collide without remapping.
        with master.span("run", track="control"):
            pass
        merger = TelemetryMerger(master)
        merger.observe_clock("w0", 1.0, 51.2)
        merger.observe_clock("w0", 2.0, 52.1)  # min delta 50.1
        merger.add_batch("w0", self.ship_one())
        offsets = merger.fold()
        assert offsets == {"w0": pytest.approx(50.1)}
        spans = {s.key: s for s in master.spans if s.track == "worker:w0"}
        assert spans["task"].start == pytest.approx(50.1)
        assert spans["exec"].start == pytest.approx(51.1)
        # Parent link survives remapping onto fresh master ids.
        assert spans["exec"].parent_id == spans["task"].span_id
        ids = [s.span_id for s in master.spans]
        assert len(ids) == len(set(ids))
        # The applied offset is recorded in the trace.
        offset_events = [e for e in master.events if e.key == "clock.offset"]
        assert len(offset_events) == 1
        assert offset_events[0].value == pytest.approx(50.1)

    def test_duplicate_batches_ignored(self):
        master = Telemetry(clock=lambda: 0.0, record=True)
        merger = TelemetryMerger(master)
        batch = self.ship_one()
        merger.add_batch("w0", batch)
        merger.add_batch("w0", batch)
        assert merger.batches_received == 1
        merger.fold()
        assert master.metrics.counter("worker.tasks").value == 1

    def test_counters_and_hists_merge_additively(self):
        master = Telemetry(clock=lambda: 0.0, record=True)
        master.metrics.counter("worker.tasks").inc(5)
        master.metrics.histogram("task.exec_seconds", buckets=(1.0, 10.0)).observe(0.5)
        merger = TelemetryMerger(master)
        merger.add_batch("w0", self.ship_one())
        merger.fold()
        assert master.metrics.counter("worker.tasks").value == 6
        hist = master.metrics.histogram("task.exec_seconds")
        assert hist.count == 2

    def test_bucket_mismatch_is_counted_never_rebucketed(self):
        master = Telemetry(clock=lambda: 0.0, record=True)
        master.metrics.histogram("task.exec_seconds", buckets=(7.0,)).observe(0.5)
        merger = TelemetryMerger(master)
        merger.add_batch("w0", self.ship_one())  # ships buckets (1.0, 10.0)
        merger.fold()
        assert merger.merge_conflicts == 1
        hist = master.metrics.histogram("task.exec_seconds")
        assert hist.buckets == (7.0,)
        assert hist.count == 1  # worker data dropped, not rebucketed

    def test_fold_order_is_deterministic_across_arrival_orders(self):
        def merged(arrival):
            master = Telemetry(clock=lambda: 0.0, record=True, run="run")
            merger = TelemetryMerger(master)
            batches = {
                "w0": self.ship_one(task=1, t0=0.0),
                "w1": self.ship_one(task=2, t0=5.0),
            }
            for wid in arrival:
                merger.add_batch(wid, batches[wid])
            merger.fold()
            return [
                (s.span_id, s.key, s.start, s.track) for s in master.spans
            ]

        assert merged(["w0", "w1"]) == merged(["w1", "w0"])
