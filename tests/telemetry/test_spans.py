"""Unit tests for the telemetry hub: spans, events, rebinding, null path."""

from repro.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSpanLifecycle:
    def test_span_records_start_end_and_tags(self):
        clock = FakeClock()
        tel = Telemetry(clock, record=True)
        handle = tel.span("exec", worker="w0")
        clock.now = 5.0
        handle.end(ok=True)
        (span,) = tel.spans
        assert span.key == "exec"
        assert span.start == 0.0 and span.end == 5.0
        assert span.tags == (("ok", True), ("worker", "w0"))

    def test_context_manager_closes(self):
        clock = FakeClock()
        tel = Telemetry(clock, record=True)
        with tel.span("staging"):
            clock.now = 2.0
        assert tel.spans[0].end == 2.0

    def test_double_end_is_noop(self):
        tel = Telemetry(FakeClock(), record=True)
        handle = tel.span("x")
        handle.end()
        handle.end()
        assert len(tel.spans) == 1

    def test_parent_linkage_by_handle_and_record(self):
        tel = Telemetry(FakeClock(), record=True)
        root = tel.span("run")
        child = tel.span_complete("task", 0.0, 1.0, parent=root)
        grandchild = tel.span_complete("exec", 0.0, 0.5, parent=child)
        by_record = tel.span_complete("report", 0.5, 1.0, parent=tel.spans[0])
        task, exec_, report = tel.spans
        assert task.span_id == child and task.parent_id == root.span_id
        assert exec_.span_id == grandchild and exec_.parent_id == child
        assert report.span_id == by_record and report.parent_id == child

    def test_explicit_start_overrides_clock(self):
        clock = FakeClock()
        clock.now = 9.0
        tel = Telemetry(clock, record=True)
        handle = tel.span("task", start=4.0)
        handle.end()
        assert tel.spans[0].start == 4.0

    def test_ids_are_sequential_per_hub(self):
        tel = Telemetry(FakeClock(), record=True)
        a = tel.span_complete("a", 0, 1)
        b = tel.span_complete("b", 1, 2)
        assert (a, b) == (1, 2)
        assert [s.span_id for s in tel.spans] == [1, 2]

    def test_events_record_value_and_time(self):
        clock = FakeClock()
        clock.now = 3.0
        tel = Telemetry(clock, record=True)
        tel.event("vm.failed", "vm-2", cause="mttf")
        (event,) = tel.events
        assert event.time == 3.0
        assert event.value == "vm-2"
        assert event.tags == (("cause", "mttf"),)


class TestBindAndSinks:
    def test_rebind_run_label_stamps_subsequent_records(self):
        tel = Telemetry(FakeClock(), record=True)
        tel.bind(run="als:real_time")
        tel.span_complete("exec", 0, 1)
        tel.bind(run="als:pre_partitioned_remote")
        tel.span_complete("exec", 1, 2)
        assert [s.run for s in tel.spans] == [
            "als:real_time",
            "als:pre_partitioned_remote",
        ]

    def test_record_false_keeps_no_lists(self):
        tel = Telemetry(FakeClock())
        tel.span_complete("exec", 0, 1)
        tel.event("x")
        assert tel.spans == [] and tel.events == []

    def test_record_false_reads_no_clock_and_builds_no_row(self):
        reads = []

        def clock() -> float:
            reads.append(1)
            return 0.0

        tel = Telemetry(clock)
        tel.event("x", worker="w0")
        tel.span_complete("exec", 0.0, 1.0, worker="w0")
        handle = tel.span("task", start=0.0, worker="w0")
        handle.end(ok=True)
        assert reads == []
        assert len(tel.spans) == 0 and len(tel.events) == 0


class TestNullTelemetry:
    def test_all_operations_are_noops(self):
        handle = NULL_TELEMETRY.span("anything", worker="w0")
        handle.end(ok=True)
        with NULL_TELEMETRY.span("scoped"):
            pass
        assert NULL_TELEMETRY.span_complete("x", 0, 1) is None
        NULL_TELEMETRY.event("x", 1)
        NULL_TELEMETRY.bind(run="ignored")
        assert NULL_TELEMETRY.spans == [] and NULL_TELEMETRY.events == []

    def test_null_metrics_attached(self):
        counter = NULL_TELEMETRY.metrics.counter("whatever")
        counter.inc()
        assert len(NULL_TELEMETRY.metrics) == 0
