"""Tests for run reports, timelines, and ASCII figure plots."""

import json

import pytest

from repro.cloud.cluster import ClusterSpec
from repro.core.fault import ANY_TASK
from repro.core.strategies import StrategyKind
from repro.data.files import synthetic_dataset
from repro.data.partition import PartitionScheme
from repro.engines.compute import FixedComputeModel
from repro.engines.simulated import SimulatedEngine
from repro.experiments.plots import Bar, fig6_plot, fig7_plot, stacked_bars
from repro.experiments.report import outcome_to_dict, outcome_to_json, save_report, timeline


@pytest.fixture(scope="module")
def outcome():
    return SimulatedEngine(ClusterSpec(num_workers=2)).run(
        synthetic_dataset("r", 8, "1 MB"),
        compute_model=FixedComputeModel(1.0),
        strategy=StrategyKind.REAL_TIME,
        grouping=PartitionScheme.SINGLE,
    )


class TestReport:
    def test_dict_round_trips_through_json(self, outcome):
        payload = json.loads(outcome_to_json(outcome))
        assert payload == outcome_to_dict(outcome)

    def test_core_fields_present(self, outcome):
        payload = outcome_to_dict(outcome)
        assert payload["strategy"] == "real_time"
        assert payload["tasks"]["completed"] == 8
        assert len(payload["task_records"]) == 8
        assert payload["cost_total"] > 0

    def test_elasticity_log_serialises(self):
        # A run that loses a node carries ScaleEvent records in its
        # extras; the report must still be JSON.
        lossy = SimulatedEngine(ClusterSpec(num_workers=2)).run(
            synthetic_dataset("r", 4, "1 MB"),
            compute_model=FixedComputeModel(1.0),
            strategy=StrategyKind.REAL_TIME,
            grouping=PartitionScheme.SINGLE,
            multicore=False,
            crash_worker_on_task={"worker1:0": ANY_TASK},
        )
        (event,) = lossy.extra["elasticity_events"]
        payload = json.loads(outcome_to_json(lossy))
        assert payload["extra"]["elasticity_events"] == [
            {"time": event.time, "action": "remove", "node_id": "worker1",
             "reason": "fault-isolation"}
        ]

    def test_save_report(self, outcome, tmp_path):
        path = str(tmp_path / "report.json")
        save_report(outcome, path)
        with open(path) as fh:
            assert json.load(fh)["tasks"]["total"] == 8


class TestTimeline:
    def test_timeline_has_row_per_worker(self, outcome):
        text = timeline(outcome)
        lines = text.splitlines()
        assert len(lines) == 1 + len(outcome.worker_busy)

    def test_timeline_marks_tasks(self, outcome):
        text = timeline(outcome)
        assert any(ch.isdigit() for ch in text)

    def test_relative_origin(self, outcome):
        assert "timeline: 0.0s" in timeline(outcome)

    def test_width_validation(self, outcome):
        with pytest.raises(ValueError):
            timeline(outcome, width=5)

    def test_failed_tasks_marked_x(self):
        from repro.cloud.failures import FailureSchedule

        failed = SimulatedEngine(ClusterSpec(num_workers=2)).run(
            synthetic_dataset("f", 16, "1 KB"),
            compute_model=FixedComputeModel(3.0),
            strategy=StrategyKind.REAL_TIME,
            failure_schedule=FailureSchedule.of((2.0, "worker1")),
        )
        assert "x" in timeline(failed)


class TestPlots:
    def test_stacked_bars_scale_to_longest(self):
        text = stacked_bars("demo", [Bar("long", 10, 10), Bar("short", 0, 1)])
        long_line = next(l for l in text.splitlines() if l.strip().startswith("long"))
        short_line = next(l for l in text.splitlines() if l.strip().startswith("short"))
        assert long_line.count("█") + long_line.count("▒") > short_line.count("█")

    def test_nonzero_segment_always_visible(self):
        text = stacked_bars("demo", [Bar("a", 1000, 0.001), Bar("b", 0, 1000)])
        a_line = next(l for l in text.splitlines() if l.strip().startswith("a"))
        assert "█" in a_line  # the tiny execution segment still shows

    def test_empty_bars(self):
        assert "(no data)" in stacked_bars("empty", [])

    def test_width_validation(self):
        with pytest.raises(ValueError):
            stacked_bars("w", [Bar("a", 1, 1)], width=5)

    def test_fig6_and_fig7_plots_render(self):
        from repro.experiments.fig6 import run_fig6
        from repro.experiments.fig7 import run_fig7

        fig6_text = fig6_plot(run_fig6(0.02), 0.02)
        fig7_text = fig7_plot(run_fig7(0.02), 0.02)
        assert "Figure 6a" in fig6_text and "Figure 6b" in fig6_text
        assert "Figure 7a" in fig7_text and "Figure 7b" in fig7_text
        assert "legend" in fig6_text
