"""Unit tests for RunOutcome/TaskRecord and the Frieda facade."""

import math

import pytest

from repro.core.framework import Frieda, RunOutcome, TaskRecord
from repro.core.strategies import StrategyKind
from repro.data.partition import PartitionScheme


def outcome(makespan=10.0, completed=4, total=4, **kw):
    return RunOutcome(
        strategy=StrategyKind.REAL_TIME,
        grouping=PartitionScheme.SINGLE,
        makespan=makespan,
        transfer_time=kw.pop("transfer_time", 2.0),
        execution_time=kw.pop("execution_time", 8.0),
        tasks_total=total,
        tasks_completed=completed,
        **kw,
    )


class TestTaskRecord:
    def test_duration(self):
        record = TaskRecord(0, "w0", "n0", start=1.0, end=3.5, ok=True)
        assert record.duration == pytest.approx(2.5)


class TestRunOutcome:
    def test_all_tasks_ok(self):
        assert outcome().all_tasks_ok
        assert not outcome(completed=3).all_tasks_ok

    def test_throughput(self):
        assert outcome(makespan=10.0, completed=5, total=5).throughput_tasks_per_second == pytest.approx(0.5)

    def test_throughput_degenerate(self):
        assert math.isnan(outcome(makespan=0.0).throughput_tasks_per_second)

    def test_speedup_over(self):
        fast = outcome(makespan=10.0)
        slow = outcome(makespan=40.0)
        assert fast.speedup_over(slow) == pytest.approx(4.0)

    def test_speedup_degenerate(self):
        assert math.isnan(outcome(makespan=0.0).speedup_over(outcome()))

    def test_summary_line_content(self):
        line = outcome(tasks_lost=2).summary_line()
        assert "real_time" in line
        assert "lost=2" in line

    def test_summary_line_omits_zero_losses(self):
        assert "lost" not in outcome().summary_line()


class TestFacade:
    def test_engine_accessor(self):
        frieda = Frieda.local(num_workers=1)
        assert frieda.engine is not None

    def test_local_and_tcp_constructors(self):
        assert Frieda.local(num_workers=2).engine.num_workers == 2
        assert Frieda.tcp(num_workers=3).engine.num_workers == 3

    def test_simulated_constructor_default_spec(self):
        frieda = Frieda.simulated()
        assert frieda.engine.spec.num_workers == 4
