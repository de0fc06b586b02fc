"""Unit tests for worker-side logic."""

import pytest

from repro.core.commands import CommandTemplate
from repro.core.worker import WorkerLogic
from repro.errors import ProtocolError


@pytest.fixture
def logic():
    return WorkerLogic(
        "n0:0", "n0", CommandTemplate(template="cmp $inp1 $inp2"), scratch_dir="/scratch"
    )


class TestDataTracking:
    def test_missing_files(self, logic):
        logic.receive_file("a")
        assert logic.missing_files(["a", "b"]) == ("b",)

    def test_resolve_path_uses_scratch(self, logic):
        assert logic.resolve_path("x.dat") == "/scratch/x.dat"

    def test_resolve_path_override_wins(self, logic):
        logic.receive_file("x.dat", path="/data/orig/x.dat")
        assert logic.resolve_path("x.dat") == "/data/orig/x.dat"

    def test_resolve_without_scratch(self):
        logic = WorkerLogic("w", "n")
        assert logic.resolve_path("x") == "x"


class TestExecutionLifecycle:
    def test_begin_requires_inputs_present(self, logic):
        with pytest.raises(ProtocolError):
            logic.begin_task(0, ["a", "b"], now=0.0)

    def test_begin_renders_command(self, logic):
        logic.receive_file("a")
        logic.receive_file("b")
        record = logic.begin_task(0, ["a", "b"], now=1.0)
        assert record.command == "cmp /scratch/a /scratch/b"

    def test_concurrent_tasks_rejected(self, logic):
        logic.receive_file("a")
        logic.receive_file("b")
        logic.begin_task(0, ["a", "b"], now=0.0)
        with pytest.raises(ProtocolError):
            logic.begin_task(1, ["a", "b"], now=0.0)

    def test_finish_without_task_rejected(self, logic):
        with pytest.raises(ProtocolError):
            logic.finish_task(1.0)

    def test_finish_records_duration(self, logic):
        logic.receive_file("a")
        logic.receive_file("b")
        logic.begin_task(0, ["a", "b"], now=2.0)
        record = logic.finish_task(5.0)
        assert record.duration == pytest.approx(3.0)
        assert record.ok is True
        assert logic.tasks_completed == 1

    def test_abort_closes_failed(self, logic):
        logic.receive_file("a")
        logic.receive_file("b")
        logic.begin_task(0, ["a", "b"], now=2.0)
        record = logic.abort_task(4.0, "vm died")
        assert record.ok is False
        assert record.error == "vm died"
        assert logic.tasks_completed == 0

    def test_abort_with_no_task_is_noop(self, logic):
        assert logic.abort_task(1.0, "x") is None

    def test_busy_time_sums(self, logic):
        logic.receive_file("a")
        logic.receive_file("b")
        for i in range(2):
            logic.begin_task(i, ["a", "b"], now=float(i * 10))
            logic.finish_task(float(i * 10 + 4))
        assert logic.busy_time == pytest.approx(8.0)

    def test_callable_command_rendering(self):
        logic = WorkerLogic("w", "n", CommandTemplate(function=print))
        logic.receive_file("a")
        record = logic.begin_task(0, ["a"], now=0.0)
        assert "print" in record.command

    def test_no_command_join_paths(self):
        logic = WorkerLogic("w", "n", None)
        logic.receive_file("a")
        record = logic.begin_task(0, ["a"], now=0.0)
        assert record.command == "a"
