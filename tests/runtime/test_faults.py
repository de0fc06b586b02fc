"""Unit tests for the scripted runtime fault model."""

import pytest

from repro.core.fault import ANY_TASK
from repro.core.messages import FileData, FileMetadata, RequestData
from repro.errors import ConfigurationError
from repro.runtime.faults import FaultRule, FaultScript


class TestFaultRule:
    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(action="explode")

    def test_bad_side_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(action="drop", side="bystander")

    def test_zero_times_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(action="drop", times=0)

    def test_matching_filters(self):
        rule = FaultRule(action="drop", msg_type="FILE_DATA", task_id=3, file_name="a")
        hit = FileData(task_id=3, file_name="a", payload_len=0)
        assert rule.matches("master", hit)
        assert not rule.matches("worker", hit)  # wrong side
        assert not rule.matches(
            "master", FileData(task_id=4, file_name="a", payload_len=0)
        )
        assert not rule.matches(
            "master", FileData(task_id=3, file_name="b", payload_len=0)
        )
        assert not rule.matches("master", RequestData(worker_id="w"))

    def test_empty_filters_match_anything_from_side(self):
        rule = FaultRule(action="drop")
        assert rule.matches("master", RequestData(worker_id="w"))
        assert rule.matches(
            "master", FileMetadata(task_id=1, file_names=("a",), sizes=(1,))
        )

    def test_rule_exhausts_after_times_firings(self):
        script = FaultScript([FaultRule(action="drop", times=2)])
        msg = RequestData(worker_id="w")
        for _ in range(2):
            rule = script.match("master", msg)
            assert rule is not None
            script.record("master", rule, msg)
        assert script.match("master", msg) is None
        assert rule.exhausted


class TestFaultScript:
    def test_injection_log_records_firings(self):
        script = FaultScript([FaultRule(action="corrupt", msg_type="FILE_DATA")])
        msg = FileData(task_id=7, file_name="x", payload_len=4)
        script.record("master", script.match("master", msg), msg)
        assert script.injected == [("master", "corrupt", "FILE_DATA", 7)]

    def test_seeded_draws_are_deterministic(self):
        a = FaultScript([FaultRule(action="corrupt")], seed=42)
        b = FaultScript([FaultRule(action="corrupt")], seed=42)
        assert [a.corrupt_position(100) for _ in range(5)] == [
            b.corrupt_position(100) for _ in range(5)
        ]
        assert a.truncate_fraction() == b.truncate_fraction()

    def test_truncate_fraction_mirrors_transfer_fault_model(self):
        script = FaultScript([FaultRule(action="truncate")])
        for _ in range(20):
            assert 0.05 <= script.truncate_fraction() <= 0.95

    def test_any_task_sentinel_is_not_a_real_task_id(self):
        assert ANY_TASK < 0
        assert ANY_TASK != -1  # -1 is the staging-push pseudo task
