"""Unit tests for the adaptive strategy advisor (extension)."""

import pytest

from repro.core.advisor import RunRecord, StrategyAdvisor, WorkloadFeatures
from repro.core.strategies import StrategyKind
from repro.errors import ConfigurationError


def record(app, strategy, makespan):
    return RunRecord(app_name=app, strategy=strategy, makespan=makespan)


class TestColdStart:
    def test_default_is_real_time(self):
        assert StrategyAdvisor().recommend("new-app") is StrategyKind.REAL_TIME

    def test_transfer_bound_prefers_real_time(self):
        features = WorkloadFeatures(bytes_per_compute_second=10e6, task_cost_cv=0.0)
        assert StrategyAdvisor().recommend("als", features) is StrategyKind.REAL_TIME

    def test_skewed_compute_prefers_real_time(self):
        features = WorkloadFeatures(bytes_per_compute_second=100.0, task_cost_cv=0.5)
        assert StrategyAdvisor().recommend("blast", features) is StrategyKind.REAL_TIME

    def test_uniform_compute_bound_prefers_pre_partitioned(self):
        features = WorkloadFeatures(bytes_per_compute_second=100.0, task_cost_cv=0.01)
        assert (
            StrategyAdvisor().recommend("uniform", features)
            is StrategyKind.PRE_PARTITIONED_REMOTE
        )


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"bytes_per_compute_second": -5.0}, "bytes_per_compute_second"),
        ({"bytes_per_compute_second": float("nan")}, "bytes_per_compute_second"),
        ({"bytes_per_compute_second": 1.0, "task_cost_cv": -2.0}, "task_cost_cv"),
        ({"bytes_per_compute_second": 1.0, "task_cost_cv": float("inf")}, "task_cost_cv"),
    ],
    ids=["negative-bytes", "nan-bytes", "negative-cv", "infinite-cv"],
)
def test_impossible_features_are_rejected(kwargs, field):
    with pytest.raises(ConfigurationError, match=field):
        WorkloadFeatures(**kwargs)


class TestHistory:
    def test_best_observed_strategy_wins(self):
        advisor = StrategyAdvisor()
        advisor.record(record("app", StrategyKind.PRE_PARTITIONED_REMOTE, 100.0))
        advisor.record(record("app", StrategyKind.REAL_TIME, 80.0))
        assert advisor.recommend("app") is StrategyKind.REAL_TIME

    def test_history_beats_features(self):
        advisor = StrategyAdvisor()
        advisor.record(record("app", StrategyKind.PRE_PARTITIONED_LOCAL, 10.0))
        features = WorkloadFeatures(bytes_per_compute_second=10e6)
        assert advisor.recommend("app", features) is StrategyKind.PRE_PARTITIONED_LOCAL

    def test_means_across_repeats(self):
        advisor = StrategyAdvisor()
        advisor.record(record("app", StrategyKind.REAL_TIME, 100.0))
        advisor.record(record("app", StrategyKind.REAL_TIME, 60.0))
        advisor.record(record("app", StrategyKind.PRE_PARTITIONED_REMOTE, 85.0))
        observed = advisor.observed_strategies("app")
        assert observed[StrategyKind.REAL_TIME] == 80.0
        assert advisor.recommend("app") is StrategyKind.REAL_TIME

    def test_histories_per_app_isolated(self):
        advisor = StrategyAdvisor()
        advisor.record(record("a", StrategyKind.REAL_TIME, 10.0))
        advisor.record(record("b", StrategyKind.PRE_PARTITIONED_REMOTE, 10.0))
        assert advisor.recommend("a") is StrategyKind.REAL_TIME
        assert advisor.recommend("b") is StrategyKind.PRE_PARTITIONED_REMOTE

    def test_records_list_kept(self):
        advisor = StrategyAdvisor()
        advisor.record(record("a", StrategyKind.REAL_TIME, 10.0))
        assert len(advisor.records) == 1
