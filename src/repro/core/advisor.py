"""Adaptive strategy selection from execution history (extension).

§V-A ("Intelligent") and §VII both promise future work where FRIEDA
"selects the best data management strategy based on past executions of
an application". :class:`StrategyAdvisor` implements that: it keeps
:class:`RunRecord` history per application and recommends the strategy
with the best observed makespan; with no history it falls back to a
workload-feature heuristic derived from the paper's own findings:

- transfer-dominated workloads (ALS-like, bytes/flop high) → real-time
  (overlap hides the transfer, Fig 6a),
- compute-dominated workloads (BLAST-like) with variable task costs →
  real-time (load balancing, Fig 6b),
- compute-dominated with uniform task costs → pre-partitioned
  (no pull round-trips, §III-A: "works best if every computation is
  more or less identical").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from repro.core.strategies import StrategyKind
from repro.errors import ConfigurationError
from repro.util.stats import RunningStats


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one past execution."""

    app_name: str
    strategy: StrategyKind
    makespan: float
    transfer_time: float = 0.0
    execution_time: float = 0.0
    tasks: int = 0


@dataclass(frozen=True)
class WorkloadFeatures:
    """Coarse workload description for the cold-start heuristic."""

    #: Bytes moved per second of single-core compute.
    bytes_per_compute_second: float
    #: Coefficient of variation of per-task compute cost.
    task_cost_cv: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"{f.name} must be finite and >= 0, got {value!r}"
                )


class StrategyAdvisor:
    """Recommends a strategy from history, else from workload features."""

    #: Above this many transfer-bytes per compute-second, the workload is
    #: transfer-bound on a 100 Mbit/s-class link (12.5 MB/s).
    TRANSFER_BOUND_THRESHOLD = 1.25e6  # 10% of a 100 Mbit link
    #: Task-cost CV above which static chunks straggle noticeably.
    SKEW_THRESHOLD = 0.25

    def __init__(self) -> None:
        self._history: dict[tuple[str, StrategyKind], RunningStats] = {}
        self.records: list[RunRecord] = []

    def record(self, record: RunRecord) -> None:
        """Fold one finished run into the history."""
        self.records.append(record)
        key = (record.app_name, record.strategy)
        self._history.setdefault(key, RunningStats()).add(record.makespan)

    def observed_strategies(self, app_name: str) -> dict[StrategyKind, float]:
        """Mean makespan per strategy seen for this application."""
        return {
            strategy: stats.mean
            for (app, strategy), stats in self._history.items()
            if app == app_name and stats.count > 0
        }

    def recommend(
        self,
        app_name: str,
        features: Optional[WorkloadFeatures] = None,
    ) -> StrategyKind:
        """Best-known strategy for the application.

        History wins when present (lowest mean makespan); otherwise the
        feature heuristic; otherwise real-time (the paper's overall
        winner in §IV-B).
        """
        observed = self.observed_strategies(app_name)
        if observed:
            return min(observed.items(), key=lambda kv: kv[1])[0]
        if features is not None:
            if features.bytes_per_compute_second >= self.TRANSFER_BOUND_THRESHOLD:
                return StrategyKind.REAL_TIME
            if features.task_cost_cv >= self.SKEW_THRESHOLD:
                return StrategyKind.REAL_TIME
            return StrategyKind.PRE_PARTITIONED_REMOTE
        return StrategyKind.REAL_TIME
