"""Compute-cost models for simulated task execution.

A compute model answers: *how many CPU-seconds does this task group
cost on one core?* Costs are deterministic per task index (derived
RNG streams), so strategies are compared on identical workloads — the
same task costs the same seconds under pre-partitioned and real-time
scheduling, only the schedule differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.data.partition import TaskGroup
from repro.util.seeding import derive_seed


class ComputeModel(Protocol):
    """Anything that prices a task group in single-core seconds."""

    def cost(self, group: TaskGroup) -> float:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class FixedComputeModel:
    """Every task costs the same (the idealized homogeneous workload)."""

    seconds_per_task: float

    def cost(self, group: TaskGroup) -> float:
        return self.seconds_per_task


@dataclass(frozen=True)
class PerByteComputeModel:
    """Cost scales with input bytes plus fixed startup overhead.

    Models the ALS image comparison: similarity over two images is
    linear in pixels.
    """

    seconds_per_byte: float
    startup_seconds: float = 0.0

    def cost(self, group: TaskGroup) -> float:
        return self.startup_seconds + self.seconds_per_byte * group.total_size


@dataclass(frozen=True)
class StochasticComputeModel:
    """Lognormal per-task cost with a given mean and CV.

    Models BLAST: §IV-B — "every task might have different computation
    cost than the other based on the match of the search". The draw is
    keyed on the task index, so every strategy sees the same costs.
    """

    mean_seconds: float
    cv: float
    seed: int = 0

    def cost(self, group: TaskGroup) -> float:
        if self.cv <= 0:
            return self.mean_seconds
        import numpy as np

        rng = np.random.default_rng(derive_seed(self.seed, "task-cost", group.index))
        sigma2 = np.log(1.0 + self.cv**2)
        mu = np.log(self.mean_seconds) - sigma2 / 2.0
        return float(rng.lognormal(mu, np.sqrt(sigma2)))
