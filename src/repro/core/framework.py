"""The user-facing FRIEDA facade and run-outcome records.

:class:`Frieda` wraps engine selection behind one API:

- ``Frieda.simulated(...)`` — discrete-event cloud simulation (all
  paper experiments),
- ``Frieda.local(...)`` — real threaded execution of Python callables
  or shell commands on this machine,
- ``Frieda.tcp(...)`` — real asyncio TCP master/worker (the Twisted
  equivalent of the paper's prototype).

Every engine returns a :class:`RunOutcome` with the same fields, so the
experiment harness and the adaptive advisor treat engines uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.strategies import StrategyKind
from repro.data.partition import PartitionScheme


@dataclass(frozen=True)
class TaskRecord:
    """Per-task outcome, common to all engines."""

    task_id: int
    worker_id: str
    node_id: str
    start: float
    end: float
    ok: bool
    attempt: int = 1
    error: str = ""
    transfer_seconds: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RunOutcome:
    """What one FRIEDA run produced.

    Time decomposition used by the Figure 6 reproduction:

    - ``transfer_time`` — wall-clock during which at least one input
      transfer was in flight (union of transfer intervals; equals the
      staging-phase duration for the pre-partitioned strategies),
    - ``execution_time`` — wall-clock during which at least one task
      was executing,
    - ``makespan`` — start of run to last task completion. For staged
      strategies makespan ≈ transfer + execution (sequential phases,
      §II-C); for real-time the phases interleave and makespan is less
      than their sum.
    """

    strategy: StrategyKind
    grouping: PartitionScheme
    makespan: float
    transfer_time: float
    execution_time: float
    tasks_total: int
    tasks_completed: int
    tasks_failed: int = 0
    tasks_lost: int = 0
    bytes_transferred: float = 0.0
    task_records: list[TaskRecord] = field(default_factory=list)
    worker_busy: dict[str, float] = field(default_factory=dict)
    cost: Optional[Any] = None  # CostReport when billing is enabled
    controller_events: list[Any] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def all_tasks_ok(self) -> bool:
        return self.tasks_completed == self.tasks_total

    def speedup_over(self, baseline: "RunOutcome") -> float:
        """Baseline makespan divided by this run's makespan."""
        if self.makespan <= 0:
            return float("nan")
        return baseline.makespan / self.makespan

    def summary_line(self) -> str:
        return (
            f"{self.strategy.value:>24s}  makespan={self.makespan:10.2f}s  "
            f"transfer={self.transfer_time:9.2f}s  exec={self.execution_time:9.2f}s  "
            f"tasks={self.tasks_completed}/{self.tasks_total}"
            + (f"  failed={self.tasks_failed}" if self.tasks_failed else "")
            + (f"  lost={self.tasks_lost}" if self.tasks_lost else "")
        )


class Frieda:
    """Facade over the engines. Construct via the classmethods."""

    def __init__(self, engine: Any):
        self._engine = engine

    # -- constructors -------------------------------------------------------
    @classmethod
    def simulated(cls, cluster_spec: Any | None = None, **engine_kwargs: Any) -> "Frieda":
        """A simulated-cloud FRIEDA (see
        :class:`repro.engines.simulated.SimulatedEngine` for kwargs)."""
        from repro.cloud.cluster import ClusterSpec
        from repro.engines.simulated import SimulatedEngine

        spec = cluster_spec or ClusterSpec()
        return cls(SimulatedEngine(spec, **engine_kwargs))

    @classmethod
    def local(cls, num_workers: int = 4, **engine_kwargs: Any) -> "Frieda":
        """A real threaded FRIEDA executing Python callables/commands."""
        from repro.runtime.local import ThreadedEngine

        return cls(ThreadedEngine(num_workers=num_workers, **engine_kwargs))

    @classmethod
    def tcp(cls, num_workers: int = 4, **engine_kwargs: Any) -> "Frieda":
        """A real asyncio TCP master/worker FRIEDA on localhost."""
        from repro.runtime.tcp import TcpEngine

        return cls(TcpEngine(num_workers=num_workers, **engine_kwargs))

    # -- execution -------------------------------------------------------------
    @property
    def engine(self) -> Any:
        return self._engine

    def run(self, *args: Any, **kwargs: Any) -> RunOutcome:
        """Delegate to the engine's ``run`` (engines share the core
        signature: dataset/inputs, command, strategy, grouping...)."""
        return self._engine.run(*args, **kwargs)
