"""Elasticity management (§V-A "Elastic").

"The controller in FRIEDA handles the addition and removal of workers.
Addition of any new worker goes through the controller which establishes
the connection between the master and the workers."

:class:`ElasticityManager` is that bookkeeping: which nodes are active
and every membership change, with its reason. The
:class:`~repro.core.controller.ControllerLogic` owns the one instance a
run has and makes every decision that feeds it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.metrics import MetricsRegistry, NULL_METRICS


@dataclass(frozen=True)
class ScaleEvent:
    """One elasticity action that happened."""

    time: float
    action: str  # "add" | "remove"
    node_id: str
    reason: str = ""


class ElasticityManager:
    """Tracks membership changes."""

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.events: list[ScaleEvent] = []
        self.active_nodes: set[str] = set()
        metrics = metrics if metrics is not None else NULL_METRICS
        self._m_added = metrics.counter("elasticity.added")
        self._m_removed = metrics.counter("elasticity.removed")

    def node_added(self, time: float, node_id: str, reason: str = "user") -> None:
        self.active_nodes.add(node_id)
        self.events.append(ScaleEvent(time, "add", node_id, reason))
        self._m_added.inc()

    def node_removed(self, time: float, node_id: str, reason: str = "user") -> None:
        self.active_nodes.discard(node_id)
        self.events.append(ScaleEvent(time, "remove", node_id, reason))
        self._m_removed.inc()

    @property
    def additions(self) -> int:
        return sum(1 for e in self.events if e.action == "add")

    @property
    def removals(self) -> int:
        return sum(1 for e in self.events if e.action == "remove")
