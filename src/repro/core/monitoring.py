"""Component liveness monitoring (master-recovery groundwork, §V-A).

"Future work will address the monitoring and recovery of the master
through the controller-master communication channel." This module is
that channel's liveness layer: components emit heartbeats, the
:class:`HeartbeatMonitor` classifies them healthy / suspected / dead by
elapsed silence, and a :class:`RecoveryPlan` decides what to do about a
dead master or worker. The simulated engine uses the same thresholds
for its master watchdog; the logic here is pure and engine-agnostic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.telemetry.metrics import MetricsRegistry, NULL_METRICS


class Liveness(str, enum.Enum):
    HEALTHY = "healthy"
    SUSPECTED = "suspected"
    DEAD = "dead"
    UNKNOWN = "unknown"  # never heard from


@dataclass(frozen=True)
class HeartbeatConfig:
    """Silence thresholds (seconds)."""

    #: Silence after which a component is suspected.
    suspect_after: float = 5.0
    #: Silence after which it is declared dead.
    dead_after: float = 15.0

    def __post_init__(self) -> None:
        if not 0 < self.suspect_after < self.dead_after:
            raise ValueError("need 0 < suspect_after < dead_after")


class HeartbeatMonitor:
    """Tracks last-heard times and classifies component liveness."""

    def __init__(
        self,
        config: HeartbeatConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config or HeartbeatConfig()
        self._last_heard: dict[str, float] = {}
        self._declared_dead: set[str] = set()
        #: Components currently classified suspected — tracked so the
        #: metrics count state *transitions*, not repeated observations.
        self._suspected: set[str] = set()
        metrics = metrics if metrics is not None else NULL_METRICS
        self._m_beats = metrics.counter("heartbeat.beats")
        self._m_suspected = metrics.counter("heartbeat.suspected")
        self._m_dead = metrics.counter("heartbeat.dead")
        self._m_stale = metrics.counter("heartbeat.stale")
        # Round-trip times ride in on the beats that carry a measurement
        # (workers report the RTT of their last acked beat); the
        # histogram surfaces p50/p95/p99 through the metrics export.
        self._h_rtt = metrics.histogram("heartbeat.rtt_seconds")

    def beat(self, component: str, now: float, rtt: float | None = None) -> None:
        """Record a heartbeat. A beat resurrects a suspected component
        but never a declared-dead one (it must re-register).

        Out-of-order beats are tolerated: in the threaded runtime two
        threads can read the clock and race to ``beat()``, so a stale
        timestamp is benign — it carries no new information. Last-heard
        keeps the max; stale beats are counted in ``heartbeat.stale``.

        ``rtt`` is an optional round-trip measurement carried by the
        beat; it is recorded even for beats that arrive stale (the
        measurement is real regardless of delivery order).
        """
        if component in self._declared_dead:
            return
        if rtt is not None and rtt >= 0:
            self._h_rtt.observe(rtt)
        previous = self._last_heard.get(component)
        if previous is not None and now < previous:
            self._m_stale.inc()
            return
        self._last_heard[component] = now
        self._m_beats.inc()

    def forget(self, component: str) -> None:
        """Deregister a component (graceful shutdown)."""
        self._last_heard.pop(component, None)
        self._declared_dead.discard(component)
        self._suspected.discard(component)

    def liveness(self, component: str, now: float) -> Liveness:
        """Pure classification of one component at ``now``.

        Reading liveness never changes state: a component whose silence
        crosses ``dead_after`` reads as DEAD here but is only *declared*
        dead (sticky until re-registration, transition metrics bumped)
        by an explicit :meth:`sweep`.
        """
        if component in self._declared_dead:
            return Liveness.DEAD
        last = self._last_heard.get(component)
        if last is None:
            return Liveness.UNKNOWN
        silence = now - last
        if silence >= self.config.dead_after:
            return Liveness.DEAD
        if silence >= self.config.suspect_after:
            return Liveness.SUSPECTED
        return Liveness.HEALTHY

    def sweep(self, now: float) -> dict[str, Liveness]:
        """Classify every known component at ``now`` and commit state
        transitions: newly-dead components are declared dead (they stay
        dead until :meth:`forget`), suspicion is entered/cleared, and
        each *transition* — not repeated observation — is counted in
        the ``heartbeat.suspected`` / ``heartbeat.dead`` metrics."""
        states: dict[str, Liveness] = {}
        for component in list(self._last_heard):
            state = self.liveness(component, now)
            if state is Liveness.DEAD:
                if component not in self._declared_dead:
                    self._declared_dead.add(component)
                    self._suspected.discard(component)
                    self._m_dead.inc()
            elif state is Liveness.SUSPECTED:
                if component not in self._suspected:
                    self._suspected.add(component)
                    self._m_suspected.inc()
            else:
                self._suspected.discard(component)
            states[component] = state
        return states


@dataclass(frozen=True)
class RecoveryAction:
    """What the controller should do about a dead component."""

    component: str
    action: str  # "restart_master" | "isolate_worker" | "none"
    reason: str


@dataclass(frozen=True)
class RecoveryPlan:
    """Policy: map dead components to controller actions.

    ``restart_master`` implements the paper's future-work master
    recovery; with it disabled a dead master is terminal (the §V-A
    single point of failure).
    """

    master_id: str = "master"
    restart_master: bool = False

    def decide(self, component: str, liveness: Liveness) -> RecoveryAction:
        if liveness is not Liveness.DEAD:
            return RecoveryAction(component, "none", f"component is {liveness.value}")
        if component == self.master_id:
            if self.restart_master:
                return RecoveryAction(
                    component, "restart_master", "master dead; recovery extension enabled"
                )
            return RecoveryAction(
                component,
                "none",
                "master dead and recovery disabled: run cannot continue "
                "(single point of failure, §V-A)",
            )
        return RecoveryAction(
            component, "isolate_worker", "worker silent past the dead threshold"
        )
