"""The controller — the control plane's "intelligence" (§II-A).

The controller owns configuration and membership, never data:

1. it runs the partition generator over the input dataset,
2. it produces the ``START_MASTER`` / ``SET_PARTITION_INFO`` messages
   that initialize the master (Fig 4),
3. it decides the worker fan-out (multicore cloning: one program
   instance per core, §II-C),
4. it receives failure reports and elasticity requests, keeping an
   auditable event log.

It also owns the master-side lifecycle all three engines share: run
set-up (:meth:`ControllerLogic.bind`, :meth:`ControllerLogic.start_master`),
membership (:meth:`ControllerLogic.register`,
:meth:`ControllerLogic.close_registration`, the scripted
:meth:`ControllerLogic.on_worker_added` / ``on_worker_removed`` and the
node lost to fault isolation), the liveness sweep
(:meth:`ControllerLogic.sweep`), worker loss
(:meth:`ControllerLogic.on_worker_lost`), task errors
(:meth:`ControllerLogic.on_task_error`), the observation tick
(:meth:`ControllerLogic.observe`) and the
:class:`~repro.core.framework.RunOutcome`, stranded tasks included
(:meth:`ControllerLogic.outcome`). Engines keep only their timer, wait
primitive and transport: the registration window and its acks, thread
spawn and respawn, VM provisioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.core.commands import CommandTemplate
from repro.core.elasticity import ElasticityManager
from repro.core.fault import FaultTracker, RetryPolicy, WorkerHealth
from repro.core.framework import RunOutcome
from repro.core.messages import SetPartitionInfo, StartMaster, WorkerFailed
from repro.core.monitoring import HeartbeatMonitor, Liveness
from repro.core.scheduler import MasterScheduler
from repro.core.strategies import DataManagementStrategy, StrategyKind, strategy_for
from repro.data.files import Dataset
from repro.data.partition import PartitionGenerator, PartitionScheme, TaskGroup
from repro.errors import ConfigurationError
from repro.telemetry.slo import SloEvaluator, SloProbe
from repro.telemetry.spans import NULL_TELEMETRY, Telemetry


@dataclass(frozen=True)
class ControllerEvent:
    """One entry in the controller's audit log."""

    time: float
    kind: str
    detail: str


@dataclass
class WorkerPlan:
    """How many program clones run on each node (§II-C multicore)."""

    node_id: str
    cores: int
    clones: int

    @property
    def worker_ids(self) -> tuple[str, ...]:
        return tuple(f"{self.node_id}:{i}" for i in range(self.clones))


class ControllerLogic:
    """Engine-agnostic controller state machine."""

    def __init__(
        self,
        *,
        strategy: StrategyKind | str = StrategyKind.REAL_TIME,
        grouping: PartitionScheme | str = PartitionScheme.SINGLE,
        grouping_options: dict | None = None,
        command: CommandTemplate | None = None,
        multicore: bool = True,
        retry_policy: RetryPolicy | None = None,
        isolate_after: int = 1,
    ):
        self.strategy: DataManagementStrategy = strategy_for(strategy)
        self.grouping = PartitionScheme(grouping)
        self.grouping_options = dict(grouping_options or {})
        self.command = command
        self.multicore = multicore
        self.retry_policy = retry_policy or RetryPolicy.paper_faithful()
        self.fault_tracker = FaultTracker(isolate_after=isolate_after)
        #: Nodes the liveness sweep gave up on (each declared once).
        self.nodes_declared_dead: set[str] = set()
        self.events: list[ControllerEvent] = []
        self.groups: Optional[list[TaskGroup]] = None
        self.worker_plans: list[WorkerPlan] = []
        # node_id → its plans, kept in lockstep with worker_plans so
        # per-node lookups stay O(1) at macro worker counts.
        self._plans_by_node: dict[str, list[WorkerPlan]] = {}
        # Membership: the node each registered worker is on (the one
        # per-worker record; wide runs register a worker per task) and
        # who joined after the close.
        self._node_of: dict[str, str] = {}
        self.late_joins: list[str] = []
        self._registration_closed = False
        # One run's hub, clock, SLO probes and master: set by bind()
        # and start_master().
        self.telemetry: Telemetry = NULL_TELEMETRY
        self.clock: Callable[[], float] = lambda: 0.0
        self.dataset: Optional[Dataset] = None
        self.slo: Optional[SloEvaluator] = None
        self.scheduler: Optional[MasterScheduler] = None
        self.elasticity: Optional[ElasticityManager] = None

    # -- run set-up ----------------------------------------------------------
    def bind(
        self,
        dataset: Dataset,
        telemetry: Telemetry,
        clock: Callable[[], float],
        slo_probes: Sequence[SloProbe] = (),
    ) -> None:
        """Attach one run: the hub is re-bound to the engine's clock, so
        everything recorded from here on is stamped in run time."""
        telemetry.bind(clock=clock, run=f"{dataset.name}:{self.strategy.kind.value}")
        self.dataset = dataset
        self.telemetry = telemetry
        self.clock = clock
        self.slo = SloEvaluator(tuple(slo_probes), telemetry) if slo_probes else None
        self.elasticity = ElasticityManager(metrics=telemetry.metrics)
        self.fault_tracker.on_isolate = self._on_isolated

    def start_master(self, time: float = 0.0) -> MasterScheduler:
        """Partition the bound dataset and start the master over it."""
        groups = self.generate_partitions(self.dataset, time)
        self.scheduler = MasterScheduler(
            groups,
            self.strategy,
            retry_policy=self.retry_policy,
            fault_tracker=self.fault_tracker,
            metrics=self.telemetry.metrics,
            clock=self.clock,
        )
        return self.scheduler

    # -- control phase -------------------------------------------------------
    def log(self, time: float, kind: str, detail: str = "") -> None:
        self.events.append(ControllerEvent(time, kind, detail))

    def generate_partitions(self, dataset: Dataset, time: float = 0.0) -> list[TaskGroup]:
        """Run the partition generator (Fig 1, control plane)."""
        generator = PartitionGenerator(self.grouping, self.grouping_options)
        self.groups = generator.generate(dataset)
        if self.command is not None and self.groups:
            self.command.validate_group_size(len(self.groups[0].files))
        self.log(time, "PARTITION_GENERATED", f"{len(self.groups)} groups ({self.grouping.value})")
        return self.groups

    def start_master_message(self) -> StartMaster:
        """The initialization message for the master (Fig 4 step 1)."""
        return StartMaster(
            strategy=self.strategy.kind.value,
            grouping=self.grouping.value,
            multicore=self.multicore,
        )

    def partition_info_message(self) -> SetPartitionInfo:
        """SET_PARTITION_INFO carrying the generated groups (Fig 3)."""
        if self.groups is None:
            raise ConfigurationError("generate_partitions() before partition_info_message()")
        return SetPartitionInfo(
            groups=tuple(g.file_names for g in self.groups),
            sizes=tuple(tuple(f.size for f in g.files) for g in self.groups),
        )

    def plan_workers(self, nodes: Sequence[tuple[str, int]], time: float = 0.0) -> list[WorkerPlan]:
        """Decide clone counts: one program instance per core when
        multicore is on, otherwise one per node (§II-C)."""
        self.worker_plans = [
            WorkerPlan(node_id=node_id, cores=cores, clones=cores if self.multicore else 1)
            for node_id, cores in nodes
        ]
        self._plans_by_node = {}
        for plan in self.worker_plans:
            self._plans_by_node.setdefault(plan.node_id, []).append(plan)
        total = sum(p.clones for p in self.worker_plans)
        self.log(time, "FORK_REMOTE_WORKERS", f"{total} clones on {len(self.worker_plans)} nodes")
        return self.worker_plans

    # -- membership --------------------------------------------------------------
    def register(self, worker_id: str, node_id: str, now: float) -> None:
        """A worker connected on ``node_id`` (Fig 4 "Initialize and
        register"). Before :meth:`close_registration` it is initial
        membership and leaves no trace but its node record; after it,
        it is a late join (§V-A): listed, logged and counted."""
        self._enrol(worker_id, node_id)
        if self._registration_closed:
            self.late_joins.append(worker_id)
            self.log(now, "WORKER_JOINED_LATE", worker_id)
            self.elasticity.node_added(now, node_id, reason="late-join")

    def _enrol(self, worker_id: str, node_id: str) -> None:
        self.scheduler.register_worker(worker_id)
        self._node_of[worker_id] = node_id

    def close_registration(
        self,
        now: float,
        workers: Sequence[str],
        *,
        expected: Sequence[str] = (),
        chunking: str = "contiguous",
        cost_hint: Callable[[TaskGroup], float] | None = None,
    ) -> None:
        """Registration is over: the run proceeds with ``workers``. An
        ``expected`` worker that never registered is logged; the static
        chunks are cut over ``workers`` in the order given; the nodes
        of the healthy ones become the active membership."""
        missing = sorted(set(expected).difference(workers))
        if missing:
            self.log(
                now, "REGISTRATION_WINDOW_CLOSED", f"proceeding without {','.join(missing)}"
            )
        self.scheduler.partition_among(workers, chunking=chunking, cost_hint=cost_hint)
        faults = self.fault_tracker
        self.elasticity.active_nodes.update(
            self._node_of[w] for w in workers if not faults.is_isolated(w)
        )
        self._registration_closed = True

    def workers_on(self, node_id: str) -> list[str]:
        """Every worker ever registered on ``node_id``, removed ones too,
        in registration order. A scan: only node deaths ask."""
        return [w for w, node in self._node_of.items() if node == node_id]

    def _on_isolated(self, worker_id: str, health: WorkerHealth) -> None:
        """Fault-tracker hook: the first time every worker registered on
        an active node is isolated, the node is lost — a capacity change
        the elasticity log records. A scripted removal already took the
        node out of the active set, so it is never lost twice."""
        node_id = self._node_of.get(worker_id)
        if node_id not in self.elasticity.active_nodes:
            return
        faults = self.fault_tracker
        if all(faults.is_isolated(w) for w in self.workers_on(node_id)):
            self.elasticity.node_removed(self.clock(), node_id, reason="fault-isolation")
            self.telemetry.event("elastic.node_lost", node_id, track="control")

    # -- run-time reports -----------------------------------------------------
    def sweep(
        self,
        monitor: HeartbeatMonitor,
        now: float,
        workers_on: Callable[[str], Sequence[str]],
    ) -> list[str]:
        """One liveness sweep over the engine's heartbeat monitor;
        returns the nodes newly declared dead.

        ``workers_on(node)`` names the workers a monitored node hosts
        (the node itself on the real planes, its clones on the
        simulated one). A silent node whose workers were all already
        lost over their connection is forgotten, not declared: the
        broken connection reported that death. Any other silent node is
        declared dead once, then each of its workers is lost.
        """
        newly_dead: list[str] = []
        for node_id, state in monitor.sweep(now).items():
            if state is not Liveness.DEAD or node_id in self.nodes_declared_dead:
                continue
            workers = workers_on(node_id)
            if workers and all(self.fault_tracker.is_lost(w) for w in workers):
                monitor.forget(node_id)
                continue
            self.nodes_declared_dead.add(node_id)
            self.declare_dead(node_id, "missed heartbeats", now)
            for wid in workers:
                self.on_worker_lost(wid, node_id, "heartbeat: declared dead", now)
            newly_dead.append(node_id)
        return newly_dead

    def declare_dead(self, node_id: str, reason: str, time: float) -> None:
        """The liveness sweep gave up on a silent node; it follows with
        :meth:`on_worker_lost` for the node's workers."""
        self.telemetry.event("node.declared_dead", node_id, track="control")
        self.log(time, "NODE_DECLARED_DEAD", f"{node_id}: {reason}")

    def on_worker_lost(
        self,
        worker_id: str,
        node_id: str,
        error: str,
        time: float,
        *,
        trace: bool = False,
    ) -> bool:
        """A worker's VM, thread or connection is gone: the scheduler
        requeues (or records lost) its in-flight and reserved tasks,
        then the loss is logged and the worker isolated. ``trace`` also
        records a ``worker.failed`` event between the two.

        Returns False, changing nothing, for a worker already lost — a
        heartbeat sweep and a broken connection can both report one
        death.
        """
        if self.fault_tracker.is_lost(worker_id):
            return False
        requeued = self.scheduler.worker_lost(worker_id, error)
        if trace:
            self.telemetry.event(
                "worker.failed", worker_id, track=f"worker:{worker_id}",
                node=node_id, cause=error,
            )
        self.on_worker_failed(
            WorkerFailed(
                worker_id=worker_id,
                node_id=node_id,
                error=error,
                tasks_in_flight=tuple(a.task_id for a in requeued),
            ),
            time,
        )
        return True

    def on_worker_failed(self, report: WorkerFailed, time: float = 0.0) -> None:
        """Failure report from the master (§II-D): record + isolate."""
        self.fault_tracker.record_loss(report.worker_id, report.error)
        self.log(time, "WORKER_FAILED", f"{report.worker_id}: {report.error}")

    def on_task_error(
        self, worker_id: str, task_id: int, message: str, time: float
    ) -> bool:
        """A task ended in error on a worker (its program failed or its
        inputs could not be staged or fetched): the scheduler records
        the error once on the fault tracker and retries, fails or — past
        ``isolate_after`` — drains the worker's reservation; the error
        is logged, and so is the isolation it caused. Returns whether
        the task will be retried."""
        was_isolated = self.fault_tracker.is_isolated(worker_id)
        retried = self.scheduler.report_error(worker_id, task_id, message)
        self.log(time, "WORKER_ERROR", f"{worker_id}: {message}")
        if not was_isolated and self.fault_tracker.is_isolated(worker_id):
            self.log(time, "WORKER_ISOLATED", worker_id)
        return retried

    def on_worker_added(self, node_id: str, cores: int, time: float = 0.0) -> WorkerPlan:
        """Scripted elastic join (§V-A): "Addition of any new worker
        goes through the controller". The node's clones are registered
        here, as one scripted addition rather than late joins."""
        plan = WorkerPlan(node_id=node_id, cores=cores, clones=cores if self.multicore else 1)
        self.worker_plans.append(plan)
        self._plans_by_node.setdefault(node_id, []).append(plan)
        self.elasticity.node_added(time, node_id, reason="scenario")
        self.log(time, "WORKER_ADDED", f"{node_id} ({plan.clones} clones)")
        for wid in plan.worker_ids:
            self._enrol(wid, node_id)
        return plan

    def on_worker_removed(self, node_id: str, time: float = 0.0) -> None:
        """Scripted elastic removal (§V-A)."""
        self.worker_plans = [p for p in self.worker_plans if p.node_id != node_id]
        self._plans_by_node.pop(node_id, None)
        self.elasticity.node_removed(time, node_id, reason="scenario")
        self.log(time, "WORKER_REMOVED", node_id)

    def plans_for(self, node_id: str) -> tuple[WorkerPlan, ...]:
        """The plans hosted on one node (no scan over the whole fleet)."""
        return tuple(self._plans_by_node.get(node_id, ()))

    # -- observation -----------------------------------------------------------
    def observe(self, now: float, *, sample_queue: bool) -> None:
        """One observation tick: a ``queue.depth`` event when
        ``sample_queue`` is set, then the SLO probes over the live
        metrics. The engine owns the cadence."""
        if sample_queue:
            self.telemetry.event(
                "queue.depth", self.scheduler.pending_count, track="control"
            )
        if self.slo is not None:
            self.slo.evaluate(now)

    # -- outcome ---------------------------------------------------------------
    def outcome(self, *, extra: dict[str, Any] | None = None, **fields: Any) -> RunOutcome:
        """The run's :class:`RunOutcome`: configuration, task counts,
        audit log, declared-dead nodes, late joins, elasticity log and
        SLO breaches from here;
        timings, records and the engine's own ``extra`` entries from the
        engine.

        Every task lands in one bucket: work still outstanding when the
        run ends (every worker isolated, or the master lost) is recorded
        lost and logged once as ``TASKS_ABANDONED``. The SLO probes then
        take a final look at the settled registry.
        """
        scheduler = self.scheduler
        now = self.clock()
        if scheduler.outstanding:
            why = "every worker isolated" if scheduler.done else "master lost"
            abandoned = scheduler.abandon_outstanding(why)
            self.log(now, "TASKS_ABANDONED", f"{len(abandoned)} tasks stranded: {why}")
        if self.slo is not None:
            self.slo.evaluate(now)
        summary = scheduler.summary()
        breaches = self.slo.breaches if self.slo is not None else ()
        return RunOutcome(
            strategy=self.strategy.kind,
            grouping=self.grouping,
            tasks_total=summary["total"],
            tasks_completed=summary["completed"],
            tasks_failed=summary["failed"],
            tasks_lost=summary["lost"],
            controller_events=list(self.events),
            extra={
                **(extra or {}),
                "nodes_declared_dead": sorted(self.nodes_declared_dead),
                "late_joins": sorted(self.late_joins),
                "elasticity_events": list(self.elasticity.events),
                "slo_breaches": [
                    (b.probe, b.signal, b.value, b.threshold) for b in breaches
                ],
            },
            **fields,
        )
