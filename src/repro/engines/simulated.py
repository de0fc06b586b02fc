"""FRIEDA on the simulated cloud: the engine behind every experiment.

This engine wires the core logic (controller → master scheduler →
worker loops) to the substrate (:mod:`repro.cloud`): control messages
cost link round-trips, file movement is flow-network transfers under a
protocol model, task execution occupies VM cores for the compute
model's seconds, failures interrupt worker processes mid-task.

Faithfulness notes (what maps to what in the paper):

- Fig 4 sequence: controller "starts" the master (START_MASTER latency),
  plans workers, workers register (RTT), then request data / receive
  data / execute / report in a loop until NO_MORE_DATA.
- §II-C phase separation: staged strategies run a *data transfer phase*
  (a :class:`~repro.transfer.staging.StagingPlan` of scp sessions) to
  completion before any execution; real-time interleaves them.
- §II-F laziness: in real-time mode the master "doesn't transfer a file
  until a worker asks for it" — transfers happen inside the worker's
  request cycle.
- §V-A isolation: a failed worker's clones report loss; the scheduler
  stops handing that node data; without the retry extension its tasks
  are recorded as lost, not rerun.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cloud.billing import BillingModel, PriceSheet
from repro.cloud.cluster import ClusterSpec, Provisioner, VirtualCluster
from repro.cloud.failures import (
    FailureInjector,
    FailureSchedule,
    LinkFaultInjector,
    LinkFaultSchedule,
    TransferFaultModel,
    is_silent_cause,
)
from repro.cloud.instance import InstanceType, VirtualMachine
from repro.cloud.storage import StorageTier
from repro.core.controller import ControllerLogic
from repro.core.commands import CommandTemplate
from repro.core.fault import ANY_TASK, RetryPolicy
from repro.core.monitoring import HeartbeatConfig, HeartbeatMonitor
from repro.core.framework import RunOutcome, TaskRecord
from repro.core.scheduler import Assignment, MasterScheduler
from repro.core.strategies import StrategyKind
from repro.core.worker import WorkerLogic
from repro.data.files import DataFile, Dataset
from repro.data.partition import PartitionScheme
from repro.engines.compute import ComputeModel
from repro.errors import ConfigurationError, SimulationError
from repro.sim.collector import sparse_collection
from repro.sim.kernel import Environment, Event, Interrupt
from repro.telemetry.slo import SloProbe
from repro.telemetry.spans import SpanHandle, Telemetry
from repro.transfer.base import TransferProtocol, TransferRequest, TransferResult
from repro.transfer.retry import TransferRetryPolicy
from repro.transfer.scp import ScpModel
from repro.transfer.staging import StagingPlan, TransferService
from repro.util.stats import union_time


@dataclass(frozen=True)
class ElasticAction:
    """One scripted elasticity step: add or remove a node at a time.

    Checked when built: ``action`` is ``"add"`` or ``"remove"``, a
    remove names its node, and ``time`` / ``boot_delay`` are finite and
    non-negative. A remove whose node the cluster does not hold raises
    :class:`~repro.errors.ConfigurationError` when it fires.
    """

    time: float
    action: str  # "add" | "remove"
    node_id: str = ""  # for remove; ignored for add
    instance_type: Optional[InstanceType] = None
    boot_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ("add", "remove"):
            raise ConfigurationError(
                f"ElasticAction.action must be 'add' or 'remove', got {self.action!r}"
            )
        if self.action == "remove" and not self.node_id:
            raise ConfigurationError("ElasticAction.node_id is required for a remove")
        for name in ("time", "boot_delay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"ElasticAction.{name} must be finite and >= 0, got {value!r}"
                )


@dataclass(frozen=True)
class SimulationOptions:
    """Engine-level knobs shared across runs."""

    protocol: TransferProtocol = field(default_factory=ScpModel)
    #: Control-plane round-trip (request/assign, register, status).
    control_rtt: float = 0.002
    #: Concurrent scp sessions during an up-front staging phase.
    staging_concurrency: int = 4
    #: Charge local-disk reads of the inputs before each execution.
    include_disk_io: bool = True
    enable_billing: bool = True
    #: Custom prices (None = PriceSheet defaults: hourly billing).
    price_sheet: Optional["PriceSheet"] = None
    #: Real-time pipelining depth (extension): with depth 1 a worker
    #: clone requests and transfers its next task's inputs while the
    #: current task computes (double buffering). 0 is paper-faithful —
    #: "the master sends the data and asks the workers to execute" with
    #: the next request only after completion.
    prefetch_depth: int = 0
    #: Liveness layer (extension, §V-A future work): > 0 makes every
    #: worker node emit a heartbeat at this period and the master run a
    #: sweep at the same period, so *silent* node deaths are detected
    #: (declared dead after ``heartbeat_config.dead_after`` of silence)
    #: and their in-flight tasks requeued/recorded. 0 disables the layer
    #: entirely (paper-faithful: only broken connections report loss).
    heartbeat_interval: float = 0.0
    heartbeat_config: Optional[HeartbeatConfig] = None
    #: Data-movement retry (extension; default paper-faithful: one
    #: attempt, no timeout, a lost transfer costs the whole task).
    transfer_retry: TransferRetryPolicy = field(
        default_factory=TransferRetryPolicy.paper_faithful
    )
    #: Declarative SLO probes evaluated over the live metrics registry
    #: at ``sample_interval`` ticks (edge-triggered ``slo.breach`` /
    #: ``slo.recovered`` events) plus once when the run resolves.
    slo_probes: tuple["SloProbe", ...] = ()
    #: Queue-depth / SLO sampling period in sim seconds. 0 picks a
    #: default: the heartbeat interval when liveness is on, else 1.0.
    #: Sampling runs only when probes are set or telemetry records.
    sample_interval: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.prefetch_depth not in (0, 1):
            raise ConfigurationError(
                f"prefetch_depth must be 0 or 1, got {self.prefetch_depth!r}"
            )


class _FetchFailed(Exception):
    """Internal: a task's input transfers exhausted their retries."""

    def __init__(self, files: Sequence[str]):
        super().__init__(f"missing inputs: {', '.join(files)}")
        self.files = tuple(files)


class SimulatedEngine:
    """Runs FRIEDA workloads on a simulated virtual cluster."""

    def __init__(self, cluster_spec: ClusterSpec | None = None, options: SimulationOptions | None = None):
        self.spec = cluster_spec or ClusterSpec()
        self.options = options or SimulationOptions()

    # ------------------------------------------------------------------
    def run(
        self,
        dataset: Dataset,
        *,
        compute_model: ComputeModel,
        command: CommandTemplate | None = None,
        strategy: StrategyKind | str = StrategyKind.REAL_TIME,
        grouping: PartitionScheme | str = PartitionScheme.SINGLE,
        grouping_options: dict | None = None,
        common_files: Sequence[DataFile] = (),
        multicore: bool = True,
        retry_policy: RetryPolicy | None = None,
        isolate_after: int = 1,
        failure_schedule: FailureSchedule | None = None,
        failure_mttf: float | None = None,
        failure_silent_fraction: float = 0.0,
        crash_worker_on_task: dict[str, int] | None = None,
        hang_worker_on_task: dict[str, int] | None = None,
        link_fault_schedule: LinkFaultSchedule | None = None,
        link_fault_mtbf: float | None = None,
        link_fault_outage: float = 30.0,
        transfer_fault_rate: float = 0.0,
        elasticity: Sequence[ElasticAction] = (),
        static_chunking: str = "contiguous",
        master_failure_at: float | None = None,
        master_recovery_time: float | None = None,
        data_source: str = "master",
        max_sim_time: float = 10_000_000.0,
        telemetry: Telemetry | None = None,
    ) -> RunOutcome:
        """Execute one workload; returns the :class:`RunOutcome`.

        ``common_files`` are staged to every worker node before
        execution under every non-local strategy (the BLAST database
        pattern); under pre-partitioned-local they start on the nodes.

        Extensions (all default to the paper-faithful behaviour):

        - ``static_chunking``: ``"contiguous"`` | ``"lpt_size"`` |
          ``"lpt_cost"`` (see :meth:`MasterScheduler.partition_among`),
        - ``master_failure_at`` (+ optional ``master_recovery_time``):
          the §V-A single-point-of-failure scenario — the master dies at
          the given time; with a recovery time the controller restarts
          it and data service resumes, without one the run terminates
          with whatever completed,
        - ``data_source``: ``"master"`` (default — the master sits
          "close to the source of the input data", §II-B) or
          ``"network_storage"`` — inputs live on the shared iSCSI-style
          tier and workers pull through its contended server uplink
          (the networked-disk configuration of §III-A; requires
          ``ClusterSpec.network_storage_bytes > 0``),
        - ``failure_silent_fraction``: with ``failure_mttf``, that
          fraction of VM deaths are *silent* (no broken connection —
          only the heartbeat sweep can detect them; requires
          ``SimulationOptions.heartbeat_interval > 0``),
        - ``link_fault_schedule`` / ``link_fault_mtbf`` (+
          ``link_fault_outage`` mean seconds): link degradation and
          blackout windows on the worker/master NIC links,
        - ``transfer_fault_rate``: probability each transfer attempt
          dies mid-stream (retried or surfaced per
          ``SimulationOptions.transfer_retry``).

        ``telemetry`` plugs a recording :class:`~repro.telemetry.Telemetry`
        hub into the run: the engine binds it to the sim clock, so one
        hub shared across a sweep records every run (the ``--trace``
        path). Without it the engine records into a private hub. Either
        way the transfer/execution decomposition is read back from this
        run's slice of the span log, so a hub that does not record
        (``NULL_TELEMETRY``, ``Telemetry()``) raises
        :class:`~repro.errors.ConfigurationError`.
        """
        with sparse_collection():
            env = Environment()
            run = _SimulatedRun(
                env=env,
                engine=self,
                dataset=dataset,
                compute_model=compute_model,
                command=command,
                strategy=strategy,
                grouping=grouping,
                grouping_options=grouping_options or {},
                common_files=tuple(common_files),
                multicore=multicore,
                retry_policy=retry_policy,
                isolate_after=isolate_after,
                failure_schedule=failure_schedule,
                failure_mttf=failure_mttf,
                failure_silent_fraction=failure_silent_fraction,
                crash_worker_on_task=crash_worker_on_task,
                hang_worker_on_task=hang_worker_on_task,
                link_fault_schedule=link_fault_schedule,
                link_fault_mtbf=link_fault_mtbf,
                link_fault_outage=link_fault_outage,
                transfer_fault_rate=transfer_fault_rate,
                elasticity=tuple(elasticity),
                static_chunking=static_chunking,
                master_failure_at=master_failure_at,
                master_recovery_time=master_recovery_time,
                data_source=data_source,
                telemetry=telemetry,
            )
            done = env.process(run.main(), name="frieda-run")

            # The cap ends a run that never resolves; a run that
            # resolves first stops at ``done`` and never reaches it, so
            # it processes exactly the events it would without a cap.
            def exceeded(_cap: Event) -> None:
                raise SimulationError(f"simulation exceeded {max_sim_time} simulated seconds")

            env.timeout(max_sim_time).callbacks.append(exceeded)
            env.run(until=done)
            return run.outcome()


class _SimulatedRun:
    """One run's mutable state and processes (internal)."""

    def __init__(
        self,
        *,
        env: Environment,
        engine: SimulatedEngine,
        dataset: Dataset,
        compute_model: ComputeModel,
        command: CommandTemplate | None,
        strategy: StrategyKind | str,
        grouping: PartitionScheme | str,
        grouping_options: dict,
        common_files: tuple[DataFile, ...],
        multicore: bool,
        retry_policy: RetryPolicy | None,
        isolate_after: int,
        failure_schedule: FailureSchedule | None,
        failure_mttf: float | None,
        failure_silent_fraction: float = 0.0,
        crash_worker_on_task: dict[str, int] | None = None,
        hang_worker_on_task: dict[str, int] | None = None,
        link_fault_schedule: LinkFaultSchedule | None = None,
        link_fault_mtbf: float | None = None,
        link_fault_outage: float = 30.0,
        transfer_fault_rate: float = 0.0,
        elasticity: tuple[ElasticAction, ...] = (),
        static_chunking: str = "contiguous",
        master_failure_at: float | None = None,
        master_recovery_time: float | None = None,
        data_source: str = "master",
        telemetry: Telemetry | None = None,
    ):
        self.env = env
        self.engine = engine
        self.options = engine.options
        self.dataset = dataset
        self.compute_model = compute_model
        self.common_files = common_files
        self.controller = ControllerLogic(
            strategy=strategy,
            grouping=grouping,
            grouping_options=grouping_options,
            command=command,
            multicore=multicore,
            retry_policy=retry_policy,
            isolate_after=isolate_after,
        )
        self.elasticity = elasticity
        self.failure_schedule = failure_schedule
        self.failure_mttf = failure_mttf
        self.failure_silent_fraction = float(failure_silent_fraction)
        #: Per-worker scripted deaths (chaos-parity twins of the real
        #: engines' hooks): consumed on first match, delivered through
        #: ``fail_vm`` so the ordinary interrupt path does bookkeeping.
        self.crash_on_task = dict(crash_worker_on_task or {})
        self.hang_on_task = dict(hang_worker_on_task or {})
        self.link_fault_schedule = link_fault_schedule
        self.link_fault_mtbf = link_fault_mtbf
        self.link_fault_outage = float(link_fault_outage)
        self.transfer_fault_rate = float(transfer_fault_rate)
        silent_possible = (
            self.failure_silent_fraction > 0
            or bool(self.hang_on_task)
            or (failure_schedule is not None and failure_schedule.has_silent)
        )
        if silent_possible and self.options.heartbeat_interval <= 0:
            raise ConfigurationError(
                "silent failures are undetectable without heartbeats: "
                "set SimulationOptions.heartbeat_interval > 0"
            )
        self.heartbeats: Optional[HeartbeatMonitor] = None
        self.link_injector: Optional[LinkFaultInjector] = None
        self.static_chunking = static_chunking
        self.master_failure_at = master_failure_at
        self.master_recovery_time = master_recovery_time
        if data_source not in ("master", "network_storage"):
            raise ConfigurationError(
                f"data_source must be 'master' or 'network_storage', got {data_source!r}"
            )
        self.data_source = data_source
        #: [start, end) of the master outage; end is +inf when the
        #: master never recovers.
        self.master_outage: Optional[tuple[float, float]] = None
        if master_failure_at is not None:
            end = (
                master_failure_at + master_recovery_time
                if master_recovery_time is not None
                else float("inf")
            )
            self.master_outage = (master_failure_at, end)

        # The telemetry hub: a shared one (--trace) is re-bound to this
        # run's clock; otherwise the run records into a private hub.
        # outcome() reads the Fig 6 unions back from the span log, so
        # the hub must record.
        if telemetry is not None and not telemetry.record:
            raise ConfigurationError(
                "the telemetry hub must record (Telemetry(record=True)): "
                "the transfer/execution split is read from its span log"
            )
        tel = telemetry if telemetry is not None else Telemetry(record=True)
        self.controller.bind(dataset, tel, lambda: env.now, self.options.slo_probes)
        self.telemetry = tel
        #: Where this run's spans start in a hub shared across a sweep.
        self._first_span = len(tel.spans)
        #: Queue-depth samples are emitted only into a caller's hub.
        self._sample_queue = telemetry is not None
        self._run_span: Optional[SpanHandle] = None
        self._h_exec = tel.metrics.histogram("task.exec_seconds")

        self.cluster: Optional[VirtualCluster] = None
        self.scheduler: Optional[MasterScheduler] = None
        self.transfers: Optional[TransferService] = None
        self.billing = (
            BillingModel(self.options.price_sheet, metrics=tel.metrics)
            if self.options.enable_billing
            else None
        )
        self.worker_logics: dict[str, WorkerLogic] = {}
        self.task_records: list[TaskRecord] = []
        self.run_done: Event = Event(env)
        #: (node_id, file_name) → completion event for a transfer that
        #: is already in flight (the master coalesces duplicate pulls
        #: of the same file to the same node).
        self._inflight_transfers: dict[tuple[str, str], Event] = {}
        self.start_time = 0.0
        self.end_time = 0.0
        self._file_index: dict[str, DataFile] = {}

    # -- helpers -----------------------------------------------------------
    def _rtt(self):
        return self.env.timeout(self.options.control_rtt)

    def _master_available(self) -> bool:
        if self.master_outage is None:
            return True
        start, end = self.master_outage
        return not (start <= self.env.now < end)

    def _await_master(self):
        """Process fragment: block while the master is down (§V-A).

        A permanent outage (no recovery) parks the caller forever; the
        run is ended separately by the outage watchdog.
        """
        while not self._master_available():
            _start, end = self.master_outage
            if end == float("inf"):
                # Master never comes back; wait on an event that never
                # fires (the watchdog terminates the run).
                yield Event(self.env)
                return
            yield self.env.timeout(end - self.env.now)

    def _master_watchdog(self):
        """Ends the run when the master dies without recovery."""
        start, end = self.master_outage
        delay = start - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self.controller.log(self.env.now, "MASTER_FAILED", "single point of failure")
        self.telemetry.event("master.failed", track="control")
        if end == float("inf") and not self.run_done.triggered:
            self.run_done.succeed()
        elif end != float("inf"):
            yield self.env.timeout(end - self.env.now)
            self.controller.log(self.env.now, "MASTER_RECOVERED", "controller restart")
            self.telemetry.event("master.recovered", track="control")

    def _file(self, name: str) -> DataFile:
        return self._file_index[name]

    def _maybe_finish(self) -> None:
        if self.scheduler is not None and self.scheduler.done and not self.run_done.triggered:
            self.run_done.succeed()

    def _record_wan(self, path: Sequence[str], nbytes: float) -> None:
        if self.billing is not None and self.cluster is not None:
            wan = self.cluster.wan_link_name
            if wan is not None and wan in path:
                self.billing.record_wan_bytes(nbytes)

    def _note_source_read(self, nbytes: float) -> None:
        """Attribute a source-side read to its storage tier's metrics."""
        cluster = self.cluster
        if cluster is None:
            return
        if self.data_source == "network_storage" and cluster.shared_storage is not None:
            cluster.shared_storage.note_read(nbytes)
        elif cluster.master_vm is not None and cluster.master_vm.local_disk is not None:
            cluster.master_vm.local_disk.note_read(nbytes)

    def _source_path_to(self, node_id: str) -> tuple[str, ...]:
        """Link path from the data source to a node's local disk."""
        cluster = self.cluster
        if self.data_source == "network_storage":
            return (
                cluster.storage_read_path(node_id)
                + cluster.vm(node_id).local_disk.write_path()
            )
        return cluster.disk_to_disk_path(cluster.master_vm.vm_id, node_id)

    def _transfer_to_node(
        self,
        file: DataFile,
        node_id: str,
        tag: str,
        parent: SpanHandle | None = None,
    ):
        """Process: ship one file source → node-disk.

        Dedupes against files already on the node's disk *and*
        coalesces with transfers currently in flight to that node —
        several clones asking for the same common file trigger exactly
        one network transfer (multicore BLAST's database pull).
        """
        cluster = self.cluster
        disk = cluster.vm(node_id).local_disk
        if disk.has_file(file.name):
            return None
        key = (node_id, file.name)
        existing = self._inflight_transfers.get(key)
        if existing is not None:
            yield existing
            return None
        completion = Event(self.env)
        self._inflight_transfers[key] = completion
        try:
            yield from self._await_master()
            path = self._source_path_to(node_id)
            request = TransferRequest(file.name, file.size, path, tag=tag)
            self._record_wan(path, file.size)
            self._note_source_read(file.size)
            result = yield self.env.process(
                self.transfers.transfer(request, parent=parent)
            )
            # The transfer may have exhausted its retries, and the VM
            # may have died while the bytes were in flight.
            vm = cluster.vm(node_id)
            if result.ok and vm.is_running:
                disk.store_file(file.name, file.size)
            return result
        finally:
            del self._inflight_transfers[key]
            if not completion.triggered:
                completion.succeed()

    # -- main orchestration ---------------------------------------------------
    def main(self):
        env = self.env
        tel = self.telemetry
        self._run_span = tel.start_span(
            "run",
            track="control",
            dataset=self.dataset.name,
            strategy=self.controller.strategy.kind.value,
        )
        # 1. Provision the virtual cluster (ORCA/Flukes role).
        provision_span = tel.start_span(
            "provision", parent=self._run_span, track="control"
        )
        provisioner = Provisioner(env, tel)
        cluster, ready = provisioner.provision(self.engine.spec)
        self.cluster = cluster
        self.provisioner = provisioner
        yield ready
        provision_span.end(vms=len(cluster.vms))
        # The measured run starts once the cluster is up: Table I /
        # Fig 6 totals include data transfer + execution, not VM
        # provisioning.
        self.start_time = env.now
        strategy = self.controller.strategy

        # 2. Control phase (Fig 4): partition generation + master start.
        self.scheduler = self.controller.start_master(env.now)
        for f in self.dataset:
            self._file_index[f.name] = f
        for f in self.common_files:
            self._file_index[f.name] = f
        yield self._rtt()  # START_MASTER
        fault_model = (
            TransferFaultModel(self.transfer_fault_rate, seed=self.options.seed)
            if self.transfer_fault_rate > 0
            else None
        )
        self.transfers = TransferService(
            env, cluster.network, self.options.protocol,
            telemetry=tel,
            retry_policy=self.options.transfer_retry,
            fault_model=fault_model,
            seed=self.options.seed,
        )

        # Source data lands on the master's disk (the master "runs close
        # to the source of the input data", §II-B) or on the shared
        # network-storage tier (§III-A's networked-disk configuration).
        if self.data_source == "network_storage":
            if cluster.shared_storage is None:
                raise ConfigurationError(
                    "data_source='network_storage' needs "
                    "ClusterSpec.network_storage_bytes > 0"
                )
            source_volume = cluster.shared_storage
        else:
            source_volume = cluster.master_vm.local_disk
        if not strategy.data_local_to_workers:
            for f in self.dataset:
                source_volume.store_file(f.name, f.size)
        for f in self.common_files:
            source_volume.store_file(f.name, f.size)

        # 3. Fork remote workers (multicore cloning, §II-C).
        worker_nodes = [vm for vm in cluster.worker_vms if vm.is_running]
        if not worker_nodes:
            raise ConfigurationError("no running worker VMs")
        plans = self.controller.plan_workers(
            [(vm.vm_id, vm.itype.cores) for vm in worker_nodes], env.now
        )
        for plan in plans:
            for wid in plan.worker_ids:
                self.controller.register(wid, plan.node_id, env.now)
                self.worker_logics[wid] = WorkerLogic(
                    wid, plan.node_id, self.controller.command
                )
        self.controller.close_registration(
            env.now,
            list(self.worker_logics),
            chunking=self.static_chunking,
            cost_hint=(
                self.compute_model.cost if self.static_chunking == "lpt_cost" else None
            ),
        )
        yield self._rtt()  # worker init + register round

        # 4. Pre-place / stage data according to the strategy.
        if strategy.data_local_to_workers:
            self._preplace_local(worker_nodes)
        staging_reqs = self._staging_requests(worker_nodes)
        if staging_reqs:
            staging_span = tel.start_span(
                "staging", parent=self._run_span, track="control",
                files=len(staging_reqs),
            )
            plan = StagingPlan(staging_reqs, concurrency=self.options.staging_concurrency)
            results = yield env.process(plan.execute(self.transfers, parent=staging_span))
            staging_span.end()
            self._mark_staged(results)

        # 5. Execution phase: spawn worker clones; watch for failures;
        #    apply scripted elasticity.
        if self.options.heartbeat_interval > 0:
            self.heartbeats = HeartbeatMonitor(
                self.options.heartbeat_config, metrics=tel.metrics
            )
            # frieda: allow[dropped-event] -- fire-and-forget daemon; joined via run_done
            env.process(self._heartbeat_sweep(), name="heartbeat-sweep")
        if self.controller.slo is not None or self._sample_queue:
            # frieda: allow[dropped-event] -- fire-and-forget daemon; joined via run_done
            env.process(self._observe_loop(), name="observe")
        if self.failure_schedule is not None or self.failure_mttf is not None:
            FailureInjector(
                env,
                cluster,
                schedule=self.failure_schedule,
                mttf_s=self.failure_mttf,
                silent_fraction=self.failure_silent_fraction,
                seed=self.options.seed,
            )
        if self.link_fault_schedule is not None or self.link_fault_mtbf is not None:
            nic_links = [
                name
                for vm_id in sorted(cluster.vms)
                for name in (f"{vm_id}.up", f"{vm_id}.down")
            ]
            self.link_injector = LinkFaultInjector(
                env,
                cluster.network,
                links=nic_links,
                schedule=self.link_fault_schedule,
                mtbf_s=self.link_fault_mtbf,
                mean_outage_s=self.link_fault_outage,
                seed=self.options.seed,
            )
        for vm in worker_nodes:
            self._spawn_node_workers(vm)
        for action in self.elasticity:
            # frieda: allow[dropped-event] -- fire-and-forget daemon; joined via run_done
            env.process(self._elastic(action), name=f"elastic-{action.action}")
        if self.master_outage is not None:
            # frieda: allow[dropped-event] -- fire-and-forget daemon; joined via run_done
            env.process(self._master_watchdog(), name="master-watchdog")
        self._maybe_finish()
        yield self.run_done
        self.end_time = env.now
        for vm in cluster.vms.values():
            vm.terminate()
        self._run_span.end(tasks=len(self.scheduler.completed))

    # -- staging -----------------------------------------------------------
    def _node_file_needs(self, worker_nodes: Sequence[VirtualMachine]) -> dict[str, list[DataFile]]:
        """Which files each node must hold before execution starts."""
        strategy = self.controller.strategy
        needs: dict[str, list[DataFile]] = {vm.vm_id: [] for vm in worker_nodes}
        for vm in worker_nodes:
            seen: set[str] = set()
            for f in self.common_files:
                if f.name not in seen:
                    needs[vm.vm_id].append(f)
                    seen.add(f.name)
            if strategy.replicate_all:
                for f in self.dataset:
                    if f.name not in seen:
                        needs[vm.vm_id].append(f)
                        seen.add(f.name)
            elif strategy.static_assignment and strategy.staged_before_execution:
                for plan in self.controller.plans_for(vm.vm_id):
                    for wid in plan.worker_ids:
                        for group in self.scheduler.planned_chunk(wid):
                            for f in group.files:
                                if f.name not in seen:
                                    needs[vm.vm_id].append(f)
                                    seen.add(f.name)
        return needs

    def _staging_requests(self, worker_nodes: Sequence[VirtualMachine]) -> list[TransferRequest]:
        strategy = self.controller.strategy
        if strategy.data_local_to_workers:
            return []
        requests: list[TransferRequest] = []
        for node_id, files in self._node_file_needs(worker_nodes).items():
            if not files:
                continue
            path = self._source_path_to(node_id)
            for f in files:
                self._record_wan(path, f.size)
                self._note_source_read(f.size)
                requests.append(
                    TransferRequest(f.name, f.size, path, tag=f"stage:{node_id}")
                )
        return requests

    def _mark_staged(self, results: Sequence[TransferResult]) -> None:
        """Land successful staging transfers on their node disks. A
        failed transfer leaves its file missing — the lazy fetch path
        gets one more chance at task time, and if that fails too the
        task degrades to a fetch error."""
        cluster = self.cluster
        for result in results:
            if not result.ok:
                continue
            node_id = result.tag.split(":", 1)[1]
            vm = cluster.vm(node_id)
            if vm.is_running:
                vm.local_disk.store_file(result.file_name, result.nbytes)
        for wid, logic in self.worker_logics.items():
            disk = cluster.vm(logic.node_id).local_disk
            for name in disk.file_names():
                logic.receive_file(name)

    def _preplace_local(self, worker_nodes: Sequence[VirtualMachine]) -> None:
        """Pre-partitioned local: data begins on the workers' disks
        (e.g. baked into the VM image, §IV-B) — no transfer cost."""
        for node_id, files in self._node_file_needs(worker_nodes).items():
            disk = self.cluster.vm(node_id).local_disk
            for f in files:
                disk.store_file(f.name, f.size)
        # Local strategies never stage chunks through _node_file_needs
        # (staged_before_execution is False), so place chunk data here.
        for wid, logic in self.worker_logics.items():
            disk = self.cluster.vm(logic.node_id).local_disk
            for group in self.scheduler.planned_chunk(wid):
                for f in group.files:
                    disk.store_file(f.name, f.size)
            for name in disk.file_names():
                logic.receive_file(name)

    # -- workers ----------------------------------------------------------
    def _spawn_node_workers(self, vm: VirtualMachine) -> None:
        for plan in self.controller.plans_for(vm.vm_id):
            for wid in plan.worker_ids:
                logic = self.worker_logics[wid]
                proc = self.env.process(
                    self._worker_loop(vm, logic), name=f"worker-{wid}"
                )
                vm.register_process(proc)
        if self.heartbeats is not None:
            beat = self.env.process(
                self._heartbeat_beat(vm), name=f"heartbeat-{vm.vm_id}"
            )
            # Registered so any VM death — crash or silent — stops the
            # beats; for silent deaths that silence IS the only signal.
            vm.register_process(beat)

    # -- liveness (detection → recovery, extension) ------------------------
    def _heartbeat_beat(self, vm: VirtualMachine):
        interval = self.options.heartbeat_interval
        try:
            while vm.is_running and not self.run_done.triggered:
                self.heartbeats.beat(vm.vm_id, self.env.now)
                yield self.env.timeout(interval)
        except Interrupt:
            return

    def _heartbeat_sweep(self):
        """Master-side sweep timer: a silently-dead node never reports,
        so only the controller's sweep can recover its in-flight tasks."""
        interval = self.options.heartbeat_interval
        while not self.run_done.triggered:
            yield self.env.timeout(interval)
            if self.run_done.triggered:
                return
            self.controller.sweep(self.heartbeats, self.env.now, self.controller.workers_on)
            self._maybe_finish()

    def _observe_loop(self):
        """Observation timer: the controller's tick (queue-depth events,
        SLO probes) at a fixed sim-time cadence. Deterministic —
        samples land at ``start + k * interval`` in simulated time (no
        wall-clock reads), so same-seed runs produce byte-identical
        merged traces."""
        interval = self.options.sample_interval
        if interval <= 0:
            interval = (
                self.options.heartbeat_interval
                if self.options.heartbeat_interval > 0
                else 1.0
            )
        while not self.run_done.triggered:
            yield self.env.timeout(interval)
            if self.run_done.triggered:
                return
            self.controller.observe(self.env.now, sample_queue=self._sample_queue)

    def _worker_loop(self, vm: VirtualMachine, logic: WorkerLogic):
        env = self.env
        wid = logic.worker_id
        prefetching = self.options.prefetch_depth > 0 and self.controller.strategy.lazy
        try:
            yield self._rtt()  # register + connection ack
            pending = yield from self._fetch(vm, logic)
            while pending is not None:
                assignment, task_start, transfer_seconds, task_span = pending
                if prefetching:
                    # Double buffering (extension): fetch task N+1's
                    # inputs while task N computes.
                    prefetch = env.process(self._prefetch(vm, logic), name=f"prefetch-{wid}")
                    vm.register_process(prefetch)
                yield from self._run_task(
                    vm, logic, assignment, task_start, transfer_seconds, span=task_span
                )
                self._maybe_finish()
                pending = (yield prefetch) if prefetching else (yield from self._fetch(vm, logic))
        except Interrupt as interrupt:
            now = env.now
            aborted = logic.abort_task(now, f"vm failure: {interrupt.cause}")
            cause = (
                interrupt.cause[1]
                if isinstance(interrupt.cause, tuple) and len(interrupt.cause) == 2
                else str(interrupt.cause)
            )
            if aborted is not None:
                self.task_records.append(
                    TaskRecord(
                        task_id=aborted.task_id,
                        worker_id=wid,
                        node_id=vm.vm_id,
                        start=aborted.started,
                        end=now,
                        ok=False,
                        error=aborted.error,
                    )
                )
            if is_silent_cause(cause):
                # Silent death: the connection did not break, so nothing
                # reports the loss. The task stays on the master's books
                # until the heartbeat sweep declares this node dead.
                return
            self.controller.on_worker_lost(
                wid, vm.vm_id, str(interrupt.cause), now, trace=True
            )
            self._maybe_finish()

    def _maybe_inject_death(self, vm: VirtualMachine, wid: str, task_id: int) -> bool:
        """Scripted chaos hook: kill/wedge this VM upon drawing a task.

        Returns True after scheduling the failure; the caller must then
        yield once so the kernel delivers the interrupt. A *crash* uses
        an ordinary cause (broken-connection bookkeeping in the
        interrupt handler); a *hang* uses a silent cause, so only the
        heartbeat sweep can recover it — exactly the two failure modes
        the real engines inject.
        """
        crash = self.crash_on_task.get(wid)
        if crash is not None and crash in (task_id, ANY_TASK):
            del self.crash_on_task[wid]
            self.cluster.fail_vm(vm.vm_id, cause=f"injected crash on task {task_id}")
            return True
        hang = self.hang_on_task.get(wid)
        if hang is not None and hang in (task_id, ANY_TASK):
            del self.hang_on_task[wid]
            self.cluster.fail_vm(
                vm.vm_id, cause=f"silent: injected hang on task {task_id}"
            )
            return True
        return False

    def _open_task_span(
        self, vm: VirtualMachine, assignment: Assignment, request_start: float
    ) -> SpanHandle:
        """Root span of one task's lifecycle tree, opened at the
        REQUEST_DATA instant; the dispatch round-trip is its first
        child, fetch/transfer/exec follow."""
        wid = assignment.worker_id
        span = self.telemetry.start_span(
            "task",
            parent=self._run_span,
            track=f"worker:{wid}",
            start=request_start,
            task=assignment.task_id,
            worker=wid,
            node=vm.vm_id,
            attempt=assignment.attempt,
        )
        self.telemetry.span_complete(
            "dispatch",
            request_start,
            self.env.now,
            parent=span,
            track=f"worker:{wid}",
            worker=wid,
            task=assignment.task_id,
        )
        return span

    def _fetch(self, vm: VirtualMachine, logic: WorkerLogic):
        """Process fragment: request the next assignment and stage its
        inputs — the worker's one draw step (§II-C: pull the next group,
        then execute it).

        Returns ``(assignment, task_start, transfer_seconds, span)`` or
        ``None`` when the worker is drained; ``task_start`` is the
        instant the REQUEST_DATA round trip returned. A VM death
        raises :class:`Interrupt` to the caller.
        """
        env = self.env
        sched = self.scheduler
        wid = logic.worker_id
        while True:
            if sched.done:
                return None
            request_start = env.now
            yield self._rtt()  # REQUEST_DATA round trip
            assignment = sched.next_for(wid)
            if assignment is None:
                if not sched.may_get_work_later(wid):
                    return None  # NO_MORE_DATA
                # Retry extension: work may reappear; poll briefly.
                yield env.timeout(max(self.options.control_rtt * 25, 0.05))
                continue
            if self._maybe_inject_death(vm, wid, assignment.task_id):
                # The interrupt we just scheduled is delivered at this
                # yield — twin of a real worker dying upon receiving
                # FILE_METADATA.
                yield env.timeout(0)
            task_span = self._open_task_span(vm, assignment, request_start)
            task_start = env.now
            try:
                transfer_seconds = yield from self._stage_inputs(
                    vm, logic, assignment, parent=task_span
                )
            except _FetchFailed as failure:
                self._report_fetch_failure(
                    vm, logic, assignment, failure, task_start, task_span
                )
                continue
            return assignment, task_start, transfer_seconds, task_span

    def _prefetch(self, vm: VirtualMachine, logic: WorkerLogic):
        """Process: one :meth:`_fetch` run ahead of the worker. A VM
        death interrupts the worker process too, whose handler does the
        loss bookkeeping, so here it only ends the prefetch."""
        try:
            return (yield from self._fetch(vm, logic))
        except Interrupt:
            return None

    def _stage_inputs(
        self,
        vm: VirtualMachine,
        logic: WorkerLogic,
        assignment: Assignment,
        parent: SpanHandle | None = None,
    ):
        """Process fragment: lazily transfer the assignment's missing
        inputs; returns the seconds spent waiting on transfers."""
        env = self.env
        wid = logic.worker_id
        missing = logic.missing_files(assignment.group.file_names)
        if not missing:
            return 0.0
        t0 = env.now
        fetch_span = self.telemetry.start_span(
            "fetch",
            parent=parent,
            track=f"worker:{wid}",
            worker=wid,
            task=assignment.task_id,
            files=len(missing),
        )
        procs = [
            env.process(
                self._transfer_to_node(
                    self._file(name), vm.vm_id, tag=f"rt:{wid}", parent=fetch_span
                )
            )
            for name in missing
        ]
        yield env.all_of(procs)
        if not vm.is_running:
            raise Interrupt((vm.vm_id, "vm died during transfer"))
        # A transfer that exhausted its retries never landed on disk;
        # the task cannot run without its inputs.
        still_missing = [
            name for name in missing if not vm.local_disk.has_file(name)
        ]
        if still_missing:
            fetch_span.end(ok=False, missing=len(still_missing))
            raise _FetchFailed(still_missing)
        for name in missing:
            logic.receive_file(name)
        fetch_span.end()
        return env.now - t0

    def _report_fetch_failure(
        self,
        vm: VirtualMachine,
        logic: WorkerLogic,
        assignment: Assignment,
        failure: _FetchFailed,
        task_start: float,
        span: SpanHandle | None,
    ) -> None:
        """Exhausted input transfers degrade to a task error: the master
        hears a normal error report and the existing FaultTracker /
        retry machinery decides what happens next."""
        now = self.env.now
        wid = logic.worker_id
        message = "fetch failed: " + ", ".join(failure.files)
        retried = self.controller.on_task_error(wid, assignment.task_id, message, now)
        self.telemetry.event(
            "task.fetch_failed", assignment.task_id,
            track=f"worker:{wid}", worker=wid, retried=retried,
        )
        if span is not None:
            span.end(ok=False, error="fetch-failed")
        self.task_records.append(
            TaskRecord(
                task_id=assignment.task_id,
                worker_id=wid,
                node_id=vm.vm_id,
                start=task_start,
                end=now,
                ok=False,
                error=message,
                attempt=assignment.attempt,
            )
        )
        self._maybe_finish()

    def _run_task(
        self,
        vm: VirtualMachine,
        logic: WorkerLogic,
        assignment: Assignment,
        task_start: float,
        transfer_seconds: float,
        span: SpanHandle | None = None,
    ):
        env = self.env
        group = assignment.group
        wid = logic.worker_id
        # Execute: take a core, charge disk reads + compute seconds.
        with vm.cpu.request() as slot:
            yield slot
            exec_start = env.now
            record = logic.begin_task(group.index, group.file_names, exec_start)
            if self.options.include_disk_io and group.total_size > 0:
                read = self.cluster.network.start_flow(
                    vm.local_disk.read_path(), group.total_size, tag=f"read:{wid}"
                )
                yield read.done
            # Heterogeneous hardware: slower cores stretch the task
            # (costs are quoted in reference-core seconds).
            cost = float(self.compute_model.cost(group)) / vm.itype.core_speed
            if cost > 0:
                yield env.timeout(cost)
            logic.finish_task(env.now, ok=True)
        self.scheduler.report_success(wid, group.index)
        self.telemetry.span_complete(
            "exec",
            exec_start,
            env.now,
            parent=span,
            track=f"worker:{wid}",
            worker=wid,
            node=vm.vm_id,
            task=group.index,
        )
        self._h_exec.observe(env.now - exec_start)
        self.telemetry.event(
            "task.report", group.index, track=f"worker:{wid}", worker=wid
        )
        if span is not None:
            span.end(ok=True)
        self.task_records.append(
            TaskRecord(
                task_id=group.index,
                worker_id=wid,
                node_id=vm.vm_id,
                start=task_start,
                end=env.now,
                ok=True,
                attempt=assignment.attempt,
                transfer_seconds=transfer_seconds,
            )
        )

    # -- elasticity -----------------------------------------------------------
    def _elastic(self, action: ElasticAction):
        env = self.env
        delay = action.time - env.now
        if delay > 0:
            yield env.timeout(delay)
        if self.run_done.triggered:
            return
        if action.action == "add":
            vm, booted = self.provisioner.add_worker(
                self.cluster, action.instance_type, boot_delay=action.boot_delay
            )
            yield booted
            if self.run_done.triggered:
                return
            self.telemetry.event(
                "elastic.add", vm.vm_id, track="control", itype=action.instance_type
            )
            plan = self.controller.on_worker_added(vm.vm_id, vm.itype.cores, env.now)
            for wid in plan.worker_ids:
                self.worker_logics[wid] = WorkerLogic(
                    wid, vm.vm_id, self.controller.command
                )
            # Elastic nodes still need the common data before computing.
            for f in self.common_files:
                yield from self._transfer_to_node(
                    f, vm.vm_id, tag=f"stage:{vm.vm_id}", parent=self._run_span
                ) or iter(())
                for wid in plan.worker_ids:
                    self.worker_logics[wid].receive_file(f.name)
            self._spawn_node_workers(vm)
        else:
            node_id = action.node_id
            vm = self.cluster.vms.get(node_id)
            if vm is None:
                raise ConfigurationError(
                    f"elastic remove names unknown node {node_id!r}"
                )
            if vm.is_gone:
                # Already removed or failed: its work was accounted for
                # then, so nothing is removed twice.
                self.controller.log(env.now, "ELASTIC_REMOVE_IGNORED", node_id)
                return
            self.telemetry.event("elastic.remove", node_id, track="control")
            self.controller.on_worker_removed(node_id, env.now)
            self.cluster.fail_vm(node_id, cause="elastic-remove")

    # -- outcome ---------------------------------------------------------------
    def _span_unions(self) -> dict[str, float]:
        """Union time per Fig 6 span key over this run's span log slice."""
        intervals = self.telemetry.spans.intervals(
            ("transfer", "exec", "staging"), self._first_span
        )
        return {key: union_time(pairs) for key, pairs in intervals.items()}

    def outcome(self) -> RunOutcome:
        unions = self._span_unions()
        cost = None
        if self.billing is not None:
            if self.cluster.shared_storage is not None:
                self.billing.record_storage(
                    StorageTier.NETWORK,
                    self.cluster.shared_storage.used_bytes,
                    self.end_time,
                )
            cost = self.billing.report(self.cluster)
        events = self.controller.events
        results = self.transfers.results
        outcome = self.controller.outcome(
            makespan=self.end_time - self.start_time,
            transfer_time=unions["transfer"],
            execution_time=unions["exec"],
            bytes_transferred=sum(r.nbytes for r in results if r.ok),
            task_records=self.task_records,
            worker_busy={
                wid: logic.busy_time for wid, logic in self.worker_logics.items()
            },
            cost=cost,
            extra={
                "staging_time": unions["staging"],
                "end_to_end": self.end_time,
                "failures": [e.detail for e in events if e.kind == "WORKER_FAILED"],
                "master_failed": any(e.kind == "MASTER_FAILED" for e in events),
                "master_recovered": any(e.kind == "MASTER_RECOVERED" for e in events),
                "transfer_failures": sum(1 for r in results if not r.ok),
                "transfer_attempts": sum(r.attempts for r in results),
                "link_faults": (
                    self.link_injector.faults_injected
                    if self.link_injector is not None
                    else 0
                ),
            },
        )
        # Read after outcome() has settled stranded tasks.
        outcome.extra["metrics"] = self.telemetry.metrics.snapshot()
        return outcome
