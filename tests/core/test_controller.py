"""Unit tests for the controller logic (control plane)."""

import ast
from pathlib import Path

import pytest

import repro
from repro.core.commands import CommandTemplate
from repro.core.controller import ControllerLogic
from repro.core.fault import RetryPolicy
from repro.core.messages import WorkerFailed
from repro.core.monitoring import HeartbeatConfig, HeartbeatMonitor, Liveness
from repro.core.strategies import StrategyKind
from repro.data.files import synthetic_dataset
from repro.data.partition import PartitionScheme
from repro.errors import ConfigurationError
from repro.telemetry import Telemetry


@pytest.fixture
def controller():
    return ControllerLogic(
        strategy=StrategyKind.REAL_TIME,
        grouping=PartitionScheme.PAIRWISE_ADJACENT,
        command=CommandTemplate(template="cmp $inp1 $inp2"),
    )


class TestPartitionGeneration:
    def test_generates_groups(self, controller):
        ds = synthetic_dataset("d", 8, 100)
        groups = controller.generate_partitions(ds)
        assert len(groups) == 4
        assert controller.events[-1].kind == "PARTITION_GENERATED"

    def test_command_arity_validated(self):
        controller = ControllerLogic(
            grouping=PartitionScheme.SINGLE,
            command=CommandTemplate(template="cmp $inp1 $inp2"),
        )
        with pytest.raises(ConfigurationError):
            controller.generate_partitions(synthetic_dataset("d", 4, 1))

    def test_partition_info_message(self, controller):
        ds = synthetic_dataset("d", 4, 50)
        controller.generate_partitions(ds)
        msg = controller.partition_info_message()
        assert len(msg.groups) == 2
        assert msg.sizes[0] == (50, 50)

    def test_partition_info_before_generation_rejected(self, controller):
        with pytest.raises(ConfigurationError):
            controller.partition_info_message()


class TestStartMaster:
    def test_message_carries_configuration(self, controller):
        msg = controller.start_master_message()
        assert msg.strategy == "real_time"
        assert msg.grouping == "pairwise_adjacent"
        assert msg.multicore is True


class TestWorkerPlanning:
    def test_multicore_clones_per_core(self, controller):
        plans = controller.plan_workers([("n0", 4), ("n1", 2)])
        assert [p.clones for p in plans] == [4, 2]
        assert controller.all_worker_ids == (
            "n0:0", "n0:1", "n0:2", "n0:3", "n1:0", "n1:1",
        )

    def test_single_clone_without_multicore(self):
        controller = ControllerLogic(multicore=False)
        plans = controller.plan_workers([("n0", 4)])
        assert plans[0].clones == 1

    def test_fork_event_logged(self, controller):
        controller.plan_workers([("n0", 4)])
        assert any(e.kind == "FORK_REMOTE_WORKERS" for e in controller.events)


class TestRuntimeReports:
    def test_worker_failure_recorded_and_isolated(self, controller):
        controller.plan_workers([("n0", 2)])
        controller.on_worker_failed(
            WorkerFailed(worker_id="n0:1", node_id="n0", error="gone"), time=5.0
        )
        assert controller.fault_tracker.is_lost("n0:1")
        kinds = [e.kind for e in controller.events]
        assert "WORKER_FAILED" in kinds

    def test_error_isolation_logged(self):
        controller, scheduler, _ = _running()
        task = scheduler.next_for("w0").task_id
        assert not controller.on_task_error("w0", task, "segfault", 1.0)
        assert controller.fault_tracker.is_isolated("w0")  # isolate_after defaults to 1
        assert [(e.kind, e.detail) for e in controller.events[-2:]] == [
            ("WORKER_ERROR", "w0: segfault"),
            ("WORKER_ISOLATED", "w0"),
        ]

    def test_task_error_counted_once(self):
        controller, scheduler, tel = _running(RetryPolicy.resilient(), isolate_after=2)
        task = scheduler.next_for("w0").task_id
        assert controller.on_task_error("w0", task, "flaky", 1.0)
        assert controller.fault_tracker.health("w0").errors == 1
        assert not controller.fault_tracker.is_isolated("w0")
        assert _kinds(controller, "WORKER_ERROR") == ["w0: flaky"]
        assert _kinds(controller, "WORKER_ISOLATED") == []
        assert tel.metrics.snapshot()["counters"]["scheduler.task_errors"] == 1

    def test_elastic_add(self, controller):
        controller.plan_workers([("n0", 4)])
        plan = controller.on_worker_added("n9", cores=2, time=30.0)
        assert plan.worker_ids == ("n9:0", "n9:1")
        assert len(controller.worker_plans) == 2

    def test_elastic_remove(self, controller):
        controller.plan_workers([("n0", 4), ("n1", 4)])
        controller.on_worker_removed("n0", time=10.0)
        assert [p.node_id for p in controller.worker_plans] == ["n1"]


def _running(retry_policy=None, isolate_after=1):
    """A bound controller with its master started over four one-file
    tasks and two registered workers."""
    controller = ControllerLogic(
        grouping=PartitionScheme.SINGLE,
        retry_policy=retry_policy,
        isolate_after=isolate_after,
    )
    tel = Telemetry(record=True)
    controller.bind(synthetic_dataset("d", 4, 10), tel, lambda: 0.0)
    scheduler = controller.start_master()
    for wid in ("w0", "w1"):
        scheduler.register_worker(wid)
    scheduler.partition_among()
    return controller, scheduler, tel


def _kinds(controller, kind):
    return [e.detail for e in controller.events if e.kind == kind]


class TestWorkerLost:
    def test_in_flight_task_requeued_to_a_peer(self):
        controller, scheduler, _ = _running(RetryPolicy.resilient())
        task = scheduler.next_for("w0").task_id
        assert controller.on_worker_lost("w0", "n0", "gone", 2.0)
        assert not scheduler.has_in_flight("w0", task)
        drawn = []
        while (assignment := scheduler.next_for("w1")) is not None:
            drawn.append(assignment.task_id)
            scheduler.report_success("w1", assignment.task_id)
        assert task in drawn
        assert scheduler.done and scheduler.summary()["lost"] == 0

    def test_paper_faithful_loss_records_the_task_lost(self):
        controller, scheduler, _ = _running()
        scheduler.next_for("w0")
        controller.on_worker_lost("w0", "n0", "gone", 2.0)
        assert scheduler.summary()["lost"] >= 1

    def test_failure_logged_once_with_time_and_cause(self):
        controller, _, _ = _running()
        controller.on_worker_lost("w0", "n0", "gone", 2.0)
        assert _kinds(controller, "WORKER_FAILED") == ["w0: gone"]
        assert controller.events[-1].time == 2.0

    def test_loss_isolates_below_the_error_threshold(self):
        controller, scheduler, _ = _running(isolate_after=2)
        isolated = []
        controller.fault_tracker.on_isolate = lambda wid, _h: isolated.append(wid)
        task = scheduler.next_for("w0").task_id
        controller.on_task_error("w0", task, "flaky", 1.0)
        assert isolated == []
        controller.on_worker_lost("w0", "n0", "gone", 2.0)
        assert isolated == ["w0"]
        assert controller.fault_tracker.is_isolated("w0")
        assert scheduler.next_for("w0") is None

    def test_second_report_of_one_death_is_a_no_op(self):
        # A heartbeat sweep and a broken connection can race to report
        # the same worker.
        controller, scheduler, tel = _running(RetryPolicy.resilient())
        scheduler.next_for("w0")
        assert controller.on_worker_lost("w0", "n0", "missed heartbeats", 1.0)
        events = list(controller.events)
        pending = scheduler.pending_count
        assert not controller.on_worker_lost("w0", "n0", "connection lost", 2.0)
        assert controller.events == events
        assert scheduler.pending_count == pending
        counters = tel.metrics.snapshot()["counters"]
        assert counters["scheduler.workers_lost"] == 1
        assert counters["scheduler.retried"] == 1

    def test_trace_records_worker_failed_event(self):
        controller, _, tel = _running()
        controller.on_worker_lost("w0", "n0", "gone", 1.0)
        assert [e.key for e in tel.events] == []
        controller.on_worker_lost("w1", "n1", "vm crash", 1.0, trace=True)
        (event,) = tel.events
        assert (event.key, event.value) == ("worker.failed", "w1")

    def test_declare_dead_logs_before_the_loss(self):
        controller, _, tel = _running()
        controller.declare_dead("n0", "missed heartbeats", 3.0)
        controller.on_worker_lost("w0", "n0", "heartbeat: declared dead", 3.0)
        assert [e.kind for e in controller.events[-2:]] == [
            "NODE_DECLARED_DEAD",
            "WORKER_FAILED",
        ]
        assert _kinds(controller, "NODE_DECLARED_DEAD") == ["n0: missed heartbeats"]
        assert [e.key for e in tel.events] == ["node.declared_dead"]


class TestOutcome:
    def test_common_fields_come_from_the_controller(self):
        controller, scheduler, _ = _running()
        while (assignment := scheduler.next_for("w0")) is not None:
            scheduler.report_success("w0", assignment.task_id)
        outcome = controller.outcome(
            makespan=1.0, transfer_time=0.0, execution_time=1.0, extra={"k": 1}
        )
        assert outcome.strategy is StrategyKind.REAL_TIME
        assert outcome.grouping is PartitionScheme.SINGLE
        assert (outcome.tasks_total, outcome.tasks_completed) == (4, 4)
        assert outcome.extra == {"k": 1, "nodes_declared_dead": [], "slo_breaches": []}
        assert [e.kind for e in outcome.controller_events] == ["PARTITION_GENERATED"]


class TestSweep:
    def _monitored(self, nodes):
        """A running controller over the given node → workers map, and
        a monitor whose every node has gone silent."""
        controller, scheduler, _ = _running(RetryPolicy.resilient())
        for workers in nodes.values():
            for wid in workers:
                if wid not in scheduler.workers:
                    scheduler.register_worker(wid)
        monitor = HeartbeatMonitor(HeartbeatConfig(suspect_after=1.0, dead_after=2.0))
        for node in nodes:
            monitor.beat(node, 0.0)
        return controller, monitor, lambda node: nodes[node]

    def test_node_lost_over_its_connection_is_forgotten(self):
        controller, monitor, workers_on = self._monitored({"w0": ("w0",)})
        controller.on_worker_lost("w0", "w0", "connection lost", 1.0)
        assert controller.sweep(monitor, 5.0, workers_on) == []
        assert controller.nodes_declared_dead == set()
        assert _kinds(controller, "NODE_DECLARED_DEAD") == []
        assert _kinds(controller, "WORKER_FAILED") == ["w0: connection lost"]
        assert monitor.liveness("w0", 5.0) is Liveness.UNKNOWN

    def test_clone_bearing_node_reports_each_clone_once(self):
        controller, monitor, workers_on = self._monitored({"n0": ("w0", "w1")})
        assert controller.sweep(monitor, 1.5, workers_on) == []
        assert controller.sweep(monitor, 5.0, workers_on) == ["n0"]
        assert controller.sweep(monitor, 9.0, workers_on) == []
        assert _kinds(controller, "NODE_DECLARED_DEAD") == ["n0: missed heartbeats"]
        assert _kinds(controller, "WORKER_FAILED") == [
            "w0: heartbeat: declared dead",
            "w1: heartbeat: declared dead",
        ]
        outcome = controller.outcome(makespan=9.0, transfer_time=0.0, execution_time=0.0)
        assert outcome.extra["nodes_declared_dead"] == ["n0"]


class TestOneLossPath:
    @staticmethod
    def _calls(*subs):
        """(location, callee name, receiver name) of every call under
        the given packages; the receiver is the last name before the
        dot (``self.controller.sweep`` → ``controller``)."""
        package = Path(repro.__file__).parent
        for sub in subs:
            for path in sorted((package / sub).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text(), str(path))):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    receiver = ""
                    if isinstance(func, ast.Attribute):
                        name, value = func.attr, func.value
                        receiver = (
                            value.attr if isinstance(value, ast.Attribute)
                            else getattr(value, "id", "")
                        )
                    else:
                        name = getattr(func, "id", "")
                    yield f"{path.relative_to(package)}:{node.lineno}", name, receiver

    def test_engines_report_loss_only_through_the_controller(self):
        """No engine or runtime module requeues a lost worker's tasks or
        builds its failure report itself: ``ControllerLogic.on_worker_lost``
        is the one path, so the three planes cannot drift apart again."""
        offenders = [
            f"{where} {name}"
            for where, name, _ in self._calls("engines", "runtime")
            if name in ("worker_lost", "WorkerFailed")
        ]
        assert offenders == []

    def test_engines_sweep_observe_and_idle_only_through_the_core(self):
        """The liveness sweep, the SLO tick and the idle-worker rule
        live once: ``ControllerLogic.sweep``/``observe`` and
        ``MasterScheduler.may_get_work_later``. No engine sweeps a
        heartbeat monitor, evaluates SLO probes or keeps its own idle
        rule."""
        offenders = [
            f"{where} {receiver}.{name}"
            for where, name, receiver in self._calls("engines", "runtime")
            if (name == "sweep" and receiver != "controller")
            or (name == "evaluate" and receiver == "slo")
        ]
        package = Path(repro.__file__).parent
        for sub in ("engines", "runtime"):
            for path in sorted((package / sub).rglob("*.py")):
                if "_may_get_work_later" in path.read_text():
                    offenders.append(f"{path.relative_to(package)} _may_get_work_later")
        assert offenders == []
