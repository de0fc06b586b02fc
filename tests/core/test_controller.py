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
        assert [w for p in plans for w in p.worker_ids] == [
            "n0:0", "n0:1", "n0:2", "n0:3", "n1:0", "n1:1",
        ]

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

    def test_elastic_add(self):
        controller, scheduler, _ = _running()
        controller.plan_workers([("n0", 4)])
        plan = controller.on_worker_added("n9", cores=2, time=30.0)
        assert plan.worker_ids == ("n9:0", "n9:1")
        assert len(controller.worker_plans) == 2
        assert scheduler.workers[-2:] == ("n9:0", "n9:1")

    def test_elastic_remove(self):
        controller, _, _ = _running()
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


def _bound(strategy=StrategyKind.REAL_TIME):
    """A bound controller with its master started over four one-file
    tasks and nobody registered yet."""
    controller = ControllerLogic(strategy=strategy, grouping=PartitionScheme.SINGLE)
    tel = Telemetry(record=True)
    controller.bind(synthetic_dataset("d", 4, 10), tel, lambda: 7.0)
    return controller, controller.start_master(), tel


def _counters(tel):
    counters = tel.metrics.snapshot()["counters"]
    return counters["elasticity.added"], counters["elasticity.removed"]


class TestMembership:
    def test_registration_before_the_close_is_silent(self):
        controller, scheduler, tel = _bound()
        controller.register("w0", "n0", 1.0)
        controller.register("w1", "n1", 1.0)
        assert scheduler.workers == ("w0", "w1")
        assert [e.kind for e in controller.events] == ["PARTITION_GENERATED"]
        assert controller.late_joins == []
        assert controller.elasticity.events == []
        assert _counters(tel) == (0, 0)
        assert list(controller.workers_on("n0")) == ["w0"]

    def test_registration_after_the_close_is_a_late_join(self):
        controller, scheduler, tel = _bound()
        controller.register("w0", "n0", 1.0)
        controller.close_registration(2.0, ["w0"])
        controller.register("w0:r1", "n1", 5.0)
        assert scheduler.workers == ("w0", "w0:r1")
        assert controller.late_joins == ["w0:r1"]
        (event,) = _events(controller, "WORKER_JOINED_LATE")
        assert (event.time, event.detail) == (5.0, "w0:r1")
        assert [(e.action, e.node_id, e.reason) for e in controller.elasticity.events] == [
            ("add", "n1", "late-join")
        ]
        assert _counters(tel) == (1, 0)
        outcome = controller.outcome(makespan=1.0, transfer_time=0.0, execution_time=0.0)
        assert outcome.extra["late_joins"] == ["w0:r1"]
        assert outcome.extra["elasticity_events"] == controller.elasticity.events

    def test_close_logs_the_missing_expected_workers(self):
        controller, _, _ = _bound()
        for wid in ("w0", "w2"):
            controller.register(wid, wid, 1.0)
        controller.close_registration(3.0, ["w0", "w2"], expected=("w0", "w1", "w2", "w3"))
        (event,) = _events(controller, "REGISTRATION_WINDOW_CLOSED")
        assert (event.time, event.detail) == (3.0, "proceeding without w1,w3")
        assert controller.elasticity.active_nodes == {"w0", "w2"}

    def test_close_with_everyone_present_logs_nothing(self):
        controller, _, _ = _bound()
        controller.register("w0", "n0", 1.0)
        controller.close_registration(3.0, ["w0"], expected=("w0",))
        assert _events(controller, "REGISTRATION_WINDOW_CLOSED") == []
        assert controller.elasticity.active_nodes == {"n0"}

    def test_close_partitions_in_the_order_given(self):
        controller, scheduler, _ = _bound(StrategyKind.PRE_PARTITIONED_REMOTE)
        for wid in ("w0", "w1"):
            controller.register(wid, "n0", 1.0)
        controller.close_registration(2.0, ["w1", "w0"])
        first = [g.index for g in scheduler.planned_chunk("w1")]
        second = [g.index for g in scheduler.planned_chunk("w0")]
        assert first + second == sorted(first + second)
        assert first and second

    def test_scripted_clones_are_not_late_joins(self):
        controller, scheduler, tel = _bound()
        controller.register("n0:0", "n0", 1.0)
        controller.close_registration(1.0, ["n0:0"])
        controller.on_worker_added("n9", cores=2, time=4.0)
        assert scheduler.workers == ("n0:0", "n9:0", "n9:1")
        assert controller.late_joins == []
        assert _events(controller, "WORKER_JOINED_LATE") == []
        assert [e.detail for e in _events(controller, "WORKER_ADDED")] == ["n9 (2 clones)"]
        assert _counters(tel) == (1, 0)


class TestIsolationRule:
    def _membership(self):
        controller, scheduler, tel = _bound()
        for wid, node in (("a0", "n0"), ("a1", "n0"), ("b0", "n1")):
            controller.register(wid, node, 0.0)
        controller.close_registration(0.0, ["a0", "a1", "b0"])
        return controller, tel

    @staticmethod
    def _losses(controller):
        return [
            (e.node_id, e.reason)
            for e in controller.elasticity.events
            if e.action == "remove"
        ]

    def test_node_lost_once_after_its_last_worker(self):
        controller, tel = self._membership()
        controller.on_worker_lost("a0", "n0", "gone", 1.0)
        assert self._losses(controller) == []
        assert "n0" in controller.elasticity.active_nodes
        controller.on_worker_lost("a1", "n0", "gone", 2.0)
        assert self._losses(controller) == [("n0", "fault-isolation")]
        assert controller.elasticity.events[-1].time == 7.0  # the bound clock
        controller.fault_tracker.record_error("a1", "late error")
        controller.on_worker_lost("b0", "n1", "gone", 3.0)
        assert self._losses(controller) == [
            ("n0", "fault-isolation"),
            ("n1", "fault-isolation"),
        ]
        assert [(e.key, e.value) for e in tel.events if e.key == "elastic.node_lost"] == [
            ("elastic.node_lost", "n0"),
            ("elastic.node_lost", "n1"),
        ]
        assert _counters(tel) == (0, 2)

    def test_isolation_by_errors_counts_too(self):
        controller, _ = self._membership()
        controller.fault_tracker.record_error("b0", "segfault")  # isolate_after=1
        assert self._losses(controller) == [("n1", "fault-isolation")]

    def test_never_lost_after_a_scripted_removal(self):
        controller, tel = self._membership()
        controller.on_worker_added("n9", cores=2, time=1.0)
        controller.on_worker_removed("n9", time=2.0)
        controller.on_worker_lost("n9:0", "n9", "vm gone", 3.0)
        controller.on_worker_lost("n9:1", "n9", "vm gone", 3.0)
        assert [(e.action, e.node_id, e.reason) for e in controller.elasticity.events] == [
            ("add", "n9", "scenario"),
            ("remove", "n9", "scenario"),
        ]
        assert _counters(tel) == (1, 1)

    def test_worker_dead_before_the_close_never_makes_its_node_active(self):
        controller, scheduler, _ = _bound()
        controller.register("a0", "n0", 0.0)
        controller.register("b0", "n1", 0.0)
        controller.on_worker_lost("a0", "n0", "gone", 0.5)
        controller.close_registration(1.0, ["a0", "b0"])
        assert controller.elasticity.active_nodes == {"n1"}
        assert self._losses(controller) == []


def _events(controller, kind):
    return [e for e in controller.events if e.kind == kind]


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
        assert outcome.extra == {
            "k": 1,
            "nodes_declared_dead": [],
            "late_joins": [],
            "elasticity_events": [],
            "slo_breaches": [],
        }
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


class TestOneMembershipPath:
    def test_engines_decide_membership_only_through_the_controller(self):
        """Registration, the partition close and the node-lost rule live
        once, in ``ControllerLogic``: no engine or runtime module
        registers a worker with the scheduler, cuts the static chunks,
        keeps its own elasticity manager or hooks fault isolation."""
        offenders = [
            f"{where} {name}"
            for where, name, _ in _engine_calls()
            if name in ("register_worker", "partition_among", "ElasticityManager")
        ]
        offenders += [
            f"{where} .on_isolate ="
            for where, node in _engine_nodes()
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for target in getattr(node, "targets", None) or [node.target]
            if isinstance(target, ast.Attribute) and target.attr == "on_isolate"
        ]
        assert offenders == []


def _engine_nodes():
    """(location, node) of every AST node under ``engines/`` and
    ``runtime/``."""
    package = Path(repro.__file__).parent
    for sub in ("engines", "runtime"):
        for path in sorted((package / sub).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                yield f"{path.relative_to(package)}:{getattr(node, 'lineno', 0)}", node


def _engine_calls():
    """(location, callee name, receiver name) of every call under
    ``engines/`` and ``runtime/``; the receiver is the last name before
    the dot (``self.controller.sweep`` → ``controller``)."""
    for where, node in _engine_nodes():
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
        yield where, name, receiver


class TestOneLossPath:

    def test_engines_report_loss_only_through_the_controller(self):
        """No engine or runtime module requeues a lost worker's tasks or
        builds its failure report itself: ``ControllerLogic.on_worker_lost``
        is the one path, so the three planes cannot drift apart again."""
        offenders = [
            f"{where} {name}"
            for where, name, _ in _engine_calls()
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
            for where, name, receiver in _engine_calls()
            if (name == "sweep" and receiver != "controller")
            or (name == "evaluate" and receiver == "slo")
        ]
        package = Path(repro.__file__).parent
        for sub in ("engines", "runtime"):
            for path in sorted((package / sub).rglob("*.py")):
                if "_may_get_work_later" in path.read_text():
                    offenders.append(f"{path.relative_to(package)} _may_get_work_later")
        assert offenders == []


class TestOneDrawStep:
    def test_simulated_workers_draw_in_one_function(self):
        """The simulated worker pulls its next group through one draw
        step, with or without prefetch: ``next_for`` is called from a
        single function in ``engines/simulated.py``, so a second copy
        cannot drift."""
        path = Path(repro.__file__).parent / "engines" / "simulated.py"
        callers: set[str] = set()
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "next_for"
                ):
                    callers.add(func.name)
        assert len(callers) == 1, callers
