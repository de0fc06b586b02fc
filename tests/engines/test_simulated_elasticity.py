"""Elasticity on the simulated engine (§V-A Elastic)."""

import pytest

from repro.cloud.cluster import ClusterSpec
from repro.cloud.failures import FailureSchedule
from repro.cloud.instance import M1_SMALL
from repro.core.strategies import StrategyKind
from repro.data.files import DataFile, synthetic_dataset
from repro.data.partition import PartitionScheme
from repro.engines.compute import FixedComputeModel
from repro.engines.simulated import ElasticAction, SimulatedEngine, SimulationOptions
from repro.errors import ConfigurationError
from repro.transfer.base import TransferProtocol


class _Raw(TransferProtocol):
    handshake_latency = 0.0
    efficiency = 1.0
    streams = 1


def run(elasticity=(), workers=2, n_files=32, cost=4.0, **kwargs):
    spec = ClusterSpec(num_workers=workers)
    engine = SimulatedEngine(spec, SimulationOptions(protocol=_Raw()))
    ds = synthetic_dataset("d", n_files, "1 KB")
    return engine.run(
        ds,
        compute_model=FixedComputeModel(cost),
        strategy=StrategyKind.REAL_TIME,
        grouping=PartitionScheme.SINGLE,
        elasticity=elasticity,
        **kwargs,
    )


class TestScaleOut:
    def test_added_worker_shortens_makespan(self):
        base = run()
        elastic = run(elasticity=[ElasticAction(time=1.0, action="add")])
        assert elastic.makespan < base.makespan

    def test_added_worker_processes_tasks(self):
        outcome = run(elasticity=[ElasticAction(time=1.0, action="add")])
        late_nodes = {r.node_id for r in outcome.task_records} - {"worker1", "worker2"}
        assert late_nodes  # the elastic node did real work

    def test_addition_goes_through_controller(self):
        outcome = run(elasticity=[ElasticAction(time=1.0, action="add")])
        kinds = [e.kind for e in outcome.controller_events]
        assert "WORKER_ADDED" in kinds

    def test_heterogeneous_addition(self):
        outcome = run(
            elasticity=[ElasticAction(time=1.0, action="add", instance_type=M1_SMALL)]
        )
        assert outcome.tasks_completed == outcome.tasks_total

    def test_boot_delay_respected(self):
        fast = run(elasticity=[ElasticAction(time=1.0, action="add", boot_delay=0.0)])
        slow = run(elasticity=[ElasticAction(time=1.0, action="add", boot_delay=60.0)])
        assert fast.makespan <= slow.makespan

    def test_elastic_node_receives_common_data_first(self):
        spec = ClusterSpec(num_workers=1)
        engine = SimulatedEngine(spec, SimulationOptions(protocol=_Raw()))
        ds = synthetic_dataset("d", 16, "1 KB")
        outcome = engine.run(
            ds,
            compute_model=FixedComputeModel(3.0),
            strategy=StrategyKind.REAL_TIME,
            common_files=[DataFile("db", 10_000_000)],
            elasticity=[ElasticAction(time=1.0, action="add")],
        )
        assert outcome.tasks_completed == outcome.tasks_total
        # DB staged twice: once to the original node, once to the
        # elastic one.
        assert outcome.bytes_transferred >= 2 * 10_000_000

    def test_late_addition_after_completion_is_noop(self):
        outcome = run(
            n_files=2,
            cost=0.1,
            elasticity=[ElasticAction(time=10_000.0, action="add")],
        )
        assert outcome.tasks_completed == 2


class TestScaleIn:
    def test_removed_worker_stops_processing(self):
        outcome = run(
            workers=3,
            elasticity=[ElasticAction(time=5.0, action="remove", node_id="worker2")],
        )
        kinds = [e.kind for e in outcome.controller_events]
        assert "WORKER_REMOVED" in kinds
        late = [
            r for r in outcome.task_records if r.node_id == "worker2" and r.start > 6.0 and r.ok
        ]
        assert late == []

    def test_removal_may_lose_in_flight_tasks(self):
        outcome = run(
            workers=2,
            elasticity=[ElasticAction(time=5.0, action="remove", node_id="worker1")],
        )
        assert outcome.tasks_completed + outcome.tasks_lost == outcome.tasks_total

    @staticmethod
    def _removal_log(outcome):
        return [
            (e.kind, e.detail)
            for e in outcome.controller_events
            if e.kind in ("WORKER_REMOVED", "ELASTIC_REMOVE_IGNORED")
        ]

    def test_second_remove_of_a_node_is_ignored(self):
        outcome = run(
            workers=3,
            elasticity=[
                ElasticAction(time=5.0, action="remove", node_id="worker2"),
                ElasticAction(time=9.0, action="remove", node_id="worker2"),
            ],
        )
        assert self._removal_log(outcome) == [
            ("WORKER_REMOVED", "worker2"),
            ("ELASTIC_REMOVE_IGNORED", "worker2"),
        ]
        assert outcome.extra["metrics"]["counters"]["cluster.vm_failures"] == 1

    def test_remove_after_a_crash_is_ignored(self):
        outcome = run(
            workers=3,
            failure_schedule=FailureSchedule.of((4.0, "worker2")),
            elasticity=[ElasticAction(time=9.0, action="remove", node_id="worker2")],
        )
        assert self._removal_log(outcome) == [("ELASTIC_REMOVE_IGNORED", "worker2")]
        assert outcome.extra["metrics"]["counters"]["cluster.vm_failures"] == 1
        assert outcome.tasks_completed + outcome.tasks_lost == outcome.tasks_total


class TestBadActions:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"time": 500.0, "action": "Add"}, r"\.action"),
            ({"time": 1.0, "action": "remove"}, r"\.node_id"),
            ({"time": float("nan"), "action": "add"}, r"\.time"),
            ({"time": -1.0, "action": "add"}, r"\.time"),
            ({"time": 1.0, "action": "add", "boot_delay": -1.0}, r"\.boot_delay"),
            ({"time": 1.0, "action": "add", "boot_delay": float("inf")}, r"\.boot_delay"),
            ({"time": 1.0, "action": "remove", "node_id": "worker9"}, "unknown node 'worker9'"),
        ],
        ids=[
            "misspelt-action",
            "remove-without-node",
            "nan-time",
            "negative-time",
            "negative-boot-delay",
            "infinite-boot-delay",
            "unknown-node",
        ],
    )
    def test_bad_action_is_rejected(self, kwargs, match):
        # Field errors raise when the action is built; an unknown node
        # raises when its removal fires. Either way the run never
        # completes silently.
        with pytest.raises(ConfigurationError, match=match):
            run(elasticity=[ElasticAction(**kwargs)])
