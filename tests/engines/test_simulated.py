"""Integration tests: FRIEDA on the simulated cloud."""

import pytest

from repro.cloud.cluster import ClusterSpec
from repro.core.strategies import StrategyKind
from repro.data.files import DataFile, synthetic_dataset
from repro.data.partition import PartitionScheme
from repro.engines.compute import FixedComputeModel
from repro.engines.simulated import SimulatedEngine, SimulationOptions
from repro.errors import SimulationError, StorageError
from repro.telemetry import Telemetry
from repro.transfer.base import TransferProtocol
from repro.util.units import GB, MB


class _Raw(TransferProtocol):
    handshake_latency = 0.0
    efficiency = 1.0
    streams = 1


def run(
    n_files=8,
    file_size="1 MB",
    strategy=StrategyKind.REAL_TIME,
    grouping=PartitionScheme.SINGLE,
    workers=2,
    cost=1.0,
    **kwargs,
):
    spec = ClusterSpec(num_workers=workers)
    engine = SimulatedEngine(spec, SimulationOptions(protocol=_Raw()))
    ds = synthetic_dataset("d", n_files, file_size)
    return engine.run(
        ds,
        compute_model=FixedComputeModel(cost),
        strategy=strategy,
        grouping=grouping,
        **kwargs,
    )


class TestBasicRuns:
    @pytest.mark.parametrize("strategy", list(StrategyKind))
    def test_all_strategies_complete(self, strategy):
        outcome = run(strategy=strategy)
        assert outcome.tasks_completed == outcome.tasks_total == 8
        assert outcome.makespan > 0

    def test_grouping_controls_task_count(self):
        outcome = run(grouping=PartitionScheme.PAIRWISE_ADJACENT)
        assert outcome.tasks_total == 4

    def test_task_records_cover_all_tasks(self):
        outcome = run()
        assert sorted(r.task_id for r in outcome.task_records) == list(range(8))
        assert all(r.ok for r in outcome.task_records)

    def test_local_strategy_transfers_nothing(self):
        outcome = run(strategy=StrategyKind.PRE_PARTITIONED_LOCAL)
        assert outcome.bytes_transferred == 0
        assert outcome.transfer_time == 0.0

    def test_remote_strategy_transfers_every_byte(self):
        outcome = run(strategy=StrategyKind.PRE_PARTITIONED_REMOTE, n_files=6)
        assert outcome.bytes_transferred == pytest.approx(6 * MB)

    def test_common_data_replicates_to_every_node(self):
        outcome = run(strategy=StrategyKind.COMMON_DATA, n_files=4, workers=2)
        assert outcome.bytes_transferred == pytest.approx(2 * 4 * MB)

    def test_common_files_staged_under_real_time(self):
        spec = ClusterSpec(num_workers=2)
        engine = SimulatedEngine(spec, SimulationOptions(protocol=_Raw()))
        ds = synthetic_dataset("d", 4, "1 KB")
        outcome = engine.run(
            ds,
            compute_model=FixedComputeModel(0.5),
            strategy=StrategyKind.REAL_TIME,
            common_files=[DataFile("db", 10 * MB)],
        )
        # 2 nodes x 10 MB database + 4 KB of lazy query files.
        assert outcome.bytes_transferred == pytest.approx(20 * MB + 4_000, rel=1e-3)

    def test_cost_report_attached(self):
        outcome = run()
        assert outcome.cost is not None
        assert outcome.cost.vm_cost > 0


class TestTimingSemantics:
    def test_sequential_phases_for_pre_remote(self):
        outcome = run(
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            n_files=8,
            file_size="10 MB",
            cost=1.0,
        )
        # Phases are sequential: makespan >= staging + parallel exec.
        assert outcome.extra["staging_time"] > 0
        assert outcome.makespan >= outcome.extra["staging_time"]
        assert outcome.makespan == pytest.approx(
            outcome.extra["staging_time"] + outcome.execution_time, rel=0.2
        )

    def test_real_time_overlaps_transfer_and_compute(self):
        kwargs = dict(n_files=16, file_size="10 MB", cost=2.0, workers=4)
        pre = run(strategy=StrategyKind.PRE_PARTITIONED_REMOTE, **kwargs)
        rt = run(strategy=StrategyKind.REAL_TIME, **kwargs)
        assert rt.makespan < pre.makespan

    def test_multicore_uses_all_cores(self):
        single = run(workers=1, multicore=False, n_files=8, cost=4.0,
                     strategy=StrategyKind.PRE_PARTITIONED_LOCAL)
        multi = run(workers=1, multicore=True, n_files=8, cost=4.0,
                    strategy=StrategyKind.PRE_PARTITIONED_LOCAL)
        # c1.xlarge has 4 cores -> ~4x speedup.
        assert single.makespan / multi.makespan == pytest.approx(4.0, rel=0.1)

    def test_sequential_baseline_sums_costs(self):
        outcome = run(workers=1, multicore=False, n_files=10, cost=3.0,
                      strategy=StrategyKind.PRE_PARTITIONED_LOCAL)
        # 10 tasks x (3s compute + small disk read).
        assert outcome.makespan == pytest.approx(30.0, rel=0.05)

    def test_transfer_bound_by_master_uplink(self):
        outcome = run(
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            n_files=10,
            file_size="10 MB",
            workers=4,
            cost=0.1,
        )
        # 100 MB through a 100 Mbit/s uplink takes at least 8 s.
        assert outcome.extra["staging_time"] >= 8.0 * 0.99

    def test_disk_io_can_be_disabled(self):
        spec = ClusterSpec(num_workers=1)
        opts = SimulationOptions(protocol=_Raw(), include_disk_io=False, control_rtt=0.0)
        ds = synthetic_dataset("d", 4, "100 MB")
        outcome = SimulatedEngine(spec, opts).run(
            ds,
            compute_model=FixedComputeModel(1.0),
            strategy=StrategyKind.PRE_PARTITIONED_LOCAL,
            multicore=False,
        )
        assert outcome.makespan == pytest.approx(4.0, rel=1e-6)

    def test_max_sim_time_stops_an_unfinished_run(self):
        # A recording hub samples the queue every second, so a run that
        # outlives the cap would keep recording events past it.
        telemetry = Telemetry(record=True)
        with pytest.raises(SimulationError, match="exceeded 100 simulated seconds"):
            run(n_files=1, file_size="1 KB", cost=1e5, max_sim_time=100,
                telemetry=telemetry)
        assert max(event.time for event in telemetry.events) <= 100


class TestWorkerBookkeeping:
    def test_worker_busy_accounts_for_compute(self):
        outcome = run(workers=2, n_files=8, cost=1.0,
                      strategy=StrategyKind.PRE_PARTITIONED_LOCAL)
        assert sum(outcome.worker_busy.values()) == pytest.approx(
            8 * 1.0, rel=0.1
        )

    def test_clone_ids_per_core(self):
        outcome = run(workers=1)
        # 4 cores -> clones worker1:0..3.
        assert set(outcome.worker_busy) == {f"worker1:{i}" for i in range(4)}

    def test_controller_events_present(self):
        outcome = run()
        kinds = [e.kind for e in outcome.controller_events]
        assert "PARTITION_GENERATED" in kinds
        assert "FORK_REMOTE_WORKERS" in kinds


class TestCapacityEnforcement:
    def test_dataset_too_big_for_local_disk_raises(self):
        spec = ClusterSpec(num_workers=1)
        engine = SimulatedEngine(spec, SimulationOptions(protocol=_Raw()))
        ds = synthetic_dataset("huge", 3, 20 * GB)  # 60 GB > 40 GB disk
        with pytest.raises(StorageError):
            engine.run(
                ds,
                compute_model=FixedComputeModel(1.0),
                strategy=StrategyKind.PRE_PARTITIONED_LOCAL,
            )
