"""The collector policy around simulated runs: scoped, exact, effective."""

from __future__ import annotations

import gc

import pytest

from repro.baselines.hadooplike import HadoopLikeEngine
from repro.cloud.cluster import ClusterSpec
from repro.core.strategies import StrategyKind
from repro.data.files import synthetic_dataset
from repro.data.partition import PartitionScheme
from repro.engines.compute import FixedComputeModel
from repro.engines.simulated import SimulatedEngine, SimulationOptions
from repro.sim import kernel
from repro.sim.collector import GEN0_THRESHOLD, sparse_collection
from repro.telemetry import Telemetry
from repro.util.units import MB, Mbit

#: Thresholds no interpreter starts with, so a restore to the default
#: would show.
CALLER = (777, 11, 13)


class _Probe:
    """A compute model that records the thresholds it ran under."""

    def __init__(self, *, raise_on_call: bool = False, nested: bool = False):
        self.raise_on_call = raise_on_call
        self.nested = nested
        self.seen: list[tuple[int, int, int]] = []
        self.after_nested: list[tuple[int, int, int]] = []

    def cost(self, group) -> float:
        self.seen.append(gc.get_threshold())
        if self.raise_on_call:
            raise RuntimeError("program crashed the simulator")
        if self.nested:
            self.nested = False
            _run(FixedComputeModel(1.0))
            self.after_nested.append(gc.get_threshold())
        return 1.0


def _run(model, engine_cls=SimulatedEngine):
    dataset = synthetic_dataset("d", 4, "1 MB")
    return engine_cls(ClusterSpec(num_workers=2)).run(dataset, compute_model=model)


@pytest.fixture
def caller_thresholds():
    saved, enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(*CALLER)
    try:
        yield
    finally:
        gc.set_threshold(*saved)
        assert gc.isenabled() == enabled


@pytest.mark.usefixtures("caller_thresholds")
class TestScope:
    @pytest.mark.parametrize("engine_cls", [SimulatedEngine, HadoopLikeEngine])
    def test_run_raises_gen0_threshold_and_restores_the_callers(self, engine_cls):
        probe = _Probe()
        outcome = _run(probe, engine_cls)
        assert outcome.tasks_completed == 4
        assert set(probe.seen) == {(GEN0_THRESHOLD, *CALLER[1:])}
        assert gc.get_threshold() == CALLER
        assert gc.isenabled()

    def test_run_that_raises_restores_the_callers(self):
        probe = _Probe(raise_on_call=True)
        with pytest.raises(RuntimeError, match="crashed the simulator"):
            _run(probe)
        assert set(probe.seen) == {(GEN0_THRESHOLD, *CALLER[1:])}
        assert gc.get_threshold() == CALLER
        assert gc.isenabled()

    def test_nested_run_restores_the_outer_runs(self):
        probe = _Probe(nested=True)
        _run(probe)
        assert probe.after_nested == [(GEN0_THRESHOLD, *CALLER[1:])]
        assert gc.get_threshold() == CALLER

    def test_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            _run(FixedComputeModel(1.0))
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert gc.get_threshold() == CALLER

    def test_scope_outside_an_engine(self):
        with sparse_collection():
            assert gc.get_threshold() == (GEN0_THRESHOLD, *CALLER[1:])
        assert gc.get_threshold() == CALLER


def test_1k_tier_run_does_few_gen0_collections():
    """The 1k macro tier, which did ~230 gen-0 collections at the
    default threshold, does a handful under the policy."""
    workers = 1_000
    dataset = synthetic_dataset("macro", 2 * workers, 1 * MB, prefix="f", suffix=".bin")
    engine = SimulatedEngine(
        ClusterSpec(name=f"macro-{workers}", num_workers=workers, link_bps=100 * Mbit),
        SimulationOptions(enable_billing=False),
    )
    gen0: list[int] = []

    def count(phase: str, info: dict) -> None:
        if phase == "start" and info["generation"] == 0:
            gen0.append(1)

    gc.callbacks.append(count)
    try:
        outcome = engine.run(
            dataset,
            compute_model=FixedComputeModel(1.0),
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            grouping=PartitionScheme.PAIRWISE_ADJACENT,
            max_sim_time=100_000_000.0,
            telemetry=Telemetry(record=True),
        )
    finally:
        gc.callbacks.remove(count)
    assert outcome.tasks_completed == workers
    assert len(gen0) <= 30


#: The active kernel (the C one when built) keeps the id "Environment"
#: whether or not the extension is present; the reference kernel joins
#: as "PyEnvironment" only when it is a distinct class.
_KERNELS = {"Environment": kernel.Environment}
if kernel.PyEnvironment is not kernel.Environment:
    _KERNELS["PyEnvironment"] = kernel.PyEnvironment


@pytest.mark.parametrize("env_cls", list(_KERNELS.values()), ids=list(_KERNELS))
def test_finished_processes_are_freed_without_the_collector(env_cls):
    """A finished process holds no cycle (the C kernel's cached
    ``_resume`` used to keep one), so reference counting frees it."""

    def worker(env):
        yield env.timeout(1.0)
        return "done"

    gc.collect()
    gc.disable()
    try:
        env = env_cls()
        procs = [env.process(worker(env)) for _ in range(10)]
        env.run()
        assert [p.value for p in procs] == ["done"] * 10
        del env, procs
        assert gc.collect() == 0
    finally:
        gc.enable()
