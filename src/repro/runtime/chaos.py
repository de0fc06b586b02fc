"""Cross-engine chaos parity: one scenario, three execution planes.

The FRIEDA model claims the simulated engine and the real execution
planes share one failure loop: injection → detection (broken
connection or heartbeat sweep) → recovery (requeue, retry, isolate,
elasticity). This module makes that claim testable. A
:class:`ChaosScenario` describes a workload plus injected faults in
engine-neutral terms (workers by *index*, tasks by id under static
assignment), and :func:`run_scenario` translates it into each engine's
native knobs:

========== ==========================================================
engine     translation
========== ==========================================================
simulated  ``synthetic_dataset`` + ``FixedComputeModel``; crash/hang
           via ``fail_vm`` injection; wire faults become
           ``transfer_fault_rate`` + transfer retry
threaded   real files, worker threads; crash/hang kill or wedge the
           thread; no wire, so wire faults translate to a clean run
tcp        real files over real sockets; crash/hang kill or wedge the
           worker client; wire faults become a seeded ``FaultScript``
           on the frame layer (checksum retransmit / reply reissue)
========== ==========================================================

Parity is asserted on :func:`outcome_digest` — a hash over the
scheduler-level outcome (task accounting plus how many workers the
controller declared failed). Timings, byte counts, and detection
*mechanism* legitimately differ across planes; what must not differ is
what the run concluded.

Worker indices map to engine ids via :func:`worker_id`: index ``i`` is
``worker{i+1}:0`` (simulated), ``local:{i}`` (threaded), ``tcp:{i}``
(TCP). Under ``PRE_PARTITIONED_REMOTE`` the scheduler partitions over
the *sorted* membership, so index ``i`` owns the same contiguous task
chunk on every plane — which is what makes exact-task-id fault hooks
engine-portable. Pull-based (real-time) placement is racy; scenarios
against it should key hooks on :data:`~repro.core.fault.ANY_TASK`.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.fault import RetryPolicy
from repro.core.framework import RunOutcome
from repro.core.monitoring import HeartbeatConfig
from repro.core.strategies import StrategyKind
from repro.data.files import synthetic_dataset
from repro.data.partition import PartitionScheme
from repro.engines.compute import FixedComputeModel
from repro.engines.simulated import SimulatedEngine, SimulationOptions
from repro.errors import ConfigurationError
from repro.runtime.faults import FaultRule, FaultScript
from repro.runtime.local import ThreadedEngine
from repro.runtime.tcp import TcpEngine
from repro.cloud.cluster import ClusterSpec
from repro.transfer.base import TransferProtocol
from repro.transfer.retry import TransferRetryPolicy

ENGINES = ("simulated", "threaded", "tcp")

#: Real-plane liveness knobs: fast enough that a hung worker is
#: declared dead in well under a second, slow enough that a busy but
#: healthy worker (tasks take ``real_task_s``) never misses a beat.
_REAL_HEARTBEAT = 0.05
_REAL_CONFIG = HeartbeatConfig(suspect_after=0.2, dead_after=0.45)
#: Simulated-plane twin (sim seconds are free, so these are relaxed).
_SIM_HEARTBEAT = 1.0
_SIM_CONFIG = HeartbeatConfig(suspect_after=2.0, dead_after=5.0)
_SIM_TASK_COST = 2.0


class _RawTransfer(TransferProtocol):
    """Handshake-free unit-efficiency protocol: sim transfers cost
    exactly size/bandwidth, keeping parity runs fast and legible."""

    handshake_latency = 0.0
    efficiency = 1.0
    streams = 1


def worker_id(engine: str, index: int) -> str:
    """Engine-native worker id for logical worker ``index``."""
    if engine == "simulated":
        return f"worker{index + 1}:0"
    if engine == "threaded":
        return f"local:{index}"
    if engine == "tcp":
        return f"tcp:{index}"
    raise ConfigurationError(f"unknown engine {engine!r}; expected one of {ENGINES}")


@dataclass(frozen=True)
class ChaosScenario:
    """One engine-neutral chaos workload.

    ``crash_on_task`` / ``hang_on_task`` map a logical worker *index*
    to the task id on which it dies (crash = abrupt exit, the
    broken-connection twin; hang = alive but silent, detectable only
    by the heartbeat sweep — scenarios with hangs run every engine
    with its liveness layer on).

    ``wire_rules`` are :class:`~repro.runtime.faults.FaultRule` kwargs
    applied to the TCP plane's frame layer. Only recoverable actions
    (``corrupt``, ``drop``, ``delay``) keep cross-engine parity —
    ``truncate`` tears a connection down, which the other planes have
    no twin for. The simulated plane runs the analogous
    ``sim_transfer_fault_rate`` under a transfer-retry policy; the
    threaded plane has no wire at all, so its translation is a clean
    run — the *outcome* must still agree.
    """

    name: str
    n_files: int = 6
    file_size_bytes: int = 256
    workers: int = 2
    strategy: StrategyKind = StrategyKind.PRE_PARTITIONED_REMOTE
    retry: bool = True
    crash_on_task: Mapping[int, int] = field(default_factory=dict)
    hang_on_task: Mapping[int, int] = field(default_factory=dict)
    wire_rules: tuple[Mapping[str, object], ...] = ()
    sim_transfer_fault_rate: float = 0.0
    #: Wall seconds each task busies a real worker (keeps heartbeat
    #: sweeps and requeues exercised mid-run rather than post-drain).
    real_task_s: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_files < 1:
            raise ConfigurationError("n_files must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        for index in (*self.crash_on_task, *self.hang_on_task):
            if not 0 <= index < self.workers:
                raise ConfigurationError(
                    f"fault targets worker index {index}, but scenario has "
                    f"{self.workers} workers"
                )
        for rule in self.wire_rules:
            if rule.get("action") == "truncate":
                raise ConfigurationError(
                    "truncate tears the connection down; only recoverable "
                    "wire actions (corrupt/drop/delay) keep engine parity"
                )

    @property
    def needs_heartbeats(self) -> bool:
        return bool(self.hang_on_task)

    def retry_policy(self) -> RetryPolicy | None:
        return RetryPolicy.resilient() if self.retry else None

    def fault_map(self, engine: str, hooks: Mapping[int, int]) -> dict[str, int]:
        return {worker_id(engine, index): task for index, task in hooks.items()}

    def fault_script(self) -> FaultScript | None:
        """A fresh (unfired) script per run — rules carry fire counters."""
        if not self.wire_rules:
            return None
        return FaultScript(
            [FaultRule(**dict(rule)) for rule in self.wire_rules], seed=self.seed
        )


def workers_failed(outcome: RunOutcome) -> int:
    """How many workers the controller reported lost, on any plane.

    ``WORKER_FAILED`` is logged by every detection path on every
    engine (broken connection, dead thread, heartbeat declaration),
    exactly once per lost worker — unlike ``NODE_DECLARED_DEAD``,
    which only heartbeat-detected deaths emit.
    """
    return sum(1 for e in outcome.controller_events if e.kind == "WORKER_FAILED")


def outcome_digest(outcome: RunOutcome) -> str:
    """Engine-independent fingerprint of what a run concluded."""
    fields = (
        outcome.tasks_total,
        outcome.tasks_completed,
        outcome.tasks_failed,
        outcome.tasks_lost,
        workers_failed(outcome),
    )
    return hashlib.sha256("|".join(str(f) for f in fields).encode()).hexdigest()[:16]


def materialise_inputs(scenario: ChaosScenario, workdir: str) -> list[str]:
    """Write the scenario's input files (deterministic contents) once."""
    root = os.path.join(workdir, "chaos-inputs")
    os.makedirs(root, exist_ok=True)
    paths = []
    for i in range(scenario.n_files):
        path = os.path.join(root, f"file{i}.dat")
        if not os.path.exists(path):
            with open(path, "wb") as fh:
                fh.write(bytes([i % 256]) * scenario.file_size_bytes)
        paths.append(path)
    return paths


def _make_command(scenario: ChaosScenario):
    def command(path: str) -> int:
        with open(path, "rb") as fh:
            data = fh.read()
        if scenario.real_task_s > 0:
            time.sleep(scenario.real_task_s)  # frieda: allow[real-sleep] -- real task cost on real workers
        return len(data)

    return command


def _run_simulated(scenario: ChaosScenario) -> RunOutcome:
    options = SimulationOptions(
        protocol=_RawTransfer(),
        heartbeat_interval=_SIM_HEARTBEAT if scenario.needs_heartbeats else 0.0,
        heartbeat_config=_SIM_CONFIG if scenario.needs_heartbeats else None,
        transfer_retry=(
            TransferRetryPolicy(max_attempts=4)
            if scenario.sim_transfer_fault_rate > 0
            else TransferRetryPolicy.paper_faithful()
        ),
        seed=scenario.seed,
    )
    engine = SimulatedEngine(ClusterSpec(num_workers=scenario.workers), options)
    dataset = synthetic_dataset("chaos", scenario.n_files, scenario.file_size_bytes)
    return engine.run(
        dataset,
        compute_model=FixedComputeModel(_SIM_TASK_COST),
        strategy=scenario.strategy,
        grouping=PartitionScheme.SINGLE,
        multicore=False,
        retry_policy=scenario.retry_policy(),
        crash_worker_on_task=scenario.fault_map("simulated", scenario.crash_on_task),
        hang_worker_on_task=scenario.fault_map("simulated", scenario.hang_on_task),
        transfer_fault_rate=scenario.sim_transfer_fault_rate,
    )


def _run_threaded(scenario: ChaosScenario, workdir: str) -> RunOutcome:
    engine = ThreadedEngine(
        num_workers=scenario.workers,
        heartbeat_interval=_REAL_HEARTBEAT if scenario.needs_heartbeats else 0.0,
        heartbeat_config=_REAL_CONFIG if scenario.needs_heartbeats else None,
    )
    return engine.run(
        materialise_inputs(scenario, workdir),
        command=_make_command(scenario),
        strategy=scenario.strategy,
        grouping=PartitionScheme.SINGLE,
        retry_policy=scenario.retry_policy(),
        crash_worker_on_task=scenario.fault_map("threaded", scenario.crash_on_task),
        hang_worker_on_task=scenario.fault_map("threaded", scenario.hang_on_task),
    )


def _run_tcp(scenario: ChaosScenario, workdir: str) -> RunOutcome:
    engine = TcpEngine(
        num_workers=scenario.workers,
        run_timeout=60.0,
        heartbeat_interval=_REAL_HEARTBEAT if scenario.needs_heartbeats else 0.0,
        heartbeat_config=_REAL_CONFIG if scenario.needs_heartbeats else None,
        # Dropped frames are recovered by the reply-timeout reissue
        # path, so any wire script turns the timeout on.
        reply_timeout=0.5 if scenario.wire_rules else 0.0,
    )
    return engine.run(
        materialise_inputs(scenario, workdir),
        command=_make_command(scenario),
        strategy=scenario.strategy,
        grouping=PartitionScheme.SINGLE,
        retry_policy=scenario.retry_policy(),
        crash_worker_on_task=scenario.fault_map("tcp", scenario.crash_on_task),
        hang_worker_on_task=scenario.fault_map("tcp", scenario.hang_on_task),
        fault_script=scenario.fault_script(),
    )


def run_scenario(scenario: ChaosScenario, engine: str, workdir: str) -> RunOutcome:
    """Run ``scenario`` on one plane; ``workdir`` holds real inputs."""
    if engine == "simulated":
        return _run_simulated(scenario)
    if engine == "threaded":
        return _run_threaded(scenario, workdir)
    if engine == "tcp":
        return _run_tcp(scenario, workdir)
    raise ConfigurationError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def parity_digests(
    scenario: ChaosScenario, workdir: str, engines: Sequence[str] = ENGINES
) -> dict[str, str]:
    """Outcome digest per engine; parity holds iff the values agree."""
    return {
        engine: outcome_digest(run_scenario(scenario, engine, workdir))
        for engine in engines
    }


def scenario_catalogue() -> tuple[ChaosScenario, ...]:
    """The standing parity suite (also run by ``make chaos-runtime``).

    Six-task workloads under static assignment, so worker index 1 of 3
    owns tasks 2–3 on every plane.
    """
    return (
        ChaosScenario(name="baseline"),
        ChaosScenario(name="crash-retry", workers=3, crash_on_task={1: 2}),
        ChaosScenario(
            name="crash-paper-faithful", workers=3, crash_on_task={1: 2}, retry=False
        ),
        ChaosScenario(name="hang-heartbeat", workers=3, hang_on_task={1: 2}),
        ChaosScenario(
            name="wire-faults",
            wire_rules=(
                {"action": "corrupt", "msg_type": "FILE_DATA", "times": 2},
                {"action": "drop", "msg_type": "FILE_METADATA", "times": 1},
            ),
            sim_transfer_fault_rate=0.2,
        ),
    )
