"""The ledger's workloads: inputs, the one public call each times, checks.

Every workload drives a plane through its public entry point only and
is a closed-loop batch run (FRIEDA is a batch framework: the caller
waits for the run), so the headline is tasks completed per wall second
at a stated input size.  Sizes are chosen so one iteration takes about
a second on the 2-core reference box: the driver's contract allows
~19 s per run, and the median over many short iterations is far
steadier on a shared box than one long run.

A workload object lives for one process.  ``prepare`` generates the
inputs from the seed and runs the plane once at a tiny size (imports
and lazy first-use set-up land there, outside every timed region);
``iteration`` returns the call to time and the function that checks
what it returned.
"""

from __future__ import annotations

import os
import random
import statistics
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Deployment configuration ``run_service_load`` gives its service;
#: recovery must be handed the same (the journal holds state, never config).
SERVICE_CONFIG = dict(max_running_jobs=16, max_parked_jobs=10_000)


@dataclass
class Context:
    """What a workload needs to know about this run."""

    seed: int
    scale: float
    tmp: Path
    nproc: int

    def rng(self, stream: str) -> random.Random:
        # str seeds hash through sha512: stable across processes.
        return random.Random(f"{self.seed}:{stream}")

    def scaled(self, size: int, floor: int) -> int:
        return max(floor, int(round(size * self.scale)))


@dataclass
class Verdict:
    """The check of one iteration's output."""

    attempted: int
    verified: int
    problems: list[str] = field(default_factory=list)
    #: Values that must be identical on every iteration of a run (and
    #: equal ``expected.json`` at seed 0, scale 1).
    witness: dict[str, Any] = field(default_factory=dict)
    #: Layer counts read from the output rather than the profile.
    counts: dict[str, float] = field(default_factory=dict)


Iteration = tuple[Callable[[], Any], Callable[[Any], Verdict]]


class Workload:
    name = ""
    why = ""

    def prepare(self, ctx: Context) -> None:
        raise NotImplementedError

    def iteration(self) -> Iteration:
        raise NotImplementedError

    #: Runs on the simulation kernel (so the traced run also measures
    #: the pure-Python kernel).
    sim_kernel = False
    #: Where one exists, a method giving the same body at a smaller,
    #: committed size (``sim.scale_eff_1k`` is its tasks/s over this
    #: workload's).
    narrower_tier: Callable[[], Iteration] | None = None

    def corrupt_input(self) -> None:
        raise SystemExit(f"{self.name} has no dataset files to corrupt")


# -- simulated plane ---------------------------------------------------------
class _SimWorkload(Workload):
    sim_kernel = True

    def _engine_run(self, spec_name: str, workers: int, dataset: Any, **run_kwargs: Any):
        from repro.cloud.cluster import ClusterSpec
        from repro.engines.compute import FixedComputeModel
        from repro.engines.simulated import SimulatedEngine, SimulationOptions
        from repro.telemetry import Telemetry
        from repro.util.units import Mbit

        spec = ClusterSpec(name=spec_name, num_workers=workers, link_bps=100 * Mbit)
        telemetry = Telemetry(record=True)
        engine = SimulatedEngine(spec, SimulationOptions(enable_billing=False))

        def call() -> Any:
            return engine.run(
                dataset,
                compute_model=FixedComputeModel(1.0),
                max_sim_time=100_000_000.0,
                telemetry=telemetry,
                **run_kwargs,
            )

        def finish(outcome: Any) -> Verdict:
            spans, events = len(telemetry.spans), len(telemetry.events)
            verdict = Verdict(
                attempted=outcome.tasks_total,
                verified=outcome.tasks_completed,
                witness={
                    "sim_makespan_s": round(outcome.makespan, 6),
                    "spans_recorded": spans,
                },
                counts={
                    "telemetry.spans.recorded": spans,
                    "telemetry.events.recorded": events,
                    "sim.spans_per_task": spans / max(1, outcome.tasks_total),
                },
            )
            if outcome.tasks_completed != outcome.tasks_total:
                verdict.problems.append(
                    f"{outcome.tasks_completed}/{outcome.tasks_total} tasks completed"
                )
            return verdict

        return call, finish


class SimPrepartWide(_SimWorkload):
    name = "sim_prepart_wide"
    why = (
        "push path at width: thousands of concurrent flows, so network/max-min "
        "replanning, span recording and kernel process creation do the work"
    )
    WORKERS = 2_000
    #: ``sim.scale_eff_1k`` compares against this tier, whose makespan
    #: is committed in BENCH_macro.json.
    SMALL_TIER = 1_000

    def prepare(self, ctx: Context) -> None:
        self.workers = ctx.scaled(self.WORKERS, 16)
        self.small_tier = ctx.scaled(self.SMALL_TIER, 8)
        call, _finish = self.tier(8)
        call()

    def tier(self, workers: int) -> Iteration:
        """The body of ``benchmarks/bench_macro.run_tier(workers)``."""
        from repro.core.strategies import StrategyKind
        from repro.data.files import synthetic_dataset
        from repro.data.partition import PartitionScheme
        from repro.util.units import MB

        dataset = synthetic_dataset(
            "macro", 2 * workers, 1 * MB, prefix="f", suffix=".bin"
        )
        return self._engine_run(
            f"macro-{workers}",
            workers,
            dataset,
            strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
            grouping=PartitionScheme.PAIRWISE_ADJACENT,
        )

    def iteration(self) -> Iteration:
        return self.tier(self.workers)

    def narrower_tier(self) -> Iteration:
        return self.tier(self.small_tier)


class SimRealtimePull(_SimWorkload):
    name = "sim_realtime_pull"
    why = (
        "same layers used the other way: <=64 concurrent flows leave max-min idle "
        "while scheduler pull, per-task staging and kernel message hops dominate"
    )
    WORKERS = 64
    TASKS = 4_000

    def prepare(self, ctx: Context) -> None:
        from repro.data.files import synthetic_dataset
        from repro.util.units import KB

        # One size for every file, drawn from the seed: equal sizes keep
        # the 64 flows in lock-step, which is what leaves max-min idle
        # (sizes that differ by 1% cost 40x the kernel events).
        file_bytes = ctx.rng("pull").randint(48, 80) * KB

        def dataset(count: int) -> Any:
            return synthetic_dataset("pull", count, file_bytes, prefix="f", suffix=".bin")

        self.dataset = dataset(ctx.scaled(self.TASKS, 128))
        call, _finish = self._pull(dataset(16), 4)
        call()

    def _pull(self, dataset: Any, workers: int) -> Iteration:
        from repro.core.strategies import StrategyKind
        from repro.data.partition import PartitionScheme

        return self._engine_run(
            "pull", workers, dataset,
            strategy=StrategyKind.REAL_TIME, grouping=PartitionScheme.SINGLE,
        )

    def iteration(self) -> Iteration:
        return self._pull(self.dataset, self.WORKERS)


# -- service plane -----------------------------------------------------------
def _service_verdict(result: Any) -> Verdict:
    """Every tenant's job ran to DONE with all its tasks completed."""
    attempted = verified = 0
    verdict = Verdict(0, 0)
    for job_id, info in result.per_job.items():
        summary = info["summary"]
        attempted += summary["total"]
        if info["state"] == "done":
            verified += summary["completed"]
        else:
            verdict.problems.append(f"job {job_id} ended {info['state']}")
    if result.rejected:
        verdict.problems.append(f"{result.rejected} submissions rejected")
    verdict.attempted, verdict.verified = attempted, verified
    return verdict


class SvcWidePool(Workload):
    name = "svc_wide_pool"
    why = (
        "many free workers over 16 running jobs: lease()'s candidate rescan, "
        "fair-share pick and parked-job promotion are all of the time; journal off"
    )
    TENANTS = 250
    WORKERS = 64

    def prepare(self, ctx: Context) -> None:
        from repro.service.sim import run_service_load

        self.seed = ctx.seed
        self.tenants = ctx.scaled(self.TENANTS, 20)
        run_service_load(8, seed=ctx.seed, num_workers=4)

    def iteration(self) -> Iteration:
        from repro.service.sim import run_service_load

        def call() -> Any:
            return run_service_load(
                self.tenants, seed=self.seed, num_workers=self.WORKERS
            )

        def finish(result: Any) -> Verdict:
            verdict = _service_verdict(result)
            verdict.witness = {"digest": result.digest}
            return verdict

        return call, finish


class SvcJournalWrite(Workload):
    name = "svc_journal_write"
    why = (
        "write side of the journal: encode+append per event to a file store, compaction "
        "(capture_state, temp+rename) and two master kills; candidate scan is cheap"
    )
    TENANTS = 500
    WORKERS = 12
    SNAPSHOT_EVERY = 500

    def prepare(self, ctx: Context) -> None:
        from repro.service.journalfs import FileJournalStore
        from repro.service.sim import run_service_load

        class CountingStore(FileJournalStore):
            """Bytes appended, counted where the service hands them over."""

            appended_bytes = 0

            def append(self, data: bytes) -> None:
                self.appended_bytes += len(data)
                super().append(data)

        self.store_class = CountingStore
        self.seed = ctx.seed
        self.tenants = ctx.scaled(self.TENANTS, 20)
        self.dir = ctx.tmp / "journals"
        self.dir.mkdir()
        self.serial = 0
        # The uninterrupted, journal-less run: the outcome a killed and
        # recovered run must reproduce, and the makespan the kills are
        # placed in (the warm-up of this plane, too).
        reference = run_service_load(
            self.tenants, seed=ctx.seed, num_workers=self.WORKERS
        )
        self.reference_outcome = reference.outcome_digest
        self.kills = [0.3 * reference.makespan, 0.6 * reference.makespan]

    def iteration(self) -> Iteration:
        from repro.service.sim import run_service_load

        self.serial += 1
        path = self.dir / f"load-{self.serial}.frjl"
        # sync=False: on the shared reference box fsync latency swings
        # 2.5x from minute to minute, so a store that fsyncs would gate
        # on the disk, not on the code.  A sync=True store issues one
        # fsync per append and per compaction; the traced run counts both.
        store = self.store_class(str(path), sync=False)

        def call() -> Any:
            return run_service_load(
                self.tenants,
                seed=self.seed,
                num_workers=self.WORKERS,
                journal_store=store,
                snapshot_every=self.SNAPSHOT_EVERY,
                master_kill_script=self.kills,
            )

        def finish(result: Any) -> Verdict:
            path.unlink()
            verdict = _service_verdict(result)
            verdict.witness = {"outcome_digest": result.outcome_digest}
            verdict.counts = {"service.journal.bytes": store.appended_bytes}
            if result.recoveries != len(self.kills):
                verdict.problems.append(
                    f"{result.recoveries} recoveries, {len(self.kills)} kills scripted"
                )
            if result.outcome_digest != self.reference_outcome:
                verdict.problems.append(
                    "killed run's outcome digest differs from the uninterrupted run's"
                )
                verdict.verified = 0
            return verdict

        return call, finish


class SvcRecover(Workload):
    name = "svc_recover"
    why = (
        "read side of the journal: ControlPlaneService.recover replays an "
        "un-compacted journal through the live code paths; nothing is leased"
    )
    TENANTS = 400
    WORKERS = 12

    def prepare(self, ctx: Context) -> None:
        from repro.service.journal import MemoryJournalStore, decode_records
        from repro.service.sim import run_service_load

        self.dir = ctx.tmp / "recover"
        self.dir.mkdir()
        self.serial = 0
        store = MemoryJournalStore()
        result = run_service_load(
            ctx.scaled(self.TENANTS, 20),
            seed=ctx.seed,
            num_workers=self.WORKERS,
            journal_store=store,
        )
        self.journal_full = store.read()
        self.records = len(decode_records(self.journal_full)[0])
        self.outcomes = {job: info["outcome"] for job, info in result.per_job.items()}
        self.tasks = sum(info["summary"]["total"] for info in result.per_job.values())
        self.now = result.makespan
        call, _finish = self.iteration()
        call()

    def iteration(self) -> Iteration:
        from repro.service.core import ControlPlaneService
        from repro.service.jobs import task_outcome_digest
        from repro.service.journalfs import FileJournalStore

        # recover() appends an OPEN record, so every call gets a fresh copy.
        self.serial += 1
        path = self.dir / f"copy-{self.serial}.frjl"
        path.write_bytes(self.journal_full)

        def call() -> Any:
            return ControlPlaneService.recover(
                FileJournalStore(str(path), sync=True),
                clock=lambda: self.now,
                **SERVICE_CONFIG,
            )

        def finish(service: Any) -> Verdict:
            path.unlink()
            report = service.last_recovery
            verified = 0
            verdict = Verdict(self.tasks, 0)
            for job_id, outcome in self.outcomes.items():
                job = service.job(job_id)
                if job is not None and task_outcome_digest(job) == outcome:
                    verified += len(job.spec.groups)
                else:
                    verdict.problems.append(f"job {job_id} not restored to its outcome")
            verdict.verified = verified
            if report.damage is not None:
                verdict.problems.append(f"recover reported damage: {report.damage}")
            # Everything but the journal's own first OPEN record replays.
            if report.records_replayed != self.records - 1:
                verdict.problems.append(
                    f"{report.records_replayed} records replayed, "
                    f"{self.records - 1} expected"
                )
            verdict.witness = {
                "records_replayed": report.records_replayed,
                "journal_bytes": len(self.journal_full),
            }
            verdict.counts = {
                "service.core.recover.records_replayed": report.records_replayed,
            }
            return verdict

        return call, finish


# -- real runtimes -----------------------------------------------------------
class _FileWorkload(Workload):
    """Real files through a real engine; delivery verified by CRC32.

    The workers are in-process, so ``crc_fn`` — the command every task
    runs — records what it read in a dict the benchmark owns.
    """

    FILES = 0
    FILE_BYTES = 0
    dataset_name = ""

    def make_engine(self, workers: int, scratch_root: str) -> Any:
        raise NotImplementedError

    def prepare(self, ctx: Context) -> None:
        from repro.data.files import DataFile, Dataset

        count = ctx.scaled(self.FILES, 8)
        directory = ctx.tmp / self.dataset_name
        directory.mkdir()
        rng = ctx.rng(self.dataset_name)
        # 64 KiB of seeded random bytes tiled to size: the program sees
        # only bytes, and full-entropy gigabytes would cost more set-up
        # time than the run they feed.
        tile = min(self.FILE_BYTES, 64 * 1024)
        files = []
        self.reference: dict[str, int] = {}
        for i in range(count):
            data = rng.randbytes(tile) * (self.FILE_BYTES // tile)
            path = directory / f"f{i:05d}.bin"
            path.write_bytes(data)
            self.reference[path.name] = zlib.crc32(data)
            files.append(DataFile(name=path.name, size=len(data), path=str(path)))
        self.files = files
        self.dataset = Dataset(self.dataset_name, files)
        self.dataset_crc32 = zlib.crc32(repr(sorted(self.reference.items())).encode())
        self.seen: dict[str, int] = {}
        scratch = ctx.tmp / "scratch"
        scratch.mkdir()
        self.engine = self.make_engine(ctx.nproc, str(scratch))
        self._run(Dataset("warmup", files[:8]))

    def crc_fn(self, *paths: str) -> None:
        for path in paths:
            with open(path, "rb") as fh:
                self.seen[os.path.basename(path)] = zlib.crc32(fh.read())

    def _run(self, dataset: Any) -> Any:
        from repro.core.strategies import StrategyKind

        return self.engine.run(
            dataset, command=self.crc_fn, strategy=StrategyKind.REAL_TIME
        )

    def corrupt_input(self) -> None:
        path = Path(self.files[0].path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))

    def iteration(self) -> Iteration:
        self.seen.clear()

        def call() -> Any:
            return self._run(self.dataset)

        def finish(outcome: Any) -> Verdict:
            matched = sum(
                1 for name, crc in self.reference.items() if self.seen.get(name) == crc
            )
            verdict = Verdict(
                attempted=outcome.tasks_total,
                verified=matched,
                witness={"dataset_crc32": self.dataset_crc32},
            )
            if matched != len(self.reference):
                verdict.problems.append(
                    f"{len(self.reference) - matched} files delivered with a wrong CRC32"
                )
            if outcome.tasks_completed != outcome.tasks_total:
                verdict.problems.append(
                    f"{outcome.tasks_completed}/{outcome.tasks_total} tasks completed"
                )
            if outcome.tasks_failed or outcome.tasks_lost:
                verdict.problems.append(
                    f"{outcome.tasks_failed} failed, {outcome.tasks_lost} lost"
                )
            retransmits = outcome.extra.get("retransmits", 0)
            if retransmits:
                verdict.problems.append(f"{retransmits} payload retransmits")
            task_ms = sorted(
                (r.end - r.start + r.transfer_seconds) * 1e3
                for r in outcome.task_records
            )
            verdict.counts = {
                "runtime.bytes_sent": outcome.bytes_transferred,
                "runtime.transfer_s": outcome.transfer_time,
                "runtime.tcp.retransmits": retransmits,
                "runtime.task_ms_p50": statistics.median(task_ms) if task_ms else 0.0,
                # Ten samples must lie beyond a reported percentile.
                "runtime.task_ms_p99": (
                    task_ms[int(0.99 * len(task_ms))] if len(task_ms) >= 1000 else 0.0
                ),
            }
            return verdict

        return call, finish


class ThrSmallTasks(_FileWorkload):
    name = "thr_small_tasks"
    why = (
        "shared master logic (scheduler, worker, commands) with no wire and no "
        "event loop: the control for tcp_small_tasks"
    )
    # 2 000 tasks, so the engine's 50 ms watchdog poll quantizes an
    # iteration's wall time by a few percent, not a sixth.
    FILES = 2_000
    FILE_BYTES = 1024
    dataset_name = "small"

    def make_engine(self, workers: int, scratch_root: str) -> Any:
        from repro.runtime.local import ThreadedEngine

        return ThreadedEngine(workers, scratch_root=scratch_root)


class TcpSmallTasks(_FileWorkload):
    name = "tcp_small_tasks"
    why = (
        "the first 600 of thr_small_tasks' files, so the per-task difference is the "
        "wire: JSON codec, framing, asyncio dispatch, per-file scratch create"
    )
    # Same generator stream as thr_small_tasks, so byte-identical files;
    # fewer, because a task costs five times as much here.
    FILES = 600
    FILE_BYTES = 1024
    dataset_name = "small"

    def make_engine(self, workers: int, scratch_root: str) -> Any:
        from repro.runtime.tcp import TcpEngine

        return TcpEngine(workers, scratch_root=scratch_root)


class TcpBulkPayload(TcpSmallTasks):
    name = "tcp_bulk_payload"
    why = (
        "same engine, opposite regime: 16 round trips of 4 MiB, so codec/dispatch "
        "vanish and payload checksum, socket send/recv and scratch write set the rate"
    )
    FILES = 16
    FILE_BYTES = 4 * 1024 * 1024
    dataset_name = "bulk"


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        SimPrepartWide, SimRealtimePull, SvcWidePool, SvcJournalWrite,
        SvcRecover, ThrSmallTasks, TcpSmallTasks, TcpBulkPayload,
    )
}

