"""Threaded in-process FRIEDA engine: real programs, real files.

The execution plane is a pool of worker threads pulling from the shared
:class:`~repro.core.scheduler.MasterScheduler` (guarded by one lock —
the scheduler is the "master"). Data management is real: under the
remote strategies input files are *linked* into per-worker scratch
directories — copied across filesystems, or wherever the kernel
refuses the link — staged up front or lazily per task, per the
strategy. A command only ever sees paths its worker owns: exactly the
worker-local view workers have on the testbed.

Inputs are read-only to programs: a program reads its inputs and writes
its outputs elsewhere. A linked scratch entry *is* the source file, so
a program that rewrites an input in place rewrites the source.

Programs are either Python callables (called with the input paths) or
shell templates (run via ``subprocess``). A callable raising, a command
exiting non-zero or an input that cannot be staged is a task error,
reported to the controller and subject to the configured retry policy /
isolation threshold.
"""

from __future__ import annotations

# frieda: allow-file[wall-clock] -- real execution plane: measuring real
# elapsed time (makespan, transfer, busy seconds) is this engine's job.

import os
import shutil
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.core.commands import CommandTemplate
from repro.core.controller import ControllerLogic
from repro.core.fault import ANY_TASK, RetryPolicy
from repro.core.framework import RunOutcome, TaskRecord
from repro.core.identity import RejoinIdMinter, scratch_name
from repro.core.monitoring import HeartbeatConfig, HeartbeatMonitor
from repro.core.scheduler import MasterScheduler
from repro.core.strategies import StrategyKind
from repro.core.worker import WorkerLogic
from repro.data.files import DataFile, Dataset
from repro.data.partition import PartitionScheme
from repro.errors import ConfigurationError
from repro.telemetry.metrics import Histogram
from repro.telemetry.slo import SloProbe
from repro.telemetry.spans import NULL_TELEMETRY, SpanHandle, Telemetry


def _as_command(command: CommandTemplate | Callable[..., object] | str) -> CommandTemplate:
    if isinstance(command, str):
        return CommandTemplate(template=command)
    if callable(command) and not isinstance(command, CommandTemplate):
        return CommandTemplate(function=command)
    return command


def execute_command(
    command: CommandTemplate | None, paths: Sequence[str], timeout: float
) -> tuple[bool, str]:
    """Run one task's program over its resolved input paths; blocking.

    A callable is called with the paths; a shell template is rendered
    and run through ``subprocess`` with ``timeout``. Returns
    ``(ok, error)``: a raise, a non-zero exit or a timeout is a task
    error, never an exception — task errors must not kill the worker.
    Both real engines execute every task through this function.
    """
    try:
        if command is not None and command.function is not None:
            command.call(paths)
            return True, ""
        rendered = command.build(paths) if command is not None else ""
        if not rendered:
            return True, ""
        proc = subprocess.run(
            rendered,
            shell=True,
            capture_output=True,
            timeout=timeout,
            text=True,
        )
        if proc.returncode != 0:
            return False, (proc.stderr or f"exit code {proc.returncode}").strip()[:500]
        return True, ""
    except subprocess.TimeoutExpired:
        return False, f"command timed out after {timeout}s"
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"


def fetch_error(names: Sequence[str], exc: OSError) -> str:
    """The error of a task whose inputs could not be staged: the
    simulated plane's ``fetch failed: <names>`` plus the kernel's
    reason. Both real engines fail such a task with it."""
    return f"fetch failed: {', '.join(names)} ({exc.strerror or exc})"


def _as_dataset(inputs: Dataset | Sequence[str]) -> Dataset:
    if isinstance(inputs, Dataset):
        return inputs
    files = []
    for path in inputs:
        if not os.path.isfile(path):
            raise ConfigurationError(f"input file not found: {path}")
        files.append(
            DataFile(name=os.path.basename(path), size=os.path.getsize(path), path=path)
        )
    return Dataset("inputs", files)


def start_real_run(
    engine: Any,
    inputs: Dataset | Sequence[str],
    *,
    telemetry: Telemetry | None,
    slo_probes: Sequence[SloProbe],
    hang_worker_on_task: dict[str, int],
    **controller_options,
) -> ControllerLogic:
    """Master set-up shared by both real engines (``engine`` is the
    :class:`ThreadedEngine` or :class:`~repro.runtime.tcp.TcpEngine`);
    returns the controller with its run bound (hub, wall clock relative
    to now, SLO probes) and its master started.

    Hung workers are only detectable by heartbeat. Without a caller's
    hub, probes get a private non-recording one: it keeps the gauges
    real without paying for span retention.
    """
    if hang_worker_on_task and engine.heartbeat_interval <= 0:
        raise ConfigurationError(
            "hung workers are undetectable without heartbeats: "
            f"set {type(engine).__name__}(heartbeat_interval=...) > 0"
        )
    dataset = _as_dataset(inputs)
    controller = ControllerLogic(multicore=False, **controller_options)
    if telemetry is not None:
        tel = telemetry
    elif slo_probes:
        tel = Telemetry()
    else:
        tel = NULL_TELEMETRY
    t_base = time.monotonic()
    controller.bind(dataset, tel, lambda: time.monotonic() - t_base, slo_probes)
    controller.start_master()
    return controller


def _mark_resident(logic: WorkerLogic, dataset: Dataset) -> None:
    """Pre-partitioned local: every input is already on the worker (the
    VM-image case), so it is marked resident and read in place."""
    for file in dataset:
        logic.receive_file(file.name, path=file.path)


@dataclass
class _WorkerOutcome:
    records: list[TaskRecord]
    transfer_seconds: float
    busy_seconds: float


class ThreadedEngine:
    """Real threaded master/worker execution on this machine.

    Inputs are staged by hard link into each worker's scratch directory
    (under ``scratch_root``, default the system temp dir) and copied
    only when the kernel refuses the link. Programs must treat their
    inputs as read-only: an in-place rewrite of a linked input rewrites
    the source.
    """

    def __init__(
        self,
        num_workers: int = 4,
        *,
        scratch_root: Optional[str] = None,
        command_timeout: float = 300.0,
        heartbeat_interval: float = 0.0,
        heartbeat_config: HeartbeatConfig | None = None,
    ):
        """``heartbeat_interval`` > 0 turns on thread liveness: workers
        beat between tasks and a watchdog on the main thread sweeps a
        :class:`~repro.core.monitoring.HeartbeatMonitor`, declaring a
        hung worker dead (a thread that *exits* abruptly is detected
        directly, beats or not)."""
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if command_timeout <= 0:
            raise ConfigurationError("command_timeout must be > 0")
        self.num_workers = num_workers
        self.scratch_root = scratch_root
        self.command_timeout = command_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_config = heartbeat_config

    def run(
        self,
        inputs: Dataset | Sequence[str],
        *,
        command: CommandTemplate | Callable[..., object] | str,
        strategy: StrategyKind | str = StrategyKind.REAL_TIME,
        grouping: PartitionScheme | str = PartitionScheme.SINGLE,
        grouping_options: dict | None = None,
        retry_policy: RetryPolicy | None = None,
        isolate_after: int = 1,
        crash_worker_on_task: dict[str, int] | None = None,
        hang_worker_on_task: dict[str, int] | None = None,
        respawn_after_crash: dict[str, float] | None = None,
        telemetry: Telemetry | None = None,
        slo_probes: Sequence[SloProbe] = (),
    ) -> RunOutcome:
        """Run a data-parallel program over real input files.

        ``telemetry`` attaches the same hub the simulated plane uses;
        spans are stamped with wall seconds relative to run start so a
        real run's trace opens in the same viewer as a simulated one.
        ``slo_probes`` are evaluated on watchdog ticks over the live
        metrics (edge-triggered ``slo.breach`` / ``slo.recovered``
        events), with a final evaluation when the run resolves.

        Chaos hooks (mirroring :class:`~repro.runtime.tcp.TcpEngine`):
        ``crash_worker_on_task`` maps a worker id to a task id — the
        worker thread dies without reporting when it draws that task
        (:data:`~repro.core.fault.ANY_TASK` = its first draw);
        ``hang_worker_on_task`` wedges the thread instead (alive, no
        beats) and requires ``heartbeat_interval`` > 0.
        ``respawn_after_crash`` maps a worker id to a delay: that many
        seconds after its crash is detected, a replacement thread joins
        under a fresh id minted by the shared rejoin policy
        (``local:0`` → ``local:0:r1``) and is recorded as a late join,
        mirroring the TCP engine.
        """
        crash_map = crash_worker_on_task or {}
        hang_map = hang_worker_on_task or {}
        controller = start_real_run(
            self,
            inputs,
            telemetry=telemetry,
            slo_probes=slo_probes,
            hang_worker_on_task=hang_map,
            strategy=strategy,
            grouping=grouping,
            grouping_options=grouping_options,
            command=_as_command(command),
            retry_policy=retry_policy,
            isolate_after=isolate_after,
        )
        dataset, scheduler = controller.dataset, controller.scheduler
        tel, clock = controller.telemetry, controller.clock
        # One condition guards all scheduler state: workers that find no
        # runnable task sleep on it and are woken when a peer reports an
        # outcome (the only transition that can create new work).
        wakeup = threading.Condition()
        worker_ids = [f"local:{i}" for i in range(self.num_workers)]
        for wid in worker_ids:
            controller.register(wid, "localhost", clock())
        controller.close_registration(clock(), worker_ids)

        # Histogram created up front: the registry's get-or-create dict is
        # not thread-safe, so worker threads only ever *observe*.
        h_exec = tel.metrics.histogram("task.exec_seconds")
        run_span = tel.start_span(
            "run",
            track="control",
            dataset=dataset.name,
            strategy=controller.strategy.kind.value,
            workers=self.num_workers,
        )
        started = time.monotonic()
        with tempfile.TemporaryDirectory(dir=self.scratch_root, prefix="frieda-") as root:
            logics: dict[str, WorkerLogic] = {}

            def add_logic(wid: str) -> WorkerLogic:
                logic = logics[wid] = WorkerLogic(
                    wid,
                    "localhost",
                    controller.command,
                    scratch_dir=os.path.join(root, scratch_name(wid)),
                )
                os.makedirs(logic.scratch_dir, exist_ok=True)
                return logic

            for wid in worker_ids:
                add_logic(wid)

            stage_seconds = 0.0
            if controller.strategy.staged_before_execution or controller.strategy.data_local_to_workers:
                stage_span = tel.start_span(
                    "staging", parent=run_span, track="control", files=len(dataset)
                )
                t0 = time.monotonic()
                self._stage_all(controller, logics)
                stage_seconds = time.monotonic() - t0
                stage_span.end()

            monitor = (
                HeartbeatMonitor(self.heartbeat_config, metrics=tel.metrics)
                if self.heartbeat_interval > 0
                else None
            )
            hang_release = threading.Event()
            status: dict[str, str] = {}
            outcomes: dict[str, _WorkerOutcome] = {}
            threads: dict[str, threading.Thread] = {}
            minter = RejoinIdMinter()

            def spawn(wid: str) -> None:
                thread = threading.Thread(
                    target=self._worker_main,
                    args=(
                        logics[wid], scheduler, controller, wakeup,
                        outcomes, tel, run_span, h_exec,
                    ),
                    kwargs=dict(
                        monitor=monitor,
                        clock=clock,
                        crash_on_task=crash_map.get(wid),
                        hang_on_task=hang_map.get(wid),
                        hang_release=hang_release,
                        status=status,
                    ),
                    name=f"frieda-{wid}",
                    daemon=True,
                )
                if monitor is not None:
                    with wakeup:
                        monitor.beat(wid, clock())
                status[wid] = "running"
                threads[wid] = thread
                thread.start()

            def spawn_replacement(dead_wid: str) -> None:
                """A crashed worker rejoins under a fresh minted id —
                the same ``base:rN`` policy the TCP engine applies."""
                fresh = minter.mint(dead_wid)
                logic = add_logic(fresh)
                if controller.strategy.data_local_to_workers:
                    _mark_resident(logic, dataset)
                with wakeup:
                    controller.register(fresh, "localhost", clock())
                tel.event("node.respawned", fresh, track="control")
                spawn(fresh)

            for wid in worker_ids:
                spawn(wid)
            self._watchdog(
                controller, threads, wakeup, monitor, status, hang_release,
                respawn_map=respawn_after_crash or {},
                spawn_replacement=spawn_replacement,
            )
        makespan = time.monotonic() - started
        records = [r for o in outcomes.values() for r in o.records]
        records.sort(key=lambda r: (r.start, r.task_id))
        run_span.end(tasks=len(scheduler.completed))
        lazy_transfer = sum(o.transfer_seconds for o in outcomes.values())
        return controller.outcome(
            makespan=makespan,
            transfer_time=stage_seconds + lazy_transfer,
            execution_time=sum(o.busy_seconds for o in outcomes.values()),
            bytes_transferred=float(
                sum(g.total_size for g in controller.groups)
                if not controller.strategy.data_local_to_workers
                else 0
            ),
            task_records=records,
            worker_busy={wid: o.busy_seconds for wid, o in outcomes.items()},
        )

    # -- supervision ---------------------------------------------------------
    def _watchdog(
        self,
        controller: ControllerLogic,
        threads: dict[str, threading.Thread],
        wakeup: threading.Condition,
        monitor: HeartbeatMonitor | None,
        status: dict[str, str],
        hang_release: threading.Event,
        respawn_map: dict[str, float],
        spawn_replacement: Callable[[str], None],
    ) -> None:
        """Replace the blind ``join()`` loop: watch for worker deaths.

        Two detection paths, mirroring the TCP master: a thread that
        *exits* abruptly (injected crash) is the broken-connection twin
        and is reported lost at once; a thread that stops beating while
        still alive (injected hang) is found by the controller's
        heartbeat sweep. Either way idle peers are then woken to absorb
        the requeued work.
        """
        scheduler, tel = controller.scheduler, controller.telemetry  # frieda: allow[lock-outlier] -- run fields, set before threads start
        clock = controller.clock  # frieda: allow[lock-outlier] -- run field, set before threads start
        handled: set[str] = set()
        due_respawns: list[tuple[float, str]] = []

        interval = self.heartbeat_interval if monitor is not None else 0.02
        # Queue depth is time-sampled (not per-event) so trace size scales
        # with run length, not task count; SLOs ride the same cadence.
        sample_every = max(interval, 0.25)
        last_sample = clock() - sample_every
        while True:
            now = clock()
            if now - last_sample >= sample_every:
                last_sample = now
                with wakeup:
                    controller.observe(now, sample_queue=tel.record)
            for wid, thread in list(threads.items()):
                if thread.is_alive() or wid in handled:
                    continue
                if status.get(wid) == "crashed":
                    # Abrupt thread death — the connection-loss twin.
                    handled.add(wid)
                    with wakeup:
                        if monitor is not None:
                            monitor.forget(wid)
                        controller.on_worker_lost(
                            wid, "localhost", "worker thread died", now
                        )
                        wakeup.notify_all()
                    if wid in respawn_map:
                        due_respawns.append((now + respawn_map[wid], wid))
                elif monitor is not None:
                    # Graceful drain: silence after exit is not death.
                    handled.add(wid)
                    with wakeup:
                        monitor.forget(wid)
            if monitor is not None:
                with wakeup:
                    dead = controller.sweep(monitor, clock(), lambda wid: (wid,))
                    if dead:
                        wakeup.notify_all()
                handled.update(dead)
            if due_respawns:
                with wakeup:
                    resolved = scheduler.done
                if resolved:
                    due_respawns.clear()
                else:
                    ready = [d for d in due_respawns if d[0] <= now]
                    due_respawns = [d for d in due_respawns if d[0] > now]
                    for _due, wid in ready:
                        spawn_replacement(wid)
            with wakeup:
                if scheduler.done:
                    # Run resolved: release wedged threads so they exit.
                    hang_release.set()
                    wakeup.notify_all()
            if not any(t.is_alive() for t in threads.values()) and not due_respawns:
                break
            time.sleep(min(interval, 0.05))  # frieda: allow[real-sleep] -- watchdog pacing on real threads
        for thread in threads.values():
            thread.join(timeout=1.0)

    # -- data management -----------------------------------------------------
    def _stage_all(
        self, controller: ControllerLogic, logics: dict[str, WorkerLogic]
    ) -> None:
        """Up-front staging: link each worker's data into its scratch.

        ``replicate_all`` (common-data mode) stages everything to every
        worker; otherwise each worker receives its planned chunk.
        ``data_local_to_workers`` marks files as resident without
        staging (the VM-image-baked case): workers use original paths.
        A file that fails to stage is left missing; the task that needs
        it stages it again when drawn and fails as a task error if that
        fails too.
        """
        strategy = controller.strategy
        for wid, logic in logics.items():
            if strategy.data_local_to_workers:
                _mark_resident(logic, controller.dataset)
                continue
            wanted: list[DataFile] = []
            if strategy.replicate_all:
                wanted = list(controller.dataset)
            else:
                for group in controller.scheduler.planned_chunk(wid):
                    wanted.extend(group.files)
            for file in wanted:
                try:
                    self._stage_to_worker(file, logic)
                except OSError:
                    continue

    def _stage_to_worker(self, file: DataFile, logic: WorkerLogic) -> None:
        """Put one input in the worker's scratch: a hard link when the
        kernel allows one, else a copy (``EXDEV`` across filesystems,
        ``EPERM`` under ``protected_hardlinks`` or without link support,
        ``EMLINK``). Raises ``OSError`` when neither works."""
        if logic.worker_id and file.name in logic.local_files:
            return
        if file.path is None:
            raise ConfigurationError(
                f"file {file.name!r} has no real path; the threaded engine "
                "needs on-disk inputs"
            )
        dest = os.path.join(logic.scratch_dir, file.name)
        try:
            os.link(file.path, dest)
        except OSError:
            shutil.copy2(file.path, dest)
        logic.receive_file(file.name)

    def _stage_missing(
        self, files: Sequence[DataFile], missing: Sequence[str], logic: WorkerLogic
    ) -> str:
        """Lazy staging of one task's missing inputs; returns ``""`` or
        the task's fetch error."""
        for file in files:
            if file.name in missing:
                try:
                    self._stage_to_worker(file, logic)
                except OSError as exc:
                    return fetch_error([file.name], exc)
        return ""

    # -- worker thread ----------------------------------------------------------
    def _worker_main(
        self,
        logic: WorkerLogic,
        scheduler: MasterScheduler,
        controller: ControllerLogic,
        wakeup: threading.Condition,
        outcomes: dict[str, _WorkerOutcome],
        tel: Telemetry = NULL_TELEMETRY,
        run_span: SpanHandle | None = None,
        h_exec: Histogram | None = None,
        monitor: HeartbeatMonitor | None = None,
        clock: Callable[[], float] | None = None,
        crash_on_task: Optional[int] = None,
        hang_on_task: Optional[int] = None,
        hang_release: threading.Event | None = None,
        status: dict[str, str] | None = None,
    ) -> None:
        wid = logic.worker_id
        records: list[TaskRecord] = []
        transfer_seconds = 0.0
        busy_seconds = 0.0
        status = status if status is not None else {}
        # Park timeout that keeps an idle worker alive in the monitor.
        self_beat = monitor.config.suspect_after if monitor is not None else 2.0  # frieda: allow[lock-outlier] -- frozen HeartbeatConfig read, set before threads start
        while True:
            with wakeup:
                if monitor is not None:
                    # Beats happen between tasks: a thread wedged inside
                    # a draw-execute cycle goes silent and is declared
                    # dead. Beating under the condition serializes the
                    # monitor map against the watchdog sweep.
                    monitor.beat(wid, clock())
                if scheduler.done:
                    break
                assignment = scheduler.next_for(logic.worker_id)
                if assignment is None:
                    if not scheduler.may_get_work_later(wid):
                        break
                    # Idle, but a peer's failure may requeue work for us:
                    # sleep until someone reports an outcome. The timeout
                    # is a lost-wakeup safety net, not a poll interval —
                    # except with heartbeats on, where a parked worker
                    # must still wake often enough to keep beating.
                    wakeup.wait(timeout=1.0 if monitor is None else 0.5 * self_beat)
                    continue
            group = assignment.group
            if crash_on_task is not None and crash_on_task in (group.index, ANY_TASK):
                # Injected VM death: exit abruptly — no report, no
                # further beats. The watchdog notices and requeues.
                status[wid] = "crashed"
                outcomes[wid] = _WorkerOutcome(records, transfer_seconds, busy_seconds)
                return
            if hang_on_task is not None and hang_on_task in (group.index, ANY_TASK):
                # Injected wedge: stay alive but stop beating; the
                # heartbeat sweep declares us dead. Released (so the
                # thread can exit) once the run resolves.
                status[wid] = "hung"
                outcomes[wid] = _WorkerOutcome(records, transfer_seconds, busy_seconds)
                if hang_release is not None:
                    hang_release.wait()
                return
            task_span = tel.start_span(
                "task",
                parent=run_span,
                track=f"worker:{wid}",
                task=group.index,
                worker=wid,
                attempt=assignment.attempt,
            )
            # Lazy staging (real-time): link missing inputs now.
            missing = logic.missing_files(group.file_names)
            fetch_failed = ""
            if missing and not controller.strategy.data_local_to_workers:  # frieda: allow[lock-outlier] -- frozen ExecutionStrategy read, never mutated after run() starts
                fetch_at = tel.clock()
                t0 = time.monotonic()
                fetch_failed = self._stage_missing(group.files, missing, logic)
                transfer_seconds += time.monotonic() - t0
                tel.span_complete(
                    "fetch",
                    fetch_at,
                    tel.clock(),
                    parent=task_span,
                    track=f"worker:{wid}",
                    worker=wid,
                    task=group.index,
                    files=len(missing),
                )
            if fetch_failed:
                # Its inputs never arrived: the task fails unrun.
                ok, error = False, fetch_failed
                start = end = time.monotonic()
                task_span.end(ok=False, error="fetch-failed")
            else:
                exec_at = tel.clock()
                start = time.monotonic()
                logic.begin_task(group.index, group.file_names, start)
                ok, error = execute_command(
                    logic.command,
                    [logic.resolve_path(n) for n in group.file_names],
                    self.command_timeout,
                )
                end = time.monotonic()
                logic.finish_task(end, ok=ok, error=error)
                busy_seconds += end - start
                tel.span_complete(
                    "exec",
                    exec_at,
                    tel.clock(),
                    parent=task_span,
                    track=f"worker:{wid}",
                    worker=wid,
                    node="localhost",
                    task=group.index,
                )
                task_span.end(ok=ok)
            with wakeup:
                if ok:
                    scheduler.report_success(logic.worker_id, group.index)
                else:
                    controller.on_task_error(logic.worker_id, group.index, error, clock())
                # Histograms mutate shared buckets — observe under the
                # same lock that guards the scheduler.
                if h_exec is not None and not fetch_failed:
                    h_exec.observe(end - start)
                # Every outcome can finish the run or requeue a task:
                # wake idle peers so they re-check the scheduler.
                wakeup.notify_all()
            records.append(
                TaskRecord(
                    task_id=group.index,
                    worker_id=logic.worker_id,
                    node_id="localhost",
                    start=start,
                    end=end,
                    ok=ok,
                    attempt=assignment.attempt,
                    error=error,
                )
            )
        status[wid] = "completed"
        with wakeup:
            # This worker is leaving (done, or no retry can hand it
            # work): wake any sleeper so it re-checks the exit condition.
            wakeup.notify_all()
        outcomes[logic.worker_id] = _WorkerOutcome(records, transfer_seconds, busy_seconds)
