"""asyncio TCP master/worker runtime — the Twisted-prototype equivalent.

One process hosts the whole virtual deployment on localhost: the master
is an asyncio TCP server, each worker an asyncio client task. The wire
protocol is :mod:`repro.runtime.protocol` (length-prefixed JSON +
binary file payloads), exercising the exact message sequence of Fig 4:

    worker  → REGISTER_WORKER
    master  → CONNECTION_ACK
    (staged strategies: master pushes the worker's chunk as FILE_DATA)
    worker  → REQUEST_DATA
    master  → FILE_METADATA [+ FILE_DATA per missing file]  |  NO_MORE_DATA
    worker  → EXEC_STATUS
    ... repeat ...

Fault tolerance (runtime twin of the simulated engine's fault model):

- **Registration window** instead of a wait-for-all barrier: the run
  proceeds with whichever workers register inside the window; late
  workers — including a worker rejoining after a crash under a fresh
  id — are accepted mid-run and handed requeued work.
- **Wire liveness**: workers emit ``HEARTBEAT`` frames; the master
  drives a :class:`~repro.core.monitoring.HeartbeatMonitor` so a *hung*
  worker (connection open, no beats) is declared dead and recovered
  through the same ``worker_lost`` → requeue → isolate → node-lost
  path (:class:`~repro.core.controller.ControllerLogic`) a broken
  connection takes.
- **Payload integrity**: ``FILE_DATA`` frames are checksummed; a
  corrupt payload triggers a bounded ``RESEND_FILE`` re-request.
- **Fault injection**: a seeded
  :class:`~repro.runtime.faults.FaultScript` perturbs frames
  (drop/delay/corrupt/truncate) for chaos testing.

A worker disconnecting mid-run is treated as a failed worker: the
master reports it to the controller, isolates it, and (only with the
retry extension) requeues its tasks. A master loss no longer crashes
the run: workers unwind cleanly and the stranded tasks are accounted
as lost.
"""

from __future__ import annotations

# frieda: allow-file[wall-clock] -- real execution plane: measuring real
# elapsed time (makespan, transfer, busy seconds) is this engine's job.

import asyncio
import os
import tempfile
import time
from typing import BinaryIO, Callable, Optional, Sequence

from repro.core.commands import CommandTemplate
from repro.core.controller import ControllerLogic
from repro.core.fault import ANY_TASK, RetryPolicy
from repro.core.framework import RunOutcome, TaskRecord
from repro.core.identity import RejoinIdMinter, scratch_name
from repro.core.messages import (
    ConnectionAck,
    ExecStatus,
    FileData,
    FileMetadata,
    Heartbeat,
    HeartbeatAck,
    Message,
    NoMoreData,
    RegisterWorker,
    RequestData,
    ResendFile,
    TelemetryBatch,
)
from repro.core.monitoring import HeartbeatConfig, HeartbeatMonitor
from repro.core.scheduler import Assignment
from repro.core.strategies import StrategyKind
from repro.core.worker import WorkerLogic
from repro.data.files import DataFile, Dataset
from repro.data.partition import PartitionScheme
from repro.errors import ChecksumError, ConfigurationError, ProtocolError
from repro.runtime.faults import FaultScript, FaultyChannel
from repro.runtime.local import _as_command, execute_command, fetch_error, start_real_run
from repro.runtime.protocol import (
    SMALL_PAYLOAD,
    Channel,
    file_data_message,
    telemetry_batch_message,
)
from repro.telemetry.shipping import TelemetryMerger, TelemetryShipper, decode_batch, encode_batch
from repro.telemetry.slo import SloProbe
from repro.telemetry.spans import NULL_TELEMETRY, Telemetry

_CONNECTION_ERRORS = (
    asyncio.IncompleteReadError,
    ConnectionResetError,
    BrokenPipeError,
)



class TcpEngine:
    """Master/worker FRIEDA over localhost TCP."""

    def __init__(
        self,
        num_workers: int = 2,
        *,
        scratch_root: Optional[str] = None,
        run_timeout: float = 120.0,
        command_timeout: float = 300.0,
        host: str = "127.0.0.1",
        registration_window: float = 5.0,
        heartbeat_interval: float = 0.0,
        heartbeat_config: HeartbeatConfig | None = None,
        reply_timeout: float = 0.0,
        max_payload_retries: int = 3,
        telemetry_interval: float = 0.25,
    ):
        """``registration_window`` bounds how long the master waits for
        the expected workers before partitioning over whoever arrived
        (it always proceeds early once all expected workers register).
        ``heartbeat_interval`` > 0 turns on wire liveness: workers beat
        at that period and the master sweeps at the same period using
        ``heartbeat_config`` thresholds. ``reply_timeout`` > 0 lets a
        worker re-request after silence instead of blocking forever
        (required for ``drop`` fault rules); ``max_payload_retries``
        bounds per-file retransmits and re-requests.
        ``telemetry_interval`` is the period of worker telemetry flushes
        (and of SLO/queue-depth sampling when heartbeats are off); it
        only matters when a recording hub is passed to :meth:`run`.
        ``command_timeout`` bounds each shell-template task, as on
        :class:`~repro.runtime.local.ThreadedEngine`.
        """
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if command_timeout <= 0:
            raise ConfigurationError("command_timeout must be > 0")
        if registration_window <= 0:
            raise ConfigurationError("registration_window must be > 0")
        self.num_workers = num_workers
        self.scratch_root = scratch_root
        self.run_timeout = run_timeout
        self.command_timeout = command_timeout
        self.host = host
        self.registration_window = registration_window
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_config = heartbeat_config
        self.reply_timeout = reply_timeout
        self.max_payload_retries = max_payload_retries
        if telemetry_interval <= 0:
            raise ConfigurationError("telemetry_interval must be > 0")
        self.telemetry_interval = telemetry_interval

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
        crash_before_register: Sequence[str] = (),
        respawn_after_crash: dict[str, float] | None = None,
        crash_master_after_tasks: int | None = None,
        fault_script: FaultScript | None = None,
        telemetry: Telemetry | None = None,
        slo_probes: Sequence[SloProbe] = (),
    ) -> RunOutcome:
        """Run the workload over TCP; returns a :class:`RunOutcome`.

        With a *recording* ``telemetry`` hub, every worker runs its own
        hub on its own clock and ships batched spans/metrics back in
        ``TELEMETRY`` frames; the master folds them into per-worker
        tracks (clock-aligned from heartbeat pairs) at drain.
        ``slo_probes`` are evaluated over the live metrics stream at
        sweep ticks and task completions, emitting ``slo.breach`` /
        ``slo.recovered`` events.

        Testing hooks (all deterministic, none active by default):

        - ``crash_worker_on_task``: worker id → task id; the worker
          drops its connection when it receives that task (VM failure).
          Task id ``-1`` crashes on the first staging push.
        - ``hang_worker_on_task``: worker id → task id; the worker
          stops beating and processing but keeps its connection open (a
          wedged process). Requires ``heartbeat_interval`` > 0.
        - ``crash_before_register``: worker ids that die before sending
          ``REGISTER_WORKER`` (the registration-window case).
        - ``respawn_after_crash``: worker id → delay seconds; after
          that worker crashes, a fresh worker (new id) reconnects and
          is accepted mid-run (elastic rejoin).
        - ``crash_master_after_tasks``: the master stops serving after
          that many task completions — workers unwind cleanly and the
          stranded tasks are accounted as lost.
        - ``fault_script``: seeded wire perturbations
          (:class:`~repro.runtime.faults.FaultScript`).
        """
        if fault_script is not None and self.reply_timeout <= 0:
            if any(r.action == "drop" for r in fault_script.rules):
                raise ConfigurationError(
                    "dropped frames are unrecoverable without re-requests: "
                    "set TcpEngine(reply_timeout=...) > 0"
                )
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
        return asyncio.run(
            asyncio.wait_for(
                self._run_async(
                    controller,
                    crash_worker_on_task or {},
                    hang_map,
                    frozenset(crash_before_register),
                    respawn_after_crash or {},
                    crash_master_after_tasks,
                    fault_script,
                ),
                timeout=self.run_timeout,
            )
        )

    # ------------------------------------------------------------------
    async def _run_async(
        self,
        controller: ControllerLogic,
        crash_map: dict[str, int],
        hang_map: dict[str, int],
        pre_register_crashes: frozenset[str],
        respawn_map: dict[str, float],
        crash_master_after_tasks: int | None,
        fault_script: FaultScript | None,
    ) -> RunOutcome:
        dataset, scheduler = controller.dataset, controller.scheduler
        tel = controller.telemetry
        worker_ids = [f"tcp:{i}" for i in range(self.num_workers)]
        monitor = (
            HeartbeatMonitor(self.heartbeat_config, metrics=tel.metrics)
            if self.heartbeat_interval > 0
            else None
        )
        master = _Master(
            controller,
            worker_ids,
            registration_window=self.registration_window,
            heartbeats=monitor,
            heartbeat_interval=self.heartbeat_interval,
            fault_script=fault_script,
            crash_after_tasks=crash_master_after_tasks,
            merger=TelemetryMerger(tel) if tel.record else None,
            observe_interval=self.telemetry_interval,
        )
        server = await asyncio.start_server(master.handle_client, self.host, 0)
        port = server.sockets[0].getsockname()[1]
        run_span = tel.start_span(
            "run",
            track="control",
            dataset=dataset.name,
            strategy=controller.strategy.kind.value,
            workers=self.num_workers,
        )
        started = time.monotonic()
        records = master.records
        hang_release = asyncio.Event()
        supervisor = asyncio.create_task(master.supervise())

        async def release_when_done() -> None:
            await master.run_done.wait()
            hang_release.set()

        releaser = asyncio.create_task(release_when_done())
        # Shared crash→rejoin id policy: fresh ``base:rN`` per life, the
        # same discipline the threaded engine uses (core/identity.py).
        minter = RejoinIdMinter()

        async def lifecycle(wid: str, root: str) -> None:
            """One worker slot: a life, then — after an injected crash
            with a respawn delay — lives under fresh minted ids."""
            life: Optional[str] = wid
            while life is not None:
                status = await _worker_client(
                    life,
                    self.host,
                    port,
                    controller.command,
                    os.path.join(root, scratch_name(life)),
                    records,
                    command_timeout=self.command_timeout,
                    crash_on_task=crash_map.get(life),
                    hang_on_task=hang_map.get(life),
                    hang_release=hang_release,
                    crash_before_register=life in pre_register_crashes,
                    heartbeat_interval=self.heartbeat_interval,
                    reply_timeout=self.reply_timeout,
                    max_payload_retries=self.max_payload_retries,
                    fault_script=fault_script,
                    telemetry_interval=self.telemetry_interval,
                )
                delay = respawn_map.get(life)
                life = None
                if status == "crashed" and delay is not None and not master.run_done.is_set():
                    await asyncio.sleep(delay)
                    if not master.run_done.is_set():
                        life = minter.mint(wid)

        with tempfile.TemporaryDirectory(dir=self.scratch_root, prefix="frieda-tcp-") as root:
            workers = [asyncio.create_task(lifecycle(wid, root)) for wid in worker_ids]
            try:
                await asyncio.gather(*workers)
            finally:
                master.run_done.set()
                for task in (supervisor, releaser, *master._ack_tasks):
                    task.cancel()
                await asyncio.gather(
                    supervisor, releaser, *master._ack_tasks,
                    return_exceptions=True,
                )
                server.close()
                await server.wait_closed()
                # Let handlers finish their teardown (drain, close);
                # all channels are gone, so this is fast — the bound is
                # a backstop, not a budget.
                if master._client_tasks:
                    await asyncio.wait(set(master._client_tasks), timeout=2.0)
                    for pending in master._client_tasks:
                        pending.cancel()
                    await asyncio.gather(
                        *master._client_tasks, return_exceptions=True
                    )
        if master.error is not None:
            raise master.error
        makespan = time.monotonic() - started
        # Fold worker telemetry streams into the run hub (per-worker
        # tracks, clock-aligned; conflict-free metric merge) before
        # outcome() gives the SLO probes their final look.
        clock_offsets: dict[str, float] = {}
        if master.merger is not None:
            clock_offsets = master.merger.fold()
        run_span.end(tasks=len(scheduler.completed))
        records.sort(key=lambda r: (r.start, r.task_id))
        return controller.outcome(
            makespan=makespan,
            transfer_time=master.transfer_seconds,
            execution_time=sum(r.duration for r in records if r.ok),
            bytes_transferred=float(master.bytes_sent),
            task_records=records,
            extra={
                "retransmits": master.retransmits,
                "reissued_requests": master.reissued,
                "stale_statuses": master.stale_statuses,
                "master_crashed": master.crashed,
                "injected_faults": list(fault_script.injected) if fault_script else [],
                "telemetry_batches": (
                    master.merger.batches_received if master.merger else 0
                ),
                "telemetry_batches_dropped": master.batches_dropped,
                "clock_offsets": clock_offsets,
            },
        )


class _Master:
    """Server-side state: one instance per run."""

    def __init__(
        self,
        controller: ControllerLogic,
        expected_workers: list[str],
        *,
        registration_window: float,
        heartbeats: HeartbeatMonitor | None,
        heartbeat_interval: float,
        fault_script: FaultScript | None = None,
        crash_after_tasks: int | None = None,
        merger: TelemetryMerger | None = None,
        observe_interval: float = 0.25,
    ):
        self.controller = controller
        self.scheduler = controller.scheduler
        self.dataset = controller.dataset
        self.expected = set(expected_workers)
        self.clock = controller.clock
        self.registration_window = registration_window
        self.heartbeats = heartbeats
        self.heartbeat_interval = heartbeat_interval
        self.telemetry = controller.telemetry
        self.fault_script = fault_script
        self.crash_after_tasks = crash_after_tasks
        self.merger = merger
        self.observe_interval = observe_interval
        self.batches_dropped = 0
        self._ack_tasks: set[asyncio.Task] = set()
        self._client_tasks: set[asyncio.Task] = set()
        self.registered: set[str] = set()
        self.channels: dict[str, Channel] = {}
        self.sent_files: dict[str, set[str]] = {}
        #: Every task record of the run: the workers append theirs; the
        #: master appends one for a task failed before it was sent.
        self.records: list[TaskRecord] = []
        self.bytes_sent = 0
        self.transfer_seconds = 0.0
        self.partition_ready = asyncio.Event()
        self.run_done = asyncio.Event()
        self.retransmits = 0
        self.reissued = 0
        self.stale_statuses = 0
        self.completed_count = 0
        self.crashed = False
        self.error: Optional[BaseException] = None
        self._partitioned = False
        self._registration_changed = asyncio.Event()

    # -- supervision ---------------------------------------------------
    async def supervise(self) -> None:
        """Registration window, then the sweep/observe loop."""
        try:
            await self._registration_phase()
            if (
                self.heartbeats is None
                and self.controller.slo is None
                and self.merger is None
            ):
                return
            interval = (
                self.heartbeat_interval
                if self.heartbeats is not None
                else self.observe_interval
            )
            while not self.run_done.is_set():
                try:
                    await asyncio.wait_for(self.run_done.wait(), timeout=interval)
                except asyncio.TimeoutError:
                    if self.heartbeats is not None:
                        self._sweep()
                    self.controller.observe(
                        self.clock(), sample_queue=self.telemetry.record
                    )
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # surface master bugs to the engine
            self.error = exc
            self.run_done.set()
            for channel in list(self.channels.values()):
                channel.close()

    async def _registration_phase(self) -> None:
        try:
            await asyncio.wait_for(
                self._wait_all_expected(), timeout=self.registration_window
            )
        except asyncio.TimeoutError:
            pass
        while not self.registered:
            # Nobody arrived inside the window: the run cannot start
            # with zero workers, so wait for the first registration
            # (the engine's run_timeout is the backstop).
            self._registration_changed.clear()
            await self._registration_changed.wait()
        self.controller.close_registration(
            self.clock(), sorted(self.registered), expected=self.expected
        )
        self._partitioned = True
        self.partition_ready.set()

    async def _wait_all_expected(self) -> None:
        while not self.registered >= self.expected:
            self._registration_changed.clear()
            await self._registration_changed.wait()

    def _sweep(self) -> None:
        """The controller's sweep; a worker it declares dead has its
        connection closed."""
        dead = self.controller.sweep(self.heartbeats, self.clock(), lambda wid: (wid,))
        for wid in dead:
            channel = self.channels.get(wid)
            if channel is not None:
                channel.close()
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._partitioned and self.scheduler.done:
            self.run_done.set()

    def _ack_heartbeat(self, channel: Channel, beat: Heartbeat) -> None:
        """Echo a beat back (fire-and-forget) so the worker can measure
        a round trip entirely on its own clock."""

        async def _send() -> None:
            try:
                await channel.send(
                    HeartbeatAck(
                        worker_id=beat.worker_id,
                        seq=beat.seq,
                        sent_at=beat.sent_at,
                    )
                )
            except _CONNECTION_ERRORS + (OSError,):
                pass

        task = asyncio.create_task(_send())
        self._ack_tasks.add(task)
        task.add_done_callback(self._ack_tasks.discard)

    def _crash(self) -> None:
        """Injected master failure: stop serving, drop every connection."""
        self.crashed = True
        self.controller.log(self.clock(), "MASTER_LOST", "master crashed (injected)")
        for channel in list(self.channels.values()):
            channel.close()
        self.run_done.set()

    # -- data ----------------------------------------------------------
    def _open_inputs(
        self, names: Sequence[str]
    ) -> tuple[list[tuple[DataFile, BinaryIO]], str]:
        """Open every input about to be sent, before anything about them
        goes out: a missing or unreadable source fails its task up front
        instead of leaving a worker waiting for a file. Returns the open
        handles, or none and the task's fetch error."""
        opened: list[tuple[DataFile, BinaryIO]] = []
        for name in names:
            file = self.dataset.get(name)
            if file.path is None:
                raise ConfigurationError(f"file {name!r} has no on-disk path")
            try:
                opened.append((file, open(file.path, "rb")))  # frieda: allow[async-blocking] -- one open per input; the read stays where it was (see _send_inputs)
            except OSError as exc:
                for _file, fh in opened:
                    fh.close()
                return [], fetch_error([name], exc)
        return opened, ""

    async def _send_inputs(
        self,
        channel: Channel,
        wid: str,
        opened: list[tuple[DataFile, BinaryIO]],
        task_id: int,
        first: Message | None = None,
    ) -> None:
        """Send ``first`` (the task's ``FILE_METADATA``), then the opened
        inputs as ``FILE_DATA``, and close every handle."""
        try:
            if first is not None:
                await channel.send(first)
            for file, fh in opened:
                await self._send_file(channel, wid, file, fh, task_id)
        finally:
            for _file, fh in opened:
                fh.close()

    async def _send_file(
        self, channel: Channel, wid: str, file: DataFile, fh: BinaryIO, task_id: int
    ) -> None:
        """Read one opened input right before its frame: at most
        :data:`SMALL_PAYLOAD` bytes on the loop (cheaper than the
        executor hop), larger ones in the executor so one big input
        cannot stall heartbeat processing for every worker. The payload
        is released when this returns, before the next input is read."""
        if file.size <= SMALL_PAYLOAD:
            payload = fh.read()
        else:
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(None, fh.read)
        t0 = time.monotonic()
        await channel.send(file_data_message(task_id, file.name, payload), payload)
        self.transfer_seconds += time.monotonic() - t0
        self.bytes_sent += len(payload)
        self.sent_files.setdefault(wid, set()).add(file.name)

    def _fail_unsent(self, wid: str, assignment: Assignment, error: str) -> None:
        """A task whose inputs could not be opened fails unrun, through
        the same error path as a failed program, with its record kept."""
        now = time.monotonic()
        self.records.append(
            TaskRecord(
                task_id=assignment.task_id,
                worker_id=wid,
                node_id=wid,
                start=now,
                end=now,
                ok=False,
                attempt=assignment.attempt,
                error=error,
            )
        )
        now = self.clock()
        self.controller.on_task_error(wid, assignment.task_id, error, now)
        self.controller.observe(now, sample_queue=False)
        self._maybe_finish()

    # -- connection handling -------------------------------------------
    def _make_channel(self, reader, writer) -> Channel:
        if self.fault_script is not None:
            return FaultyChannel(reader, writer, self.fault_script, "master")
        return Channel(reader, writer)

    async def handle_client(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # Track the handler so the engine can wait for connection
        # teardown (telemetry drain outlives the worker's exit).
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
            task.add_done_callback(self._client_tasks.discard)
        channel = self._make_channel(reader, writer)
        wid = ""
        pump: Optional[_FramePump] = None
        try:
            message, _ = await channel.recv()
            if not isinstance(message, RegisterWorker):
                raise ProtocolError(f"expected REGISTER_WORKER, got {message.msg_type}")
            now = self.clock()
            if self.crashed or self.run_done.is_set():
                await channel.send(
                    ConnectionAck(
                        worker_id=message.worker_id,
                        accepted=False,
                        reason="run is over",
                    )
                )
                return
            if message.worker_id in self.registered:
                await channel.send(
                    ConnectionAck(
                        worker_id=message.worker_id,
                        accepted=False,
                        reason="duplicate worker id; rejoin with a fresh id",
                    )
                )
                return
            wid = message.worker_id
            # Each TCP worker is its own node.
            self.controller.register(wid, wid, now)
            self.registered.add(wid)
            self.channels[wid] = channel
            if self.heartbeats is not None:
                self.heartbeats.beat(wid, now)
            self._registration_changed.set()
            await channel.send(
                ConnectionAck(
                    worker_id=wid,
                    accepted=True,
                    ship_telemetry=self.merger is not None,
                )
            )

            def on_frame(message: Message, wid: str = wid) -> None:
                # Liveness is recorded at read time, independent of how
                # busy the serving loop is: any frame is proof of life.
                now = self.clock()
                if isinstance(message, Heartbeat):
                    if self.heartbeats is not None:
                        rtt = message.rtt if message.rtt >= 0 else None
                        self.heartbeats.beat(wid, now, rtt=rtt)
                    if self.merger is not None:
                        # Each beat is one (worker send, master receive)
                        # pair for the min-delay clock aligner.
                        self.merger.observe_clock(wid, message.sent_at, now)
                    self._ack_heartbeat(channel, message)
                    return
                if self.heartbeats is not None:
                    self.heartbeats.beat(wid, now)

            pump = _FramePump(channel, on_message=on_frame)
            # Static strategies: partition once the registration window
            # closes, then push this worker its chunk (staging phase).
            await self.partition_ready.wait()
            if self.controller.strategy.staged_before_execution:
                names_needed: list[str] = []
                if self.controller.strategy.replicate_all:
                    names_needed = [f.name for f in self.dataset]
                else:
                    for group in self.scheduler.planned_chunk(wid):
                        names_needed.extend(group.file_names)
                for name in dict.fromkeys(names_needed):
                    if name not in self.sent_files.get(wid, set()):
                        # An input that cannot be opened stays unsent:
                        # its task fails when drawn (see _serve).
                        opened, _error = self._open_inputs([name])
                        await self._send_inputs(channel, wid, opened, task_id=-1)
            await self._serve(wid, channel, pump)
        except _CONNECTION_ERRORS:
            if (
                wid
                and not self.crashed
                and self.controller.on_worker_lost(
                    wid, wid, "connection lost", self.clock()
                )
            ):
                if self.heartbeats is not None:
                    self.heartbeats.forget(wid)
                self._maybe_finish()
        finally:
            if pump is not None:
                pump.stop()
                await asyncio.gather(pump.task, return_exceptions=True)
            if self.channels.get(wid) is channel:
                del self.channels[wid]
            channel.close()
            await channel.wait_closed()

    async def _draw(self, wid: str) -> Optional[Assignment]:
        """The worker's next assignment, parking and polling while the
        shared idle rule says it may get work later and the run is on."""
        assignment = self.scheduler.next_for(wid)
        while (
            assignment is None
            and not self.run_done.is_set()
            and self.scheduler.may_get_work_later(wid)
        ):
            await asyncio.sleep(0.02)
            assignment = self.scheduler.next_for(wid)
        return assignment

    async def _serve(self, wid: str, channel: Channel, pump: "_FramePump") -> None:
        while True:
            try:
                message, payload = await pump.get()
            except ChecksumError as err:
                if isinstance(err.frame, TelemetryBatch):
                    # Telemetry is lossy-tolerant: drop the corrupt
                    # batch and keep serving — never a retransmit.
                    self.batches_dropped += 1
                    self.telemetry.metrics.counter("telemetry.batches_dropped").inc()
                    continue
                raise
            now = self.clock()
            if isinstance(message, RequestData):
                assignment = self.scheduler.assignment_in_flight(wid)
                if assignment is not None:
                    # Repeated request: our reply was lost on the wire;
                    # re-send the same assignment (at-least-once).
                    self.reissued += 1
                opened: list[tuple[DataFile, BinaryIO]] = []
                while True:
                    if assignment is None:
                        assignment = await self._draw(wid)
                    if assignment is None:
                        break
                    already = self.sent_files.get(wid, set())
                    opened, error = self._open_inputs(
                        [n for n in assignment.group.file_names if n not in already]
                    )
                    if not error:
                        break
                    self._fail_unsent(wid, assignment, error)
                    assignment = None
                if assignment is None:
                    if self.heartbeats is not None:
                        # Graceful drain: stop watching this worker so
                        # its silence after exit is not a false death.
                        self.heartbeats.forget(wid)
                    await channel.send(NoMoreData(worker_id=wid))
                    await self._drain_telemetry(wid, pump)
                    return
                group = assignment.group
                await self._send_inputs(
                    channel,
                    wid,
                    opened,
                    task_id=group.index,
                    first=FileMetadata(
                        task_id=group.index,
                        file_names=group.file_names,
                        sizes=tuple(f.size for f in group.files),
                        transfer_required=bool(opened),
                        attempt=assignment.attempt,
                    ),
                )
            elif isinstance(message, ResendFile):
                t0 = self.clock()
                # A source gone since its first send is not re-sent: the
                # worker's bounded re-requests give up on it.
                opened, _error = self._open_inputs([message.file_name])
                await self._send_inputs(channel, wid, opened, task_id=message.task_id)
                self.retransmits += 1
                self.telemetry.span_complete(
                    "retransmit",
                    t0,
                    self.clock(),
                    track="control",
                    worker=wid,
                    file=message.file_name,
                    reason=message.reason,
                )
            elif isinstance(message, ExecStatus):
                if not self.scheduler.has_in_flight(wid, message.task_id):
                    # Stale: the heartbeat sweep already declared this
                    # worker dead and requeued the task. Ignore.
                    self.stale_statuses += 1
                    self.controller.log(
                        now, "STALE_STATUS", f"{wid}: task {message.task_id}"
                    )
                    continue
                if message.ok:
                    self.scheduler.report_success(wid, message.task_id)
                    self.completed_count += 1
                    if (
                        self.crash_after_tasks is not None
                        and self.completed_count >= self.crash_after_tasks
                    ):
                        self._crash()
                        return
                else:
                    self.controller.on_task_error(wid, message.task_id, message.error, now)
                self.controller.observe(now, sample_queue=False)
                self._maybe_finish()
            elif isinstance(message, TelemetryBatch):
                if self.merger is not None:
                    try:
                        self.merger.add_batch(wid, decode_batch(payload))
                    except ProtocolError:
                        self.batches_dropped += 1
                        self.telemetry.metrics.counter(
                            "telemetry.batches_dropped"
                        ).inc()
            else:
                raise ProtocolError(f"unexpected message from worker: {message.msg_type}")

    async def _drain_telemetry(self, wid: str, pump: "_FramePump") -> None:
        """Collect the worker's final telemetry flush after ``NO_MORE_DATA``.

        A shipping worker sends one last batch and then closes; wait for
        frames until the close (or a bounded silence) so drain-time
        records are not lost to the connection teardown race.
        """
        if self.merger is None:
            return
        while True:
            try:
                message, payload = await pump.get(
                    timeout=max(1.0, 4 * self.observe_interval)
                )
            except ChecksumError as err:
                if isinstance(err.frame, TelemetryBatch):
                    self.batches_dropped += 1
                    self.telemetry.metrics.counter("telemetry.batches_dropped").inc()
                    continue
                return
            except _CONNECTION_ERRORS + (asyncio.TimeoutError,):
                return
            if isinstance(message, TelemetryBatch):
                try:
                    self.merger.add_batch(wid, decode_batch(payload))
                except ProtocolError:
                    self.batches_dropped += 1
                    self.telemetry.metrics.counter("telemetry.batches_dropped").inc()
            # Any other late frame is noise at drain; keep waiting for
            # the close so the final batch is never abandoned.


class _FramePump:
    """Reads frames into a queue so receives are decoupled from reads.

    Two reasons to never ``recv`` directly in a serving loop: (a)
    cancelling ``readexactly`` mid-frame (a receive timeout) would
    desynchronize the stream, while abandoning a queue get is safe; (b)
    liveness must not depend on how busy the consumer is — the master's
    pump records a beat the moment any frame arrives (``on_message``)
    even while the serving loop is staging files or parked waiting for
    work. Checksum and connection errors travel through the queue in
    order; ``swallow``-ed kinds (heartbeats, heartbeat acks) are
    consumed right after the callback and never reach the queue.
    """

    def __init__(
        self,
        channel: Channel,
        on_message: Optional[Callable[[Message], None]] = None,
        swallow: tuple[type, ...] = (Heartbeat,),
    ):
        self.queue: asyncio.Queue = asyncio.Queue()
        self._on_message = on_message
        self._swallow = swallow
        self.task = asyncio.create_task(self._pump(channel))

    async def _pump(self, channel: Channel) -> None:
        while True:
            try:
                item: tuple[Message, bytes] = await channel.recv()
            except ChecksumError as err:
                await self.queue.put(err)
                continue
            except _CONNECTION_ERRORS as err:
                await self.queue.put(err)
                return
            if self._on_message is not None:
                self._on_message(item[0])
            if isinstance(item[0], self._swallow):
                continue
            await self.queue.put(item)

    async def get(self, timeout: float = 0.0) -> tuple[Message, bytes]:
        if timeout > 0:
            item = await asyncio.wait_for(self.queue.get(), timeout)
        else:
            item = await self.queue.get()
        if isinstance(item, BaseException):
            raise item
        return item

    def stop(self) -> None:
        self.task.cancel()


def _write_payload(scratch_dir: str, file_name: str, payload: bytes) -> None:
    """Spill one received file to worker scratch.

    Staging pushes and inputs larger than :data:`SMALL_PAYLOAD` (by
    the catalog size ``FILE_METADATA`` advertises) are spilled on the
    event loop the moment their frame arrives. A task's small inputs
    are held in memory by the fetch loop instead and spilled by
    :func:`_run_task` inside the task's single executor call, right
    before the command runs. The on-loop spill is deliberate:

    - Not offloaded to an executor of its own: a spill is bounded by
      one frame, and yielding between a staged frame and the worker's
      next request reorders task assignment across workers — the
      fault tests pin which worker is handed which task, and the
      paper's protocol assumes a worker drains each push before asking
      for more. Holding a small input adds no yield either, so it
      reorders nothing.
    - Not deferred to the task's executor call: holding large payloads
      until the command runs keeps all of a task's big inputs resident
      at once, which raises peak memory by the size of the task.

    A spill that raises ``OSError`` is a task error, never the worker's
    death: the input is marked failed and the task that needs it
    answers ``EXEC_STATUS ok=False`` with its fetch error.
    """
    with open(os.path.join(scratch_dir, file_name), "wb") as fh:  # frieda: allow[async-blocking] -- deliberate: frame-sized spill; yielding here reorders task assignment (see docstring)
        fh.write(payload)


def _spill(
    logic: WorkerLogic, spill_failed: dict[str, OSError], name: str, payload: bytes
) -> None:
    """Spill one received input and mark it received; a spill that
    raises ``OSError`` marks it failed instead."""
    try:
        _write_payload(logic.scratch_dir, name, payload)
    except OSError as exc:
        spill_failed[name] = exc
        return
    logic.receive_file(name)


def _run_task(
    logic: WorkerLogic,
    task: FileMetadata,
    held: dict[str, bytes],
    spill_failed: dict[str, OSError],
    command_timeout: float,
) -> tuple[float, float, bool, str]:
    """The blocking half of one task, run as its single executor call.

    Spills the task's held small inputs to scratch, stamps ``start``,
    opens the execution record (``begin_task`` checks every input is
    present), runs the command and closes the record. Returns ``(start,
    end, ok, error)``. An input whose spill failed, now or before
    (``spill_failed``), fails the task unrun with its fetch error. The
    worker coroutine is suspended on this call, so nothing else touches
    ``logic`` or ``spill_failed`` meanwhile.
    """
    for name, payload in held.items():
        _spill(logic, spill_failed, name, payload)
    start = time.monotonic()
    broken = [n for n in task.file_names if n in spill_failed]
    if broken:
        return start, start, False, fetch_error(broken, spill_failed[broken[0]])
    logic.begin_task(task.task_id, task.file_names, start)
    ok, error = execute_command(
        logic.command,
        [logic.resolve_path(n) for n in task.file_names],
        command_timeout,
    )
    end = time.monotonic()
    logic.finish_task(end, ok=ok, error=error)
    return start, end, ok, error


async def _heartbeat_loop(
    channel: Channel,
    wid: str,
    interval: float,
    wclock: Callable[[], float],
    rtt_box: dict[str, float],
) -> None:
    """Beat at ``interval``, stamping each beat with the worker-clock
    send time (for master-side clock alignment) and the most recent
    acked round trip (for the master's RTT histogram)."""
    seq = 0
    try:
        while True:
            await channel.send(
                Heartbeat(
                    worker_id=wid,
                    seq=seq,
                    sent_at=wclock(),
                    rtt=rtt_box.get("rtt", -1.0),
                )
            )
            seq += 1
            await asyncio.sleep(interval)
    except _CONNECTION_ERRORS + (OSError,):
        return


async def _worker_client(
    wid: str,
    host: str,
    port: int,
    command: CommandTemplate,
    scratch_dir: str,
    records: list[TaskRecord],
    *,
    command_timeout: float = 300.0,
    crash_on_task: Optional[int] = None,
    hang_on_task: Optional[int] = None,
    hang_release: asyncio.Event | None = None,
    crash_before_register: bool = False,
    heartbeat_interval: float = 0.0,
    reply_timeout: float = 0.0,
    max_payload_retries: int = 3,
    fault_script: FaultScript | None = None,
    telemetry_interval: float = 0.25,
) -> str:
    """One worker: register, then the request/execute/report loop.

    Returns how the worker ended: ``"completed"`` (drained),
    ``"crashed"`` (injected crash), ``"hung"`` (injected hang,
    released at end of run), or ``"disconnected"`` (master/connection
    loss — handled cleanly, never raises through the engine).

    When the master's ``CONNECTION_ACK`` asks for telemetry, the worker
    runs a local recording hub on its *own* clock and ships batches on
    ``telemetry_interval``, after every completed task, and at drain.
    """
    os.makedirs(scratch_dir, exist_ok=True)  # frieda: allow[async-blocking] -- one-time mkdir before any frame is in flight
    logic = WorkerLogic(wid, wid, command, scratch_dir=scratch_dir)
    reader, writer = await asyncio.open_connection(host, port)
    channel: Channel = (
        FaultyChannel(reader, writer, fault_script, "worker")
        if fault_script is not None
        else Channel(reader, writer)
    )
    beat_task: asyncio.Task | None = None
    pump: _FramePump | None = None
    flush_task: asyncio.Task | None = None
    # The worker's own clock base — deliberately NOT the master's. All
    # local telemetry and heartbeat ``sent_at`` stamps use this clock;
    # the master aligns them from the heartbeat pairs at merge time.
    w_base = time.monotonic()

    def wclock() -> float:
        return time.monotonic() - w_base

    wtel: Telemetry = NULL_TELEMETRY
    shipper: TelemetryShipper | None = None
    rtt_box: dict[str, float] = {}
    track = f"worker:{wid}"

    async def ship() -> None:
        if shipper is None:
            return
        batch = shipper.take_batch()
        if batch is None:
            return
        blob = encode_batch(batch)
        await channel.send(telemetry_batch_message(wid, batch["seq"], blob), blob)

    async def flush_loop() -> None:
        try:
            while True:
                await asyncio.sleep(telemetry_interval)
                await ship()
        except _CONNECTION_ERRORS + (OSError,):
            return

    async def go_hang() -> str:
        # A wedged process: beats stop, the connection stays open, no
        # further frames are sent. Released when the run finishes.
        if beat_task is not None:
            beat_task.cancel()
        if hang_release is not None:
            await hang_release.wait()
        return "hung"

    try:
        if crash_before_register:
            return "crashed"  # died before REGISTER_WORKER ever went out
        await channel.send(RegisterWorker(worker_id=wid, node_id=wid, cores=1))
        ack, _ = await channel.recv()
        if not isinstance(ack, ConnectionAck) or not ack.accepted:
            reason = getattr(ack, "reason", "") or "unknown"
            raise ProtocolError(f"registration rejected for {wid}: {reason}")
        if ack.ship_telemetry:
            # Local recording hub on the worker's own clock; the run
            # label is replaced by the master's when batches are folded.
            wtel = Telemetry(clock=wclock, record=True, run=wid)
            shipper = TelemetryShipper(wtel)
            flush_task = asyncio.create_task(flush_loop())
        if heartbeat_interval > 0:
            beat_task = asyncio.create_task(
                _heartbeat_loop(channel, wid, heartbeat_interval, wclock, rtt_box)
            )

        def on_ack(message: Message) -> None:
            # The master echoes our send stamp; the difference on our
            # own clock is a clean round trip (no cross-clock math).
            if isinstance(message, HeartbeatAck) and message.sent_at >= 0:
                rtt_box["rtt"] = wclock() - message.sent_at

        pump = _FramePump(channel, on_message=on_ack, swallow=(Heartbeat, HeartbeatAck))
        loop = asyncio.get_running_loop()
        resend_counts: dict[str, int] = {}
        # Inputs whose spill to scratch failed (ENOSPC, EIO, ...): the
        # master has sent them and will not again, so a task that needs
        # one answers EXEC_STATUS ok=False instead of waiting for it.
        spill_failed: dict[str, OSError] = {}

        async def recv_checked(
            expect_files_for: tuple[str, ...] = (), task_id: int = -1
        ) -> tuple[Message, bytes]:
            """Receive one frame, recovering from corrupt or lost ones.

            A checksum mismatch re-requests the corrupt file; silence
            past ``reply_timeout`` re-requests every still-missing file
            of the current task. Both are bounded per file.
            """
            while True:
                try:
                    return await pump.get(reply_timeout)
                except ChecksumError as err:
                    frame = err.frame
                    assert isinstance(frame, FileData)
                    n = resend_counts.get(frame.file_name, 0) + 1
                    resend_counts[frame.file_name] = n
                    if n > max_payload_retries:
                        raise ProtocolError(
                            f"giving up on {frame.file_name!r} after "
                            f"{max_payload_retries} retransmits"
                        ) from err
                    await channel.send(
                        ResendFile(
                            worker_id=wid,
                            file_name=frame.file_name,
                            task_id=frame.task_id,
                        )
                    )
                except asyncio.TimeoutError:
                    missing = logic.missing_files(expect_files_for)
                    if not missing:
                        raise
                    for name in missing:
                        n = resend_counts.get(name, 0) + 1
                        resend_counts[name] = n
                        if n > max_payload_retries:
                            raise ProtocolError(
                                f"giving up on {name!r} after "
                                f"{max_payload_retries} re-requests"
                            ) from None
                        await channel.send(
                            ResendFile(
                                worker_id=wid,
                                file_name=name,
                                task_id=task_id,
                                reason="reply timeout",
                            )
                        )

        requested = False
        request_retries = 0
        while True:
            if not requested:
                await channel.send(RequestData(worker_id=wid))
                requested = True
                request_retries = 0
            try:
                message, payload = await recv_checked()
            except asyncio.TimeoutError:
                # No reply at all: our request (or its answer) was lost.
                request_retries += 1
                if request_retries > max_payload_retries:
                    raise ProtocolError(
                        f"master unresponsive after {max_payload_retries} re-requests"
                    ) from None
                await channel.send(RequestData(worker_id=wid))
                continue
            if isinstance(message, NoMoreData):
                # Final flush: the master holds the connection open
                # until this batch (or the close) arrives.
                await ship()
                return "completed"
            if isinstance(message, FileData):
                # Unsolicited staging push — store it; the outstanding
                # REQUEST_DATA is still pending, so don't re-request.
                if crash_on_task is not None and message.task_id == crash_on_task:
                    channel.close()
                    return "crashed"
                if hang_on_task is not None and message.task_id == hang_on_task:
                    return await go_hang()
                _spill(logic, spill_failed, message.file_name, payload)
                continue
            if not isinstance(message, FileMetadata):
                raise ProtocolError(f"unexpected message at worker: {message.msg_type}")
            if crash_on_task is not None and crash_on_task in (message.task_id, ANY_TASK):
                channel.close()
                return "crashed"
            if hang_on_task is not None and hang_on_task in (message.task_id, ANY_TASK):
                return await go_hang()
            task_span = wtel.span(
                "task", track=track, task=message.task_id, attempt=message.attempt
            )
            # Wait until every input for this task that can still come
            # has arrived. Small inputs are held for the task's executor
            # call; large ones spill as they land (see _write_payload).
            held: dict[str, bytes] = {}
            pending = [
                n for n in logic.missing_files(message.file_names) if n not in spill_failed
            ]
            if pending:
                small = {
                    name
                    for name, size in zip(message.file_names, message.sizes)
                    if size <= SMALL_PAYLOAD
                }
                fetch_span = wtel.span(
                    "fetch", parent=task_span, track=track, task=message.task_id
                )
                while pending:
                    data_msg, payload = await recv_checked(
                        expect_files_for=tuple(pending), task_id=message.task_id
                    )
                    if not isinstance(data_msg, FileData):
                        raise ProtocolError("expected FILE_DATA for missing inputs")
                    name = data_msg.file_name
                    if name in pending:
                        pending.remove(name)
                    if name in small:
                        held[name] = payload
                    else:
                        _spill(logic, spill_failed, name, payload)
                fetch_span.end()
            exec_span = wtel.span(
                "exec", parent=task_span, track=track, task=message.task_id
            )
            # One hop per task: spill, start stamp and the program all
            # run off the event loop in this single call.
            start, end, ok, error = await loop.run_in_executor(
                None, _run_task, logic, message, held, spill_failed, command_timeout
            )
            exec_span.end(ok=ok)
            task_span.end(ok=ok)
            wtel.metrics.histogram("task.exec_seconds").observe(end - start)
            wtel.metrics.counter("worker.tasks", ok=ok).inc()
            records.append(
                TaskRecord(
                    task_id=message.task_id,
                    worker_id=wid,
                    node_id=wid,
                    start=start,
                    end=end,
                    ok=ok,
                    attempt=message.attempt,
                    error=error,
                )
            )
            await channel.send(
                ExecStatus(
                    worker_id=wid,
                    task_id=message.task_id,
                    ok=ok,
                    duration=end - start,
                    error=error,
                )
            )
            await ship()
            requested = False
    except _CONNECTION_ERRORS:
        # Master loss (or our own injected truncate): unwind cleanly —
        # the engine accounts stranded tasks as lost, no traceback.
        return "disconnected"
    finally:
        if flush_task is not None:
            flush_task.cancel()
            await asyncio.gather(flush_task, return_exceptions=True)
        if beat_task is not None:
            beat_task.cancel()
            await asyncio.gather(beat_task, return_exceptions=True)
        if pump is not None:
            pump.stop()
            await asyncio.gather(pump.task, return_exceptions=True)
        channel.close()
        await channel.wait_closed()
