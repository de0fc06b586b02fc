"""The master's task-assignment logic (execution plane, §II-B/§II-C).

This is a pure state machine — no I/O, no clocks — shared by the
simulated engine and the real runtimes. It implements both assignment
disciplines of §III:

- **static** (pre-partitioning): task groups are chunked contiguously
  across the workers known at partition time; each worker only ever
  receives its own chunk. "The groups of files that will be processed
  by every worker is determined by the master at the beginning" (§II-F).
- **pull** (real-time): a single FIFO of task groups; whichever worker
  asks next gets the head. "Worker nodes that are heavily loaded
  process less compared to the nodes which are lightly loaded" — load
  balancing falls out of the pull discipline.

Failure semantics follow :mod:`repro.core.fault`: isolated workers get
no more data; with the retry extension enabled, tasks lost to a dead
worker are requeued (to the global queue, or to surviving workers'
chunks under static assignment).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, Optional, Sequence

from repro.core.fault import FaultTracker, RetryPolicy
from repro.core.strategies import DataManagementStrategy
from repro.data.partition import TaskGroup
from repro.errors import ProtocolError
from repro.telemetry.metrics import MetricsRegistry, NULL_METRICS


@dataclass(frozen=True)
class Assignment:
    """One task group handed to one worker."""

    group: TaskGroup
    worker_id: str
    attempt: int

    @property
    def task_id(self) -> int:
        return self.group.index


class MasterScheduler:
    """Assigns task groups to workers according to a strategy."""

    def __init__(
        self,
        groups: Sequence[TaskGroup],
        strategy: DataManagementStrategy,
        *,
        retry_policy: RetryPolicy | None = None,
        fault_tracker: FaultTracker | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self.strategy = strategy
        self.retry_policy = retry_policy or RetryPolicy.paper_faithful()
        self.faults = fault_tracker or FaultTracker()
        # The scheduler stays a pure state machine: metrics are plain
        # counters, cached here so assignment paths pay one method call.
        # ``clock`` is injected, never read ambiently — with it the
        # scheduler derives the latency-percentile signals (queue wait,
        # task latency, queue depth, completion rate) for every engine
        # from one implementation; without it those stay silent.
        metrics = metrics if metrics is not None else NULL_METRICS
        self._clock = clock
        self._m_assigned = metrics.counter("scheduler.assigned")
        self._m_completed = metrics.counter("scheduler.completed")
        self._m_duplicates = metrics.counter("scheduler.duplicate_results")
        self._m_errors = metrics.counter("scheduler.task_errors")
        self._m_retried = metrics.counter("scheduler.retried")
        self._m_lost = metrics.counter("scheduler.tasks_lost")
        self._m_rescinded = metrics.counter("scheduler.rescinded")
        self._m_workers_lost = metrics.counter("scheduler.workers_lost")
        self._m_speculated = metrics.counter("scheduler.speculated")
        self._m_partitions = metrics.counter("scheduler.partition_passes")
        self._h_queue_wait = metrics.histogram("queue.wait_seconds")
        self._h_latency = metrics.histogram("task.latency_seconds")
        self._g_depth = metrics.gauge("queue.depth")
        self._g_completion = metrics.gauge("run.completion_rate")
        self._groups = list(groups)
        self._pending = len(self._groups)
        self._g_depth.set(self._pending)
        if not self._groups:
            # An empty workload is trivially complete; without this a
            # zero-task job would report 0% completion forever.
            self._g_completion.set(1.0)
        self._ready_at: dict[int, float] = {}
        self._assigned_at: dict[tuple[str, int], float] = {}
        self._attempts: dict[int, int] = {g.index: 0 for g in self._groups}
        self._queue: Deque[TaskGroup] = deque(self._groups)
        self._static_chunks: dict[str, Deque[TaskGroup]] = {}
        self._partitioned = False
        self._workers: list[str] = []
        self._worker_set: set[str] = set()
        self._in_flight: dict[tuple[str, int], Assignment] = {}
        self.completed: dict[int, Assignment] = {}
        self.lost_tasks: list[Assignment] = []
        self.failed_tasks: list[Assignment] = []

    # -- membership --------------------------------------------------------
    def register_worker(self, worker_id: str) -> None:
        """A worker connected (Fig 4 "Initialize and register")."""
        if worker_id in self._worker_set:
            raise ProtocolError(f"worker {worker_id!r} registered twice")
        self._workers.append(worker_id)
        self._worker_set.add(worker_id)
        if self.strategy.static_assignment and self._partitioned:
            # Late joiner under static assignment: nothing was reserved
            # for it; it only gets work via retry requeues.
            self._static_chunks.setdefault(worker_id, deque())

    @property
    def workers(self) -> tuple[str, ...]:
        return tuple(self._workers)

    # -- speculation (extension) -------------------------------------------
    def speculate_for(self, worker_id: str) -> Optional[Assignment]:
        """Hand ``worker_id`` a *duplicate* of an in-flight task.

        Speculative execution (MapReduce-style backup tasks): when the
        queue is empty but tasks are still running elsewhere, an idle
        worker re-runs one — the first completion wins, the loser's
        report is discarded. Never duplicates a task already running on
        this worker, and at most one backup per task.
        """
        if self.faults.is_isolated(worker_id):
            return None
        candidates = [
            a
            for (wid, task_id), a in self._in_flight.items()
            if wid != worker_id
            and not any(w == worker_id and t == task_id for (w, t) in self._in_flight)
            and sum(1 for (_w, t) in self._in_flight if t == task_id) < 2
        ]
        if not candidates:
            return None
        # Back up the longest-outstanding task (lowest index is a
        # deterministic proxy for "assigned earliest").
        victim = min(candidates, key=lambda a: a.task_id)
        copy = Assignment(
            group=victim.group, worker_id=worker_id, attempt=victim.attempt
        )
        self._in_flight[(worker_id, copy.task_id)] = copy
        self._m_speculated.inc()
        if self._clock is not None:
            self._assigned_at[(worker_id, copy.task_id)] = self._clock()
        return copy

    # -- partitioning -------------------------------------------------------
    def partition_among(
        self,
        worker_ids: Iterable[str] | None = None,
        *,
        chunking: str = "contiguous",
        cost_hint: "Callable[[TaskGroup], float] | None" = None,
    ) -> None:
        """Fix the static chunking (no-op for pull strategies).

        ``chunking`` selects the division discipline:

        - ``"contiguous"`` (default, paper-faithful): contiguous slices
          in task order — the up-front division of §II-F, whose
          straggler skew is what real-time mode avoids in Table I.
        - ``"lpt_size"`` (extension): longest-processing-time greedy on
          group *byte size* — better when cost tracks input size.
        - ``"lpt_cost"`` (extension): LPT on a caller-provided
          ``cost_hint`` oracle — the idealized static division, useful
          as an upper bound in ablations.
        """
        if not self.strategy.static_assignment:
            self._partitioned = True
            self._mark_ready(self._queue)
            return
        ids = list(worker_ids) if worker_ids is not None else list(self._workers)
        if not ids:
            raise ProtocolError("cannot partition among zero workers")
        # A worker that was lost or isolated before partition time can
        # never serve a chunk (next_for refuses isolated workers), so
        # reserving work for it would strand those tasks outside every
        # accounting bucket and freeze queue.depth above zero — real in
        # the TCP plane, where a worker can register inside the window
        # and die before it closes.
        healthy = [w for w in ids if not self.faults.is_isolated(w)]
        if not healthy:
            # Every candidate is already gone: leave the work on the
            # overflow queue for late elastic joiners instead of carving
            # chunks nobody can serve.
            self._static_chunks = {}
            self._partitioned = True
            self._m_partitions.inc()
            self._mark_ready(self._queue)
            return
        ids = healthy
        # Under static assignment the chunks own the work; the global
        # queue only ever holds retry requeues that no chunk can take.
        self._queue.clear()
        self._static_chunks = {w: deque() for w in ids}
        if chunking == "contiguous":
            n = len(self._groups)
            k = len(ids)
            base, extra = divmod(n, k)
            start = 0
            for rank, worker_id in enumerate(ids):
                size = base + (1 if rank < extra else 0)
                for group in self._groups[start : start + size]:
                    self._static_chunks[worker_id].append(group)
                start += size
        elif chunking in ("lpt_size", "lpt_cost"):
            if chunking == "lpt_cost":
                if cost_hint is None:
                    raise ProtocolError("lpt_cost chunking needs a cost_hint")
                weight = cost_hint
            else:
                weight = lambda g: float(g.total_size)
            loads = {w: 0.0 for w in ids}
            # Stable LPT: heaviest group to the lightest worker; ties
            # break on registration order for determinism.
            for group in sorted(self._groups, key=weight, reverse=True):
                lightest = min(ids, key=lambda w: (loads[w], ids.index(w)))
                self._static_chunks[lightest].append(group)
                loads[lightest] += weight(group)
            # Keep per-worker task order by index (workers process their
            # chunk in order; LPT decided membership, not sequence).
            for worker_id in ids:
                ordered = sorted(self._static_chunks[worker_id], key=lambda g: g.index)
                self._static_chunks[worker_id] = deque(ordered)
        else:
            raise ProtocolError(f"unknown chunking discipline {chunking!r}")
        self._partitioned = True
        self._m_partitions.inc()
        self._mark_ready(self._groups)

    def _mark_ready(self, groups: Iterable[TaskGroup]) -> None:
        """Stamp when tasks became eligible for assignment (clock only)."""
        if self._clock is None:
            return
        now = self._clock()
        for group in groups:
            self._ready_at[group.index] = now

    def planned_chunk(self, worker_id: str) -> tuple[TaskGroup, ...]:
        """The chunk reserved for a worker (static strategies)."""
        return tuple(self._static_chunks.get(worker_id, ()))

    # -- assignment -----------------------------------------------------------
    def peek_pending(self) -> Optional[TaskGroup]:
        """The task group the pull queue would serve next, without
        drawing it.

        The service layer prices admission against per-tenant byte
        quotas before leasing a worker; peeking lets it see the next
        task's size without committing an assignment.
        """
        return self._queue[0] if self._queue else None

    def next_for(self, worker_id: str) -> Optional[Assignment]:
        """Hand the next task group to ``worker_id`` (None = drained).

        Isolated workers never receive data (§V-A: "automatically
        isolating the failed workers from doing further computation").
        """
        if not self._partitioned:
            raise ProtocolError("next_for() before partition_among()")
        if self.faults.is_isolated(worker_id):
            return None
        if self.strategy.static_assignment:
            source = self._static_chunks.get(worker_id)
            if not source:
                # Chunk drained (or late elastic joiner): serve retry
                # requeues from the overflow queue so no task is
                # stranded while a healthy worker is idle.
                source = self._queue
        else:
            source = self._queue
        if not source:
            return None
        group = source.popleft()
        self._attempts[group.index] += 1
        assignment = Assignment(
            group=group, worker_id=worker_id, attempt=self._attempts[group.index]
        )
        self._in_flight[(worker_id, group.index)] = assignment
        self._m_assigned.inc()
        self._pending -= 1
        self._g_depth.set(self._pending)
        if self._clock is not None:
            now = self._clock()
            ready = self._ready_at.pop(group.index, now)
            self._h_queue_wait.observe(now - ready)
            self._assigned_at[(worker_id, group.index)] = now
        return assignment

    def has_in_flight(self, worker_id: str, task_id: int) -> bool:
        """Whether this (worker, task) pair is on the books.

        A real master uses this to discard *stale* status reports: a
        worker the heartbeat sweep already declared dead (and whose
        task was requeued) may still deliver an ``EXEC_STATUS`` — that
        report must be ignored, not crash the master.
        """
        return (worker_id, task_id) in self._in_flight

    def assignment_in_flight(self, worker_id: str) -> Optional[Assignment]:
        """The worker's current in-flight assignment, if any (earliest
        task index when several are outstanding).

        Lets a master answer a *repeated* ``REQUEST_DATA`` — a worker
        whose reply frame was lost on the wire re-asks — by re-sending
        the same assignment instead of drawing a new one (at-least-once
        delivery without double-assignment).
        """
        mine = [a for (w, _t), a in self._in_flight.items() if w == worker_id]
        if not mine:
            return None
        return min(mine, key=lambda a: a.task_id)

    def abandon_outstanding(self, reason: str = "abandoned") -> list[Assignment]:
        """Terminal accounting when no master survives to drive retries.

        Every unresolved task (in flight, queued, or still reserved in
        a static chunk) becomes *lost* — the fate of work stranded by a
        master crash (§V-A single point of failure). Returns the newly
        lost assignments.
        """
        resolved = (
            set(self.completed)
            | {a.task_id for a in self.failed_tasks}
            | {a.task_id for a in self.lost_tasks}
        )
        in_flight = {a.task_id: a for a in self._in_flight.values()}
        newly_lost: list[Assignment] = []
        for group in self._groups:
            if group.index in resolved:
                continue
            assignment = in_flight.get(group.index) or Assignment(
                group=group, worker_id="", attempt=self._attempts[group.index]
            )
            self.lost_tasks.append(assignment)
            newly_lost.append(assignment)
            self._m_lost.inc()
        self._in_flight.clear()
        self._assigned_at.clear()
        self._ready_at.clear()
        self._queue.clear()
        for chunk in self._static_chunks.values():
            chunk.clear()
        self._pending = 0
        self._g_depth.set(0)
        return newly_lost

    # -- completion/failure ------------------------------------------------
    def _pop_in_flight(self, worker_id: str, task_id: int) -> Assignment:
        try:
            return self._in_flight.pop((worker_id, task_id))
        except KeyError:
            raise ProtocolError(
                f"status for task {task_id} not in flight on {worker_id!r}"
            ) from None

    def report_success(self, worker_id: str, task_id: int) -> None:
        assignment = self._pop_in_flight(worker_id, task_id)
        assigned_at = self._assigned_at.pop((worker_id, task_id), None)
        if task_id in self.completed:
            # A speculative copy lost the race; discard its result.
            self._m_duplicates.inc()
            return
        self.completed[task_id] = assignment
        self._m_completed.inc()
        if self._clock is not None and assigned_at is not None:
            self._h_latency.observe(self._clock() - assigned_at)
        if self._groups:
            self._g_completion.set(len(self.completed) / len(self._groups))

    def report_error(self, worker_id: str, task_id: int, message: str = "") -> bool:
        """Task exited with an error; returns True if it will be retried."""
        assignment = self._pop_in_flight(worker_id, task_id)
        self._assigned_at.pop((worker_id, task_id), None)
        self.faults.record_error(worker_id, message)
        if self.faults.is_isolated(worker_id):
            # Isolation by error count is a capacity loss too: the
            # worker's remaining reserved chunk can never be served
            # (next_for refuses isolated workers), so drain it through
            # the same retry/lost accounting a dead worker gets —
            # otherwise those tasks vanish from every bucket and the
            # queue.depth gauge stays frozen above zero.
            self._drain_reserved(worker_id)
            self._g_depth.set(self._pending)
        self._m_errors.inc()
        if task_id in self.completed:
            return False  # a speculative copy failed after the original won
        if any(t == task_id for (_w, t) in self._in_flight):
            return False  # another copy is still running; let it decide
        if self.retry_policy.should_retry(assignment.attempt, worker_loss=False):
            self._requeue(assignment)
            self._m_retried.inc()
            return True
        self.failed_tasks.append(assignment)
        return False

    def rescind(self, worker_id: str, task_id: int) -> Optional[Assignment]:
        """Take back an in-flight assignment as if it was never made.

        The master-failover primitive: a recovered control plane fences
        a stale-epoch report, and the fenced attempt must not count
        against the task's retry budget — the *master* failed, not the
        task or the worker.  The attempt counter is rolled back and the
        group requeued, so the next ``next_for`` re-issues the same
        attempt number (which keeps seeded per-attempt streams, fault
        injection included, byte-identical to an uninterrupted run).

        Returns the requeued assignment, or ``None`` when the task
        already resolved through another path (then only the in-flight
        entry is dropped).
        """
        assignment = self._pop_in_flight(worker_id, task_id)
        self._assigned_at.pop((worker_id, task_id), None)
        self._attempts[task_id] -= 1
        self._m_rescinded.inc()
        if task_id in self.completed or any(
            t == task_id for (_w, t) in self._in_flight
        ):
            return None  # a speculative copy already carried the task
        self._requeue(assignment)
        return assignment

    def worker_lost(self, worker_id: str, message: str = "") -> list[Assignment]:
        """A worker's VM/connection died. Returns the assignments requeued.

        Without the retry extension, in-flight and still-reserved tasks
        become *lost* (recorded, not rerun) — the paper's behaviour.
        """
        self.faults.record_loss(worker_id, message)
        self._m_workers_lost.inc()
        stranded = [
            a for (w, _t), a in list(self._in_flight.items()) if w == worker_id
        ]
        for assignment in stranded:
            del self._in_flight[(worker_id, assignment.task_id)]
            self._assigned_at.pop((worker_id, assignment.task_id), None)
        requeued: list[Assignment] = []
        for assignment in stranded:
            if assignment.task_id in self.completed or any(
                t == assignment.task_id for (_w, t) in self._in_flight
            ):
                continue  # a copy finished or is still running elsewhere
            if self.retry_policy.should_retry(assignment.attempt, worker_loss=True):
                self._requeue(assignment)
                requeued.append(assignment)
                self._m_retried.inc()
            else:
                self.lost_tasks.append(assignment)
                self._m_lost.inc()
        requeued.extend(self._drain_reserved(worker_id))
        self._g_depth.set(self._pending)
        return requeued

    def _drain_reserved(self, worker_id: str) -> list[Assignment]:
        """Redistribute a gone worker's still-reserved chunk.

        Tasks reserved for a worker that died or was isolated never
        started; each goes back through the retry policy (a lost
        reservation consumes an attempt, mirroring the in-flight path,
        so repeated worker loss exhausts ``max_attempts`` instead of
        requeueing forever) or is recorded lost.  Callers refresh the
        ``queue.depth`` gauge afterwards.
        """
        reserved = list(self._static_chunks.pop(worker_id, ()))
        self._pending -= len(reserved)
        requeued: list[Assignment] = []
        for group in reserved:
            attempt = self._attempts[group.index]
            pseudo = Assignment(group=group, worker_id=worker_id, attempt=attempt)
            if self.retry_policy.should_retry(attempt, worker_loss=True):
                self._attempts[group.index] = attempt + 1
                self._requeue(pseudo)
                requeued.append(pseudo)
                self._m_retried.inc()
            else:
                self.lost_tasks.append(pseudo)
                self._m_lost.inc()
        return requeued

    def _requeue(self, assignment: Assignment) -> None:
        self._pending += 1
        self._g_depth.set(self._pending)
        if self._clock is not None:
            self._ready_at[assignment.task_id] = self._clock()
        if self.strategy.static_assignment:
            # Rebalance onto the healthy worker with the shortest chunk.
            healthy = [
                (len(chunk), wid)
                for wid, chunk in self._static_chunks.items()
                if not self.faults.is_isolated(wid)
            ]
            if healthy:
                _, wid = min(healthy)
                self._static_chunks[wid].append(assignment.group)
                return
            # No healthy worker holds a chunk — fall through to the queue
            # so a future elastic worker can pick it up.
        self._queue.append(assignment.group)

    # -- progress -----------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Tasks not yet completed/failed/lost."""
        resolved = len(self.completed) + len(self.failed_tasks) + len(self.lost_tasks)
        return len(self._groups) - resolved

    @property
    def pending_count(self) -> int:
        """Tasks queued or reserved but not yet handed to a worker."""
        return self._pending

    def may_get_work_later(self, worker_id: str) -> bool:
        """Whether an idle worker (``next_for`` gave it nothing) should
        wait for work instead of being released: only a retry can hand
        it work later, so it stays while retries are on (worker-loss or
        task-error), the run is not done and it is not isolated. Every
        engine applies this one rule."""
        retry = self.retry_policy
        if not (retry.retry_on_worker_loss or retry.retry_on_task_error):
            return False
        return not self.done and not self.faults.is_isolated(worker_id)

    @property
    def has_queued_work(self) -> bool:
        if self.strategy.static_assignment:
            return any(
                chunk and not self.faults.is_isolated(wid)
                for wid, chunk in self._static_chunks.items()
            ) or bool(self._queue)
        return bool(self._queue)

    @property
    def done(self) -> bool:
        """True when no task can make further progress.

        Either everything resolved, or nothing is queued/in flight, or
        work remains queued but every registered worker is isolated
        (the paper-faithful "lost tasks" terminal state: the
        controller's ``outcome()`` records what is left as lost).
        """
        if self.outstanding == 0:
            return True
        if self._in_flight:
            return False
        if not self.has_queued_work:
            return True
        if not self._partitioned or not self._workers:
            return False
        # Terminal only when *every* worker is isolated — stop at the
        # first healthy one, or every idle worker's poll goes O(workers).
        return not any(
            not self.faults.is_isolated(w) for w in self._workers
        )

    def summary(self) -> dict[str, int]:
        return {
            "total": len(self._groups),
            "completed": len(self.completed),
            "failed": len(self.failed_tasks),
            "lost": len(self.lost_tasks),
            "in_flight": len(self._in_flight),
        }

    # -- durability ----------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe snapshot of every mutable field.

        Groups are *not* serialized — they are the job's spec, which the
        owner re-supplies to :meth:`from_state`; assignments round-trip
        as ``[task, worker, attempt]`` triples and rebind to the same
        group objects.  Every ordered container keeps its order: the
        queue decides who runs next, and restoring it shuffled would
        break the byte-identical-replay contract.
        """
        return {
            "attempts": [[t, n] for t, n in self._attempts.items()],
            "queue": [g.index for g in self._queue],
            "chunks": [
                [w, [g.index for g in chunk]]
                for w, chunk in self._static_chunks.items()
            ],
            "partitioned": self._partitioned,
            "workers": list(self._workers),
            "in_flight": [
                [a.task_id, w, a.attempt] for (w, _t), a in self._in_flight.items()
            ],
            "completed": [
                [a.task_id, a.worker_id, a.attempt] for a in self.completed.values()
            ],
            "failed": [
                [a.task_id, a.worker_id, a.attempt] for a in self.failed_tasks
            ],
            "lost": [[a.task_id, a.worker_id, a.attempt] for a in self.lost_tasks],
            "pending": self._pending,
            "ready_at": [[t, at] for t, at in self._ready_at.items()],
            "assigned_at": [
                [w, t, at] for (w, t), at in self._assigned_at.items()
            ],
        }

    @classmethod
    def from_state(
        cls,
        state: dict,
        groups: Sequence[TaskGroup],
        strategy: DataManagementStrategy,
        *,
        retry_policy: RetryPolicy | None = None,
        fault_tracker: FaultTracker | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] | None = None,
    ) -> "MasterScheduler":
        sched = cls(
            groups,
            strategy,
            retry_policy=retry_policy,
            fault_tracker=fault_tracker,
            metrics=metrics,
            clock=clock,
        )
        by_index = {g.index: g for g in sched._groups}

        def assignment(task: int, worker: str, attempt: int) -> Assignment:
            return Assignment(
                group=by_index[task], worker_id=worker, attempt=attempt
            )

        sched._attempts = {int(t): int(n) for t, n in state["attempts"]}
        sched._queue = deque(by_index[t] for t in state["queue"])
        sched._static_chunks = {
            w: deque(by_index[t] for t in ids) for w, ids in state["chunks"]
        }
        sched._partitioned = bool(state["partitioned"])
        sched._workers = list(state["workers"])
        sched._worker_set = set(sched._workers)
        sched._in_flight = {
            (w, int(t)): assignment(int(t), w, int(n))
            for t, w, n in state["in_flight"]
        }
        sched.completed = {
            int(t): assignment(int(t), w, int(n))
            for t, w, n in state["completed"]
        }
        sched.failed_tasks = [
            assignment(int(t), w, int(n)) for t, w, n in state["failed"]
        ]
        sched.lost_tasks = [
            assignment(int(t), w, int(n)) for t, w, n in state["lost"]
        ]
        sched._pending = int(state["pending"])
        sched._ready_at = {int(t): float(at) for t, at in state["ready_at"]}
        sched._assigned_at = {
            (w, int(t)): float(at) for w, t, at in state["assigned_at"]
        }
        sched._g_depth.set(sched._pending)
        if sched._groups:
            sched._g_completion.set(len(sched.completed) / len(sched._groups))
        return sched
