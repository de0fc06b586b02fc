"""The multi-tenant control plane: many jobs over one worker pool.

``ControlPlaneService`` is a pure state machine, like the scheduler it
multiplexes: the clock is injected and every decision is deterministic
given the call sequence, so the simulated driver can replay a load of
hundreds of tenants to byte-identical per-job digests, while the
asyncio driver runs the same logic on the real clock.

Division of labour per submission:

- :class:`~repro.service.admission.AdmissionController` decides
  admit/park/reject against pool and tenant quotas;
- each admitted job gets its own
  :class:`~repro.core.scheduler.MasterScheduler` (pull discipline),
  its own :class:`~repro.core.fault.FaultTracker`, and a
  ``job.<id>.``-prefixed metrics view — per-job signals without any
  cross-job gauge collisions;
- :class:`~repro.service.fairshare.FairShareScheduler` picks which
  job's queue the next free worker serves;
- :class:`~repro.service.pool.WorkerPool` tracks leases, so a worker
  crash touches exactly the owning job's tasks and nothing else.

Drivers call :meth:`lease` / :meth:`complete` / :meth:`worker_crashed`;
tenants (via HTTP or directly) call :meth:`submit` / :meth:`status` /
:meth:`cancel` / :meth:`list_jobs`.

Durability (§"kill the master"): with a journal attached, every
mutating call appends one CRC-guarded record — input *and* computed
outcome — to a write-ahead log (:mod:`repro.service.journal`).
:meth:`ControlPlaneService.recover` rebuilds a dead incarnation from
that log (latest snapshot + tail replay through the very same code
paths, under a clock that returns the recorded timestamps), bumps the
**service epoch**, and fences everything in flight: leases carry the
epoch that granted them, and a report bearing a stale epoch is dropped,
counted (``service.fenced_reports``), and its task requeued into the
owning job without consuming a retry attempt.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.core.fault import FaultTracker, RetryPolicy
from repro.core.scheduler import MasterScheduler
from repro.core.strategies import StrategyKind, strategy_for
from repro.errors import JournalError
from repro.service import journal as jrn
from repro.service.admission import AdmissionController, Decision, TenantQuota, Verdict
from repro.service.fairshare import FairShareScheduler
from repro.service.jobs import (
    Job,
    JobSpec,
    JobState,
    job_state_to_dict,
    outcome_digest,
)
from repro.service.pool import Lease, WorkerPool
from repro.telemetry.metrics import MetricsRegistry, NULL_METRICS


class _ReplayClock:
    """The recovery clock: returns whatever timestamp the journal
    record being replayed carried, so every rebuilt decision sees the
    same "now" the live service saw."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`ControlPlaneService.recover` call did."""

    epoch: int
    records_replayed: int
    snapshot_used: bool
    damage: Optional[jrn.JournalDamage]


class _TenantState:
    """Live per-tenant accounting the quotas are enforced against."""

    __slots__ = ("inflight_tasks", "inflight_bytes", "running_jobs", "parked_jobs")

    def __init__(self) -> None:
        self.inflight_tasks = 0
        self.inflight_bytes = 0.0
        self.running_jobs = 0
        self.parked_jobs = 0


class ControlPlaneService:
    """Admission + fair-share + quotas over a shared worker pool."""

    def __init__(
        self,
        worker_ids: Sequence[str],
        *,
        clock: Callable[[], float],
        metrics: MetricsRegistry | None = None,
        weights: dict[str, float] | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        max_running_jobs: int = 16,
        max_parked_jobs: int = 64,
        retry_policy: RetryPolicy | None = None,
        isolate_after: int = 2,
        epoch: int = 1,
        journal: "jrn.JournalWriter | None" = None,
    ) -> None:
        self._clock = clock
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.pool = WorkerPool(list(worker_ids), metrics=self.metrics)
        self.fair = FairShareScheduler(weights, metrics=self.metrics)
        self.admission = AdmissionController(
            max_running_jobs=max_running_jobs,
            max_parked_jobs=max_parked_jobs,
            default_quota=default_quota,
            quotas=quotas,
            metrics=self.metrics,
        )
        self.retry_policy = retry_policy or RetryPolicy.resilient()
        self.isolate_after = isolate_after
        self._jobs: dict[str, Job] = {}
        # The running-job index: exactly the jobs in state RUNNING, at
        # most ``max_running_jobs`` of them.  The lease cycle scans this
        # instead of every job ever submitted.  Kept by ``_start``,
        # ``_finish`` and ``cancel``; derived state, so snapshots do not
        # carry it and ``_restore_state`` rebuilds it from ``_jobs``.
        # Its iteration order (start order live, id order after a
        # restore) cannot change a decision: ``fair.pick`` ranks by
        # ``(usage/weight, tenant, job_id)``, a total order.
        self._running: dict[str, Job] = {}
        self._parked: deque[str] = deque()
        self._tenants: dict[str, _TenantState] = {}
        self._next_id = 1
        self._m_submitted = self.metrics.counter("service.jobs.submitted")
        self._m_completed = self.metrics.counter("service.jobs.completed")
        self._m_cancelled = self.metrics.counter("service.jobs.cancelled")
        self._m_leases = self.metrics.counter("service.leases.granted")
        self._m_stale = self.metrics.counter("service.leases.stale_reports")
        self._g_running = self.metrics.gauge("service.jobs.running")
        self._g_parked = self.metrics.gauge("service.jobs.parked")
        self._m_fenced = self.metrics.counter("service.fenced_reports")
        self._m_recoveries = self.metrics.counter("service.recoveries")
        self._g_epoch = self.metrics.gauge("service.epoch")
        self.epoch = int(epoch)
        self._g_epoch.set(self.epoch)
        self.last_recovery: Optional[RecoveryReport] = None
        self._journal = journal
        if journal is not None:
            self._journal_append(
                jrn.OPEN, epoch=self.epoch, workers=sorted(worker_ids)
            )

    # -- clock & journal -----------------------------------------------------
    def _now(self) -> float:
        # Indirection (not a bound alias) so recover() can swap
        # ``_clock`` from the replay clock to the live one after the
        # schedulers have already captured ``self._now``.
        return self._clock()

    def _journal_append(self, kind: str, **fields: Any) -> None:
        """Record one state-changing event; compact when the tail since
        the last snapshot has grown past the writer's threshold."""
        if self._journal is None:
            return
        self._journal.append(kind, self._now(), **fields)
        if self._journal.compaction_due:
            self._journal.compact(
                self.capture_state(), epoch=self.epoch, t=self._now()
            )

    # -- tenant bookkeeping --------------------------------------------------
    def _tenant(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState()
        return state

    def _refresh_job_gauges(self) -> None:
        self._g_running.set(len(self._running))
        self._g_parked.set(len(self._parked))

    # -- submission ----------------------------------------------------------
    def submit(self, spec: JobSpec) -> dict[str, Any]:
        """Admit, park, or reject a submission.

        Returns a JSON-safe ticket: ``{"job_id", "verdict", "reason"}``
        with ``job_id`` ``None`` on rejection.
        """
        self._m_submitted.inc()
        tenant = self._tenant(spec.tenant)
        decision: Decision = self.admission.decide(
            spec,
            running_jobs=len(self._running),
            parked_jobs=len(self._parked),
            tenant_running=tenant.running_jobs,
            tenant_parked=tenant.parked_jobs,
        )
        if decision.verdict is Verdict.REJECT:
            self._journal_append(
                jrn.SUBMIT,
                spec=spec.to_state(),
                job=None,
                verdict=decision.verdict.value,
            )
            return {
                "job_id": None,
                "verdict": decision.verdict.value,
                "reason": decision.reason,
            }
        job_id = str(self._next_id)
        self._next_id += 1
        view = self.metrics.view(f"job.{job_id}.")
        scheduler = MasterScheduler(
            spec.groups,
            strategy_for(StrategyKind.REAL_TIME),
            retry_policy=self.retry_policy,
            fault_tracker=FaultTracker(isolate_after=self.isolate_after),
            metrics=view,
            clock=self._now,
        )
        scheduler.partition_among([])  # pull: marks everything ready
        now = self._now()
        job = Job(
            id=job_id,
            spec=spec,
            scheduler=scheduler,
            state=JobState.PARKED,
            submitted_at=now,
        )
        self._jobs[job_id] = job
        if decision.verdict is Verdict.ADMIT:
            self._start(job)
        else:
            tenant.parked_jobs += 1
            self._parked.append(job_id)
        self._refresh_job_gauges()
        self._journal_append(
            jrn.SUBMIT,
            spec=spec.to_state(),
            job=job_id,
            verdict=decision.verdict.value,
        )
        return {
            "job_id": job_id,
            "verdict": decision.verdict.value,
            "reason": decision.reason,
        }

    def _start(self, job: Job) -> None:
        job.state = JobState.RUNNING
        job.started_at = self._now()
        self._tenant(job.tenant).running_jobs += 1
        self._running[job.id] = job
        if job.scheduler.done:
            # Empty workload: trivially complete, never holds a worker.
            self._finish(job)

    def _finish(self, job: Job) -> None:
        job.state = JobState.DONE
        job.finished_at = self._now()
        self._tenant(job.tenant).running_jobs -= 1
        del self._running[job.id]
        self._m_completed.inc()
        self._promote_parked()
        self._refresh_job_gauges()

    def _promote_parked(self) -> None:
        """Start parked jobs that now fit, oldest first.

        A tenant at its own quota is skipped rather than blocking the
        head of the line; the scan repeats until a full pass promotes
        nothing, so one freed slot can start several small tenants.
        With the service at ``max_running_jobs`` every ``may_promote``
        would say no, so the backlog is not walked at all.
        """
        while len(self._running) < self.admission.max_running_jobs:
            promoted = False
            for job_id in list(self._parked):
                job = self._jobs[job_id]
                tenant = self._tenant(job.tenant)
                if self.admission.may_promote(
                    job.tenant,
                    running_jobs=len(self._running),
                    tenant_running=tenant.running_jobs,
                ):
                    self._parked.remove(job_id)
                    tenant.parked_jobs -= 1
                    self._start(job)
                    promoted = True
                    break
            if not promoted:
                return

    # -- introspection -------------------------------------------------------
    def status(self, job_id: str) -> Optional[dict[str, Any]]:
        job = self._jobs.get(job_id)
        if job is None:
            return None
        status = job.status()
        status["fair_share_usage"] = self.fair.usage(job.tenant)
        if job.state in (JobState.DONE, JobState.CANCELLED):
            status["digest"] = outcome_digest(job)
        return status

    def list_jobs(self) -> list[dict[str, Any]]:
        return [
            {
                "job_id": job.id,
                "tenant": job.tenant,
                "name": job.spec.name,
                "state": job.state.value,
            }
            for job in self._jobs.values()
        ]

    def job(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    @property
    def idle(self) -> bool:
        """No runnable work and no outstanding leases.

        Every live lease holds its worker busy in the pool (cancelled
        jobs' draining leases included) and only running jobs can have
        queued work, so neither half looks at finished jobs.
        """
        if self.pool.busy:
            return False
        return not any(
            job.scheduler.has_queued_work for job in self._running.values()
        )

    # -- cancellation --------------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel a job; True if it was still active.

        Pending tasks are abandoned immediately.  Leases already out
        with workers drain normally — their reports are discarded, but
        the worker-seconds are still charged to the tenant (the
        capacity was consumed either way).
        """
        job = self._jobs.get(job_id)
        if job is None or not job.active:
            return False
        was_parked = job.state is JobState.PARKED
        job.scheduler.abandon_outstanding("cancelled by tenant")
        job.state = JobState.CANCELLED
        job.finished_at = self._now()
        tenant = self._tenant(job.tenant)
        if was_parked:
            self._parked.remove(job_id)
            tenant.parked_jobs -= 1
        else:
            tenant.running_jobs -= 1
            del self._running[job_id]
        self._m_cancelled.inc()
        self._promote_parked()
        self._refresh_job_gauges()
        self._journal_append(jrn.CANCEL, job=job_id)
        return True

    # -- the lease cycle -----------------------------------------------------
    def _candidates(self) -> list[tuple[str, str]]:
        """Jobs a worker could serve right now: running, work queued,
        tenant within task-count and byte quotas."""
        out: list[tuple[str, str]] = []
        for job in self._running.values():
            head = job.scheduler.peek_pending()
            if head is None:
                continue
            tenant = self._tenant(job.tenant)
            quota = self.admission.quota(job.tenant)
            if tenant.inflight_tasks >= quota.max_concurrent_tasks:
                continue
            if tenant.inflight_bytes + head.total_size > quota.max_inflight_bytes:
                continue
            out.append((job.tenant, job.id))
        return out

    def lease(self, worker_id: str) -> Optional[Lease]:
        """Lease one task of the fair-share winner to a free worker.

        ``None`` when nothing is runnable (every queue empty or every
        tenant quota-bound).
        """
        candidates = [
            (tenant, job_id)
            for tenant, job_id in self._candidates()
            # A worker error-isolated by one job is only dead *to that
            # job*; it must stay leasable to every other tenant.
            if not self._jobs[job_id].scheduler.faults.is_isolated(worker_id)
        ]
        picked = self.fair.pick(candidates)
        if picked is None:
            return None
        _tenant_name, job_id = picked
        job = self._jobs[job_id]
        if worker_id not in job.workers_seen:
            job.scheduler.register_worker(worker_id)
            job.workers_seen.add(worker_id)
        assignment = job.scheduler.next_for(worker_id)
        if assignment is None:
            return None
        lease = Lease(
            worker_id=worker_id,
            job_id=job_id,
            tenant=job.tenant,
            task_id=assignment.task_id,
            attempt=assignment.attempt,
            group=assignment.group,
            leased_at=self._now(),
            epoch=self.epoch,
        )
        self.pool.acquire(lease)
        job.leases[(worker_id, lease.task_id)] = lease
        tenant = self._tenant(job.tenant)
        tenant.inflight_tasks += 1
        tenant.inflight_bytes += lease.size
        self._m_leases.inc()
        self._journal_append(
            jrn.LEASE,
            worker=worker_id,
            job=job_id,
            task=lease.task_id,
            attempt=lease.attempt,
        )
        return lease

    def lease_free_workers(self) -> list[Lease]:
        """One assignment pass: lease every free worker that can serve
        something, in sorted worker order (deterministic).

        The pass ends as soon as no running job is runnable: queues
        only drain and tenants only approach their quotas while leases
        are being granted, so no later worker could be served either.
        A worker that merely finds every candidate isolated *to it* is
        skipped, not the end of the pass.
        """
        leases = []
        for worker_id in self.pool.free_workers():
            if not self._candidates():
                break
            lease = self.lease(worker_id)
            if lease is not None:
                leases.append(lease)
        return leases

    def _release(self, lease: Lease, *, charge: bool) -> None:
        tenant = self._tenant(lease.tenant)
        tenant.inflight_tasks -= 1
        tenant.inflight_bytes -= lease.size
        if charge:
            # Clamped: a recovered incarnation's clock only promises
            # monotonicity within itself, so a fenced lease from a
            # previous life can carry a timestamp past "now".
            self.fair.charge(
                lease.tenant, max(0.0, self._now() - lease.leased_at)
            )

    def complete(self, lease: Lease, *, ok: bool = True, error: str = "") -> bool:
        """A worker finished its leased task.

        Returns False (and counts a stale report) when the lease is no
        longer live — the worker was declared crashed first, the usual
        race in any distributed plane.  Cancelled jobs' leases release
        the worker and charge usage but never touch the scheduler: its
        accounting was already closed by :meth:`cancel`.

        A lease minted by a *previous incarnation* (stale epoch) is
        fenced instead: dropped, counted, and its task requeued into
        the owning job — see :meth:`_fence_report`.
        """
        if lease.epoch != self.epoch:
            self._fence_report(
                lease.worker_id, lease.job_id, lease.task_id, lease.attempt
            )
            return False
        job = self._jobs[lease.job_id]
        if job.leases.get((lease.worker_id, lease.task_id)) is not lease:
            self._m_stale.inc()
            return False
        del job.leases[(lease.worker_id, lease.task_id)]
        self.pool.release(lease.worker_id)
        self._release(lease, charge=True)
        if job.state is JobState.RUNNING:
            if ok:
                job.scheduler.report_success(lease.worker_id, lease.task_id)
                job.completions.append(
                    [lease.task_id, lease.worker_id, lease.attempt, self._now()]
                )
            else:
                job.scheduler.report_error(lease.worker_id, lease.task_id, error)
            if job.scheduler.done and not job.leases:
                self._finish(job)
        self._journal_append(
            jrn.COMPLETE,
            worker=lease.worker_id,
            job=lease.job_id,
            task=lease.task_id,
            attempt=lease.attempt,
            ok=ok,
            error=error,
        )
        return True

    def _fence_report(
        self, worker_id: str, job_id: str, task_id: int, attempt: int
    ) -> bool:
        """Handle a report carrying a previous incarnation's lease.

        The stale lease object itself is worthless (its incarnation is
        dead), but recovery rebuilt a *live* twin of it from the
        journal.  Fencing releases that twin — worker back to the pool,
        tenant in-flight accounting closed, worker-seconds charged —
        and requeues the task into the owning job **without consuming a
        retry attempt** (the master failed, not the task).  Returns
        True when a live twin existed; False when there was nothing on
        the books (already fenced, or the worker was declared crashed
        in the meantime), which is dropped like any stale report.
        """
        self._m_fenced.inc()
        job = self._jobs.get(job_id)
        if job is None:
            return False
        live = job.leases.get((worker_id, task_id))
        if live is None or live.epoch == self.epoch:
            return False
        del job.leases[(worker_id, task_id)]
        self.pool.release(worker_id)
        self._release(live, charge=True)
        if job.state is JobState.RUNNING and job.scheduler.has_in_flight(
            worker_id, task_id
        ):
            job.scheduler.rescind(worker_id, task_id)
        if job.state is JobState.RUNNING and job.scheduler.done and not job.leases:
            self._finish(job)
        self._journal_append(
            jrn.FENCED,
            worker=worker_id,
            job=job_id,
            task=task_id,
            attempt=attempt,
        )
        return True

    def worker_crashed(self, worker_id: str) -> dict[str, Any]:
        """A worker died.  Requeues its leased tasks into the owning
        jobs only, records the loss in every job that knew the worker
        (their fault trackers must reflect reality), and returns the
        replacement worker id minted by the shared rejoin policy.
        """
        lease, replacement = self.pool.crash(worker_id)
        requeued: list[int] = []
        if lease is not None:
            job = self._jobs[lease.job_id]
            del job.leases[(worker_id, lease.task_id)]
            # The tenant consumed the capacity until the crash.
            self._release(lease, charge=True)
        for job in self._jobs.values():
            if worker_id not in job.workers_seen:
                continue
            for assignment in job.scheduler.worker_lost(worker_id, "worker crashed"):
                requeued.append(assignment.task_id)
            if (
                job.state is JobState.RUNNING
                and job.scheduler.done
                and not job.leases
            ):
                # Retries exhausted by the loss: the job just resolved.
                self._finish(job)
        self._journal_append(
            jrn.CRASH,
            worker=worker_id,
            replacement=replacement,
            owning=lease.job_id if lease is not None else None,
            requeued=requeued,
        )
        return {
            "worker_id": worker_id,
            "replacement": replacement,
            "owning_job": lease.job_id if lease is not None else None,
            "requeued_tasks": requeued,
        }

    # -- durability: snapshot, restore, replay -------------------------------
    def capture_state(self) -> dict[str, Any]:
        """The full JSON-safe service state, as written into journal
        snapshots.  Ordered containers serialize as lists — canonical
        JSON sorts object keys, and job ids sort "10" < "2" as strings.

        Metrics are deliberately absent: counters describe one
        incarnation's observed traffic, not durable state, and restart
        from zero in a recovered service.
        """
        jobs = []
        for job in self._jobs.values():
            jstate = job_state_to_dict(job)
            jstate["faults"] = job.scheduler.faults.to_state()
            jstate["leases"] = [
                lease.to_state() for lease in job.leases.values()
            ]
            jobs.append(jstate)
        return {
            "v": 1,
            "epoch": self.epoch,
            "next_id": self._next_id,
            "running": len(self._running),
            "parked": list(self._parked),
            "tenants": [
                {
                    "tenant": name,
                    "inflight_tasks": t.inflight_tasks,
                    "inflight_bytes": t.inflight_bytes,
                    "running_jobs": t.running_jobs,
                    "parked_jobs": t.parked_jobs,
                }
                for name, t in self._tenants.items()
            ],
            "fair": self.fair.to_state(),
            "pool": self.pool.to_state(),
            "jobs": jobs,
        }

    def _restore_job(
        self, jstate: dict, leases: dict[tuple[str, str, int], Lease]
    ) -> Job:
        spec = JobSpec.from_state(jstate["spec"])
        job_id = str(jstate["id"])
        scheduler = MasterScheduler.from_state(
            jstate["scheduler"],
            spec.groups,
            strategy_for(StrategyKind.REAL_TIME),
            retry_policy=self.retry_policy,
            fault_tracker=FaultTracker.from_state(jstate["faults"]),
            metrics=self.metrics.view(f"job.{job_id}."),
            clock=self._now,
        )
        job = Job(
            id=job_id,
            spec=spec,
            scheduler=scheduler,
            state=JobState(jstate["state"]),
            submitted_at=jstate["submitted_at"],
            started_at=jstate["started_at"],
            finished_at=jstate["finished_at"],
            workers_seen=set(jstate["workers_seen"]),
            completions=[list(row) for row in jstate["completions"]],
        )
        by_index = {g.index: g for g in spec.groups}
        for lstate in jstate["leases"]:
            lease = Lease.from_state(lstate, by_index[int(lstate["task"])])
            job.leases[(lease.worker_id, lease.task_id)] = lease
            leases[(lease.worker_id, lease.job_id, lease.task_id)] = lease
        return job

    def _restore_state(self, state: dict) -> None:
        if state.get("v") != 1:
            raise JournalError(f"unsupported snapshot version {state.get('v')!r}")
        self.epoch = int(state["epoch"])
        self._g_epoch.set(self.epoch)
        self._next_id = int(state["next_id"])
        self._parked = deque(str(j) for j in state["parked"])
        self._tenants = {}
        for entry in state["tenants"]:
            tenant = self._tenant(entry["tenant"])
            tenant.inflight_tasks = int(entry["inflight_tasks"])
            tenant.inflight_bytes = float(entry["inflight_bytes"])
            tenant.running_jobs = int(entry["running_jobs"])
            tenant.parked_jobs = int(entry["parked_jobs"])
        self.fair.restore_state(state["fair"])
        leases: dict[tuple[str, str, int], Lease] = {}
        self._jobs = {}
        for jstate in state["jobs"]:
            job = self._restore_job(jstate, leases)
            self._jobs[job.id] = job
        self._running = {
            job.id: job
            for job in self._jobs.values()
            if job.state is JobState.RUNNING
        }
        self.pool.restore_state(state["pool"], leases)
        self._refresh_job_gauges()

    def _replay_record(self, rec: dict) -> None:
        """Re-execute one journal record through the live code paths
        and verify the recorded outcome — replay is not a second
        implementation of the state machine, it *is* the state machine,
        so any divergence means the journal and the code disagree and
        recovery must not pretend otherwise.
        """
        kind = rec["k"]
        if kind == jrn.OPEN:
            self.epoch = int(rec["epoch"])
            self._g_epoch.set(self.epoch)
            return
        if kind == jrn.SUBMIT:
            ticket = self.submit(JobSpec.from_state(rec["spec"]))
            if ticket["job_id"] != rec["job"] or ticket["verdict"] != rec["verdict"]:
                raise JournalError(
                    f"replay divergence: submit produced {ticket['job_id']!r}/"
                    f"{ticket['verdict']} but journal says {rec['job']!r}/{rec['verdict']}"
                )
            return
        if kind == jrn.LEASE:
            lease = self.lease(rec["worker"])
            if (
                lease is None
                or lease.job_id != rec["job"]
                or lease.task_id != int(rec["task"])
                or lease.attempt != int(rec["attempt"])
            ):
                raise JournalError(
                    f"replay divergence: lease for {rec['worker']!r} produced "
                    f"{lease!r} but journal says job {rec['job']!r} task "
                    f"{rec['task']} attempt {rec['attempt']}"
                )
            return
        if kind == jrn.COMPLETE:
            job = self._jobs.get(rec["job"])
            live = (
                job.leases.get((rec["worker"], int(rec["task"])))
                if job is not None
                else None
            )
            if live is None or live.attempt != int(rec["attempt"]):
                raise JournalError(
                    f"replay divergence: no live lease for completion of "
                    f"job {rec['job']!r} task {rec['task']} on {rec['worker']!r}"
                )
            self.complete(live, ok=bool(rec["ok"]), error=rec["error"])
            return
        if kind == jrn.CANCEL:
            if not self.cancel(rec["job"]):
                raise JournalError(
                    f"replay divergence: cancel of job {rec['job']!r} was a no-op"
                )
            return
        if kind == jrn.CRASH:
            report = self.worker_crashed(rec["worker"])
            if report["replacement"] != rec["replacement"]:
                raise JournalError(
                    f"replay divergence: crash of {rec['worker']!r} minted "
                    f"{report['replacement']!r}, journal says {rec['replacement']!r}"
                )
            return
        if kind == jrn.FENCED:
            self._fence_report(
                rec["worker"], rec["job"], int(rec["task"]), int(rec["attempt"])
            )
            return
        if kind == jrn.SNAPSHOT:
            raise JournalError("snapshot record in replay tail")
        raise JournalError(f"unknown record kind {kind!r} in replay")

    @classmethod
    def recover(
        cls,
        store: "jrn.JournalStore",
        *,
        clock: Callable[[], float],
        metrics: MetricsRegistry | None = None,
        snapshot_every: Optional[int] = None,
        **config: Any,
    ) -> "ControlPlaneService":
        """Rebuild a dead incarnation from its journal and fence it.

        ``config`` takes the same deployment keywords as the
        constructor (weights, quotas, retry policy, …) — configuration
        is the operator's to re-supply; the journal holds only state.
        The recovered service runs at ``max journal epoch + 1``, so
        every lease the previous incarnation left in flight is stale on
        arrival and gets fenced by :meth:`complete`.

        A damaged tail (torn write, bit flip) is truncated at the last
        valid record — counted in ``service.journal.records_dropped`` —
        and recovery proceeds from what survived.
        """
        data = store.read()
        image = jrn.read_journal(data)
        reg = metrics if metrics is not None else NULL_METRICS
        if image.damage is not None:
            store.replace(data[: image.valid_bytes])
            reg.counter("service.journal.records_dropped").inc()
        replay_clock = _ReplayClock()
        records = list(image.records)
        if image.snapshot is not None:
            svc = cls._from_snapshot(
                image.snapshot, clock=replay_clock, metrics=metrics, **config
            )
        else:
            if not records or records[0]["k"] != jrn.OPEN:
                raise JournalError("journal holds no snapshot and no open record")
            first = records[0]
            replay_clock.now = first["t"]
            svc = cls(
                list(first["workers"]),
                clock=replay_clock,
                metrics=metrics,
                epoch=int(first["epoch"]),
                **config,
            )
            records = records[1:]
        for rec in records:
            replay_clock.now = rec["t"]
            svc._replay_record(rec)
        # Fence: the new incarnation outranks every lease in the log.
        svc._clock = clock
        svc.epoch = image.epoch + 1
        svc._g_epoch.set(svc.epoch)
        svc._journal = jrn.JournalWriter(
            store, snapshot_every=snapshot_every, metrics=reg
        )
        svc._journal_append(
            jrn.OPEN, epoch=svc.epoch, workers=sorted(svc.pool.free_workers())
        )
        svc._m_recoveries.inc()
        svc.last_recovery = RecoveryReport(
            epoch=svc.epoch,
            records_replayed=len(records),
            snapshot_used=image.snapshot is not None,
            damage=image.damage,
        )
        return svc

    @classmethod
    def _from_snapshot(
        cls,
        state: dict,
        *,
        clock: Callable[[], float],
        metrics: MetricsRegistry | None = None,
        **config: Any,
    ) -> "ControlPlaneService":
        pool_state = state["pool"]
        worker_ids = list(pool_state["free"]) + [
            w for w, _job, _task in pool_state["busy"]
        ]
        svc = cls(worker_ids, clock=clock, metrics=metrics, **config)
        svc._restore_state(state)
        return svc
