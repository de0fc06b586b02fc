"""Deterministic service-mode harness on the simulated plane.

Drives a :class:`~repro.service.core.ControlPlaneService` with a
discrete-event loop on virtual time: hundreds of synthetic tenants
submit jobs, free workers are leased through fair-share, completions
and scripted worker crashes fire as events.  Everything is derived
from one root seed (:mod:`repro.util.seeding` streams — no global
RNG, no wall clock), so the same seed replays to byte-identical
per-job outcome digests — the service's CI acceptance contract.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.service.admission import TenantQuota
from repro.service.core import ControlPlaneService
from repro.service.jobs import JobSpec, outcome_digest, task_outcome_digest
from repro.service.journal import JournalStore, JournalWriter, MemoryJournalStore
from repro.service.pool import Lease
from repro.telemetry.metrics import MetricsRegistry
from repro.util.seeding import make_rng


def synthetic_tenants(
    count: int,
    *,
    seed: int,
    tasks_per_job: tuple[int, int] = (2, 4),
    task_bytes: tuple[int, int] = (64 * 1024, 1024 * 1024),
) -> list[JobSpec]:
    """One job per synthetic tenant, alternating compute- and
    transfer-heavy profiles, sizes drawn from seeded streams."""
    specs: list[JobSpec] = []
    for i in range(count):
        rng = make_rng(seed, "service.tenant", i)
        n_tasks = int(rng.integers(tasks_per_job[0], tasks_per_job[1] + 1))
        sizes = [
            int(rng.integers(task_bytes[0], task_bytes[1] + 1))
            for _ in range(n_tasks)
        ]
        kind = "compute" if i % 2 == 0 else "transfer"
        cost = float(0.5 + rng.random())
        specs.append(
            JobSpec.from_sizes(
                f"tenant-{i:03d}", f"load-{i:03d}", sizes, kind=kind, cost=cost
            )
        )
    return specs


def task_duration(lease: Lease, spec: JobSpec, *, seed: int) -> float:
    """Virtual seconds one leased task takes.

    Compute-heavy tasks cost ``spec.cost`` regardless of input size;
    transfer-heavy tasks scale with bytes (1 MiB ≈ ``spec.cost``
    seconds).  A ±20% jitter stream keyed by (job, task, attempt)
    keeps durations varied but exactly reproducible.
    """
    rng = make_rng(
        seed, "service.duration", lease.job_id, lease.task_id, lease.attempt
    )
    if spec.kind == "transfer":
        base = spec.cost * (lease.size / (1024.0 * 1024.0))
    else:
        base = spec.cost
    return max(1e-6, base * (0.8 + 0.4 * float(rng.random())))


@dataclass
class ServiceLoadResult:
    """What one simulated service run produced."""

    tickets: list[dict[str, Any]]
    admitted: int
    parked: int
    rejected: int
    makespan: float
    #: job_id → {tenant, state, summary, makespan, digest}
    per_job: dict[str, dict[str, Any]]
    #: sha256 over every per-job digest — the one-line reproducibility
    #: witness for the whole load.
    digest: str = ""
    #: sha256 over every per-job *task outcome* digest: what each job
    #: produced, independent of placement and timing.  This is the
    #: crash-transparency witness — a killed-and-recovered run must
    #: match the uninterrupted same-seed run byte for byte here, even
    #: though fenced reruns legitimately shift the timing digest.
    outcome_digest: str = ""
    crash_reports: list[dict[str, Any]] = field(default_factory=list)
    #: Scripted master kills the run survived (each one a journal
    #: recovery and an epoch bump).
    recoveries: int = 0

    def __post_init__(self) -> None:
        canonical = json.dumps(
            {job_id: info["digest"] for job_id, info in self.per_job.items()},
            sort_keys=True,
            separators=(",", ":"),
        )
        self.digest = hashlib.sha256(canonical.encode()).hexdigest()
        outcomes = json.dumps(
            {job_id: info["outcome"] for job_id, info in self.per_job.items()},
            sort_keys=True,
            separators=(",", ":"),
        )
        self.outcome_digest = hashlib.sha256(outcomes.encode()).hexdigest()


class ServiceSimulation:
    """Discrete-event driver: submit events, completions, crashes.

    ``crash_script`` is a sequence of ``(virtual_time, worker_id)``
    pairs; each kills that worker at that instant — its leases requeue
    into their owning jobs and a minted replacement joins the pool.

    ``master_kill_script`` is a sequence of virtual times at which the
    *control plane itself* dies: the service object is discarded and a
    new incarnation is rebuilt from the write-ahead journal
    (``journal_store``, a :class:`MemoryJournalStore` by default when
    kills are scripted).  Completion events already in the heap still
    carry the dead incarnation's leases — exactly the late reports a
    real recovered master receives — and get fenced by the epoch
    check, requeued, and rerun on the same attempt number, so the
    per-job task outcomes stay byte-identical to an uninterrupted run.
    """

    _SUBMIT, _CRASH, _COMPLETE, _KILL = 0, 1, 2, 3

    def __init__(
        self,
        specs: Sequence[JobSpec],
        *,
        num_workers: int = 8,
        seed: int = 0,
        arrival_spacing: float = 0.0,
        crash_script: Sequence[tuple[float, str]] = (),
        master_kill_script: Sequence[float] = (),
        journal_store: JournalStore | None = None,
        snapshot_every: Optional[int] = None,
        weights: dict[str, float] | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        max_running_jobs: int = 16,
        max_parked_jobs: int = 10_000,
        metrics: MetricsRegistry | None = None,
        fail_tasks: frozenset[tuple[str, int]] = frozenset(),
        trace_usage: bool = False,
    ) -> None:
        self._specs = list(specs)
        self._seed = seed
        self._now = 0.0
        self._seq = 0
        self._events: list[tuple[float, int, int, Any]] = []
        self._metrics = metrics
        if journal_store is None and master_kill_script:
            journal_store = MemoryJournalStore()
        self._store = journal_store
        self._snapshot_every = snapshot_every
        # Deployment configuration the operator re-supplies at every
        # recovery (the journal holds state, never config).
        self._service_config = dict(
            weights=weights,
            quotas=quotas,
            default_quota=default_quota,
            max_running_jobs=max_running_jobs,
            max_parked_jobs=max_parked_jobs,
        )
        journal = None
        if journal_store is not None:
            journal = JournalWriter(
                journal_store, snapshot_every=snapshot_every, metrics=metrics
            )
        self.service = ControlPlaneService(
            [f"sim:{i:03d}" for i in range(num_workers)],
            clock=lambda: self._now,
            metrics=metrics,
            journal=journal,
            **self._service_config,
        )
        self.recoveries = 0
        self._fail_tasks = fail_tasks
        self._trace_usage = trace_usage
        #: ``(virtual_time, {tenant: worker_seconds})`` after each
        #: completion, when ``trace_usage`` — how the fair-share tests
        #: observe delivered shares *during* contention (the end state
        #: always equals total demand, which proves nothing).
        self.usage_trace: list[tuple[float, dict[str, float]]] = []
        for i, spec in enumerate(self._specs):
            self._push(i * arrival_spacing, self._SUBMIT, spec)
        for when, worker_id in crash_script:
            self._push(when, self._CRASH, worker_id)
        for when in master_kill_script:
            if self._store is None:
                raise ValueError("master_kill_script requires a journal_store")
            self._push(when, self._KILL, None)

    def _kill_master(self) -> None:
        """Drop the service on the floor and recover from the journal.

        Nothing is flushed or handed over — the old object is simply
        abandoned mid-load, which is the whole point of the chaos
        harness.
        """
        self.service = ControlPlaneService.recover(
            self._store,
            clock=lambda: self._now,
            metrics=self._metrics,
            snapshot_every=self._snapshot_every,
            **self._service_config,
        )
        self.recoveries += 1

    def _push(self, when: float, kind: int, payload: Any) -> None:
        heapq.heappush(self._events, (when, self._seq, kind, payload))
        self._seq += 1

    def _assign(self) -> None:
        for lease in self.service.lease_free_workers():
            spec = self.service.job(lease.job_id).spec
            duration = task_duration(lease, spec, seed=self._seed)
            self._push(self._now + duration, self._COMPLETE, lease)

    def run(self) -> ServiceLoadResult:
        tickets: list[dict[str, Any]] = []
        crash_reports: list[dict[str, Any]] = []
        while self._events:
            when, _seq, kind, payload = heapq.heappop(self._events)
            self._now = when
            if kind == self._SUBMIT:
                tickets.append(self.service.submit(payload))
            elif kind == self._CRASH:
                lease = self.service.pool.lease_of(payload)
                if lease is not None or payload in self.service.pool.free_workers():
                    crash_reports.append(self.service.worker_crashed(payload))
            elif kind == self._KILL:
                self._kill_master()
            else:
                lease = payload
                ok = (lease.job_id, lease.task_id) not in self._fail_tasks or (
                    lease.attempt > 1
                )
                self.service.complete(
                    lease, ok=ok, error="" if ok else "injected task failure"
                )
                if self._trace_usage:
                    tenants = sorted({s.tenant for s in self._specs})
                    self.usage_trace.append(
                        (
                            self._now,
                            {t: self.service.fair.usage(t) for t in tenants},
                        )
                    )
            self._assign()
        per_job: dict[str, dict[str, Any]] = {}
        for row in self.service.list_jobs():
            job = self.service.job(row["job_id"])
            makespan: Optional[float] = None
            if job.started_at is not None and job.finished_at is not None:
                makespan = job.finished_at - job.started_at
            per_job[job.id] = {
                "tenant": job.tenant,
                "state": job.state.value,
                "summary": job.scheduler.summary(),
                "makespan": makespan,
                "digest": outcome_digest(job),
                "outcome": task_outcome_digest(job),
            }
        return ServiceLoadResult(
            tickets=tickets,
            admitted=sum(1 for t in tickets if t["verdict"] == "admit"),
            parked=sum(1 for t in tickets if t["verdict"] == "park"),
            rejected=sum(1 for t in tickets if t["verdict"] == "reject"),
            makespan=self._now,
            per_job=per_job,
            crash_reports=crash_reports,
            recoveries=self.recoveries,
        )


def run_service_load(
    num_tenants: int = 120,
    *,
    seed: int = 0,
    num_workers: int = 12,
    **kwargs: Any,
) -> ServiceLoadResult:
    """The acceptance experiment: ``num_tenants`` synthetic tenants
    through one service on the simulated plane."""
    specs = synthetic_tenants(num_tenants, seed=seed)
    sim = ServiceSimulation(
        specs, num_workers=num_workers, seed=seed, **kwargs
    )
    return sim.run()
