"""Asyncio driver: the service core on the real clock.

The same :class:`~repro.service.core.ControlPlaneService` state machine
the simulated harness replays deterministically, driven here by real
elapsed time: each lease becomes an asyncio task that sleeps for the
job's (scaled) cost and then reports completion.  This is what the
HTTP front end runs on.  Everything touches the service from the one
event loop, so no locking is needed — the single-threaded twin of the
TCP master's design.
"""

from __future__ import annotations

# frieda: allow-file[wall-clock] -- real execution driver: the service
# clock is genuinely elapsed time here, mirroring runtime/local.py.

import asyncio
import time
from typing import Any, Callable, Optional

from repro.service.admission import TenantQuota
from repro.service.core import ControlPlaneService
from repro.service.jobs import JobSpec
from repro.service.journal import JournalStore, JournalWriter
from repro.service.pool import Lease
from repro.telemetry.metrics import MetricsRegistry


class AsyncServiceRuntime:
    """Owns a service instance plus the asyncio tasks executing leases.

    ``time_scale`` compresses job cost into wall time (cost 1.0 with
    scale 0.01 → a 10 ms sleep); ``duration_fn`` overrides the model
    entirely.  Workers here are logical slots — the execution "work"
    is the scaled sleep, standing in for a real engine adapter.

    ``journal_store`` attaches a write-ahead journal (typically a
    :class:`~repro.service.journalfs.FileJournalStore`), making the
    runtime crash-consistent: :meth:`recovered` rebuilds a new runtime
    from the store after a kill, fencing whatever the dead incarnation
    left in flight.
    """

    def __init__(
        self,
        num_workers: int = 4,
        *,
        time_scale: float = 0.01,
        duration_fn: Optional[Callable[[Lease, JobSpec], float]] = None,
        metrics: MetricsRegistry | None = None,
        weights: dict[str, float] | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        max_running_jobs: int = 16,
        max_parked_jobs: int = 64,
        journal_store: JournalStore | None = None,
        snapshot_every: Optional[int] = None,
        _service: Optional[ControlPlaneService] = None,
    ) -> None:
        if _service is not None:
            self.service = _service
        else:
            journal = None
            if journal_store is not None:
                journal = JournalWriter(
                    journal_store, snapshot_every=snapshot_every, metrics=metrics
                )
            t0 = time.monotonic()
            self.service = ControlPlaneService(
                [f"aio:{i}" for i in range(num_workers)],
                clock=lambda: time.monotonic() - t0,
                metrics=metrics,
                weights=weights,
                quotas=quotas,
                default_quota=default_quota,
                max_running_jobs=max_running_jobs,
                max_parked_jobs=max_parked_jobs,
                journal=journal,
            )
        self._time_scale = time_scale
        self._duration_fn = duration_fn
        self._tasks: set[asyncio.Task] = set()

    @classmethod
    def recovered(
        cls,
        journal_store: JournalStore,
        *,
        time_scale: float = 0.01,
        duration_fn: Optional[Callable[[Lease, JobSpec], float]] = None,
        metrics: MetricsRegistry | None = None,
        snapshot_every: Optional[int] = None,
        **config: Any,
    ) -> "AsyncServiceRuntime":
        """A new incarnation rebuilt from a dead one's journal.

        The recovered clock restarts at zero — virtual time only has
        to be monotonic within an incarnation, and replay drove the
        rebuild on the journal's recorded timestamps.
        """
        t0 = time.monotonic()
        service = ControlPlaneService.recover(
            journal_store,
            clock=lambda: time.monotonic() - t0,
            metrics=metrics,
            snapshot_every=snapshot_every,
            **config,
        )
        return cls(
            time_scale=time_scale,
            duration_fn=duration_fn,
            _service=service,
        )

    def _duration(self, lease: Lease) -> float:
        spec = self.service.job(lease.job_id).spec
        if self._duration_fn is not None:
            return self._duration_fn(lease, spec)
        if spec.kind == "transfer":
            return self._time_scale * spec.cost * (lease.size / (1024.0 * 1024.0))
        return self._time_scale * spec.cost

    def _pump(self) -> None:
        """Assign every free worker; each lease runs as its own task."""
        for lease in self.service.lease_free_workers():
            task = asyncio.get_running_loop().create_task(self._run_lease(lease))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_lease(self, lease: Lease) -> None:
        await asyncio.sleep(self._duration(lease))
        self.service.complete(lease)
        self._pump()

    # -- tenant-facing surface ----------------------------------------------
    def submit(self, spec: JobSpec) -> dict[str, Any]:
        ticket = self.service.submit(spec)
        self._pump()
        return ticket

    def cancel(self, job_id: str) -> bool:
        cancelled = self.service.cancel(job_id)
        if cancelled:
            self._pump()
        return cancelled

    def status(self, job_id: str) -> Optional[dict[str, Any]]:
        return self.service.status(job_id)

    def list_jobs(self) -> list[dict[str, Any]]:
        return self.service.list_jobs()

    async def drain(self) -> None:
        """Wait until every outstanding lease has resolved."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks))
