"""The shared worker pool: leases, returns, and crash replacement.

Workers belong to the *service*, not to any job — the inversion that
turns the single-run engines into a multi-tenant plane.  A job only
ever holds a worker through a :class:`Lease` (one task, one worker),
so time-slicing across tenants falls out of lease granularity, and a
crash's blast radius is exactly the leases the dead worker held.

Crash replacement mints a fresh id through the shared rejoin policy
(:mod:`repro.core.identity`), so the replacement can register cleanly
into every job's scheduler — including jobs that knew the dead worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.identity import RejoinIdMinter
from repro.data.partition import TaskGroup
from repro.errors import ProtocolError
from repro.telemetry.metrics import MetricsRegistry, NULL_METRICS


@dataclass(frozen=True)
class Lease:
    """One worker executing one task of one job.

    ``epoch`` is the service incarnation that granted the lease.  A
    recovered control plane bumps its epoch, so any lease minted by a
    previous incarnation identifies itself as stale the moment its
    holder reports — the fencing token of classic lease-based designs.
    """

    worker_id: str
    job_id: str
    tenant: str
    task_id: int
    attempt: int
    group: TaskGroup
    leased_at: float
    epoch: int = 1

    @property
    def size(self) -> float:
        return float(self.group.total_size)

    def to_state(self) -> dict:
        """JSON-safe form (the group rebinds by task id on restore)."""
        return {
            "worker": self.worker_id,
            "job": self.job_id,
            "tenant": self.tenant,
            "task": self.task_id,
            "attempt": self.attempt,
            "leased_at": self.leased_at,
            "epoch": self.epoch,
        }

    @classmethod
    def from_state(cls, state: dict, group: TaskGroup) -> "Lease":
        return cls(
            worker_id=state["worker"],
            job_id=state["job"],
            tenant=state["tenant"],
            task_id=int(state["task"]),
            attempt=int(state["attempt"]),
            group=group,
            leased_at=float(state["leased_at"]),
            epoch=int(state["epoch"]),
        )


class WorkerPool:
    """Free/busy bookkeeping over the service's workers.

    Free workers are kept in sorted order so "first free worker" is a
    deterministic choice for the simulated plane.
    """

    def __init__(
        self,
        worker_ids: "list[str] | tuple[str, ...]",
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not worker_ids:
            raise ProtocolError("worker pool needs at least one worker")
        if len(set(worker_ids)) != len(worker_ids):
            raise ProtocolError("duplicate worker ids in pool")
        self._free: list[str] = sorted(worker_ids)
        self._busy: dict[str, Lease] = {}
        self._minter = RejoinIdMinter()
        metrics = metrics if metrics is not None else NULL_METRICS
        self._g_free = metrics.gauge("service.pool.free")
        self._g_busy = metrics.gauge("service.pool.busy")
        self._m_crashed = metrics.counter("service.pool.crashed")
        self._refresh()

    def _refresh(self) -> None:
        self._g_free.set(len(self._free))
        self._g_busy.set(len(self._busy))

    @property
    def size(self) -> int:
        return len(self._free) + len(self._busy)

    @property
    def busy(self) -> int:
        """How many workers hold a lease right now."""
        return len(self._busy)

    def free_workers(self) -> tuple[str, ...]:
        return tuple(self._free)

    def lease_of(self, worker_id: str) -> Optional[Lease]:
        return self._busy.get(worker_id)

    def acquire(self, lease: Lease) -> None:
        if lease.worker_id not in self._free:
            raise ProtocolError(f"worker {lease.worker_id!r} is not free")
        self._free.remove(lease.worker_id)
        self._busy[lease.worker_id] = lease
        self._refresh()

    def release(self, worker_id: str) -> Lease:
        try:
            lease = self._busy.pop(worker_id)
        except KeyError:
            raise ProtocolError(f"worker {worker_id!r} holds no lease") from None
        # Insert keeping sorted order (pool sizes are small; clarity
        # over a bisect here).
        self._free.append(worker_id)
        self._free.sort()
        self._refresh()
        return lease

    def crash(self, worker_id: str) -> tuple[Optional[Lease], str]:
        """Remove a dead worker; return its lease (if any) and the
        freshly minted replacement id, already registered as free."""
        lease = self._busy.pop(worker_id, None)
        if lease is None:
            if worker_id not in self._free:
                raise ProtocolError(f"unknown worker {worker_id!r}")
            self._free.remove(worker_id)
        replacement = self._minter.mint(worker_id)
        self._free.append(replacement)
        self._free.sort()
        self._m_crashed.inc()
        self._refresh()
        return lease, replacement

    # -- durability ---------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe snapshot.  Busy leases serialize as references —
        the service re-links them to the very lease objects it restores
        into the owning jobs, so pool and job keep sharing one object
        per lease, exactly as in a live service."""
        return {
            "free": list(self._free),
            "busy": [[w, lease.job_id, lease.task_id] for w, lease in self._busy.items()],
            "generations": self._minter.to_state(),
        }

    def restore_state(self, state: dict, leases: dict[tuple[str, str, int], Lease]) -> None:
        """Rebuild free/busy/minter from a snapshot.

        ``leases`` maps ``(worker, job, task)`` to the restored lease
        objects (built by the service while restoring its jobs).
        """
        self._free = list(state["free"])
        self._busy = {
            w: leases[(w, job_id, int(task_id))]
            for w, job_id, task_id in state["busy"]
        }
        self._minter = RejoinIdMinter.from_state(state["generations"])
        self._refresh()
