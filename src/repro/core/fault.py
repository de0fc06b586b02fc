"""Fault tracking, isolation and the retry extension.

Paper-faithful behaviour (§V-A "Robust"):

- every worker error is reported to the controller,
- in real-time mode a failed worker is *isolated* — it stops receiving
  data — but its lost task is **not** restarted ("it is not capable of
  automatically restarting the failed task"),

:class:`RetryPolicy` implements the paper's named future work (task
restart and recovery) as an opt-in extension; the robustness sweep
(``python -m repro.experiments robustness``) compares both behaviours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


#: Sentinel for the engines' ``crash_worker_on_task`` /
#: ``hang_worker_on_task`` hooks: fire on the *first* task assignment
#: the worker receives, whatever its id. Exact ids are deterministic
#: only under static assignment; chaos scenarios against the racy
#: pull schedulers key on this instead.
ANY_TASK = -2


@dataclass(frozen=True)
class RetryPolicy:
    """Task-restart policy (extension; disabled reproduces the paper).

    ``max_attempts`` counts total tries per task including the first;
    ``retry_on_worker_loss`` requeues tasks that were in flight on a
    worker that died; ``retry_on_task_error`` requeues tasks whose
    program exited non-zero.
    """

    max_attempts: int = 1
    retry_on_worker_loss: bool = False
    retry_on_task_error: bool = False

    @classmethod
    def paper_faithful(cls) -> "RetryPolicy":
        """No restarts at all — the behaviour evaluated in the paper."""
        return cls(max_attempts=1, retry_on_worker_loss=False, retry_on_task_error=False)

    @classmethod
    def resilient(cls, max_attempts: int = 3) -> "RetryPolicy":
        """The future-work behaviour: restart on loss and error."""
        return cls(
            max_attempts=max_attempts,
            retry_on_worker_loss=True,
            retry_on_task_error=True,
        )

    def should_retry(self, attempt: int, *, worker_loss: bool) -> bool:
        """Whether a task on its ``attempt``-th try may run again."""
        if attempt >= self.max_attempts:
            return False
        return self.retry_on_worker_loss if worker_loss else self.retry_on_task_error


@dataclass
class WorkerHealth:
    """Error bookkeeping for one worker."""

    worker_id: str
    errors: int = 0
    lost: bool = False
    isolated: bool = False
    error_messages: list[str] = field(default_factory=list)


class FaultTracker:
    """Controller-side record of all worker errors (§II-D: "Information
    on any failed worker gets reported to the controller").

    ``isolate_after`` is the error count at which a worker stops
    receiving further data (1 = isolate on first error, the real-time
    mode's automatic behaviour).
    """

    def __init__(self, isolate_after: int = 1):
        if isolate_after < 1:
            raise ValueError("isolate_after must be >= 1")
        self.isolate_after = isolate_after
        self._health: dict[str, WorkerHealth] = {}
        #: Optional callback fired exactly once per worker, on its
        #: transition into isolation: ``on_isolate(worker_id, health)``.
        #: The controller wires this to its node-lost rule, so
        #: isolation shows up as a capacity change.
        self.on_isolate = None

    def _entry(self, worker_id: str) -> WorkerHealth:
        return self._health.setdefault(worker_id, WorkerHealth(worker_id))

    def _isolate(self, entry: WorkerHealth) -> None:
        if entry.isolated:
            return
        entry.isolated = True
        if self.on_isolate is not None:
            self.on_isolate(entry.worker_id, entry)

    def record_error(self, worker_id: str, message: str = "") -> bool:
        """Record a task error; returns True if the worker is now isolated."""
        entry = self._entry(worker_id)
        entry.errors += 1
        if message:
            entry.error_messages.append(message)
        if entry.errors >= self.isolate_after:
            self._isolate(entry)
        return entry.isolated

    def record_loss(self, worker_id: str, message: str = "") -> None:
        """Record that a worker's connection/VM is gone."""
        entry = self._entry(worker_id)
        entry.lost = True
        if message:
            entry.error_messages.append(message)
        self._isolate(entry)

    def is_isolated(self, worker_id: str) -> bool:
        entry = self._health.get(worker_id)
        return bool(entry and entry.isolated)

    def is_lost(self, worker_id: str) -> bool:
        entry = self._health.get(worker_id)
        return bool(entry and entry.lost)

    def health(self, worker_id: str) -> Optional[WorkerHealth]:
        return self._health.get(worker_id)

    @property
    def isolated_workers(self) -> frozenset[str]:
        return frozenset(w for w, h in self._health.items() if h.isolated)

    @property
    def total_errors(self) -> int:
        return sum(h.errors for h in self._health.values())

    # -- durability ---------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe snapshot (``on_isolate`` is wiring, not state —
        the owner re-attaches it after :meth:`from_state`)."""
        return {
            "isolate_after": self.isolate_after,
            "health": [
                {
                    "worker": h.worker_id,
                    "errors": h.errors,
                    "lost": h.lost,
                    "isolated": h.isolated,
                    "messages": list(h.error_messages),
                }
                for h in self._health.values()
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "FaultTracker":
        tracker = cls(isolate_after=int(state["isolate_after"]))
        for entry in state["health"]:
            tracker._health[entry["worker"]] = WorkerHealth(
                worker_id=entry["worker"],
                errors=int(entry["errors"]),
                lost=bool(entry["lost"]),
                isolated=bool(entry["isolated"]),
                error_messages=list(entry["messages"]),
            )
        return tracker
