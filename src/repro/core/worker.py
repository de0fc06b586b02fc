"""Worker-side logic (execution plane, §II-B).

"The workers are all symmetrical i.e., all workers perform identical
work on different data." A worker's whole job: register, loop
(request data → receive files → build the command → execute → report
status) until the master says there is no more data.

:class:`WorkerLogic` keeps the engine-agnostic part: command
construction from the template, per-task accounting, and the local
scratch view of which files this worker already holds (pre-partitioned
local data or previously received files are not re-fetched).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence

from repro.core.commands import CommandTemplate
from repro.errors import ProtocolError


@dataclass
class TaskExecution:
    """Record of one task executed by this worker."""

    task_id: int
    file_names: tuple[str, ...]
    command: str
    started: float
    finished: Optional[float] = None
    ok: Optional[bool] = None
    error: str = ""

    @property
    def duration(self) -> float:
        if self.finished is None:
            return 0.0
        return self.finished - self.started


#: ``local_files`` of a worker that has received nothing yet: one shared
#: empty set instead of a set per clone (most clones of a wide run never
#: hold a file).
_NO_FILES: frozenset[str] = frozenset()


class WorkerLogic:
    """State for one worker clone (``node:cloneIndex``)."""

    __slots__ = (
        "worker_id",
        "node_id",
        "command",
        "scratch_dir",
        "local_files",
        "path_overrides",
        "tasks_completed",
        "busy_time",
        "_current",
    )

    def __init__(
        self,
        worker_id: str,
        node_id: str,
        command: CommandTemplate | None = None,
        *,
        scratch_dir: str = "",
    ):
        self.worker_id = worker_id
        self.node_id = node_id
        self.command = command
        self.scratch_dir = scratch_dir
        self.local_files: AbstractSet[str] = _NO_FILES
        #: name → absolute path for files resident outside the scratch
        #: directory (pre-partitioned-local data keeps original paths);
        #: None until :meth:`receive_file` is given a path.
        self.path_overrides: Optional[dict[str, str]] = None
        self.tasks_completed = 0
        #: Seconds of finished tasks (``0``, an int, until one finishes).
        self.busy_time: float = 0
        self._current: Optional[TaskExecution] = None

    # -- data ------------------------------------------------------------
    def missing_files(self, file_names: Sequence[str]) -> tuple[str, ...]:
        """Which of a task's inputs still need transferring here."""
        return tuple(n for n in file_names if n not in self.local_files)

    def receive_file(self, file_name: str, path: str | None = None) -> None:
        """Mark a file resident here; ``path`` is where it lives when it
        is outside the scratch directory."""
        if self.local_files is _NO_FILES:
            self.local_files = set()
        self.local_files.add(file_name)
        if path is not None:
            if self.path_overrides is None:
                self.path_overrides = {}
            self.path_overrides[file_name] = path

    def resolve_path(self, file_name: str) -> str:
        """Local path the command sees for a received file."""
        if self.path_overrides is not None:
            override = self.path_overrides.get(file_name)
            if override is not None:
                return override
        if self.scratch_dir:
            return f"{self.scratch_dir.rstrip('/')}/{file_name}"
        return file_name

    # -- execution ----------------------------------------------------------
    def begin_task(self, task_id: int, file_names: Sequence[str], now: float) -> TaskExecution:
        """Build the runtime command and open an execution record."""
        if self._current is not None:
            raise ProtocolError(
                f"worker {self.worker_id!r} began task {task_id} while "
                f"task {self._current.task_id} is still running"
            )
        missing = self.missing_files(file_names)
        if missing:
            raise ProtocolError(
                f"worker {self.worker_id!r} asked to run task {task_id} "
                f"without its inputs: {missing}"
            )
        paths = [self.resolve_path(n) for n in file_names]
        if self.command is not None and self.command.template is not None:
            rendered = self.command.build(paths)
        elif self.command is not None:
            rendered = f"{self.command.display_name}({', '.join(paths)})"
        else:
            rendered = " ".join(paths)
        record = TaskExecution(
            task_id=task_id,
            file_names=tuple(file_names),
            command=rendered,
            started=now,
        )
        self._current = record
        return record

    def finish_task(self, now: float, ok: bool = True, error: str = "") -> TaskExecution:
        if self._current is None:
            raise ProtocolError(f"worker {self.worker_id!r} finished with no task open")
        record = self._current
        record.finished = now
        record.ok = ok
        record.error = error
        self.busy_time += record.duration
        if ok:
            self.tasks_completed += 1
        self._current = None
        return record

    def abort_task(self, now: float, error: str) -> Optional[TaskExecution]:
        """VM failure mid-task: close the record as failed (if any)."""
        if self._current is None:
            return None
        return self.finish_task(now, ok=False, error=error)
