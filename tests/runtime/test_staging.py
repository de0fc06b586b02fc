"""Input staging on the real planes, and how its failures are counted.

On one host the threaded engine stages an input by hard-linking it
into the worker's scratch directory, and copies only when the kernel
refuses the link (another filesystem, ``protected_hardlinks``, a
filesystem without links). Either way the command sees the same bytes
and the run's accounting is the same.

A staging failure — a missing source, a full disk while linking,
copying or spilling — is a task error on both real engines: the task
fails with ``fetch failed: <names>``, its record is kept, and every
task lands in exactly one of completed / failed / lost. Each task
error is recorded once, through ``ControllerLogic.on_task_error``.
"""

import ast
import errno
import logging
import os
import shutil
import threading
from pathlib import Path

import pytest

import repro
from repro.core.strategies import StrategyKind
from repro.data.files import DataFile, Dataset
from repro.runtime import tcp
from repro.runtime.local import ThreadedEngine
from repro.runtime.protocol import SMALL_PAYLOAD
from repro.runtime.tcp import TcpEngine

ENGINES = {
    "threaded": ThreadedEngine,
    "tcp": lambda n: TcpEngine(n, run_timeout=60),
}


def _dataset(directory: Path, count: int, big: frozenset = frozenset()) -> Dataset:
    files = []
    for i in range(count):
        path = directory / f"f{i}.bin"
        length = SMALL_PAYLOAD + 1 if i in big else 64
        path.write_bytes(bytes([i]) * length)
        files.append(DataFile(name=path.name, size=length, path=str(path)))
    return Dataset("inputs", files)


def _read(path: str) -> None:
    with open(path, "rb") as fh:
        fh.read()


def _accounted(outcome) -> bool:
    return (
        outcome.tasks_completed + outcome.tasks_failed + outcome.tasks_lost
        == outcome.tasks_total
    )


def _failed_records(outcome) -> list:
    return [r for r in outcome.task_records if not r.ok]


def _kinds(outcome) -> list[str]:
    return [e.kind for e in outcome.controller_events]


@pytest.fixture
def uncaught(monkeypatch, caplog):
    """Call it for the exceptions that escaped a worker thread or an
    asyncio callback so far."""
    hooked: list[str] = []
    monkeypatch.setattr(
        threading, "excepthook", lambda args: hooked.append(repr(args.exc_value))
    )
    caplog.set_level(logging.ERROR, logger="asyncio")
    return lambda: hooked + [r.getMessage() for r in caplog.records if r.name == "asyncio"]


# -- the link path -------------------------------------------------------------
class _InodeProbe:
    """The command: records the inode and bytes behind every path it sees."""

    def __init__(self):
        self.seen: dict[str, tuple[str, int, bytes]] = {}
        self._lock = threading.Lock()

    def __call__(self, path: str) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        with self._lock:
            self.seen[os.path.basename(path)] = (path, os.stat(path).st_ino, data)


def _probe_run(tmp_path: Path, strategy: StrategyKind, **run_kw):
    dataset = _dataset(tmp_path, 6)
    scratch = tmp_path / "scratch"
    scratch.mkdir(exist_ok=True)
    probe = _InodeProbe()
    outcome = ThreadedEngine(2, scratch_root=str(scratch)).run(
        dataset, command=probe, strategy=strategy, **run_kw
    )
    sources = {f.name: f.path for f in dataset}
    return outcome, probe.seen, sources, str(scratch)


def _summary(outcome) -> tuple:
    return (
        outcome.tasks_total,
        outcome.tasks_completed,
        outcome.tasks_failed,
        outcome.tasks_lost,
        outcome.bytes_transferred,
    )


class TestLinkStaging:
    @pytest.mark.parametrize(
        "strategy",
        [
            StrategyKind.REAL_TIME,
            StrategyKind.PRE_PARTITIONED_REMOTE,
            StrategyKind.COMMON_DATA,
        ],
    )
    def test_same_filesystem_entry_is_the_source_inode(self, tmp_path, strategy):
        outcome, seen, sources, scratch = _probe_run(tmp_path, strategy)
        assert outcome.tasks_completed == outcome.tasks_total == 6
        assert sorted(seen) == sorted(sources)
        for name, (path, ino, _data) in seen.items():
            assert path.startswith(scratch) and path != sources[name]
            assert ino == os.stat(sources[name]).st_ino

    @pytest.mark.parametrize("code", [errno.EXDEV, errno.EPERM])
    @pytest.mark.parametrize(
        "strategy", [StrategyKind.REAL_TIME, StrategyKind.PRE_PARTITIONED_REMOTE]
    )
    def test_refused_link_falls_back_to_a_copy(self, tmp_path, monkeypatch, code, strategy):
        (tmp_path / "linked").mkdir()
        (tmp_path / "copied").mkdir()
        linked, _, _, _ = _probe_run(tmp_path / "linked", strategy)

        def refuse(src, dst, *args, **kwargs):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "link", refuse)
        copied, seen, sources, _ = _probe_run(tmp_path / "copied", strategy)
        assert _summary(copied) == _summary(linked)
        for name, (_path, ino, data) in seen.items():
            assert ino != os.stat(sources[name]).st_ino
            assert data == Path(sources[name]).read_bytes()


# -- staging failures ------------------------------------------------------------
def _missing_source(tmp_path: Path) -> tuple[Dataset, str]:
    dataset = _dataset(tmp_path, 6)
    gone = str(tmp_path / "gone.bin")
    files = list(dataset) + [DataFile(name="gone.bin", size=64, path=gone)]
    return Dataset("inputs", files), "gone.bin"


def _full_disk_on(monkeypatch, target: str, *functions) -> None:
    """Make each ``(module, name)`` raise ENOSPC when it touches ``target``."""
    for module, name in functions:
        original = getattr(module, name)

        def full(*args, _original=original, **kwargs):
            if any(str(a).endswith(target) for a in args):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, full)


def _assert_one_fetch_failure(outcome, name: str, uncaught) -> None:
    assert uncaught() == []
    assert _accounted(outcome), (
        outcome.tasks_completed, outcome.tasks_failed, outcome.tasks_lost, outcome.tasks_total
    )
    assert outcome.tasks_failed == 1
    (record,) = _failed_records(outcome)
    assert record.error.startswith("fetch failed: ") and name in record.error
    errors = [e.detail for e in outcome.controller_events if e.kind == "WORKER_ERROR"]
    assert len(errors) == 1 and name in errors[0]


STAGED_AND_LAZY = [StrategyKind.REAL_TIME, StrategyKind.PRE_PARTITIONED_REMOTE]


class TestStagingFailureIsATaskError:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("strategy", STAGED_AND_LAZY)
    def test_missing_source(self, tmp_path, engine, strategy, uncaught):
        dataset, name = _missing_source(tmp_path)
        outcome = ENGINES[engine](2).run(dataset, command=_read, strategy=strategy)
        _assert_one_fetch_failure(outcome, name, uncaught)
        assert "No such file" in _failed_records(outcome)[0].error
        if strategy is StrategyKind.REAL_TIME:
            assert outcome.tasks_completed == 6

    @pytest.mark.parametrize("strategy", STAGED_AND_LAZY)
    def test_threaded_full_disk(self, tmp_path, monkeypatch, strategy, uncaught):
        dataset = _dataset(tmp_path, 6)
        _full_disk_on(monkeypatch, "f3.bin", (os, "link"), (shutil, "copy2"))
        outcome = ThreadedEngine(2).run(dataset, command=_read, strategy=strategy)
        _assert_one_fetch_failure(outcome, "f3.bin", uncaught)
        assert "No space left" in _failed_records(outcome)[0].error

    @pytest.mark.parametrize(
        "strategy, big",
        [
            (StrategyKind.REAL_TIME, frozenset()),  # held, spilled in the task's call
            (StrategyKind.REAL_TIME, frozenset({3})),  # spilled as its frame lands
            (StrategyKind.PRE_PARTITIONED_REMOTE, frozenset()),  # staged push
        ],
    )
    def test_tcp_worker_full_disk(self, tmp_path, monkeypatch, strategy, big, uncaught):
        dataset = _dataset(tmp_path, 6, big=big)
        _full_disk_on(monkeypatch, "f3.bin", (tcp, "_write_payload"))
        outcome = TcpEngine(2, run_timeout=60).run(dataset, command=_read, strategy=strategy)
        _assert_one_fetch_failure(outcome, "f3.bin", uncaught)
        assert "No space left" in _failed_records(outcome)[0].error
        if strategy is StrategyKind.REAL_TIME:
            assert outcome.tasks_completed == 5


# -- one count per task error --------------------------------------------------
def _fails_on_f0(path: str) -> None:
    if path.endswith("f0.bin"):
        raise RuntimeError("bad input")


class TestTaskErrorCountedOnce:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_one_error_below_the_threshold_does_not_isolate(self, tmp_path, engine):
        dataset = _dataset(tmp_path, 8)
        outcome = ENGINES[engine](1).run(dataset, command=_fails_on_f0, isolate_after=2)
        assert (outcome.tasks_completed, outcome.tasks_failed, outcome.tasks_lost) == (7, 1, 0)
        assert _kinds(outcome).count("WORKER_ERROR") == 1
        assert "WORKER_ISOLATED" not in _kinds(outcome)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_second_error_isolates_and_is_logged(self, tmp_path, engine):
        dataset = _dataset(tmp_path, 8)

        def fails_twice(path: str) -> None:
            if path.endswith(("f0.bin", "f1.bin")):
                raise RuntimeError("bad input")

        outcome = ENGINES[engine](1).run(dataset, command=fails_twice, isolate_after=2)
        kinds = [k for k in _kinds(outcome) if k.startswith("WORKER_")]
        assert kinds == ["WORKER_ERROR", "WORKER_ERROR", "WORKER_ISOLATED"]
        assert outcome.tasks_failed == 2

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_first_error_isolates_at_the_default_threshold(self, tmp_path, engine):
        dataset = _dataset(tmp_path, 8)
        outcome = ENGINES[engine](2).run(dataset, command=_fails_on_f0)
        details = [(e.kind, e.detail) for e in outcome.controller_events if e.kind.startswith("WORKER_")]
        (wid,) = {r.worker_id for r in _failed_records(outcome)}
        assert details == [("WORKER_ERROR", f"{wid}: RuntimeError: bad input"), ("WORKER_ISOLATED", wid)]
        assert (outcome.tasks_completed, outcome.tasks_failed) == (7, 1)


class TestOneErrorPath:
    def test_runtimes_report_task_errors_only_through_the_controller(self):
        """No engine records a task error on the scheduler or the fault
        tracker itself: ``ControllerLogic.on_task_error`` is the one
        path, so an error cannot be counted twice or go unlogged."""
        package = Path(repro.__file__).parent
        offenders = []
        paths = [*(package / "engines").rglob("*.py"), *(package / "runtime").rglob("*.py")]
        for path in sorted(paths):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("report_error", "on_worker_error", "record_error"):
                    offenders.append(f"{path.relative_to(package)}:{node.lineno} {name}")
        assert offenders == []
