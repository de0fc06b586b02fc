"""File-backed journal store (the real drivers' durability).

Kept out of :mod:`repro.service.journal` on purpose: the journal codec
and replay path are a frieda-audit taint root (they run under the
deterministic harness), while this module is unapologetically real
I/O — append-with-fsync for records, write-temp-then-rename (then a
directory fsync) for compaction so a crash mid-compact leaves either
the old journal or the new one, never a torn file.
"""

from __future__ import annotations

import os


class FileJournalStore:
    """Durable :class:`~repro.service.journal.JournalStore` on one file.

    ``sync=True`` (default) fsyncs every append — the write-ahead
    guarantee that an acknowledged event survives a process kill.
    Turning it off trades that for throughput (the OS flushes when it
    pleases), which is only appropriate for tests and demos.
    """

    def __init__(self, path: str, *, sync: bool = True) -> None:
        self.path = str(path)
        self._sync = sync

    def read(self) -> bytes:
        try:
            with open(self.path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return b""

    def append(self, data: bytes) -> None:
        with open(self.path, "ab") as fh:
            fh.write(data)
            fh.flush()
            if self._sync:
                os.fsync(fh.fileno())

    def replace(self, data: bytes) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            if self._sync:
                os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        if self._sync:
            # The rename is an entry in the directory: until that is
            # synced, a power cut can bring the old journal back.
            fd = os.open(os.path.dirname(os.path.abspath(self.path)), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    @property
    def size(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0
