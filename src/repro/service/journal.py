"""Write-ahead journal for the control plane: records, stores, reader.

The multi-tenant service (:mod:`repro.service.core`) is a pure state
machine; its entire state is a deterministic function of the sequence
of mutating calls it has served.  The journal makes that sequence
durable: every state-changing event — submission verdicts, lease
grants, completions (which release the lease and charge fair-share
usage), cancellations, worker crashes with their minted replacement
ids, and fenced stale-epoch reports — is appended as one CRC-guarded
record *with* the outcome the live service computed, so replay can both
rebuild the state and verify it rebuilt the *same* state.

Layout::

    FRJL <u16 version> | record | record | ...
    record := <u32 body length> <u32 crc32(body)> <body>
    body   := canonical JSON {"k": kind, "t": virtual time, ...}

Damage never crashes recovery: a truncated tail or a bit-flipped CRC
stops the reader cleanly at the last valid record (the damage is
reported and counted; the store is truncated back to the valid prefix
before the next incarnation appends).  Compaction replaces the whole
store with a single ``snapshot`` record carrying the service's full
captured state; subsequent records append after it, so recovery is
"restore last snapshot, replay the tail".

This module is pure mechanism — bytes in, records out, no clock reads,
no file I/O (stores are injected; the file-backed one lives in
:mod:`repro.service.journalfs` so this module can serve as a
frieda-audit taint root).  Policy — what to record, how to replay —
lives in :mod:`repro.service.core`.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional, Protocol

from repro.errors import JournalError
from repro.telemetry.metrics import MetricsRegistry, NULL_METRICS

MAGIC = b"FRJL"
VERSION = 1
HEADER = MAGIC + struct.pack("<H", VERSION)
_FRAME = struct.Struct("<II")

# -- record kinds ------------------------------------------------------------
#: New incarnation (epoch bump) with the pool membership at open time.
OPEN = "open"
#: A submission and its verdict (admit/park ticket or reject).
SUBMIT = "submit"
#: A lease grant: (worker, job, task, attempt).
LEASE = "lease"
#: A lease release: completion or task error, with the usage charged.
COMPLETE = "complete"
#: A tenant cancellation.
CANCEL = "cancel"
#: A worker crash with the replacement id the rejoin policy minted.
CRASH = "crash"
#: A stale-epoch report: the lease it fenced and whether its task
#: requeued into the owning job.
FENCED = "fenced"
#: A full captured service state (compaction writes exactly one, first).
SNAPSHOT = "snapshot"

RECORD_KINDS = (OPEN, SUBMIT, LEASE, COMPLETE, CANCEL, CRASH, FENCED, SNAPSHOT)


class JournalStore(Protocol):
    """Where journal bytes live.  ``append`` must be atomic from the
    service's point of view; ``replace`` swaps the whole content (used
    by compaction and damage truncation)."""

    def read(self) -> bytes: ...

    def append(self, data: bytes) -> None: ...

    def replace(self, data: bytes) -> None: ...


class MemoryJournalStore:
    """In-memory store: the deterministic harness's journal, and the
    reference semantics for :class:`~repro.service.journalfs.FileJournalStore`."""

    def __init__(self, data: bytes = b"") -> None:
        self._data = bytearray(data)

    def read(self) -> bytes:
        return bytes(self._data)

    def append(self, data: bytes) -> None:
        self._data.extend(data)

    def replace(self, data: bytes) -> None:
        self._data = bytearray(data)

    @property
    def size(self) -> int:
        return len(self._data)


# -- codec -------------------------------------------------------------------
def encode_record(payload: dict[str, Any]) -> bytes:
    """One length-prefixed, CRC-guarded record from a JSON-safe dict."""
    kind = payload.get("k")
    if kind not in RECORD_KINDS:
        raise JournalError(f"unknown journal record kind {kind!r}")
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


@dataclass(frozen=True)
class JournalDamage:
    """Why decoding stopped before the end of the store."""

    offset: int
    reason: str
    records_read: int


@dataclass(frozen=True)
class JournalImage:
    """A decoded journal: the last snapshot (if any) plus the tail.

    ``valid_bytes`` is the length of the longest cleanly-decodable
    prefix — recovery truncates the store back to it before appending,
    so a damaged tail can never be appended after.
    """

    snapshot: Optional[dict[str, Any]]
    records: list[dict[str, Any]] = field(default_factory=list)
    damage: Optional[JournalDamage] = None
    valid_bytes: int = 0

    @property
    def epoch(self) -> int:
        """The highest epoch the journal recorded (1 when none did)."""
        epoch = 1
        if self.snapshot is not None:
            epoch = int(self.snapshot.get("epoch", 1))
        for record in self.records:
            if record["k"] == OPEN:
                epoch = max(epoch, int(record["epoch"]))
        return epoch


def decode_records(
    data: bytes,
) -> tuple[list[dict[str, Any]], Optional[JournalDamage], int]:
    """Decode every clean record; stop (never raise) at the first
    damaged one.

    A missing or foreign header is a :class:`JournalError` — there is
    nothing to recover from a file that was never a journal.  Returns
    ``(records, damage_or_None, valid_bytes)``.
    """
    if len(data) < len(HEADER) or data[: len(MAGIC)] != MAGIC:
        raise JournalError("not a FRIEDA journal (bad magic)")
    (version,) = struct.unpack_from("<H", data, len(MAGIC))
    if version != VERSION:
        raise JournalError(f"unsupported journal version {version}")
    records: list[dict[str, Any]] = []
    offset = len(HEADER)
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            return records, JournalDamage(offset, "truncated frame", len(records)), offset
        length, crc = _FRAME.unpack_from(data, offset)
        body_start = offset + _FRAME.size
        body = data[body_start : body_start + length]
        if len(body) < length:
            return records, JournalDamage(offset, "truncated record", len(records)), offset
        if zlib.crc32(body) != crc:
            return records, JournalDamage(offset, "crc mismatch", len(records)), offset
        try:
            payload = json.loads(body)
        except (ValueError, RecursionError):
            return records, JournalDamage(offset, "unparsable body", len(records)), offset
        if not isinstance(payload, dict) or payload.get("k") not in RECORD_KINDS:
            return records, JournalDamage(offset, "unknown record kind", len(records)), offset
        if payload["k"] == SNAPSHOT and not isinstance(payload.get("state"), dict):
            return records, JournalDamage(offset, "snapshot without state", len(records)), offset
        records.append(payload)
        offset = body_start + length
    return records, None, offset


def read_journal(data: bytes) -> JournalImage:
    """The recovery view: the latest snapshot plus everything after it."""
    records, damage, valid_bytes = decode_records(data)
    snapshot: Optional[dict[str, Any]] = None
    tail_start = 0
    for i, record in enumerate(records):
        if record["k"] == SNAPSHOT:
            snapshot = record["state"]
            tail_start = i + 1
    return JournalImage(
        snapshot=snapshot,
        records=records[tail_start:],
        damage=damage,
        valid_bytes=valid_bytes,
    )


class JournalWriter:
    """Appends records to a store and tracks compaction debt.

    ``snapshot_every`` is the compaction period in records: once that
    many records follow the last snapshot, :attr:`compaction_due` turns
    true and the owner is expected to call :meth:`compact` with its
    captured state.  The ``service.journal.lag_records`` gauge exports
    the same debt for SLO probes — a growing lag means recovery replay
    is getting slower.
    """

    def __init__(
        self,
        store: JournalStore,
        *,
        snapshot_every: Optional[int] = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise JournalError("snapshot_every must be >= 1")
        self.store = store
        self.snapshot_every = snapshot_every
        metrics = metrics if metrics is not None else NULL_METRICS
        self._m_records = metrics.counter("service.journal.records")
        self._m_snapshots = metrics.counter("service.journal.snapshots")
        self._g_lag = metrics.gauge("service.journal.lag_records")
        existing = store.read()
        if not existing:
            store.append(HEADER)
            self._lag = 0
        else:
            # Attaching to a journal with history: the lag is whatever
            # follows the last snapshot (recovery already truncated any
            # damaged tail).
            image = read_journal(existing)
            if image.damage is not None:
                raise JournalError(
                    f"cannot append to a damaged journal "
                    f"({image.damage.reason} at byte {image.damage.offset}); "
                    f"truncate to the valid prefix first"
                )
            self._lag = len(image.records)
        self._g_lag.set(self._lag)

    @property
    def lag_records(self) -> int:
        """Records appended since the last snapshot."""
        return self._lag

    @property
    def compaction_due(self) -> bool:
        return self.snapshot_every is not None and self._lag >= self.snapshot_every

    def append(self, kind: str, t: float, **fields: Any) -> None:
        payload: dict[str, Any] = {"k": kind, "t": t}
        payload.update(fields)
        self.store.append(encode_record(payload))
        self._lag += 1
        self._m_records.inc()
        self._g_lag.set(self._lag)

    def compact(self, state: dict[str, Any], *, epoch: int, t: float) -> None:
        """Replace the whole store with one snapshot of ``state``.

        Everything the tail records expressed is already folded into
        the captured state, so the snapshot is the new truth and the
        log restarts empty behind it.
        """
        record = encode_record(
            {"k": SNAPSHOT, "t": t, "epoch": epoch, "state": state}
        )
        self.store.replace(HEADER + record)
        self._lag = 0
        self._m_snapshots.inc()
        self._g_lag.set(self._lag)
