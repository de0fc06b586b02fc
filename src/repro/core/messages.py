"""FRIEDA protocol messages (Figures 2–4 of the paper).

Message names follow the labels in the architecture figures:
``START_MASTER``, ``SET_PARTITION_INFO``, ``FORK_REMOTE_WORKERS``,
``REQUEST_DATA``, ``FILE_METADATA``, ``FILE_DATA``, plus the status and
elasticity messages §II-D describes. Each message is a frozen dataclass
with a JSON round-trip (:func:`encode_message` / :func:`decode_message`)
used verbatim by the asyncio TCP runtime; the simulated engine passes
the same objects through in-memory mailboxes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Type

from repro.errors import ProtocolError


@dataclass(frozen=True)
class Message:
    """Base protocol message."""

    #: Wire name of the message (class attribute, not serialized field).
    msg_type: ClassVar[str] = "MESSAGE"

    def to_dict(self) -> dict[str, Any]:
        # Shallow on purpose: every field is a str/int/float/bool or a
        # (nested) tuple of those — immutable, so ``asdict``'s recursive
        # deep copy bought nothing. ``json`` writes tuples as arrays, so
        # the wire bytes are the same either way.
        payload = {name: getattr(self, name) for name in _field_names(type(self))}
        payload["type"] = self.msg_type
        return payload


_REGISTRY: dict[str, Type[Message]] = {}
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(cls: Type[Message]) -> tuple[str, ...]:
    """The serialized field names of a message class (cached per class)."""
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return names


def _register(cls: Type[Message]) -> Type[Message]:
    if cls.msg_type in _REGISTRY:
        raise ProtocolError(f"duplicate message type {cls.msg_type!r}")
    _REGISTRY[cls.msg_type] = cls
    return cls


@_register
@dataclass(frozen=True)
class StartMaster(Message):
    """Controller → master: start with a partition strategy (Fig 2a/4)."""

    msg_type: ClassVar[str] = "START_MASTER"
    strategy: str = "real_time"
    grouping: str = "single"
    multicore: bool = True


@_register
@dataclass(frozen=True)
class SetPartitionInfo(Message):
    """Controller → master: the generated partition table (Fig 3 step 2).

    ``groups`` is a list of lists of file names (the partition
    generator's output); sizes travel separately so the master can plan
    transfers without a catalog lookup.
    """

    msg_type: ClassVar[str] = "SET_PARTITION_INFO"
    groups: tuple[tuple[str, ...], ...] = ()
    sizes: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.sizes and len(self.sizes) != len(self.groups):
            raise ProtocolError("sizes/groups length mismatch")


@_register
@dataclass(frozen=True)
class ForkRemoteWorkers(Message):  # frieda: allow[protocol-dead-kind] -- Fig 2a controller-plane kind, reserved for the multi-tenant service arc
    """Controller action: spawn workers on nodes (Fig 2a)."""

    msg_type: ClassVar[str] = "FORK_REMOTE_WORKERS"
    nodes: tuple[str, ...] = ()
    command_template: str = ""
    clones_per_node: int = 1


@_register
@dataclass(frozen=True)
class RegisterWorker(Message):
    """Worker → master: initialize and register (Fig 4)."""

    msg_type: ClassVar[str] = "REGISTER_WORKER"
    worker_id: str = ""
    node_id: str = ""
    cores: int = 1


@_register
@dataclass(frozen=True)
class ConnectionAck(Message):
    """Master → worker: connection acknowledgement (Fig 4)."""

    msg_type: ClassVar[str] = "CONNECTION_ACK"
    worker_id: str = ""
    accepted: bool = True
    reason: str = ""
    #: Whether the master wants this worker to run a local telemetry hub
    #: and ship batched spans/metrics back in ``TELEMETRY`` frames.
    ship_telemetry: bool = False


@_register
@dataclass(frozen=True)
class RequestData(Message):
    """Worker → master: ask for the next unit of work (Fig 4)."""

    msg_type: ClassVar[str] = "REQUEST_DATA"
    worker_id: str = ""


@_register
@dataclass(frozen=True)
class FileMetadata(Message):
    """Master → worker: what the next task's inputs are (Fig 2b)."""

    msg_type: ClassVar[str] = "FILE_METADATA"
    task_id: int = -1
    file_names: tuple[str, ...] = ()
    sizes: tuple[int, ...] = ()
    #: Whether the payload follows (remote modes) or the worker already
    #: holds the files locally (pre-partitioned local).
    transfer_required: bool = True
    #: Which attempt of the task this assignment is (1 = first try);
    #: lets workers stamp retry attempts into their task records.
    attempt: int = 1


@_register
@dataclass(frozen=True)
class FileData(Message):
    """Master → worker: one file's payload (Fig 2b FILE_DATA).

    The simulated engine never materializes ``payload`` (transfer cost
    is modeled by the flow network); the TCP runtime carries real bytes
    base64-free as a binary frame referenced by ``payload_len``.
    """

    msg_type: ClassVar[str] = "FILE_DATA"
    task_id: int = -1
    file_name: str = ""
    payload_len: int = 0
    #: CRC32 of the payload (8 hex digits); empty disables verification
    #: (the simulated engine never materializes payloads).
    checksum: str = ""


@_register
@dataclass(frozen=True)
class ExecStatus(Message):
    """Worker → master: execution result for one task (Fig 4)."""

    msg_type: ClassVar[str] = "EXEC_STATUS"
    worker_id: str = ""
    task_id: int = -1
    ok: bool = True
    duration: float = 0.0
    error: str = ""
    output_summary: str = ""


@_register
@dataclass(frozen=True)
class Heartbeat(Message):
    """Worker → master: liveness beat (§V-A monitoring extension).

    A worker whose connection stays open but whose beats stop — a hung
    process, a wedged VM — is *suspected* and then *declared dead* by
    the master's :class:`~repro.core.monitoring.HeartbeatMonitor`, and
    recovered through the same path as a broken connection.
    """

    msg_type: ClassVar[str] = "HEARTBEAT"
    worker_id: str = ""
    seq: int = 0
    #: Send time on the *worker's* clock (negative = not reported).
    #: The master pairs this with its own receive time to estimate the
    #: worker→master clock offset for trace merging.
    sent_at: float = -1.0
    #: Most recent heartbeat round-trip time measured by the worker from
    #: a :class:`HeartbeatAck` (negative = no measurement yet).
    rtt: float = -1.0


@_register
@dataclass(frozen=True)
class HeartbeatAck(Message):
    """Master → worker: echo of a heartbeat for RTT measurement.

    Carries the beat's ``seq`` and the worker-clock ``sent_at`` back so
    the worker can compute a round trip entirely on its own clock and
    report it in the next :class:`Heartbeat`.
    """

    msg_type: ClassVar[str] = "HEARTBEAT_ACK"
    worker_id: str = ""
    seq: int = 0
    sent_at: float = -1.0


@_register
@dataclass(frozen=True)
class ResendFile(Message):
    """Worker → master: re-request a payload that failed verification.

    Sent when a ``FILE_DATA`` payload's checksum does not match; the
    master re-reads and re-sends the file. Workers bound the number of
    re-requests per file so a persistently corrupt link degrades into a
    worker failure instead of an infinite loop.
    """

    msg_type: ClassVar[str] = "RESEND_FILE"
    worker_id: str = ""
    file_name: str = ""
    task_id: int = -1
    reason: str = "checksum mismatch"


@_register
@dataclass(frozen=True)
class TelemetryBatch(Message):
    """Worker → master: a batch of locally-recorded telemetry.

    The JSON body is only the envelope; the batch itself (spans, events,
    and metric deltas, encoded by :mod:`repro.telemetry.shipping`)
    travels as a binary frame payload referenced by ``payload_len`` and
    CRC-checked like ``FILE_DATA``. Telemetry is lossy-tolerant: a batch
    that fails verification is dropped and counted, never retransmitted.
    """

    msg_type: ClassVar[str] = "TELEMETRY"
    worker_id: str = ""
    #: Monotonic per-worker batch sequence number; the master folds
    #: batches in ``(worker_id, seq)`` order so merges are deterministic.
    seq: int = 0
    payload_len: int = 0
    #: CRC32 of the payload (8 hex digits); empty disables verification.
    checksum: str = ""


@_register
@dataclass(frozen=True)
class NoMoreData(Message):
    """Master → worker: all inputs processed; worker may exit (§II-C)."""

    msg_type: ClassVar[str] = "NO_MORE_DATA"
    worker_id: str = ""


@_register
@dataclass(frozen=True)
class WorkerFailed(Message):
    """Master → controller: a worker was lost (§II-D failure reporting)."""

    msg_type: ClassVar[str] = "WORKER_FAILED"
    worker_id: str = ""
    node_id: str = ""
    error: str = ""
    tasks_in_flight: tuple[int, ...] = ()


@_register
@dataclass(frozen=True)
class AddWorker(Message):  # frieda: allow[protocol-dead-kind] -- elastic add (SV-A), reserved for the multi-tenant service arc
    """User/controller: elastically add a worker (§V-A Elastic)."""

    msg_type: ClassVar[str] = "ADD_WORKER"
    node_id: str = ""
    cores: int = 1


@_register
@dataclass(frozen=True)
class RemoveWorker(Message):  # frieda: allow[protocol-dead-kind] -- elastic drain, reserved for the multi-tenant service arc
    """User/controller: drain and remove a worker."""

    msg_type: ClassVar[str] = "REMOVE_WORKER"
    worker_id: str = ""
    drain: bool = True


@_register
@dataclass(frozen=True)
class ConfigUpdate(Message):  # frieda: allow[protocol-dead-kind] -- SII-D live reconfiguration, reserved for the multi-tenant service arc
    """Controller → master over the open channel (§II-D): change the
    execution configuration at run time without restarting the master."""

    msg_type: ClassVar[str] = "CONFIG_UPDATE"
    key: str = ""
    value: str = ""


def encode_message(message: Message) -> bytes:
    """Serialize a message to a JSON line (UTF-8, newline-free)."""
    return json.dumps(message.to_dict(), separators=(",", ":"), sort_keys=True).encode()


def _coerce(cls: Type[Message], payload: dict[str, Any]) -> Message:
    kwargs: dict[str, Any] = {}
    for name in _field_names(cls):
        if name not in payload:
            continue
        value = payload[name]
        # JSON produces lists; the dataclasses use tuples for hashability.
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[name] = value
    return cls(**kwargs)


def decode_message(data: bytes | str | dict[str, Any]) -> Message:
    """Deserialize a message from JSON bytes/str or a dict."""
    if isinstance(data, (bytes, str)):
        try:
            payload = json.loads(data)
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and invalid UTF-8;
            # RecursionError, hostile nesting depth.
            raise ProtocolError(f"undecodable message: {exc}") from exc
    else:
        payload = dict(data)
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolError(f"message without type: {payload!r}")
    msg_type = payload.pop("type")
    cls = _REGISTRY.get(msg_type) if isinstance(msg_type, str) else None
    if cls is None:
        raise ProtocolError(f"unknown message type {msg_type!r}")
    try:
        return _coerce(cls, payload)
    except TypeError as exc:
        raise ProtocolError(f"bad fields for {msg_type}: {exc}") from exc
