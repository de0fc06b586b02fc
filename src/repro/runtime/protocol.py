"""Wire protocol for the TCP runtime.

Frames are length-prefixed: a 4-byte big-endian length followed by the
JSON-encoded message (see :mod:`repro.core.messages`). A
*payload-bearing* message (``FILE_DATA`` file contents, ``TELEMETRY``
batch bodies) whose ``payload_len`` is nonzero is immediately followed
by exactly ``payload_len`` raw bytes — binary payloads never pass
through JSON.

Integrity: a payload frame built with :func:`file_data_message` or
:func:`telemetry_batch_message` carries a CRC32 of its payload.
:func:`read_frame` verifies it after fully consuming the frame and
raises :class:`~repro.errors.ChecksumError` on mismatch — the stream
stays correctly framed, so the receiver can keep reading and either ask
the sender for a retransmit (``RESEND_FILE``) or drop the batch
(telemetry is lossy-tolerant) instead of tearing the connection down.

Hostile frames: a ``payload_len`` that is not a non-negative ``int`` no
larger than :data:`MAX_FRAME`, undecodable JSON or an unknown message
type raises :class:`~repro.errors.ProtocolError` — never a stray
``TypeError`` from deep inside a decoder.
"""

from __future__ import annotations

import struct
import zlib
from typing import TYPE_CHECKING

from repro.core.messages import (
    FileData,
    Message,
    TelemetryBatch,
    decode_message,
    encode_message,
)
from repro.errors import ChecksumError, ProtocolError

if TYPE_CHECKING:
    import asyncio

#: Frames above this size are rejected (corrupt length prefix guard).
MAX_FRAME = 64 * 1024 * 1024

#: Payloads up to this size (the asyncio stream-buffer size) are
#: "small": written in the same ``writer.write`` as their header, read
#: by the master without an executor hop and handed to the worker's
#: task executor call in memory. Larger ones keep a write of their own.
SMALL_PAYLOAD = 64 * 1024

#: Message kinds that may be followed by a binary payload of
#: ``payload_len`` bytes checksummed by ``checksum``.
PAYLOAD_KINDS = (FileData, TelemetryBatch)

_LEN = struct.Struct(">I")


def payload_checksum(payload: bytes) -> str:
    """CRC32 of a binary payload as 8 lowercase hex digits."""
    return format(zlib.crc32(payload) & 0xFFFFFFFF, "08x")


def file_data_message(task_id: int, file_name: str, payload: bytes) -> FileData:
    """Build a checksummed ``FILE_DATA`` header for ``payload``."""
    return FileData(
        task_id=task_id,
        file_name=file_name,
        payload_len=len(payload),
        checksum=payload_checksum(payload),
    )


def telemetry_batch_message(worker_id: str, seq: int, payload: bytes) -> TelemetryBatch:
    """Build a checksummed ``TELEMETRY`` header for an encoded batch."""
    return TelemetryBatch(
        worker_id=worker_id,
        seq=seq,
        payload_len=len(payload),
        checksum=payload_checksum(payload),
    )


def _verify_payload(message: Message, payload: bytes) -> None:
    if isinstance(message, PAYLOAD_KINDS) and message.checksum:
        actual = payload_checksum(payload)
        if actual != message.checksum:
            raise ChecksumError(message, expected=message.checksum, actual=actual)


def _payload_len(message: Message) -> int:
    """How many payload bytes follow ``message``'s body on the wire."""
    if not isinstance(message, PAYLOAD_KINDS):
        return 0
    length = message.payload_len
    if type(length) is not int or not 0 <= length <= MAX_FRAME:
        raise ProtocolError(
            f"{message.msg_type} payload_len must be an int in"
            f" [0, {MAX_FRAME}], got {length!r}"
        )
    return length


def frame_head(message: Message, payload: bytes = b"") -> bytes:
    """Length prefix + JSON body of one frame (``payload`` follows it).

    Validates the message/payload pairing the receiver relies on.
    """
    if payload and not isinstance(message, PAYLOAD_KINDS):
        raise ProtocolError(
            "binary payloads are only valid after FILE_DATA or TELEMETRY"
        )
    if isinstance(message, PAYLOAD_KINDS) and message.payload_len != len(payload):
        raise ProtocolError(
            f"{message.msg_type} payload_len={message.payload_len}"
            f" but payload is {len(payload)} bytes"
        )
    body = encode_message(message)
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame too large: {len(body)} bytes")
    return _LEN.pack(len(body)) + body


def write_frame(writer: asyncio.StreamWriter, message: Message, payload: bytes = b"") -> None:
    """Queue one message (and its optional binary payload) on a writer.

    One ``write`` per frame when the payload is at most
    :data:`SMALL_PAYLOAD`; above that the payload gets a second write
    rather than being copied onto the header.
    """
    head = frame_head(message, payload)
    if len(payload) <= SMALL_PAYLOAD:
        writer.write(head + payload)
    else:
        writer.write(head)
        writer.write(payload)


async def read_frame(reader: asyncio.StreamReader) -> tuple[Message, bytes]:
    """Read one message (+ payload if payload-bearing); raises on EOF/corruption.

    A checksummed payload that fails verification raises
    :class:`ChecksumError` *after* the whole frame has been consumed,
    so the caller may continue reading the stream.
    """
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds maximum")
    body = await reader.readexactly(length)
    message = decode_message(body)
    need = _payload_len(message)
    payload = await reader.readexactly(need) if need else b""
    _verify_payload(message, payload)
    return message, payload


class Channel:
    """Frame-level view of one connection's ``(reader, writer)`` pair.

    The runtime's fault-injection twin
    (:class:`repro.runtime.faults.FaultyChannel`) subclasses this and
    perturbs :meth:`send`, so every frame the master or a worker emits
    flows through one seam.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    async def send(self, message: Message, payload: bytes = b"") -> None:
        write_frame(self.writer, message, payload)
        await self.writer.drain()

    async def recv(self) -> tuple[Message, bytes]:
        return await read_frame(self.reader)

    def close(self) -> None:
        self.writer.close()

    @property
    def is_closing(self) -> bool:
        return self.writer.is_closing()

    async def wait_closed(self) -> None:
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
