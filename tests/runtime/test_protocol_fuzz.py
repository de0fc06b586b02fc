"""Hostile bytes at the frame decoders.

Both decoders — the asyncio ``read_frame`` and the incremental
``FrameReader`` — may only ever fail with ``ProtocolError`` (its
``ChecksumError`` subclass included) or, at end of stream,
``asyncio.IncompleteReadError``: never a ``TypeError``/``KeyError``
from inside the codec, and never a silently desynchronized stream.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import (
    ExecStatus,
    FileMetadata,
    RequestData,
    SetPartitionInfo,
    encode_message,
)
from repro.errors import ChecksumError, ProtocolError
from repro.runtime.protocol import (
    _LEN,
    MAX_FRAME,
    FrameReader,
    file_data_message,
    read_frame,
    telemetry_batch_message,
    write_frame,
)

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)

ALLOWED = (ProtocolError, asyncio.IncompleteReadError)


class _Writer:
    def __init__(self):
        self.data = bytearray()

    def write(self, chunk: bytes) -> None:
        self.data.extend(chunk)


def _read_all_sync(blob: bytes) -> list:
    """Every frame ``FrameReader`` decodes from ``blob`` (corrupt
    payloads skipped, as a receiver that re-requests them would)."""
    reader = FrameReader()
    data = blob
    while True:
        try:
            reader.feed(data)
            break
        except ChecksumError:
            data = b""
    frames = []
    while (frame := reader.pop()) is not None:
        frames.append(frame)
    return frames


def _read_all_async(blob: bytes) -> list:
    """Every frame ``read_frame`` decodes from ``blob`` up to EOF."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        frames = []
        while True:
            try:
                frames.append(await read_frame(reader))
            except ChecksumError:
                continue
            except asyncio.IncompleteReadError:
                return frames

    return asyncio.run(scenario())


def _frame(body: bytes, payload: bytes = b"") -> bytes:
    return _LEN.pack(len(body)) + body + payload


def _valid_frames() -> list[tuple[object, bytes]]:
    blob = b"\x00\x01payload\xff" * 3
    return [
        (RequestData(worker_id="w0"), b""),
        (FileMetadata(task_id=2, file_names=("a", "b"), sizes=(3, 4)), b""),
        (file_data_message(2, "a", blob), blob),
        (telemetry_batch_message("w0", 1, b"{}"), b"{}"),
        (ExecStatus(worker_id="w0", task_id=2, ok=False, duration=0.5, error="x"), b""),
        (SetPartitionInfo(groups=(("a",), ("b", "c")), sizes=((1,), (2, 3))), b""),
    ]


def _stream(frames) -> bytes:
    writer = _Writer()
    for message, payload in frames:
        write_frame(writer, message, payload)
    return bytes(writer.data)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _assert_decoders_contained(blob: bytes) -> None:
    results = []
    for decode in (_read_all_sync, _read_all_async):
        try:
            results.append(decode(blob))
        except ALLOWED:
            results.append(None)
    sync_frames, async_frames = results
    if sync_frames is not None and async_frames is not None:
        assert sync_frames == async_frames


@FUZZ
@given(st.binary(max_size=256))
def test_arbitrary_bytes_raise_only_protocol_errors(blob):
    _assert_decoders_contained(blob)


@FUZZ
@given(st.binary(max_size=64))
def test_arbitrary_json_body_raises_only_protocol_errors(body):
    _assert_decoders_contained(_frame(body))


@FUZZ
@given(
    st.integers(0, len(_valid_frames()) - 1),
    st.one_of(st.sampled_from(["type", "payload_len", "checksum", "task_id"]), st.text(max_size=6)),
    st.one_of(json_values, st.just(KeyError)),
    st.binary(max_size=24),
)
def test_mutated_fields_raise_only_protocol_errors(index, key, value, trailing):
    message, payload = _valid_frames()[index]
    fields = json.loads(encode_message(message))
    if value is KeyError:
        fields.pop(key, None)
    else:
        fields[key] = value
    body = json.dumps(fields).encode()
    _assert_decoders_contained(_frame(body, payload) + trailing)


@FUZZ
@given(
    st.lists(st.integers(0, len(_valid_frames()) - 1), min_size=1, max_size=8),
    st.lists(st.integers(0, 10_000), max_size=12),
)
def test_any_chunking_decodes_the_same_frames(picks, cuts):
    frames = [_valid_frames()[i] for i in picks]
    stream = _stream(frames)
    bounds = sorted({c % (len(stream) + 1) for c in cuts} | {0, len(stream)})
    reader = FrameReader()
    for lo, hi in zip(bounds, bounds[1:]):
        reader.feed(stream[lo:hi])
    chunked = []
    while (frame := reader.pop()) is not None:
        chunked.append(frame)
    assert chunked == _read_all_sync(stream) == frames


@pytest.mark.parametrize(
    "payload_len", [-5, -1, "5", True, 5.0, None, [5], MAX_FRAME + 1]
)
def test_hostile_payload_len_is_a_protocol_error(payload_len):
    fields = json.loads(encode_message(file_data_message(1, "f", b"12345")))
    fields["payload_len"] = payload_len
    blob = _frame(json.dumps(fields).encode(), b"12345")
    with pytest.raises(ProtocolError, match="payload_len"):
        _read_all_sync(blob)
    with pytest.raises(ProtocolError, match="payload_len"):
        _read_all_async(blob)


@pytest.mark.parametrize(
    "body",
    [b'{"type": []}', b'{"type": {"a": 1}}', b'\xff\xfe{"type"', b"[" * 5000 + b"]" * 5000],
    ids=["list-type", "dict-type", "bad-utf8", "deep-nesting"],
)
def test_malformed_bodies_are_protocol_errors(body):
    with pytest.raises(ProtocolError):
        _read_all_sync(_frame(body))
    with pytest.raises(ProtocolError):
        _read_all_async(_frame(body))
