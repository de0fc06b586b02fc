"""Hostile bytes at the frame decoder.

``read_frame`` — the one decoder the TCP plane runs — may only ever
fail with ``ProtocolError`` (its ``ChecksumError`` subclass included)
or, at end of stream, ``asyncio.IncompleteReadError``: never a
``TypeError``/``KeyError`` from inside the codec, and never a silently
desynchronized stream (the same bytes decode the same however they
are split).
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
    file_data_message,
    telemetry_batch_message,
    write_frame,
)
from tests.runtime.framing import BufferWriter, read_frames

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)

ALLOWED = (ProtocolError, asyncio.IncompleteReadError)


def _read_all(*chunks: bytes) -> list:
    """Every frame ``read_frame`` decodes from the chunks up to EOF
    (corrupt payloads skipped, as a receiver that re-requests them
    would)."""
    return [f for f in read_frames(*chunks) if not isinstance(f, ChecksumError)]


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
    writer = BufferWriter()
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


def _assert_decoder_contained(blob: bytes) -> None:
    """Decoding ``blob`` whole and one byte at a time fails only with an
    allowed error, and both ways reach the same result."""
    results = []
    for chunks in ((blob,), [blob[i : i + 1] for i in range(len(blob))]):
        try:
            results.append(_read_all(*chunks))
        except ALLOWED as exc:
            results.append(type(exc))
    whole, piecewise = results
    assert whole == piecewise


@FUZZ
@given(st.binary(max_size=256))
def test_arbitrary_bytes_raise_only_protocol_errors(blob):
    _assert_decoder_contained(blob)


@FUZZ
@given(st.binary(max_size=64))
def test_arbitrary_json_body_raises_only_protocol_errors(body):
    _assert_decoder_contained(_frame(body))


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
    _assert_decoder_contained(_frame(body, payload) + trailing)


@FUZZ
@given(
    st.lists(st.integers(0, len(_valid_frames()) - 1), min_size=1, max_size=8),
    st.lists(st.integers(0, 10_000), max_size=12),
)
def test_any_chunking_decodes_the_same_frames(picks, cuts):
    frames = [_valid_frames()[i] for i in picks]
    stream = _stream(frames)
    bounds = sorted({c % (len(stream) + 1) for c in cuts} | {0, len(stream)})
    chunked = _read_all(*(stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])))
    assert chunked == _read_all(stream) == frames


@pytest.mark.parametrize(
    "payload_len", [-5, -1, "5", True, 5.0, None, [5], MAX_FRAME + 1]
)
def test_hostile_payload_len_is_a_protocol_error(payload_len):
    fields = json.loads(encode_message(file_data_message(1, "f", b"12345")))
    fields["payload_len"] = payload_len
    blob = _frame(json.dumps(fields).encode(), b"12345")
    with pytest.raises(ProtocolError, match="payload_len"):
        _read_all(blob)


@pytest.mark.parametrize(
    "body",
    [b'{"type": []}', b'{"type": {"a": 1}}', b'\xff\xfe{"type"', b"[" * 5000 + b"]" * 5000],
    ids=["list-type", "dict-type", "bad-utf8", "deep-nesting"],
)
def test_malformed_bodies_are_protocol_errors(body):
    with pytest.raises(ProtocolError):
        _read_all(_frame(body))
