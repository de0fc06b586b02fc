"""Hostile bytes at the journal decoder.

``decode_records`` and ``read_journal`` may raise only ``JournalError``,
and only for a bad header.  Everything after a valid header — random
bytes, a truncated tail, a CRC-valid frame whose JSON body is anything
at all — stops decoding as a ``JournalDamage`` at that record's offset,
leaving a clean prefix that decodes to the same records on its own.
"""

import json
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import JournalError
from repro.service.journal import (
    CANCEL,
    HEADER,
    LEASE,
    OPEN,
    SNAPSHOT,
    SUBMIT,
    decode_records,
    encode_record,
    read_journal,
)

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)

PAYLOADS = [
    {"k": OPEN, "t": 0.0, "epoch": 1, "workers": ["w0", "w1"]},
    {"k": SUBMIT, "t": 1.0, "spec": {"tenant": "a"}, "job": "1", "verdict": "admit"},
    {"k": SNAPSHOT, "t": 2.0, "epoch": 1, "state": {"v": 1}},
    {"k": LEASE, "t": 3.0, "worker": "w0", "job": "1", "task": 0, "attempt": 1},
    {"k": CANCEL, "t": 4.0, "job": "1", "cancelled": True},
]


def _frame(body: bytes) -> bytes:
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


def _records_bytes(payloads) -> list[bytes]:
    return [encode_record(p) for p in payloads]


JOURNAL = HEADER + b"".join(_records_bytes(PAYLOADS))

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def _assert_clean_stop(data: bytes):
    """The decoder's contract on a journal with a valid header."""
    records, damage, valid = decode_records(data)
    image = read_journal(data)
    assert len(HEADER) <= valid <= len(data)
    if damage is None:
        assert valid == len(data)
    else:
        assert damage.offset == valid
        assert damage.records_read == len(records)
    # The valid prefix decodes on its own to exactly the same records.
    assert decode_records(data[:valid]) == (records, None, valid)
    assert image.damage == damage and image.valid_bytes == valid
    return records, damage


@FUZZ
@given(st.binary(max_size=256))
def test_arbitrary_bytes_raise_only_a_header_error(blob):
    try:
        decode_records(blob)
    except JournalError:
        assert not blob.startswith(HEADER)
        with pytest.raises(JournalError):
            read_journal(blob)
        return
    _assert_clean_stop(blob)


@FUZZ
@given(st.integers(0, len(PAYLOADS)), st.binary(max_size=256))
def test_arbitrary_bytes_after_valid_records_stop_cleanly(keep, tail):
    prefix = HEADER + b"".join(_records_bytes(PAYLOADS[:keep]))
    records, _damage = _assert_clean_stop(prefix + tail)
    assert records[:keep] == PAYLOADS[:keep]


@FUZZ
@given(
    st.integers(0, len(PAYLOADS) - 1),
    st.sampled_from(["k", "t", "state", "epoch", "job", "x"]),
    st.one_of(json_values, st.just(KeyError)),
)
def test_crc_valid_mutated_fields_stop_cleanly(index, key, value):
    fields = dict(PAYLOADS[index])
    if value is KeyError:
        fields.pop(key, None)
    else:
        fields[key] = value
    frames = _records_bytes(PAYLOADS)
    frames[index] = _frame(json.dumps(fields).encode())
    records, damage = _assert_clean_stop(HEADER + b"".join(frames))
    assert records[:index] == PAYLOADS[:index]
    if damage is not None:
        assert damage.records_read == index


@FUZZ
@given(st.integers(0, len(PAYLOADS) - 1), st.one_of(json_values, st.binary(max_size=32)))
def test_crc_valid_arbitrary_bodies_stop_cleanly(index, body):
    if not isinstance(body, bytes):
        body = json.dumps(body).encode()
    frames = _records_bytes(PAYLOADS)
    frames[index] = _frame(body)
    records, _damage = _assert_clean_stop(HEADER + b"".join(frames))
    assert records[:index] == PAYLOADS[:index]


def test_truncation_at_every_offset_stops_cleanly():
    ends = [len(HEADER)]
    for frame in _records_bytes(PAYLOADS):
        ends.append(ends[-1] + len(frame))
    for cut in range(len(JOURNAL) + 1):
        data = JOURNAL[:cut]
        if cut < len(HEADER):
            with pytest.raises(JournalError):
                decode_records(data)
            continue
        records, damage = _assert_clean_stop(data)
        whole = sum(1 for end in ends[1:] if end <= cut)
        assert records == PAYLOADS[:whole]
        assert (damage is None) == (cut in ends)


@pytest.mark.parametrize(
    "body, reason",
    [
        (b"[" * 100_000 + b"]" * 100_000, "unparsable body"),
        (json.dumps({"k": SNAPSHOT, "t": 5.0, "epoch": 2}).encode(), "snapshot without state"),
        (json.dumps({"k": SNAPSHOT, "t": 5.0, "state": [1]}).encode(), "snapshot without state"),
    ],
    ids=["deep-nesting", "snapshot-no-state", "snapshot-list-state"],
)
def test_known_escapes_stop_at_their_record(body, reason):
    prefix = HEADER + b"".join(_records_bytes(PAYLOADS[:2]))
    data = prefix + _frame(body) + encode_record(PAYLOADS[3])
    records, damage = _assert_clean_stop(data)
    assert records == PAYLOADS[:2]
    assert (damage.offset, damage.reason) == (len(prefix), reason)
    image = read_journal(data)
    assert image.snapshot is None and image.records == PAYLOADS[:2]
