"""RecordLog slab mechanics: the list it replaces, byte for byte.

``Telemetry.spans``/``.events`` switched from plain lists to slab logs;
everything that used to index, slice, iterate, or compare those lists
still must.  The slab size is shrunk here so a handful of records
crosses multiple flush boundaries.
"""

from __future__ import annotations

import pytest

from repro.telemetry.spans import EventRecord, RecordLog, SpanRecord, Telemetry


class TinySlabLog(RecordLog):
    SLAB = 4


def _fields(i: int) -> tuple:
    return (i, None, f"k{i}", float(i), float(i) + 0.5, (), "t", "run")


def _log(n: int) -> TinySlabLog:
    log = TinySlabLog(SpanRecord)
    for i in range(n):
        log._append_fields(_fields(i))
    return log


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 8, 11])
def test_len_iter_match_list_semantics_across_flushes(n):
    log = _log(n)
    expected = [SpanRecord(*_fields(i)) for i in range(n)]
    assert len(log) == n
    assert list(log) == expected
    assert log == expected
    assert bool(log) == bool(expected)


def test_getitem_int_negative_and_slice():
    log = _log(11)
    expected = [SpanRecord(*_fields(i)) for i in range(11)]
    assert log[0] == expected[0]
    assert log[4] == expected[4]  # first row of second slab
    assert log[-1] == expected[-1]
    assert log[-11] == expected[0]
    assert log[2:9] == expected[2:9]
    assert log[::-1] == expected[::-1]
    assert log[::3] == expected[::3]
    with pytest.raises(IndexError):
        log[11]
    with pytest.raises(IndexError):
        log[-12]


def test_eq_against_log_tuple_and_mismatch():
    assert _log(6) == _log(6)
    assert _log(6) == tuple(SpanRecord(*_fields(i)) for i in range(6))
    assert _log(6) != _log(5)
    other = _log(6)
    other._slab[other._fill - 1] = _fields(99)
    assert _log(6) != other
    assert _log(0) == []


def test_records_materialize_lazily_and_fresh_each_read():
    log = _log(1)
    assert log[0] is not log[0]  # rows are tuples; dataclass built per read
    assert log[0] == next(iter(log))


def test_telemetry_hub_round_trip_through_slabs(monkeypatch):
    monkeypatch.setattr(RecordLog, "SLAB", 4)
    hub = Telemetry(record=True)
    for i in range(10):
        with hub.span(f"op{i}", track="w", run="r"):
            hub.event(f"ev{i}", track="w", run="r")
    assert len(hub.spans) == 10 and len(hub.events) == 10
    assert [s.key for s in hub.spans] == [f"op{i}" for i in range(10)]
    assert all(isinstance(e, EventRecord) for e in hub.events)
    # Spans closed in order, so ends are monotone within the log.
    assert [s.span_id for s in hub.spans] == sorted(s.span_id for s in hub.spans)


@pytest.mark.parametrize("n", [0, 3, 4, 5, 8, 11])
def test_rows_from_every_offset_are_the_raw_fields(n):
    log = _log(n)
    for start in range(n + 1):
        assert list(log.rows(start)) == [_fields(i) for i in range(start, n)]
