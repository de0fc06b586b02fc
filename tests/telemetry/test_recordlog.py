"""RecordLog's storage contract: the list of records it replaces.

``Telemetry.spans``/``.events`` store rows as columns (ids, parents and
times in arrays, names interned, tag values in one flat list per
block); everything that used to index, slice, iterate, or compare the
plain lists of records still must, and every value must read back with
its own type.  The block size is shrunk here so a handful of records
crosses several block boundaries.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.telemetry.spans import EventRecord, RecordLog, SpanRecord, Telemetry


class TinySlabLog(RecordLog):
    SLAB = 4


#: Tag values of several types, cycled over the rows.
_VALUES = [7, 2.5, "w3", True, None, (1, 2), -1, 10**30]


def _tags(i: int) -> dict:
    """Call-site order, not sorted; the tag set varies with the row."""
    tags = {"worker": f"w{i % 3}", "task": _VALUES[i % len(_VALUES)]}
    if i % 2:
        tags["attempt"] = i
    if i % 5 == 4:
        tags = {}
    return tags


def _fields(i: int) -> tuple:
    """A span row: int times on odd rows, a None parent every third."""
    start = i if i % 2 else float(i)
    end = start + (1 if i % 2 else 0.5)
    parent = None if i % 3 == 0 else i - 1
    return (
        i + 1, parent, f"k{i % 3}", start, end,
        tuple(sorted(_tags(i).items())), f"worker:w{i % 3}", "run",
    )


def _event_fields(i: int) -> tuple:
    time = i if i % 2 else i + 0.25
    value = _VALUES[(i + 3) % len(_VALUES)]
    return (
        i + 1, f"ev{i % 2}", time, value,
        tuple(sorted(_tags(i).items())), "control", f"run{i // 6}",
    )


def _log(n: int, fields=_fields) -> TinySlabLog:
    log = TinySlabLog(SpanRecord)
    for i in range(n):
        span_id, parent, key, start, end, _sorted, track, run = fields(i)
        log.add_span(span_id, parent, key, start, end, _tags(i), track, run)
    return log


def _event_log(n: int) -> TinySlabLog:
    log = TinySlabLog(EventRecord)
    for i in range(n):
        event_id, key, time, value, _sorted, track, run = _event_fields(i)
        log.add_event(event_id, key, time, value, _tags(i), track, run)
    return log


def _typed(records) -> list:
    """Records with each field's type, so 0 != 0.0 and 1 != True."""
    return [
        tuple((type(v), v) for v in (*record.__dict__.values(),))
        for record in records
    ]


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 8, 11])
def test_len_iter_match_list_semantics_across_flushes(n):
    log = _log(n)
    expected = [SpanRecord(*_fields(i)) for i in range(n)]
    assert len(log) == n
    assert list(log) == expected
    assert _typed(log) == _typed(expected)
    assert log == expected
    assert bool(log) == bool(expected)


def test_getitem_int_negative_and_slice():
    log = _log(11)
    expected = [SpanRecord(*_fields(i)) for i in range(11)]
    assert log[0] == expected[0]
    assert log[4] == expected[4]  # first row of second block
    assert log[-1] == expected[-1]
    assert log[-11] == expected[0]
    assert log[2:9] == expected[2:9]
    assert log[3:100] == expected[3:100]
    assert log[9:2] == expected[9:2] == []
    assert log[-5:-1] == expected[-5:-1]
    assert log[::-1] == expected[::-1]
    assert log[::3] == expected[::3]
    assert _typed(log[1:6]) == _typed(expected[1:6])
    with pytest.raises(IndexError):
        log[11]
    with pytest.raises(IndexError):
        log[-12]


def test_eq_against_log_tuple_and_mismatch():
    assert _log(6) == _log(6)
    assert _log(6) == tuple(SpanRecord(*_fields(i)) for i in range(6))
    assert _log(6) != _log(5)
    changed = _log(6, lambda i: _fields(99) if i == 5 else _fields(i))
    assert _log(6) != changed
    assert _log(0) == []


def test_records_materialize_lazily_and_fresh_each_read():
    log = _log(1)
    assert log[0] is not log[0]  # rows are columns; a record is built per read
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
        rows = list(log.rows(start))
        assert rows == [_fields(i) for i in range(start, n)]
        assert [[type(v) for v in row] for row in rows] == [
            [type(v) for v in _fields(i)] for i in range(start, n)
        ]


@pytest.mark.parametrize("n", [0, 1, 4, 7, 13])
def test_event_log_matches_plain_list(n):
    log = _event_log(n)
    expected = [EventRecord(*_event_fields(i)) for i in range(n)]
    assert len(log) == n and bool(log) == bool(expected)
    assert log == expected
    assert _typed(log) == _typed(expected)
    assert _typed(log[::-1]) == _typed(expected[::-1])
    for start in range(n + 1):
        assert list(log.rows(start)) == [_event_fields(i) for i in range(start, n)]


def test_values_that_a_column_cannot_hold_read_back_as_given():
    log = TinySlabLog(SpanRecord)
    odd = [
        (1, 0, "a", 0, 1, {}, "t", "r"),  # parent 0, int times
        (True, False, "b", 0.0, True, {}, "t", "r"),  # bools
        (2**70, -(2**63), "c", 1.5, 2.5, {}, "t", "r"),  # beyond int64
        (3, None, "d", float("inf"), -0.0, {"x": None}, "", ""),
    ]
    for fields in odd:
        log.add_span(*fields)
    for record, fields in zip(log, odd):
        span_id, parent, key, start, end, tags, track, run = fields
        got = (record.span_id, record.parent_id, record.start, record.end)
        assert [(type(v), v) for v in got] == [
            (type(v), v) for v in (span_id, parent, start, end)
        ]
    assert str(log[3].end) == "-0.0"
    assert log[3].tags == (("x", None),)


def test_tag_order_is_sorted_whatever_the_call_site_order():
    log = TinySlabLog(SpanRecord)
    log.add_span(1, None, "k", 0.0, 1.0, {"b": 1, "a": 2, "c": 3}, "t", "r")
    log.add_span(2, None, "k", 0.0, 1.0, {"c": 3, "a": 2, "b": 1}, "t", "r")
    log.add_span(3, None, "k", 0.0, 1.0, {"a": 2, "b": 1, "c": 3}, "t", "r")
    assert {record.tags for record in log} == {(("a", 2), ("b", 1), ("c", 3))}


def test_intervals_read_back_each_keys_start_and_end():
    log = _log(11)
    for start in (0, 3, 4, 10, 11):
        wanted = ("k0", "k2", "missing")
        expected = {key: [] for key in wanted}
        for row in log.rows(start):
            if row[2] in expected:
                expected[row[2]].append((float(row[3]), float(row[4])))
        assert log.intervals(wanted, start) == expected


def test_threads_emitting_into_one_hub_keep_rows_whole():
    """Rows are written column by column; a thread switch inside one
    row must not interleave another thread's row into it."""
    threads_n, calls = 4, 50_000
    hub = Telemetry(record=True)

    def emit(t: int) -> None:
        track = f"worker:{t}"
        for i in range(calls):
            if i % 2:
                hub.span_complete("op", 0.0, 1.0, track=track, thread=t, i=i)
            else:
                hub.span("op", track=track, thread=t).end(i=i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=emit, args=(t,)) for t in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    rows = list(hub.spans.rows())
    assert len(rows) == threads_n * calls
    assert len({row[0] for row in rows}) == len(rows)
    torn = [row for row in rows if row[6] != f"worker:{dict(row[5])['thread']}"]
    assert not torn, torn[:3]
