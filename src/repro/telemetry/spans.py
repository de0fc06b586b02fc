"""Span tracing over a pluggable clock.

A *span* is a named [start, end] slice of a run with tags and an
explicit parent, so a task's dispatch → fetch → transfer → execute →
report chain forms one tree in the exported trace.  An *event* is an
instant point (a sample, a state transition).

Design constraints, in order:

* **Determinism.**  Span ids come from a per-hub counter, timestamps
  from the bound clock (the sim clock on the simulated plane), and
  records are kept in emission order — same seed, same bytes out.
* **Explicit parents.**  Simulation processes interleave arbitrarily,
  so an ambient "current span" stack would cross-wire parents between
  concurrent generators.  Parents are passed by handle instead.
* **Zero cost when disabled.**  :data:`NULL_TELEMETRY` no-ops every
  method, and a hub only retains records when ``record=True``.  The
  span log is the one record of a run: the simulated engine derives
  its Figure 6 decomposition from its own slice of it.

The hub is plane-agnostic: the simulated engine binds ``env.now``, the
threaded runtime binds a wall clock.  Emission (`span_complete`,
`event`, `end_span`) is safe from worker threads: ids come from an
atomic counter, and each log writes a row's columns under its own lock,
so a thread switch between two column appends cannot interleave rows.
Aggregate metrics are not thread-safe; the threaded runtime increments
those under its scheduler lock.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.telemetry.metrics import MetricsRegistry, NULL_METRICS


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, immutable once emitted."""

    span_id: int
    parent_id: int | None
    key: str
    start: float
    end: float
    tags: tuple[tuple[str, Any], ...]
    track: str
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class EventRecord:
    """One instant event."""

    event_id: int
    key: str
    time: float
    value: Any
    tags: tuple[tuple[str, Any], ...]
    track: str
    run: str


#: The parent column's stand-in for ``None``; an id column holds any
#: other int64.
_NO_PARENT = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class RecordLog:
    """Columnar append log of span or event records.

    One row per record, stored as columns in blocks of ``SLAB`` rows:
    ids and parents in ``array('q')`` (``None`` as :data:`_NO_PARENT`),
    times in ``array('d')``, key/track/run as indices into one interned
    string table, and tags as an index into an interned table of sorted
    tag-name tuples with the values in one flat list per block (an
    event's value first).  A tag-name tuple is sorted once per call-site
    name order, not once per record.  A time that is not a ``float``,
    or an id that is not an int64, keeps its column slot as a stand-in
    and its own value in a per-row side table, so every value reads back
    with its own type.

    Reads present the log as an ordinary sequence of frozen records
    (``SpanRecord`` or ``EventRecord``, per ``factory``), equal to the
    list it replaces; :meth:`rows` yields the same fields as plain
    tuples without building a record.  Appends hold ``_lock`` for the
    whole row, so rows stay whole when threads emit into one log.
    """

    __slots__ = (
        "_span", "_factory", "_lock", "_blocks", "_len",
        "_strings", "_string_ids", "_shapes", "_shape_ids", "_odd",
    )

    #: Rows per block.  Blocks bound how much a column over-allocates
    #: and keep a tag value's offset within 32 bits.
    SLAB = 1024

    def __init__(self, factory: Callable[..., Any]) -> None:
        self._factory = factory
        self._span = factory is SpanRecord
        self._lock = threading.Lock()  # frieda: allow[transitive-real-io] -- a mutex, not I/O: keeps each row whole when threads emit
        self._blocks: list[tuple] = []
        self._len = 0
        self._strings: list[str] = []
        self._string_ids: dict[str, int] = {}
        #: Sorted tag-name tuples, and the index and sorted order (None
        #: when already sorted) of every tag-name tuple seen so far.
        self._shapes: list[tuple[str, ...]] = []
        self._shape_ids: dict[tuple[str, ...], tuple[int, tuple[str, ...] | None]] = {}
        #: Row index -> {field position: value} for values whose column
        #: slot holds a stand-in.
        self._odd: dict[int, dict[int, Any]] = {}

    # -- writing ------------------------------------------------------------

    def add_span(
        self,
        span_id: int,
        parent_id: int | None,
        key: str,
        start: float,
        end: float,
        tags: dict[str, Any],
        track: str,
        run: str,
    ) -> None:
        """Append one finished span; ``tags`` maps tag name to value."""
        with self._lock:
            n = self._len
            if n % self.SLAB == 0:
                self._open_block()
            ids, parents, starts, ends, keys, tracks, runs, shapes, heads, values = self._blocks[-1]
            if not (
                type(start) is float is type(end)
                and type(span_id) is int
                and _NO_PARENT < span_id <= _INT64_MAX
                and (
                    parent_id is None
                    or (type(parent_id) is int and _NO_PARENT < parent_id <= _INT64_MAX)
                )
            ):
                span_id, parent_id, start, end = self._stand_ins(
                    n, (0, span_id, "id"), (1, parent_id, "parent"),
                    (3, start, "time"), (4, end, "time"),
                )
            ids.append(span_id)
            parents.append(_NO_PARENT if parent_id is None else parent_id)
            starts.append(start)
            ends.append(end)
            sid = self._string_ids
            keys.append(sid[key] if key in sid else self._intern(key))
            tracks.append(sid[track] if track in sid else self._intern(track))
            runs.append(sid[run] if run in sid else self._intern(run))
            heads.append(len(values))
            self._add_tags(shapes, values, tags)
            self._len = n + 1

    def add_event(
        self,
        event_id: int,
        key: str,
        time: float,
        value: Any,
        tags: dict[str, Any],
        track: str,
        run: str,
    ) -> None:
        """Append one instant event; ``tags`` maps tag name to value."""
        with self._lock:
            n = self._len
            if n % self.SLAB == 0:
                self._open_block()
            ids, times, keys, tracks, runs, shapes, heads, values = self._blocks[-1]
            if not (
                type(time) is float
                and type(event_id) is int
                and _NO_PARENT < event_id <= _INT64_MAX
            ):
                event_id, time = self._stand_ins(n, (0, event_id, "id"), (2, time, "time"))
            ids.append(event_id)
            times.append(time)
            sid = self._string_ids
            keys.append(sid[key] if key in sid else self._intern(key))
            tracks.append(sid[track] if track in sid else self._intern(track))
            runs.append(sid[run] if run in sid else self._intern(run))
            heads.append(len(values))
            values.append(value)
            self._add_tags(shapes, values, tags)
            self._len = n + 1

    def _open_block(self) -> None:
        if self._span:
            cols = (
                array("q"), array("q"), array("d"), array("d"),
                array("I"), array("I"), array("I"), array("I"), array("I"), [],
            )
        else:
            cols = (
                array("q"), array("d"),
                array("I"), array("I"), array("I"), array("I"), array("I"), [],
            )
        self._blocks.append(cols)

    def _intern(self, text: str) -> int:
        """Add a string not yet in the table; return its index."""
        index = self._string_ids[text] = len(self._strings)
        self._strings.append(text)
        return index

    def _add_tags(self, shapes: array, values: list, tags: dict[str, Any]) -> None:
        names = tuple(tags)
        shape = self._shape_ids.get(names)
        if shape is None:
            shape = self._new_shape(names)
        index, order = shape
        shapes.append(index)
        values.extend(tags.values() if order is None else [tags[name] for name in order])

    def _new_shape(self, names: tuple[str, ...]) -> tuple[int, tuple[str, ...] | None]:
        order = tuple(sorted(names))
        known = self._shape_ids.get(order)
        if known is None:
            known = self._shape_ids[order] = (len(self._shapes), None)
            self._shapes.append(order)
        self._shape_ids[names] = shape = (known[0], None if order == names else order)
        return shape

    def _stand_ins(self, n: int, *fields: tuple[int, Any, str]) -> list:
        """Column values for row ``n``.  A value the column would not
        return as given (an int or bool time, an id beyond int64) gets a
        stand-in and is kept for reads under its field position; ``kind``
        is ``"time"``, ``"id"`` or ``"parent"`` (an id that may be None)."""
        out = []
        kept = {}
        for position, value, kind in fields:
            if kind == "time":
                if type(value) is not float:
                    kept[position] = value
                    try:
                        value = float(value)
                    except (TypeError, ValueError):
                        value = float("nan")
            elif not (
                (value is None and kind == "parent")
                or (type(value) is int and _NO_PARENT < value <= _INT64_MAX)
            ):
                kept[position] = value
                value = 0
            out.append(value)
        if kept:
            self._odd[n] = kept
        return out

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def _slices(self, start: int, stop: int) -> Iterator[tuple[tuple, int, int, int]]:
        """``(block columns, first slot, end slot, row index of slot 0)``
        covering rows ``[start, stop)``."""
        slab = self.SLAB
        for block in range(start // slab, -(-stop // slab)):
            base = block * slab
            yield self._blocks[block], max(start - base, 0), min(stop - base, slab), base

    def _rows(self, start: int, stop: int) -> Iterator[tuple]:
        strings = self._strings
        shape_names = self._shapes
        odd = self._odd
        for cols, lo, hi, base in self._slices(start, stop):
            if self._span:
                ids, parents, starts, ends, keys, tracks, runs, shapes, heads, values = cols
                for slot in range(lo, hi):
                    names = shape_names[shapes[slot]]
                    head = heads[slot]
                    parent = parents[slot]
                    row = (
                        ids[slot],
                        None if parent == _NO_PARENT else parent,
                        strings[keys[slot]],
                        starts[slot],
                        ends[slot],
                        tuple(zip(names, values[head : head + len(names)])),
                        strings[tracks[slot]],
                        strings[runs[slot]],
                    )
                    if odd and base + slot in odd:
                        row = _patched(row, odd[base + slot])
                    yield row
            else:
                ids, times, keys, tracks, runs, shapes, heads, values = cols
                for slot in range(lo, hi):
                    names = shape_names[shapes[slot]]
                    head = heads[slot] + 1
                    row = (
                        ids[slot],
                        strings[keys[slot]],
                        times[slot],
                        values[head - 1],
                        tuple(zip(names, values[head : head + len(names)])),
                        strings[tracks[slot]],
                        strings[runs[slot]],
                    )
                    if odd and base + slot in odd:
                        row = _patched(row, odd[base + slot])
                    yield row

    def rows(self, start: int = 0) -> Iterator[tuple]:
        """Field tuples (record field order) of the rows from index
        ``start`` up to the length at the call, no record built."""
        return self._rows(start, self._len)

    def intervals(self, keys: tuple[str, ...], start: int = 0) -> dict[str, list[tuple[float, float]]]:
        """``(start, end)`` per span key in ``keys`` over the span rows
        from index ``start`` on, read from the key and time columns
        alone.  Times are the columns' floats: an int time reads as the
        equal float."""
        out: dict[str, list[tuple[float, float]]] = {key: [] for key in keys}
        wanted = {
            self._string_ids[key]: pairs
            for key, pairs in out.items()
            if key in self._string_ids
        }
        if wanted:
            for cols, lo, hi, _base in self._slices(start, self._len):
                _ids, _parents, starts, ends, names = cols[:5]
                for name, begin, end in zip(names[lo:hi], starts[lo:hi], ends[lo:hi]):
                    pairs = wanted.get(name)
                    if pairs is not None:
                        pairs.append((begin, end))
        return out

    def __getitem__(self, index):
        size = self._len
        factory = self._factory
        if isinstance(index, slice):
            start, stop, step = index.indices(size)
            if step == 1:
                return [factory(*row) for row in self._rows(start, max(start, stop))]
            return [factory(*next(self._rows(i, i + 1))) for i in range(start, stop, step)]
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("record log index out of range")
        return factory(*next(self._rows(index, index + 1)))

    def __iter__(self) -> Iterator[Any]:
        factory = self._factory
        for row in self._rows(0, self._len):
            yield factory(*row)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordLog):
            other = list(other)
        if isinstance(other, (list, tuple)):
            if len(self) != len(other):
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment] - mutable log

    def __repr__(self) -> str:
        return f"RecordLog({list(self)!r})"


def _patched(row: tuple, kept: dict[int, Any]) -> tuple:
    fields = list(row)
    for position, value in kept.items():
        fields[position] = value
    return tuple(fields)


class SpanHandle:
    """An open span; ``end()`` (or context-manager exit) closes it.

    Handles are what gets threaded through call chains as ``parent=``;
    ending twice is a no-op so error paths can close defensively.
    """

    __slots__ = ("_hub", "span_id", "parent_id", "key", "start", "track", "_tags", "_ended")

    def __init__(
        self,
        hub: "Telemetry",
        span_id: int,
        parent_id: int | None,
        key: str,
        start: float,
        track: str,
        tags: dict[str, Any],
    ) -> None:
        self._hub = hub
        self.span_id = span_id
        self.parent_id = parent_id
        self.key = key
        self.start = start
        self.track = track
        self._tags = tags
        self._ended = False

    def end(self, **extra_tags: Any) -> None:
        self._hub.end_span(self, **extra_tags)

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.end()


def _parent_id(parent: "SpanHandle | SpanRecord | int | None") -> int | None:
    if parent is None or isinstance(parent, int):
        return parent
    return parent.span_id


class Telemetry:
    """The hub: allocates spans and, with ``record=True``, logs them.

    ``clock`` is any zero-argument callable; :meth:`bind` rebinds it
    (plus the run label) when a hub is shared across several engine
    runs, e.g. one ``--trace`` file for a whole strategy sweep.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        *,
        record: bool = False,
        run: str = "run",
    ) -> None:
        self.clock: Callable[[], float] = clock if clock is not None else lambda: 0.0
        self.record = record
        self.run = run
        self.metrics = MetricsRegistry()
        self.spans: RecordLog = RecordLog(SpanRecord)
        self.events: RecordLog = RecordLog(EventRecord)
        self._ids = itertools.count(1)

    # -- wiring -------------------------------------------------------------

    def bind(
        self,
        *,
        clock: Callable[[], float] | None = None,
        run: str | None = None,
    ) -> None:
        """Attach this hub to a (new) run."""
        if clock is not None:
            self.clock = clock
        if run is not None:
            self.run = run

    # -- span API -----------------------------------------------------------

    def span(
        self,
        key: str,
        *,
        parent: SpanHandle | SpanRecord | int | None = None,
        track: str = "",
        start: float | None = None,
        **tags: Any,
    ) -> SpanHandle:
        """Open a span.  Usable as a context manager for non-yielding
        scopes; simulation processes hold the handle and call ``end()``
        explicitly because the scope crosses ``yield``\\ s."""
        return SpanHandle(
            self,
            next(self._ids),
            _parent_id(parent),
            key,
            self.clock() if start is None else start,
            track,
            tags,
        )

    # Alias that reads better at explicit start/end call sites.
    start_span = span

    def end_span(self, handle: SpanHandle, **extra_tags: Any) -> None:
        if handle._ended:
            return
        handle._ended = True
        if not self.record:
            return
        tags = handle._tags
        if extra_tags:
            tags = {**tags, **extra_tags}
        self.spans.add_span(
            handle.span_id,
            handle.parent_id,
            handle.key,
            handle.start,
            self.clock(),
            tags,
            handle.track,
            self.run,
        )

    def span_complete(
        self,
        key: str,
        start: float,
        end: float,
        *,
        parent: SpanHandle | SpanRecord | int | None = None,
        track: str = "",
        **tags: Any,
    ) -> int:
        """Record a span whose start/end the caller already measured
        (flow retirement, completed transfers).  Returns its span id,
        which ``parent=`` accepts."""
        span_id = next(self._ids)
        if self.record:
            self.spans.add_span(
                span_id, _parent_id(parent), key, start, end, tags, track, self.run
            )
        return span_id

    def event(
        self,
        key: str,
        value: Any = None,
        *,
        time: float | None = None,
        track: str = "",
        **tags: Any,
    ) -> None:
        """Record an instant event."""
        if self.record:
            self.events.add_event(
                next(self._ids),
                key,
                self.clock() if time is None else time,
                value,
                tags,
                track,
                self.run,
            )


class _NullSpanHandle(SpanHandle):
    """Inert handle returned by :class:`NullTelemetry`; shared, never ends."""

    def __init__(self) -> None:
        super().__init__(None, 0, None, "", 0.0, "", {})  # type: ignore[arg-type]

    def end(self, **extra_tags: Any) -> None:
        pass

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpanHandle()


class NullTelemetry(Telemetry):
    """A hub that discards everything — the zero-cost disabled path.

    Components default to this so instrumented code never branches on
    "is telemetry on"; every method is a cheap no-op and the metrics
    registry is :data:`~repro.telemetry.metrics.NULL_METRICS`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.metrics = NULL_METRICS

    def bind(self, **kwargs: Any) -> None:  # type: ignore[override]
        pass

    def span(self, key: str, **kwargs: Any) -> SpanHandle:  # type: ignore[override]
        return _NULL_SPAN

    start_span = span

    def end_span(self, handle: SpanHandle, **extra_tags: Any) -> None:
        pass

    def span_complete(self, key: str, start: float, end: float, **kw: Any):  # type: ignore[override]
        return None

    def event(self, key: str, value: Any = None, **kwargs: Any) -> None:
        pass


#: Shared inert hub, safe as a default argument anywhere.
NULL_TELEMETRY = NullTelemetry()
