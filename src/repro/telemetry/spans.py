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
`event`, `end_span`) is safe from worker threads — it only draws from
an atomic counter and appends to lists — but aggregate metrics are
not; the threaded runtime increments those under its scheduler lock.
"""

from __future__ import annotations

import itertools
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


class RecordLog:
    """Slab-backed append log of span/event records.

    Rows land in a preallocated fixed-size slab (a block of ``SLAB``
    slots filled left to right); a full slab is flushed wholesale onto
    the block list and a fresh one is preallocated.  Rows are plain
    field tuples — the frozen dataclass record is only materialized
    when someone *reads* the log (export, assertions), so the hot
    emission path never pays dataclass ``__init__`` for records nobody
    looks at until the run ends.  Reads present the log as an ordinary
    sequence of records, equal to the list it replaces.
    """

    __slots__ = ("_factory", "_blocks", "_slab", "_fill")

    #: Rows per slab.  Power of two, sized so a slab is a few KiB of
    #: pointers — big enough to amortize allocation, small enough that
    #: an idle hub wastes almost nothing.
    SLAB = 1024

    def __init__(self, factory: Callable[..., Any]) -> None:
        self._factory = factory
        self._blocks: list[list[Any]] = []
        self._slab: list[Any] = [None] * self.SLAB
        self._fill = 0

    def _append_fields(self, fields: tuple) -> None:
        slab = self._slab
        fill = self._fill
        slab[fill] = fields
        fill += 1
        if fill == self.SLAB:
            self._blocks.append(slab)
            self._slab = [None] * self.SLAB
            self._fill = 0
        else:
            self._fill = fill

    def __len__(self) -> int:
        return len(self._blocks) * self.SLAB + self._fill

    def rows(self, start: int = 0) -> Iterator[tuple]:
        """Raw field tuples from index ``start`` on, no record built."""
        first, skip = divmod(start, self.SLAB)
        blocks = [*self._blocks[first:], self._slab[: self._fill]]
        blocks[0] = blocks[0][skip:]
        return itertools.chain.from_iterable(blocks)

    def _row(self, index: int) -> tuple:
        block, slot = divmod(index, self.SLAB)
        if block < len(self._blocks):
            return self._blocks[block][slot]
        return self._slab[slot]

    def __getitem__(self, index):
        size = len(self)
        if isinstance(index, slice):
            factory = self._factory
            return [
                factory(*self._row(i)) for i in range(*index.indices(size))
            ]
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("record log index out of range")
        return self._factory(*self._row(index))

    def __iter__(self):
        factory = self._factory
        for block in self._blocks:
            for fields in block:
                yield factory(*fields)
        slab = self._slab
        for i in range(self._fill):
            yield factory(*slab[i])

    def __bool__(self) -> bool:
        return bool(self._blocks) or self._fill > 0

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
        tags = handle._tags
        if extra_tags:
            tags = {**tags, **extra_tags}
        self._emit_span(
            (
                handle.span_id,
                handle.parent_id,
                handle.key,
                handle.start,
                self.clock(),
                tuple(sorted(tags.items())),
                handle.track,
                self.run,
            )
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
    ) -> SpanRecord:
        """Record a span whose start/end the caller already measured
        (flow retirement, completed transfers)."""
        fields = (
            next(self._ids),
            _parent_id(parent),
            key,
            start,
            end,
            tuple(sorted(tags.items())),
            track,
            self.run,
        )
        self._emit_span(fields)
        return SpanRecord(*fields)

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
        fields = (
            next(self._ids),
            key,
            self.clock() if time is None else time,
            value,
            tuple(sorted(tags.items())),
            track,
            self.run,
        )
        if self.record:
            self.events._append_fields(fields)

    # -- internals ----------------------------------------------------------

    def _emit_span(self, fields: tuple) -> None:
        """Record one finished span, given its raw field tuple."""
        if self.record:
            self.spans._append_fields(fields)


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
