"""Exporters: Chrome/Perfetto trace-event JSON, flat metrics JSON.

The trace format is the Trace Event Format consumed by Perfetto and
``chrome://tracing``: a ``traceEvents`` list of complete (``ph="X"``),
instant (``ph="i"``) and metadata (``ph="M"``) events.  Runs map to
processes and tracks to threads, both numbered in deterministic
first-appearance order, and serialization uses sorted keys with fixed
separators — the determinism contract is that a same-seed run exports
byte-identical JSON.

Timestamps: trace-event ``ts``/``dur`` are microseconds.  Sim time is
seconds, so spans are scaled by 1e6 and rounded to 3 decimals (ns
resolution), which keeps float repr stable.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator, TextIO

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Telemetry

_US = 1e6


def _ts(seconds: float) -> float:
    return round(seconds * _US, 3)


def chrome_trace(telemetry: Telemetry) -> dict[str, Any]:
    """Build a Trace-Event-Format dict from a recording hub."""
    events: list[dict[str, Any]] = []
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}

    def pid_for(run: str) -> int:
        pid = pids.get(run)
        if pid is None:
            pid = pids[run] = len(pids) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": run},
                }
            )
        return pid

    def tid_for(run: str, track: str) -> tuple[int, int]:
        pid = pid_for(run)
        tid = tids.get((run, track))
        if tid is None:
            tid = tids[(run, track)] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track or "main"},
                }
            )
        return pid, tid

    for span_id, parent_id, key, start, end, tags, track, run in telemetry.spans.rows():
        pid, tid = tid_for(run, track)
        args: dict[str, Any] = dict(tags)
        args["span_id"] = span_id
        if parent_id is not None:
            args["parent_id"] = parent_id
        events.append(
            {
                "ph": "X",
                "name": key,
                "cat": "span",
                "pid": pid,
                "tid": tid,
                "ts": _ts(start),
                "dur": _ts(end - start),
                "args": args,
            }
        )
    for _event_id, key, time, value, tags, track, run in telemetry.events.rows():
        pid, tid = tid_for(run, track)
        args = dict(tags)
        if value is not None:
            args["value"] = value
        events.append(
            {
                "ph": "i",
                "name": key,
                "cat": "event",
                "s": "t",
                "pid": pid,
                "tid": tid,
                "ts": _ts(time),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dump_chrome_trace(telemetry: Telemetry) -> str:
    """Serialize deterministically (sorted keys, fixed separators)."""
    return json.dumps(chrome_trace(telemetry), sort_keys=True, separators=(",", ":"))


def write_chrome_trace(telemetry: Telemetry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_chrome_trace(telemetry))
        handle.write("\n")


def dump_metrics_json(metrics: MetricsRegistry) -> str:
    """Flat metrics snapshot as stable, human-diffable JSON."""
    return json.dumps(metrics.snapshot(), sort_keys=True, indent=2)


def write_metrics_json(metrics: MetricsRegistry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_metrics_json(metrics))
        handle.write("\n")


# -- streaming reader --------------------------------------------------------

class _TraceStream:
    """Incremental JSON reader for trace-event files.

    Keeps a bounded text window over ``handle`` and decodes one JSON
    value at a time with :meth:`json.JSONDecoder.raw_decode`, refilling
    the window when a value is cut off at a chunk boundary — a
    multi-GB ``--trace`` export never has to fit in memory.
    """

    def __init__(self, handle: TextIO, chunk_size: int) -> None:
        self._handle = handle
        self._chunk = chunk_size
        self._buf = ""
        self._pos = 0
        self._decoder = json.JSONDecoder()

    def _fill(self) -> bool:
        """Pull one more chunk; drop the consumed prefix.  False at EOF."""
        data = self._handle.read(self._chunk)
        if not data:
            return False
        if self._pos:
            self._buf = self._buf[self._pos :]
            self._pos = 0
        self._buf += data
        return True

    def take(self) -> str:
        """Consume and return the next non-whitespace character."""
        while True:
            buf, pos = self._buf, self._pos
            while pos < len(buf):
                ch = buf[pos]
                pos += 1
                if ch not in " \t\n\r":
                    self._pos = pos
                    return ch
            self._pos = pos
            if not self._fill():
                raise ValueError("truncated trace file")

    def value(self) -> Any:
        """Decode the next JSON value, skipping leading whitespace."""
        # raw_decode rejects leading whitespace; take()+pushback eats it
        # (refilling across chunk edges) and lands on the first token.
        self.take()
        self._pos -= 1
        while True:
            try:
                obj, end = self._decoder.raw_decode(self._buf, self._pos)
            except json.JSONDecodeError:
                if not self._fill():
                    raise
                continue
            # A value flush against the window edge may continue in the
            # next chunk (e.g. the number 12|34 split across reads).
            if end == len(self._buf) and self._fill():
                continue
            self._pos = end
            return obj


def iter_trace_events(
    handle: TextIO, *, chunk_size: int = 1 << 16
) -> Iterator[dict[str, Any]]:
    """Yield ``traceEvents`` entries from an open trace file one at a
    time, without loading the file into memory.

    Parses the top-level object incrementally: other keys are decoded
    and discarded; once the ``traceEvents`` array has been streamed the
    rest of the file is ignored.  Raises :class:`ValueError` (or its
    subclass :class:`json.JSONDecodeError`) for files that are not
    trace-event JSON.
    """
    stream = _TraceStream(handle, chunk_size)
    if stream.take() != "{":
        raise ValueError("not a trace-event JSON object")
    ch = stream.take()
    if ch == "}":
        raise ValueError("no traceEvents array")
    first = True
    while True:
        if not first:
            if ch == "}":
                raise ValueError("no traceEvents array")
            if ch != ",":
                raise ValueError("malformed trace object")
            ch = stream.take()
        first = False
        if ch != '"':
            raise ValueError("malformed trace object")
        stream._pos -= 1  # re-include the quote
        key = stream.value()
        if stream.take() != ":":
            raise ValueError("malformed trace object")
        if key == "traceEvents":
            if stream.take() != "[":
                raise ValueError("traceEvents is not an array")
            ch = stream.take()
            if ch == "]":
                return
            stream._pos -= 1  # ch starts the first element
            while True:
                yield stream.value()
                ch = stream.take()
                if ch == "]":
                    return
                if ch != ",":
                    raise ValueError("malformed traceEvents array")
                ch = stream.take()
                stream._pos -= 1  # ch starts the next element
        stream.value()  # skip this key's value
        ch = stream.take()


# -- summaries ---------------------------------------------------------------

def summarize_trace(trace: dict[str, Any], stream: TextIO) -> None:
    """Render a human summary of an in-memory trace-event dict.

    Thin wrapper over :func:`summarize_trace_events`; the CLI streams
    from disk instead via :func:`iter_trace_events`.
    """
    summarize_trace_events(trace.get("traceEvents", []), stream)


def summarize_trace_events(
    events: Iterable[dict[str, Any]], stream: TextIO
) -> None:
    """Render a human summary of a trace-event stream onto ``stream``.

    Groups complete spans by name with count / total / max duration,
    lists processes (runs) with their wall span, and counts instants.
    Single pass, bounded state — safe for arbitrarily large traces.
    Used by ``repro trace summarize``.
    """
    count = 0
    process_names: dict[int, str] = {}
    bounds: dict[int, tuple[float, float]] = {}
    # Per span name: (count, total_dur, max_dur) — O(names), not O(spans).
    span_agg: dict[str, tuple[int, float, float]] = {}
    instants: dict[str, int] = {}
    for ev in events:
        count += 1
        ph = ev.get("ph")
        if ph == "M" and ev.get("name") == "process_name":
            process_names[ev["pid"]] = ev.get("args", {}).get("name", "?")
        elif ph == "X":
            dur = ev.get("dur", 0.0)
            n, total, peak = span_agg.get(ev["name"], (0, 0.0, 0.0))
            span_agg[ev["name"]] = (n + 1, total + dur, max(peak, dur))
            ts = ev.get("ts", 0.0)
            lo, hi = bounds.get(ev["pid"], (ts, ts + dur))
            bounds[ev["pid"]] = (min(lo, ts), max(hi, ts + dur))
        elif ph == "i":
            instants[ev["name"]] = instants.get(ev["name"], 0) + 1

    stream.write(f"{count} events, {len(process_names)} run(s)\n")
    for pid in sorted(process_names):
        lo, hi = bounds.get(pid, (0.0, 0.0))
        stream.write(
            f"  run {process_names[pid]}: {(hi - lo) / _US:.3f}s traced\n"
        )
    if span_agg:
        stream.write("\nspans:\n")
        header = f"  {'name':<14} {'count':>7} {'total_s':>10} {'max_s':>10}\n"
        stream.write(header)
        rows = sorted(
            span_agg.items(), key=lambda kv: (-kv[1][1], kv[0])
        )
        for name, (n, total, peak) in rows:
            stream.write(
                f"  {name:<14} {n:>7} {total / _US:>10.3f}"
                f" {peak / _US:>10.3f}\n"
            )
    if instants:
        stream.write("\ninstants:\n")
        for name in sorted(instants):
            stream.write(f"  {name:<22} {instants[name]:>5}\n")
