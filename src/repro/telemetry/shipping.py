"""Shipping worker telemetry to the master and merging it into one run.

The distributed half of the telemetry plane.  A TCP worker records into
its *own* :class:`~repro.telemetry.spans.Telemetry` hub on its *own*
clock; a :class:`TelemetryShipper` cuts incremental batches (new spans
and events since the last cut, plus metric *deltas*) which travel to the
master as the binary payload of a ``TELEMETRY`` frame.  The master
buffers batches with a :class:`TelemetryMerger` and folds them into the
run hub once at drain, producing a single trace with per-worker tracks
and one merged metrics registry.

Determinism rules, in order:

* **Clock alignment is estimated, never sampled.**  Worker clocks are
  aligned with a min-delay estimator over heartbeat ``(sent_at,
  recv_at)`` pairs (:class:`ClockAligner`) — the same pairs the liveness
  monitor already sees.  No wall-clock reads happen at merge time, and
  the chosen offset is recorded in the trace as a ``clock.offset``
  event, so a merged trace is always auditable.
* **Fold order is total.**  Batches fold in ``(worker_id, seq)`` order
  at end of run, so merged span ids and record order depend only on
  what was received, not on arrival interleaving.
* **Metric merge is conflict-free.**  Counters and histogram buckets
  add (G-counters — associative, order-independent); gauges are
  last-write-wins *in fold order*, which the total order above makes
  deterministic.  Histograms whose bucket boundaries disagree with the
  master's are dropped and counted, never silently rebucketed.

Telemetry is lossy-tolerant by design: a batch that fails its CRC is
dropped and counted (``telemetry.batches_dropped``), never
retransmitted — observability must not add retry pressure to the data
path it observes.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ProtocolError
from repro.telemetry.metrics import MetricsRegistry, NULL_METRICS
from repro.telemetry.spans import Telemetry

#: Format tag inside every encoded batch; bump on layout changes.
BATCH_VERSION = 1


def _tags_to_wire(tags: tuple[tuple[str, Any], ...]) -> list[list[Any]]:
    return [[k, v] for k, v in tags]


def _tags_from_wire(tags: list[list[Any]]) -> dict[str, Any]:
    return {str(k): v for k, v in tags}


class TelemetryShipper:
    """Cuts incremental, self-describing batches from a recording hub.

    Keeps a read cursor into the hub's span/event logs and the previous
    raw metrics state, so each :meth:`take_batch` returns only what is
    new since the last cut.  Batches carry a per-shipper ``seq`` the
    merger uses for total ordering and duplicate suppression.
    """

    def __init__(self, telemetry: Telemetry) -> None:
        if not telemetry.record:
            raise ValueError("TelemetryShipper needs a recording hub")
        self._tel = telemetry
        self._span_cursor = 0
        self._event_cursor = 0
        self._counter_base: dict[str, float] = {}
        self._hist_base: dict[str, tuple[list[int], int, float]] = {}
        self.seq = 0

    def _metric_deltas(self) -> tuple[dict, dict, dict]:
        registry = self._tel.metrics
        counters: dict[str, float] = {}
        for key, inst in registry._counters.items():
            delta = inst.value - self._counter_base.get(key, 0)
            if delta:
                counters[key] = delta
                self._counter_base[key] = inst.value
        gauges = {key: inst.value for key, inst in registry._gauges.items()}
        hists: dict[str, dict[str, Any]] = {}
        for key, h in registry._histograms.items():
            base_counts, base_count, base_sum = self._hist_base.get(
                key, ([0] * len(h.counts), 0, 0.0)
            )
            if h.count == base_count:
                continue
            hists[key] = {
                "buckets": list(h.buckets),
                "counts": [c - b for c, b in zip(h.counts, base_counts)],
                "count": h.count - base_count,
                "sum": h.sum - base_sum,
            }
            self._hist_base[key] = (list(h.counts), h.count, h.sum)
        return counters, gauges, hists

    def take_batch(self) -> dict[str, Any] | None:
        """Return everything recorded since the last cut, or ``None``."""
        tel = self._tel
        spans = list(tel.spans.rows(self._span_cursor))
        events = list(tel.events.rows(self._event_cursor))
        self._span_cursor += len(spans)
        self._event_cursor += len(events)
        counters, gauges, hists = self._metric_deltas()
        if not (spans or events or counters or gauges or hists):
            return None
        self.seq += 1
        return {
            "v": BATCH_VERSION,
            "seq": self.seq,
            "spans": [
                [span_id, parent_id, key, start, end, _tags_to_wire(tags), track]
                for span_id, parent_id, key, start, end, tags, track, _run in spans
            ],
            "events": [
                [key, time, value, _tags_to_wire(tags), track]
                for _event_id, key, time, value, tags, track, _run in events
            ],
            "counters": counters,
            "gauges": gauges,
            "hists": hists,
        }


def encode_batch(batch: dict[str, Any]) -> bytes:
    """Serialize a batch for the wire (canonical JSON, UTF-8)."""
    return json.dumps(batch, separators=(",", ":"), sort_keys=True).encode()


def decode_batch(payload: bytes) -> dict[str, Any]:
    """Parse and structurally validate an encoded batch."""
    try:
        batch = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable telemetry batch: {exc}") from exc
    if not isinstance(batch, dict) or batch.get("v") != BATCH_VERSION:
        raise ProtocolError(f"unsupported telemetry batch: {batch!r:.80}")
    for field in ("seq", "spans", "events", "counters", "gauges", "hists"):
        if field not in batch:
            raise ProtocolError(f"telemetry batch missing {field!r}")
    return batch


class ClockAligner:
    """Min-delay offset estimation from heartbeat send/receive pairs.

    A beat observed at master time ``recv`` that left the worker at
    worker time ``sent`` gives ``recv - sent = offset + network_delay``.
    Delay is nonnegative, so the minimum over all pairs is the tightest
    upper bound on the worker→master clock offset — the classic NTP-style
    one-way estimator, computed purely from values already on the wire.

    **Degraded edges.** The estimator is only meaningful with at least
    :data:`MIN_PAIRS` observations (a single pair cannot separate offset
    from delay) and a nonnegative minimum delta (a negative one means
    the pair itself is inconsistent — e.g. a worker clock stepped
    backwards mid-run — so "offset + nonnegative delay" no longer
    describes it).  Both cases degrade to offset 0.0 — timestamps pass
    through unshifted rather than shifted by a misleading estimate —
    and each degraded :meth:`offset` decision increments the
    ``telemetry.unaligned`` counter so merged traces are auditable.
    """

    #: Fewest heartbeat pairs before the min-delay estimate is trusted.
    MIN_PAIRS = 2

    def __init__(self, metrics: "MetricsRegistry | None" = None) -> None:
        self._best: dict[str, float] = {}
        self._pairs: dict[str, int] = {}
        self._m_unaligned = (
            metrics if metrics is not None else NULL_METRICS
        ).counter("telemetry.unaligned")

    def observe(self, worker_id: str, sent_at: float, recv_at: float) -> None:
        if sent_at < 0:
            return
        delta = recv_at - sent_at
        self._pairs[worker_id] = self._pairs.get(worker_id, 0) + 1
        best = self._best.get(worker_id)
        if best is None or delta < best:
            self._best[worker_id] = delta

    def offset(self, worker_id: str) -> float:
        """Seconds to add to a worker timestamp to place it on the
        master clock; 0.0 (counted as ``telemetry.unaligned``) when the
        estimate is untrustworthy — fewer than :data:`MIN_PAIRS` pairs
        observed, or a negative minimum delta.  This is the decision
        point: call it once per worker per merge, as the fold does.
        """
        best = self._best.get(worker_id)
        if (
            best is None
            or self._pairs.get(worker_id, 0) < self.MIN_PAIRS
            or best < 0
        ):
            self._m_unaligned.inc()
            return 0.0
        return best

    def pairs(self, worker_id: str) -> int:
        """How many usable heartbeat pairs were observed for a worker."""
        return self._pairs.get(worker_id, 0)

    def known(self) -> dict[str, float]:
        return dict(self._best)


class TelemetryMerger:
    """Buffers worker batches and folds them into the master hub.

    ``add_batch`` is cheap and arrival-order-agnostic (batches are keyed
    by ``(worker_id, seq)``; duplicates are ignored).  :meth:`fold` runs
    once at drain: per worker in sorted order it fixes the clock offset,
    records it as a ``clock.offset`` event, remaps worker-local span ids
    onto fresh master ids (preserving parent links), shifts all
    timestamps by the offset, and merges metric deltas conflict-free.
    """

    def __init__(self, telemetry: Telemetry) -> None:
        if not telemetry.record:
            raise ValueError("TelemetryMerger needs a recording hub")
        self._tel = telemetry
        self._batches: dict[str, dict[int, dict[str, Any]]] = {}
        self.aligner = ClockAligner(metrics=telemetry.metrics)
        self.batches_received = 0
        self.merge_conflicts = 0

    def add_batch(self, worker_id: str, batch: dict[str, Any]) -> None:
        per_worker = self._batches.setdefault(worker_id, {})
        if int(batch["seq"]) not in per_worker:
            per_worker[int(batch["seq"])] = batch
            self.batches_received += 1

    def observe_clock(self, worker_id: str, sent_at: float, recv_at: float) -> None:
        self.aligner.observe(worker_id, sent_at, recv_at)

    def _merge_metrics(self, batch: dict[str, Any]) -> None:
        registry = self._tel.metrics
        for key in sorted(batch["counters"]):
            delta = batch["counters"][key]
            if delta > 0:
                registry.counter(key).inc(delta)
        for key in sorted(batch["gauges"]):
            registry.gauge(key).set(batch["gauges"][key])
        for key in sorted(batch["hists"]):
            spec = batch["hists"][key]
            try:
                hist = registry.histogram(key, buckets=tuple(spec["buckets"]))
                hist.absorb(spec["counts"], int(spec["count"]), float(spec["sum"]))
            except ValueError:
                self.merge_conflicts += 1
                registry.counter("telemetry.merge_conflicts").inc()

    def fold(self) -> dict[str, float]:
        """Fold every buffered batch into the master hub.

        Returns the per-worker clock offsets that were applied.  Call
        exactly once, after the last batch has been received.
        """
        tel = self._tel
        offsets: dict[str, float] = {}
        for worker_id in sorted(self._batches):
            offset = self.aligner.offset(worker_id)
            offsets[worker_id] = offset
            batches = [
                self._batches[worker_id][seq]
                for seq in sorted(self._batches[worker_id])
            ]
            # Pass 1: allocate a fresh master id for every shipped span,
            # in emission order, so parent links survive remapping even
            # when a child shipped before its (still-open) parent.
            id_map: dict[int, int] = {}
            for batch in batches:
                for row in batch["spans"]:
                    id_map.setdefault(int(row[0]), next(tel._ids))
            # Worker time 0 mapped onto the master clock — the alignment
            # applied to every record below, recorded so merged traces
            # are auditable.
            tel.event(
                "clock.offset",
                offset,
                time=offset,
                track=f"worker:{worker_id}",
                worker=worker_id,
            )
            for batch in batches:
                for span_id, parent_id, key, start, end, tags, track in batch["spans"]:
                    tel.spans.add_span(
                        id_map[int(span_id)],
                        id_map.get(parent_id) if parent_id is not None else None,
                        key,
                        float(start) + offset,
                        float(end) + offset,
                        _tags_from_wire(tags),
                        track,
                        tel.run,
                    )
                for key, time, value, tags, track in batch["events"]:
                    tel.event(
                        key,
                        value,
                        time=float(time) + offset,
                        track=track,
                        **_tags_from_wire(tags),
                    )
                self._merge_metrics(batch)
        self._batches.clear()
        return offsets
