"""Unified telemetry for both execution planes.

One hub (:class:`Telemetry`) carries three kinds of signal:

* **spans** — [start, end] slices with explicit parent/child links,
  forming the task-lifecycle trace tree (``spans``),
* **events** — instant points (VM boots, failures, rate changes),
* **metrics** — counters/gauges/fixed-bucket histograms aggregated in
  a :class:`MetricsRegistry` (``metrics``).

The simulated engine binds the hub to the virtual clock; the threaded
runtime binds a wall clock.  A recording hub's span log is the one
record of a run: the simulated engine reads its Figure 6/7 transfer
and execution unions from it, and ``--trace`` exports it as the
Perfetto tree.  When nothing is listening, use :data:`NULL_TELEMETRY`
— every call is a no-op and hot paths stay untouched.
"""

from repro.telemetry.export import (
    chrome_trace,
    dump_chrome_trace,
    dump_metrics_json,
    summarize_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
)
from repro.telemetry.shipping import (
    ClockAligner,
    TelemetryMerger,
    TelemetryShipper,
    decode_batch,
    encode_batch,
)
from repro.telemetry.slo import SloBreach, SloEvaluator, SloProbe
from repro.telemetry.spans import (
    EventRecord,
    NULL_TELEMETRY,
    NullTelemetry,
    SpanHandle,
    SpanRecord,
    Telemetry,
)

__all__ = [
    "ClockAligner",
    "Counter",
    "DEFAULT_BUCKETS",
    "EventRecord",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "SloBreach",
    "SloEvaluator",
    "SloProbe",
    "SpanHandle",
    "SpanRecord",
    "Telemetry",
    "TelemetryMerger",
    "TelemetryShipper",
    "chrome_trace",
    "decode_batch",
    "dump_chrome_trace",
    "dump_metrics_json",
    "encode_batch",
    "summarize_trace",
    "write_chrome_trace",
    "write_metrics_json",
]
