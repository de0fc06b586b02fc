"""The ledger's metric catalogue: names, units, directions, bounds.

``BENCHMARK.json`` at the repo root lists exactly these (the self-test
compares the two), and every run emits exactly these — a per-layer
metric that a workload does not exercise reads 0, which is itself the
"predicted no change" half of the interaction table in the README.
"""

from __future__ import annotations

from .tracing import BUCKETS, LAYERS

#: (name, unit, better, bound): what a user of the system sees.  The
#: bound is the share of the parent's median a metric may worsen by.
END_TO_END = (
    ("tasks_per_s", "tasks/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
)

#: Entry-point spans reported as ``<name>.calls`` and/or ``<name>.cum_s``.
SPAN_CALLS = (
    "cloud.maxmin.solve", "cloud.network.start_flow",
    "core.scheduler.next_for", "core.scheduler.peek_pending",
    "service.core.lease", "service.journalfs.append", "service.journal.compact",
    "core.messages.encode", "core.messages.decode",
    "runtime.protocol.write_frame",
)
SPAN_CUM = (
    "cloud.maxmin.solve", "service.core.lease", "service.core.submit",
    "service.core.complete", "service.journalfs.append",
    "service.journal.compact",
)

_OTHER = (
    ("telemetry.spans.recorded", "count", "lower"),
    ("telemetry.events.recorded", "count", "lower"),
    ("sim.spans_per_task", "1/task", "lower"),
    ("sim.kernel.accelerated", "bool", "higher"),
    ("sim.pure_kernel_tasks_per_s", "tasks/s", "higher"),
    ("sim.scale_eff_1k", "ratio", "lower"),
    ("service.core.lease.useful_frac", "fraction", "higher"),
    ("service.journal.records", "count", "lower"),
    ("service.journal.bytes", "bytes", "lower"),
    ("service.core.recover.records_replayed", "count", "lower"),
    ("service.core.recover.records_per_s", "1/s", "higher"),
    ("service.core.recover.median_s", "s", "lower"),
    ("runtime.bytes_sent", "bytes", "lower"),
    ("runtime.transfer_s", "s", "lower"),
    ("runtime.payload_mb_per_s", "MB/s", "higher"),
    ("runtime.task_ms_p50", "ms", "lower"),
    ("runtime.task_ms_p99", "ms", "lower"),
    ("runtime.tcp.retransmits", "count", "lower"),
    ("trace.unattributed_frac", "fraction", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out: list[tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    out.extend((f"{bucket}.self_s", "s", "lower") for bucket in BUCKETS)
    out.extend((f"{span}.calls", "count", "lower") for span in SPAN_CALLS)
    out.extend((f"{span}.cum_s", "s", "lower") for span in SPAN_CUM)
    out.extend(_OTHER)
    return out


#: Unbounded ceiling on how much of a traced run may carry no label.
MAX_UNATTRIBUTED_FRAC = 0.15
