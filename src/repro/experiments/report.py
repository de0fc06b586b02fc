"""Run reports: JSON export and text timelines.

Turns a :class:`~repro.core.framework.RunOutcome` into artifacts a user
can keep: a machine-readable JSON report (feeds dashboards / the
adaptive advisor across sessions) and a per-worker Gantt-style text
timeline that makes load imbalance visible at a glance — the straggler
chunk in a pre-partitioned run literally sticks out.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from typing import Any

from repro.core.framework import RunOutcome


def outcome_to_dict(outcome: RunOutcome) -> dict[str, Any]:
    """JSON-safe dict of a run outcome (task records included)."""
    return {
        "strategy": outcome.strategy.value,
        "grouping": outcome.grouping.value,
        "makespan": outcome.makespan,
        "transfer_time": outcome.transfer_time,
        "execution_time": outcome.execution_time,
        "tasks": {
            "total": outcome.tasks_total,
            "completed": outcome.tasks_completed,
            "failed": outcome.tasks_failed,
            "lost": outcome.tasks_lost,
        },
        "bytes_transferred": outcome.bytes_transferred,
        "worker_busy": dict(outcome.worker_busy),
        "cost_total": getattr(outcome.cost, "total", None),
        "task_records": [
            {
                "task_id": r.task_id,
                "worker_id": r.worker_id,
                "node_id": r.node_id,
                "start": r.start,
                "end": r.end,
                "ok": r.ok,
                "attempt": r.attempt,
                "error": r.error,
                "transfer_seconds": r.transfer_seconds,
            }
            for r in outcome.task_records
        ],
        "extra": {
            # Record lists (the elasticity log) become plain dicts.
            k: [asdict(x) if is_dataclass(x) else x for x in v] if isinstance(v, list) else v
            for k, v in outcome.extra.items()
            if isinstance(v, (int, float, str, bool, list))
        },
    }


def outcome_to_json(outcome: RunOutcome, *, indent: int | None = None) -> str:
    """Serialize a run outcome to JSON."""
    return json.dumps(outcome_to_dict(outcome), indent=indent, sort_keys=True)


def timeline(outcome: RunOutcome, *, width: int = 72) -> str:
    """Per-worker Gantt-style text timeline of task executions.

    Each row is one worker; each task paints its [start, end) span with
    the last digit of its task id (``x`` marks a failed task).
    """
    if width < 20:
        raise ValueError("width must be >= 20")
    records = outcome.task_records
    if not records:
        return "(no task records)"
    t0 = min(r.start for r in records)
    t1 = max(r.end for r in records)
    span = max(t1 - t0, 1e-9)
    workers = sorted({r.worker_id for r in records})
    label_width = max(len(w) for w in workers)
    lines = [
        f"timeline: 0.0s .. {span:.1f}s "
        f"({outcome.strategy.value}, {outcome.tasks_completed}/{outcome.tasks_total} tasks)"
    ]
    for worker in workers:
        row = [" "] * width
        for record in records:
            if record.worker_id != worker:
                continue
            lo = int((record.start - t0) / span * (width - 1))
            hi = max(lo + 1, int((record.end - t0) / span * (width - 1)) + 1)
            glyph = "x" if not record.ok else str(record.task_id % 10)
            for i in range(lo, min(hi, width)):
                row[i] = glyph
        lines.append(f"{worker.rjust(label_width)} |{''.join(row)}|")
    return "\n".join(lines)


def save_report(outcome: RunOutcome, path: str) -> None:
    """Write the JSON report to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(outcome_to_json(outcome, indent=2))
        fh.write("\n")
