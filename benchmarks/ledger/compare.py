"""``--compare A.json B.json``: the no-regression rule, row by row.

One row per (end-to-end metric, workload): both medians, B over A with
A as the base, and a verdict —

- ``worse``: B's median is worse than A's by more than the metric's bound;
- ``unresolved``: the run-to-run spread of either side (distance between
  the quartiles over the median) is wider than the bound, so the two
  cannot be told apart — unless every run of B reads better than every
  run of A;
- ``ok`` otherwise.

A ledger holding one run per workload has no run-to-run spread; the
spread of ``tasks_per_s`` over its iterations stands in.  Count-type
layer metrics of the deterministic planes are compared for equality and
reported when they differ: a count may carry a claim only if it repeats.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

from . import metrics as catalogue

_COUNT_SUFFIXES = (".calls", ".records", ".recorded", ".records_replayed")


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _side(entry: dict[str, Any], metric: str) -> tuple[list[float], float]:
    values = entry["end_to_end"][metric]["values"]
    if len(values) == 1 and metric == "tasks_per_s":
        return values, spread(entry.get("tasks_per_s_samples", []))
    return values, spread(values)


def verdict(a: list[float], b: list[float], spreads: tuple[float, float],
            better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / base
    if max(spreads) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "ok" if all_better else "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for key in ("scale", "seconds"):
        if a[key] != b[key]:
            print(f"warning: {key} differs ({a[key]} vs {b[key]}); rows are not comparable")
    bad = False
    print(f"{'workload':<20}{'metric':<14}{'A median':>14}{'B median':>14}"
          f"{'B/A':>9}{'spread A':>10}{'spread B':>10}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        entry_a, entry_b = a["workloads"][name], b["workloads"][name]
        for metric, _unit, better, bound in catalogue.END_TO_END:
            if metric not in entry_a["end_to_end"] or metric not in entry_b["end_to_end"]:
                print(f"{name:<20}{metric:<14}{'missing (the run failed)':>28}")
                continue
            values_a, spread_a = _side(entry_a, metric)
            values_b, spread_b = _side(entry_b, metric)
            word = verdict(values_a, values_b, (spread_a, spread_b), better, bound)
            bad = bad or word == "worse"
            med_a, med_b = statistics.median(values_a), statistics.median(values_b)
            print(f"{name:<20}{metric:<14}{med_a:>14.6g}{med_b:>14.6g}"
                  f"{med_b / med_a:>9.3f}{spread_a:>10.3f}{spread_b:>10.3f}  {word}")
        for side, entry in (("A", entry_a), ("B", entry_b)):
            if entry["failed_frac"] > 0:
                bad = True
                print(f"{name:<20}failed_frac = {entry['failed_frac']:.4g} in {side}")
        if name.startswith(("sim_", "svc_")):
            for metric, cell in entry_a["per_layer"].items():
                other = entry_b["per_layer"].get(metric)
                if metric.endswith(_COUNT_SUFFIXES) and other and other["value"] != cell["value"]:
                    print(f"{name:<20}{metric}: count differs "
                          f"({cell['value']:g} vs {other['value']:g})")
    return 1 if bad else 0
