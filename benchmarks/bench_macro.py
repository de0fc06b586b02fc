"""Macro benchmarks: whole simulated-plane runs at 1k/10k/100k workers.

Where ``bench_micro.py`` times isolated hot paths, this family drives
``repro.engines.simulated`` end to end — provisioning, staging through
the flow network, scheduling, execution, telemetry — at worker counts
three orders of magnitude past the paper's 4-VM testbed.  Each tier is
one deterministic pre-partitioned-remote run sized at one task and two
1 MB input files per worker, with a recording telemetry hub attached so
the slab span log is exercised at the same scale.

Results persist to ``BENCH_macro.json`` at the repo root::

    python -m benchmarks.bench_macro               # default tiers (1k, 10k)
    python -m benchmarks.bench_macro --update      # rewrite recorded tiers
    FRIEDA_MACRO_TIERS=100k python -m benchmarks.bench_macro

Wall-clock numbers are informational (single-shot runs on a shared
box); the *gate* is behavioural: every tier must complete all its tasks
and reproduce the recorded simulated makespan, span count and event
count exactly — the sim-time result is deterministic even when the wall
time is not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_macro.json"

#: Worker counts per tier name.  1k and 10k gate `make check`; 100k is
#: opt-in via --tiers / FRIEDA_MACRO_TIERS.
TIERS = {"1k": 1_000, "10k": 10_000, "100k": 100_000}
DEFAULT_TIERS = ("1k", "10k")

#: Deterministic result fields each tier must reproduce exactly.
GATED_KEYS = ("sim_makespan_s", "spans_recorded", "events_recorded")


def run_tier(workers: int) -> dict:
    """One end-to-end simulated run at ``workers`` workers."""
    from repro.cloud.cluster import ClusterSpec
    from repro.core.strategies import StrategyKind
    from repro.data.files import synthetic_dataset
    from repro.data.partition import PartitionScheme
    from repro.engines.compute import FixedComputeModel
    from repro.engines.simulated import SimulatedEngine, SimulationOptions
    from repro.telemetry import Telemetry
    from repro.util.units import KB, MB, Mbit

    spec = ClusterSpec(
        name=f"macro-{workers}", num_workers=workers, link_bps=100 * Mbit
    )
    # The whole dataset is staged from the master's 40 GB disk, so the
    # 100k tier shrinks per-file size to keep 2×workers files on it.
    file_bytes = 1 * MB if workers <= 10_000 else 128 * KB
    dataset = synthetic_dataset(
        "macro", 2 * workers, file_bytes, prefix="f", suffix=".bin"
    )
    telemetry = Telemetry(record=True)
    engine = SimulatedEngine(spec, SimulationOptions(enable_billing=False))
    started = time.perf_counter()
    outcome = engine.run(
        dataset,
        compute_model=FixedComputeModel(1.0),
        strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
        grouping=PartitionScheme.PAIRWISE_ADJACENT,
        max_sim_time=100_000_000.0,
        telemetry=telemetry,
    )
    wall_s = time.perf_counter() - started
    return {
        "workers": workers,
        "tasks_total": outcome.tasks_total,
        "tasks_completed": outcome.tasks_completed,
        "sim_makespan_s": round(outcome.makespan, 6),
        "spans_recorded": len(telemetry.spans),
        "events_recorded": len(telemetry.events),
        "wall_s": round(wall_s, 3),
        "tasks_per_wall_s": round(outcome.tasks_completed / wall_s, 1),
    }


def check_tier(name: str, result: dict, recorded: dict | None) -> list[str]:
    """Behavioural gate for one tier's fresh result."""
    problems = []
    if result["tasks_completed"] != result["tasks_total"]:
        problems.append(
            f"{name}: only {result['tasks_completed']}/{result['tasks_total']}"
            " tasks completed"
        )
    if result["spans_recorded"] <= 0:
        problems.append(f"{name}: telemetry recorded no spans")
    if recorded is not None:
        for key in GATED_KEYS:
            if recorded.get(key) != result[key]:
                problems.append(
                    f"{name}: {key} {result[key]} != recorded {recorded.get(key)}"
                    " (determinism regression)"
                )
    return problems


def _selected_tiers(arg: str | None) -> list[str]:
    raw = arg or os.environ.get("FRIEDA_MACRO_TIERS") or ",".join(DEFAULT_TIERS)
    names = [t.strip() for t in raw.split(",") if t.strip()]
    unknown = [t for t in names if t not in TIERS]
    if unknown:
        raise SystemExit(
            f"unknown macro tier(s) {', '.join(unknown)}; "
            f"choose from {', '.join(TIERS)}"
        )
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiers",
        help="comma-separated tier names (default: $FRIEDA_MACRO_TIERS or 1k,10k)",
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the tiers run in BENCH_macro.json"
    )
    args = parser.parse_args(argv)
    names = _selected_tiers(args.tiers)

    baseline = (
        json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    )
    recorded_tiers = baseline.get("tiers", {})

    failures: list[str] = []
    fresh: dict[str, dict] = {}
    for name in names:
        print(f"macro tier {name}: {TIERS[name]:,} workers ...", flush=True)
        result = run_tier(TIERS[name])
        fresh[name] = result
        print(
            f"  {result['tasks_completed']:,}/{result['tasks_total']:,} tasks,"
            f" sim {result['sim_makespan_s']:.1f}s, wall {result['wall_s']:.2f}s"
            f" ({result['tasks_per_wall_s']:,.0f} tasks/s),"
            f" {result['spans_recorded']:,} spans"
        )
        failures.extend(
            check_tier(name, result, None if args.update else recorded_tiers.get(name))
        )

    if args.update or not BASELINE_PATH.exists():
        recorded_tiers = dict(recorded_tiers)
        recorded_tiers.update(fresh)
        payload = {
            "note": "end-to-end simulated-plane runs; wall times are "
            "informational, sim makespans and span/event counts are the "
            "determinism gate; refresh "
            "with `python -m benchmarks.bench_macro --tiers <tiers> --update`",
            "tiers": {k: recorded_tiers[k] for k in sorted(recorded_tiers)},
        }
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote baseline {BASELINE_PATH}")

    if failures:
        print("MACRO BENCH FAILURES:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"macro tiers ok: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
