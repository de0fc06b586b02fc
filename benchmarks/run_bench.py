"""Run the micro-benchmarks and persist/check ``BENCH_micro.json``.

Usage::

    python -m benchmarks.run_bench            # run + compare vs baseline
    python -m benchmarks.run_bench --update   # run + rewrite the baseline
    python -m benchmarks.run_bench --check    # run + exit 1 on regression

The baseline file at the repo root records the median ns/op for every
micro-benchmark, grouped as pytest-benchmark groups them. ``--check``
fails when any benchmark in the guarded groups (kernel, network,
partitioning, telemetry — the hot paths this repo optimises)
regresses more than ``--threshold`` (default 20%) against the
committed baseline, and prints a per-test delta table for the guarded
groups either way. Baselines carry a machine-speed calibration probe
(``calibration_ns``); when the current machine is slower than the one
that recorded the baseline, thresholds stretch by the probe ratio so
shared-container load does not read as a code regression. Other groups are recorded but informational: the
codec and fault benches are dominated by workload construction and too
noisy to gate. After ``--update``, the current medians are compared
against the recorded pre-optimisation seed numbers (the ``seed_groups``
key) as a speedup summary.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_micro.json"
GUARDED_GROUPS = (
    "micro-kernel",
    "micro-network",
    "micro-partition",
    "micro-telemetry",
)


def run_benchmarks(pytest_args: list[str] | None = None) -> dict:
    """Run bench_micro.py under pytest-benchmark, return its JSON report."""
    with tempfile.TemporaryDirectory(prefix="frieda-bench-") as tmp:
        report = Path(tmp) / "report.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/bench_micro.py",
            "--benchmark-only",
            "--benchmark-json=%s" % report,
            # GC pauses land on random rounds and fatten the median on
            # the slower benches; collection between rounds keeps the
            # comparison about the code.
            "--benchmark-disable-gc",
            "-q",
        ] + (pytest_args or [])
        proc = subprocess.run(cmd, cwd=REPO_ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark run failed (pytest exit {proc.returncode})")
        return json.loads(report.read_text())


def calibrate() -> int:
    """ns for a fixed pure-Python workload: a machine-speed probe.

    The benches run on shared containers whose effective CPU speed
    drifts by tens of percent minute to minute, which a fixed absolute
    threshold cannot distinguish from a real regression.  The probe is
    interpreter-bound arithmetic (no allocation, no syscalls) so its
    time moves with the same machine factors the benches do; ``compare``
    scales the baseline by the probe ratio when the machine is slower
    than it was at record time.  Best-of-7 because the *minimum* is the
    low-interference estimate.
    """
    best = None
    for _ in range(7):
        t0 = time.perf_counter_ns()
        x = 0
        for i in range(200_000):
            x += i & 7
        dt = time.perf_counter_ns() - t0
        if best is None or dt < best:
            best = dt
    return best


def machine_scale(baseline: dict, current_cal: int) -> float:
    """Baseline multiplier for the current machine speed, >= 1.0.

    Only slow machines loosen the gate; a faster-than-record machine
    keeps the nominal threshold (tightening it would flag machine luck
    at record time as a code regression later).
    """
    base_cal = baseline.get("calibration_ns", 0)
    if not base_cal or not current_cal:
        return 1.0
    return max(1.0, current_cal / base_cal)


def summarize(report: dict) -> dict:
    """Collapse a pytest-benchmark report to {group: {test: median_ns}}."""
    groups: dict[str, dict[str, float]] = {}
    for bench in report["benchmarks"]:
        group = bench.get("group") or "ungrouped"
        name = bench["name"]
        median_ns = bench["stats"]["median"] * 1e9
        groups.setdefault(group, {})[name] = round(median_ns)
    return {group: dict(sorted(tests.items())) for group, tests in sorted(groups.items())}


def compare(
    baseline: dict, current: dict, threshold: float, scale: float = 1.0
) -> list[str]:
    """Return regression messages for guarded groups beyond ``threshold``.

    ``scale`` (from :func:`machine_scale`) stretches each baseline
    median to what this machine would have recorded, so the threshold
    stays a statement about the code.
    """
    failures = []
    for group in GUARDED_GROUPS:
        for name, base_ns in baseline.get("groups", {}).get(group, {}).items():
            now_ns = current.get(group, {}).get(name)
            if now_ns is None:
                failures.append(f"{group}/{name}: present in baseline but not run")
                continue
            adjusted = base_ns * scale
            if base_ns > 0 and now_ns > adjusted * (1.0 + threshold):
                failures.append(
                    f"{group}/{name}: {now_ns / 1e6:.2f} ms vs baseline "
                    f"{base_ns / 1e6:.2f} ms x{scale:.2f} machine "
                    f"(+{(now_ns / adjusted - 1) * 100:.0f}%, "
                    f"limit +{threshold * 100:.0f}%)"
                )
    return failures


def print_delta_table(baseline: dict, current: dict) -> None:
    """Per-test baseline/current/delta table for the guarded groups."""
    rows: list[tuple[str, str, float, float]] = []
    for group in GUARDED_GROUPS:
        for name, base_ns in baseline.get("groups", {}).get(group, {}).items():
            now_ns = current.get(group, {}).get(name)
            if now_ns is not None and base_ns > 0:
                rows.append((group, name, base_ns, now_ns))
    if not rows:
        return
    width = max(len(name) for _, name, _, _ in rows)
    print(f"  {'benchmark':<{width}} {'baseline':>12} {'current':>12} {'delta':>8}")
    for group, name, base_ns, now_ns in rows:
        delta = (now_ns / base_ns - 1.0) * 100.0
        print(
            f"  {name:<{width}} {base_ns / 1e6:>9.2f} ms {now_ns / 1e6:>9.2f} ms"
            f" {delta:>+7.1f}%"
        )


def print_seed_speedups(payload: dict, current: dict) -> None:
    """Current-vs-seed speedup summary (after a baseline refresh)."""
    seed_groups = payload.get("seed_groups")
    if not seed_groups:
        return
    print("speedup vs recorded seed medians:")
    for group in sorted(seed_groups):
        for name, seed_ns in sorted(seed_groups[group].items()):
            now_ns = current.get(group, {}).get(name)
            if not now_ns or seed_ns <= 0:
                continue
            print(
                f"  {group}/{name}: {seed_ns / 1e6:.2f} ms -> "
                f"{now_ns / 1e6:.2f} ms ({seed_ns / now_ns:.1f}x)"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite BENCH_micro.json")
    parser.add_argument(
        "--check", action="store_true", help="exit non-zero if guarded groups regress"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed fractional regression for --check (default 0.20)",
    )
    args = parser.parse_args(argv)

    current_cal = calibrate()
    current = summarize(run_benchmarks())

    print("median ns/op by group:")
    for group, tests in current.items():
        print(f"  {group}")
        for name, ns in tests.items():
            print(f"    {name}: {ns / 1e6:.3f} ms")

    if args.update or not BASELINE_PATH.exists():
        payload = {
            "note": "median ns/op per micro-benchmark; refresh with "
            "`python -m benchmarks.run_bench --update`",
            "guarded_groups": list(GUARDED_GROUPS),
            "calibration_ns": current_cal,
            "groups": current,
        }
        if BASELINE_PATH.exists():
            # Keep bookkeeping keys (e.g. the pre-optimisation seed
            # numbers) across refreshes.
            previous = json.loads(BASELINE_PATH.read_text())
            for key, value in previous.items():
                payload.setdefault(key, value)
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote baseline {BASELINE_PATH}")
        print_seed_speedups(payload, current)
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    scale = machine_scale(baseline, current_cal)
    if scale > 1.0:
        print(
            f"machine {scale:.2f}x slower than at baseline record time "
            f"(calibration {current_cal / 1e6:.2f} ms vs "
            f"{baseline['calibration_ns'] / 1e6:.2f} ms); thresholds scaled"
        )
    failures = compare(baseline, current, args.threshold, scale)
    if failures:
        print("REGRESSIONS vs committed baseline:")
        for line in failures:
            print(f"  {line}")
        print("per-test deltas (guarded groups):")
        print_delta_table(baseline, current)
        return 1 if args.check else 0
    print(f"no regressions > {args.threshold * 100:.0f}% in {', '.join(GUARDED_GROUPS)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
