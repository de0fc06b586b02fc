"""Command line of the layered performance ledger.

Three uses::

    python -m benchmarks.ledger --seed 0            # the whole ledger
    python -m benchmarks.ledger --compare A.json B.json
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

The last form is the benchmark driver's contract (``BENCHMARK.json``):
one workload, one fresh interpreter, the result as the last line of
standard output.  The first runs that form once per workload (untraced,
then traced), strictly one child after another, and collects the lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from . import metrics as catalogue
from .compare import compare_files
from .workloads import WORKLOADS

DEFAULT_SECONDS = 10


def _units(trace: bool) -> dict[str, str]:
    if trace:
        return {name: unit for name, unit, _better in catalogue.per_layer()}
    return {name: unit for name, unit, _better, _bound in catalogue.END_TO_END}


def result_line(run: Any, trace: bool) -> str:
    units = _units(trace)
    return json.dumps(
        {
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                name: {"value": run.metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def print_run(run: Any, trace: bool) -> None:
    rates = run.rates()
    print(
        f"{run.name}  seed={run.seed} scale={run.scale}  "
        f"{len(rates)} iterations  tasks/s median {statistics.median(rates):.1f} "
        f"min {min(rates):.1f} max {max(rates):.1f}"
    )
    for name, unit in _units(trace).items():
        value = run.metrics[name]
        if value or not trace:
            print(f"  {name:<44} {value:>16.6g} {unit}")
    for problem in run.problems:
        print(f"  FAILED CHECK: {problem}")
    detail = {
        "iterations": len(rates),
        "tasks_per_s_samples": rates,
        "witness": run.samples[0].verdict.witness,
        "problems": run.problems,
    }
    print("DETAIL " + json.dumps(detail))


def single(args: argparse.Namespace) -> int:
    from . import harness

    if args.probe:
        print(json.dumps(harness.run_probe(args.workload, args.seed, args.scale, args.probe)))
        return 0
    trace = bool(args.trace)
    run = harness.run_workload(
        args.workload, args.seed, args.seconds, trace, args.scale, args.corrupt_input
    )
    print_run(run, trace)
    print(result_line(run, trace), flush=True)
    return 0 if run.correct else 1


# -- the whole ledger --------------------------------------------------------
def _child(name: str, args: argparse.Namespace, seed: int, trace: int) -> dict[str, Any]:
    """One workload in a fresh interpreter; a crash or a timeout is that
    workload's failure, never the ledger's."""
    from . import harness

    command = [
        sys.executable, str(harness.RUN_PY), "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--scale", repr(args.scale),
    ]
    failure = None
    try:
        done = subprocess.run(
            command, cwd=harness.ROOT, capture_output=True, text=True,
            timeout=harness.CHILD_TIMEOUT_S,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            failure = f"exited {done.returncode}: {done.stderr.strip()[-300:]}"
    except subprocess.TimeoutExpired:
        failure = f"timed out after {harness.CHILD_TIMEOUT_S:.0f} s"
    if failure is not None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "detail": {"problems": [failure]}}
    result = json.loads(lines[-1])
    detail = next((l for l in reversed(lines) if l.startswith("DETAIL ")), "DETAIL {}")
    result["detail"] = json.loads(detail[len("DETAIL "):])
    return result


def ledger(args: argparse.Namespace) -> int:
    from . import harness

    harness.require_source_tree()
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workload(s): {', '.join(unknown)}")
    out: dict[str, Any] = {
        "seed": args.seed, "runs": args.runs, "scale": args.scale,
        "seconds": args.seconds, "nproc": harness.nproc(), "workloads": {},
    }
    for name in names:
        entry: dict[str, Any] = {
            "end_to_end": {}, "per_layer": {}, "problems": [], "attempted": 0, "failed": 0,
        }

        def tally(result: dict[str, Any]) -> None:
            entry["attempted"] += result["attempted"]
            # A failed check with every task verified still fails the run.
            entry["failed"] += result["failed"] or (0 if result["correct"] else 1)
            entry["problems"] += result["detail"].get("problems", [])

        for i in range(args.runs):
            result = _child(name, args, args.seed + i, trace=0)
            tally(result)
            for metric, cell in result["metrics"].items():
                slot = entry["end_to_end"].setdefault(
                    metric, {"unit": cell["unit"], "values": []}
                )
                slot["values"].append(cell["value"])
            if args.runs == 1:
                entry["tasks_per_s_samples"] = result["detail"].get("tasks_per_s_samples", [])
        if not args.no_trace:
            result = _child(name, args, args.seed, trace=1)
            tally(result)
            entry["per_layer"] = result["metrics"]
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        out["workloads"][name] = entry
        _print_entry(name, entry)
    bad = any(entry["failed"] for entry in out["workloads"].values())
    path = Path(args.out) if args.out else harness.BUILD_DIR / "ledger.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 1 if bad else 0


def _print_entry(name: str, entry: dict[str, Any]) -> None:
    print(f"== {name}  failed_frac={entry['failed_frac']:.4g}")
    for metric, slot in entry["end_to_end"].items():
        values = slot["values"]
        print(
            f"  {metric:<44} {statistics.median(values):>16.6g} {slot['unit']}"
            f"  (min {min(values):.6g}, max {max(values):.6g}, runs {len(values)})"
        )
    samples = entry.get("tasks_per_s_samples")
    if samples:
        print(
            f"  {'tasks_per_s over iterations':<44} min {min(samples):.6g}, "
            f"max {max(samples):.6g}, iterations {len(samples)}"
        )
    for metric, cell in entry["per_layer"].items():
        if cell["value"]:
            print(f"  {metric:<44} {cell['value']:>16.6g} {cell['unit']}")
    for problem in entry["problems"]:
        print(f"  FAILED CHECK: {problem}")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.ledger", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--seed", type=int, default=0, help="feeds the input generators only")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in this process (driver contract)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--workloads", help="ledger: comma-separated subset")
    parser.add_argument("--runs", type=int, default=1,
                        help="ledger: untraced runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--no-trace", action="store_true", help="ledger: skip the traced runs")
    parser.add_argument("--out", help="ledger: where to write the JSON (default build/ledger/ledger.json)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size factor; only the self-test uses anything but 1")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two ledger files; exit non-zero on any 'worse'")
    # Internal: what a child interpreter is asked to do, and the
    # self-test's way to prove a wrong byte is caught.
    parser.add_argument("--probe", choices=("setup", "once"), help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-input", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(*args.compare)
    if args.workload:
        return single(args)
    return ledger(args)
