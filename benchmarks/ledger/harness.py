"""One run of one workload: set-up, timed iterations, checks, metrics.

This is the process the benchmark driver starts
(``run.py --workload W --seed N --seconds S --trace 0|1``): a fresh
interpreter per workload, so kernel selection is clean and
``peak_rss_mb`` is the workload's own.  Untraced runs give the
end-to-end metrics; a traced run gives the per-layer ones.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import metrics as catalogue
from .tracing import BUCKETS, LAYERS, trace_call
from .workloads import WORKLOADS, Context, Iteration, Verdict, Workload

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
SRC = ROOT / "src"
BUILD_DIR = ROOT / "build" / "ledger"
RUN_PY = LEDGER_DIR / "run.py"

#: Set-ups per untraced run (this process's own plus fresh-interpreter
#: probes); ``setup_s`` is their median.
SETUP_REPEATS = 3
MIN_ITERATIONS = 3
#: Hard limit on any child the ledger starts.
CHILD_TIMEOUT_S = 120.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def require_source_tree() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"ledger: no FRIEDA source tree at {SRC} — nothing to measure"
        )
    sys.path.insert(0, str(SRC))


def ensure_accelerator() -> None:
    """Build the optional C kernel exactly as ``make accel`` does.

    Once per checkout, soft-failing: without a compiler the pure kernel
    serves every caller and ``sim.kernel.accelerated`` reads 0.  This is
    the build, not the set-up — it is not part of ``setup_s``.
    """
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    stamp = BUILD_DIR / "accel.attempted"
    if stamp.exists() or any((SRC / "repro" / "sim").glob("_ckern*.so")):
        return
    stamp.write_text("setup.py build_ext --inplace was attempted here\n")
    try:
        subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=ROOT, capture_output=True, timeout=600, check=False,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"ledger: accelerator build skipped: {exc}", file=sys.stderr)


def probe(name: str, seed: int, scale: float, kind: str, env: dict[str, str] | None = None) -> dict:
    """Run ``--probe kind`` of a workload in a fresh interpreter."""
    done = subprocess.run(
        [
            sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
            "--scale", repr(scale), "--probe", kind,
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env={**os.environ, **(env or {})},
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{kind} probe of {name} exited {done.returncode}: {done.stderr.strip()[-400:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


@dataclass
class Sample:
    wall_s: float
    verdict: Verdict

    @property
    def tasks_per_s(self) -> float:
        return self.verdict.verified / self.wall_s


@dataclass
class Run:
    """Everything one process measured."""

    name: str
    seed: int
    scale: float
    samples: list[Sample] = field(default_factory=list)
    #: The one iteration that ran under the profiler (``--trace 1``).
    traced: Sample | None = None
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def _verdicts(self) -> list[Verdict]:
        every = self.samples + ([self.traced] if self.traced else [])
        return [s.verdict for s in every]

    @property
    def attempted(self) -> int:
        return sum(v.attempted for v in self._verdicts())

    @property
    def failed(self) -> int:
        return sum(v.attempted - v.verified for v in self._verdicts())

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0

    def rates(self) -> list[float]:
        return [s.tasks_per_s for s in self.samples]

    def check(self, verdict: Verdict, where: str) -> None:
        self.problems.extend(f"{where}: {p}" for p in verdict.problems)
        first = self.samples[0].verdict.witness if self.samples else verdict.witness
        if verdict.witness != first:
            self.problems.append(
                f"{where}: witness {verdict.witness} differs from the first "
                f"iteration's {first}"
            )


def timed(iteration: Iteration) -> Sample:
    call, finish = iteration
    gc.collect()
    started = time.perf_counter()
    output = call()
    wall_s = time.perf_counter() - started
    return Sample(wall_s, finish(output))


def iterate(run: Run, workload: Workload, seconds: float) -> None:
    """Repeat the body on identical inputs for ``seconds`` (>= 3 times)."""
    started = time.perf_counter()
    while len(run.samples) < MIN_ITERATIONS or time.perf_counter() - started < seconds:
        sample = timed(workload.iteration())
        run.check(sample.verdict, f"iteration {len(run.samples) + 1}")
        run.samples.append(sample)


def check_expected(run: Run) -> None:
    """At the reference seed and full scale the witness is pinned."""
    expected = json.loads((LEDGER_DIR / "expected.json").read_text())
    pinned = expected["workloads"].get(run.name)
    if run.seed != expected["seed"] or run.scale != 1.0 or pinned is None:
        return
    witness = run.samples[0].verdict.witness
    if witness != pinned:
        run.problems.append(f"witness {witness} != expected.json's {pinned}")


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: float, corrupt: bool
) -> Run:
    require_source_tree()
    ensure_accelerator()
    run = Run(name, seed, scale)
    workload = WORKLOADS[name]()
    with tempfile.TemporaryDirectory(dir=BUILD_DIR, prefix=f"{name}-") as tmp:
        setup_started = time.perf_counter()
        workload.prepare(Context(seed, scale, Path(tmp), nproc()))
        setups = [time.perf_counter() - setup_started]
        if corrupt:
            workload.corrupt_input()
        if trace:
            iterate(run, workload, seconds / 2)
            layer_metrics(run, workload)
        else:
            iterate(run, workload, seconds)
            # After the timed loop, so a probe's dataset writes cannot
            # disturb it.
            for _ in range(SETUP_REPEATS - 1):
                setups.append(probe(name, seed, scale, "setup")["setup_s"])
            run.metrics = {
                "tasks_per_s": statistics.median(run.rates()),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    check_expected(run)
    return run


def run_probe(name: str, seed: int, scale: float, kind: str) -> dict[str, Any]:
    """``--probe setup``: time one cold set-up.  ``--probe once``: one
    warm iteration too (how the pure kernel is measured: kernel
    selection happens at import, so it needs its own interpreter)."""
    require_source_tree()
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name]()
    with tempfile.TemporaryDirectory(dir=BUILD_DIR, prefix=f"{name}-probe-") as tmp:
        started = time.perf_counter()
        workload.prepare(Context(seed, scale, Path(tmp), nproc()))
        out: dict[str, Any] = {"setup_s": time.perf_counter() - started}
        if kind == "once":
            sample = timed(workload.iteration())
            out["tasks_per_s"] = sample.tasks_per_s
            out["witness"] = sample.verdict.witness
            out["problems"] = sample.verdict.problems
    return out


# -- the traced run ----------------------------------------------------------
def layer_metrics(run: Run, workload: Workload) -> None:
    """One more iteration under the profiler, folded into layer metrics."""
    untraced_wall = statistics.median(s.wall_s for s in run.samples)
    untraced_rate = statistics.median(run.rates())
    narrower_rates = []
    if workload.narrower_tier is not None:
        for _ in range(5):
            narrower = timed(workload.narrower_tier())
            run.problems.extend(f"1k tier: {p}" for p in narrower.verdict.problems)
            narrower_rates.append(narrower.tasks_per_s)
        check_committed_makespan(run, narrower.verdict)
    call, finish = workload.iteration()
    gc.collect()
    output, trace = trace_call(call)
    verdict = finish(output)
    run.check(verdict, "traced iteration")
    run.traced = Sample(trace.wall_s, verdict)

    values = {name: 0.0 for name, _unit, _better in catalogue.per_layer()}
    for label in (*LAYERS, *BUCKETS):
        values[f"{label}.self_s"] = trace.self_s.get(label, 0.0)
    for layer in LAYERS:
        values[f"{layer}.calls"] = trace.calls.get(layer, 0)
    for span in catalogue.SPAN_CALLS:
        values[f"{span}.calls"], _ = trace.span(span)
    for span in catalogue.SPAN_CUM:
        _, values[f"{span}.cum_s"] = trace.span(span)
    values.update(verdict.counts)

    if workload.sim_kernel:
        values.update(kernel_metrics(run, verdict))
    if narrower_rates:
        values["sim.scale_eff_1k"] = statistics.median(narrower_rates) / untraced_rate
    leases, _ = trace.span("service.core.lease")
    granted, _ = trace.span("service.pool.acquire")
    if leases:
        values["service.core.lease.useful_frac"] = granted / leases
    values["service.journal.records"], _ = trace.span("service.journal.append")
    replayed = values["service.core.recover.records_replayed"]
    if replayed:
        values["service.core.recover.median_s"] = untraced_wall
        values["service.core.recover.records_per_s"] = replayed / untraced_wall
    values["runtime.payload_mb_per_s"] = values["runtime.bytes_sent"] / 1e6 / untraced_wall
    values["trace.unattributed_frac"] = trace.unattributed_frac
    values["trace.overhead_ratio"] = trace.wall_s / untraced_wall
    values["trace.wall_s"] = trace.wall_s
    if trace.unattributed_frac > catalogue.MAX_UNATTRIBUTED_FRAC:
        run.problems.append(
            f"{trace.unattributed_frac:.1%} of traced self time carries no layer "
            f"(limit {catalogue.MAX_UNATTRIBUTED_FRAC:.0%})"
        )
    run.metrics = values
    report = trace.report()
    report.update(workload=run.name, seed=run.seed, scale=run.scale, metrics=values)
    (BUILD_DIR / f"{run.name}.layers.json").write_text(json.dumps(report, indent=1) + "\n")


def kernel_metrics(run: Run, verdict: Verdict) -> dict[str, float]:
    """Which kernel this checkout resolved, and what the other one does.

    Kernel selection happens at import, so the pure kernel gets one
    iteration in an interpreter of its own; the two must agree on the
    simulated result.
    """
    import repro.sim.kernel as kernel

    pure = probe(run.name, run.seed, run.scale, "once", env={"FRIEDA_PURE_KERNEL": "1"})
    run.problems.extend(f"pure kernel: {p}" for p in pure["problems"])
    if pure["witness"] != verdict.witness:
        run.problems.append(
            f"pure kernel witness {pure['witness']} != this process's {verdict.witness}"
        )
    return {
        "sim.kernel.accelerated": float(kernel._ckern is not None),
        "sim.pure_kernel_tasks_per_s": pure["tasks_per_s"],
    }


def check_committed_makespan(run: Run, verdict: Verdict) -> None:
    """The 1k tier's simulated makespan is committed in BENCH_macro.json."""
    committed = ROOT / "BENCH_macro.json"
    if run.scale != 1.0 or not committed.is_file():
        return
    recorded = json.loads(committed.read_text())["tiers"]["1k"]["sim_makespan_s"]
    if verdict.witness["sim_makespan_s"] != recorded:
        run.problems.append(
            f"1k tier makespan {verdict.witness['sim_makespan_s']} != "
            f"BENCH_macro.json's {recorded}"
        )
