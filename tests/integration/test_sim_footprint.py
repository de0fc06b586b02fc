"""Memory footprint of a wide simulated run and of a pull run.

The wide macro tiers run out of memory long before they run out of
time, and most of that memory was per-worker containers that hold
nothing: a static chunk per clone, an empty file set per clone, a CPU
queue per VM. The first test pins the traced heap peak of one 250-node
pre-partitioned run (1 000 clones, 250 tasks of two files each, so three
quarters of the clones never get a task). On a pull run (64 workers
drawing single-file tasks in real time) the span log is most of the
heap, so the second test pins that run's peak. Both are measured in a
fresh interpreter after a warm-up run, so imports and first-use set-up
stay out of it, and both bounds hold under either kernel.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Peak traced bytes: 3.41 MB (C kernel) and 3.48 MB (pure kernel) since
#: the span log became columns (3.76 / 3.82 MB before, 5.5 MB before
#: chunks, file sets and CPU queues became lazy and finished generators
#: were dropped). Bound = the larger + 10 %.
PEAK_BOUND_MB = 3.8

#: The pull run's peak traced bytes: 4.12 MB (C kernel) and 4.05 MB
#: (pure kernel) with a columnar span log, 5.51 / 5.38 MB with one row
#: tuple, tag-pair tuples and float objects per span. Bound = the larger
#: + 10 %.
PULL_PEAK_BOUND_MB = 4.5

_TIER_RUN = """
import gc, sys, tracemalloc
from repro.cloud.cluster import ClusterSpec
from repro.core.strategies import StrategyKind
from repro.data.files import synthetic_dataset
from repro.data.partition import PartitionScheme
from repro.engines.compute import FixedComputeModel
from repro.engines.simulated import SimulatedEngine, SimulationOptions
from repro.telemetry import Telemetry
from repro.util.units import MB, Mbit


def run(workers):
    spec = ClusterSpec(name=f"macro-{workers}", num_workers=workers, link_bps=100 * Mbit)
    dataset = synthetic_dataset("macro", 2 * workers, 1 * MB, prefix="f", suffix=".bin")
    engine = SimulatedEngine(spec, SimulationOptions(enable_billing=False))
    return engine.run(
        dataset,
        compute_model=FixedComputeModel(1.0),
        strategy=StrategyKind.PRE_PARTITIONED_REMOTE,
        grouping=PartitionScheme.PAIRWISE_ADJACENT,
        max_sim_time=100_000_000.0,
        telemetry=Telemetry(record=True),
    )


run(8)
gc.collect()
tracemalloc.start()
outcome = run(250)
_current, peak = tracemalloc.get_traced_memory()
assert outcome.tasks_completed == outcome.tasks_total == 250, outcome
print(peak)
"""


_PULL_RUN = """
import gc, tracemalloc
from repro.cloud.cluster import ClusterSpec
from repro.core.strategies import StrategyKind
from repro.data.files import synthetic_dataset
from repro.data.partition import PartitionScheme
from repro.engines.compute import FixedComputeModel
from repro.engines.simulated import SimulatedEngine, SimulationOptions
from repro.telemetry import Telemetry
from repro.util.units import KB, Mbit


def pull(workers, tasks):
    spec = ClusterSpec(name="pull", num_workers=workers, link_bps=100 * Mbit)
    dataset = synthetic_dataset("pull", tasks, 64 * KB, prefix="f", suffix=".bin")
    engine = SimulatedEngine(spec, SimulationOptions(enable_billing=False))
    return engine.run(
        dataset,
        compute_model=FixedComputeModel(1.0),
        strategy=StrategyKind.REAL_TIME,
        grouping=PartitionScheme.SINGLE,
        max_sim_time=100_000_000.0,
        telemetry=Telemetry(record=True),
    )


pull(4, 16)
gc.collect()
tracemalloc.start()
outcome = pull(64, 800)
_current, peak = tracemalloc.get_traced_memory()
assert outcome.tasks_completed == outcome.tasks_total == 800, outcome
print(peak)
"""


def _traced_peak_mb(script: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1e6


def test_wide_run_heap_peak_stays_under_budget():
    peak_mb = _traced_peak_mb(_TIER_RUN)
    assert peak_mb <= PEAK_BOUND_MB, f"traced heap peak {peak_mb:.2f} MB"


def test_pull_run_heap_peak_stays_under_budget():
    peak_mb = _traced_peak_mb(_PULL_RUN)
    assert peak_mb <= PULL_PEAK_BOUND_MB, f"traced heap peak {peak_mb:.2f} MB"
