"""Memory footprint of a wide simulated run.

The wide macro tiers run out of memory long before they run out of
time, and most of that memory was per-worker containers that hold
nothing: a static chunk per clone, an empty file set per clone, a CPU
queue per VM. This pins the traced heap peak of one 250-node
pre-partitioned run (1 000 clones, 250 tasks of two files each, so three
quarters of the clones never get a task). Measured in a fresh
interpreter after a warm-up run, so imports and first-use set-up stay
out of it. The bound holds under either kernel.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Peak traced bytes: 3.76 MB (C kernel) and 3.82 MB (pure kernel) when
#: this bound was set, 5.5 MB before chunks, file sets and CPU queues
#: became lazy and finished generators were dropped. Bound = the larger
#: + 10 %.
PEAK_BOUND_MB = 4.2

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


def test_wide_run_heap_peak_stays_under_budget():
    proc = subprocess.run(
        [sys.executable, "-c", _TIER_RUN],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout) / 1e6
    assert peak_mb <= PEAK_BOUND_MB, f"traced heap peak {peak_mb:.2f} MB"
