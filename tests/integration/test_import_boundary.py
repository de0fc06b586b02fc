"""Each plane imports only what it runs.

Every module an interpreter imports costs set-up time (all the more
where bytecode is not cached), and a simulator that imports the real
runtimes has crossed the boundary the ``real-io`` rule draws, even
when no module imports ``asyncio`` directly. Checked in a fresh
interpreter, since this one has imported everything already.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_SNIPPET = """
import sys
import {module}
print(" ".join(sorted(name for name in sys.argv[1:] if name in sys.modules)))
"""


def _loaded(module: str, candidates: tuple[str, ...]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", _SNIPPET.format(module=module), *candidates],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("repro.engines.simulated", ("asyncio", "repro.runtime.tcp", "repro.runtime.local")),
        ("repro.runtime.local", ("numpy", "asyncio", "repro.runtime.tcp")),
    ],
)
def test_plane_imports_only_what_it_runs(module, forbidden):
    assert _loaded(module, forbidden) == []


_DETERMINISTIC_RUNS = """
import sys
from repro.cloud.cluster import ClusterSpec
from repro.data.files import synthetic_dataset
from repro.engines.compute import FixedComputeModel
from repro.engines.simulated import SimulatedEngine
dataset = synthetic_dataset("d", 16, 1_000_000)
for strategy in ("pre_partitioned_remote", "real_time"):
    engine = SimulatedEngine(ClusterSpec(num_workers=4, mean_boot_delay_s=0.0))
    outcome = engine.run(
        dataset, compute_model=FixedComputeModel(1.0), strategy=strategy
    )
    assert outcome.tasks_completed == 16, outcome
print("numpy" in sys.modules)
"""


def test_a_run_that_draws_nothing_never_loads_numpy():
    # numpy costs ~14 MB of RSS and ~150 ms of import; only code that
    # draws a random number loads it.
    proc = subprocess.run(
        [sys.executable, "-c", _DETERMINISTIC_RUNS],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_tcp_engine_still_resolves_from_the_package():
    from repro.runtime import TcpEngine
    from repro.runtime.tcp import TcpEngine as direct

    assert TcpEngine is direct
