"""FRIEDA reproduction — Flexible Robust Intelligent Elastic DAta management.

This package reproduces the system described in *FRIEDA: Flexible Robust
Intelligent Elastic Data Management in Cloud Environments* (Ghoshal &
Ramakrishnan, SC 2012) together with every substrate the paper depends
on:

- :mod:`repro.sim` — a from-scratch discrete-event simulation kernel
  (coroutine processes, events, resources, stores).
- :mod:`repro.cloud` — the cloud substrate: instance types, virtual
  machines, storage tiers, a flow-level max-min fair-share network
  model, a cluster provisioner, failure injection and billing.
- :mod:`repro.data` — file/dataset model, the partition generator and
  placement policies.
- :mod:`repro.transfer` — transfer protocol models (scp, GridFTP-style).
- :mod:`repro.core` — FRIEDA proper: the two-plane architecture
  (controller / master / workers), data-management strategies, command
  templating, fault handling, elasticity and the adaptive advisor.
- :mod:`repro.engines` — the simulated execution engine that runs FRIEDA
  on top of the cloud substrate.
- :mod:`repro.runtime` — *real* execution backends (threaded in-process
  and asyncio TCP master/worker, the Twisted equivalent).
- :mod:`repro.apps` — the paper's two workloads built from scratch:
  a mini-BLAST sequence search and a light-source image-analysis
  pipeline.
- :mod:`repro.workloads` / :mod:`repro.experiments` — calibrated
  workload profiles and the harness regenerating Table I, Figure 6 and
  Figure 7 of the paper.

Quickstart::

    from repro import Frieda, PartitionScheme, StrategyKind

    frieda = Frieda.local(num_workers=4)
    result = frieda.run(
        command=my_function,
        inputs=list_of_files,
        grouping=PartitionScheme.PAIRWISE_ADJACENT,
        strategy=StrategyKind.REAL_TIME,
    )
"""

from repro._version import __version__
from repro.core.framework import Frieda, RunOutcome
from repro.core.strategies import StrategyKind
from repro.data.partition import PartitionScheme

__all__ = [
    "__version__",
    "Frieda",
    "RunOutcome",
    "StrategyKind",
    "PartitionScheme",
]
