"""The Fig 6 decomposition comes from this run's slice of the span log.

``SimulatedEngine.run`` reads its transfer/execution/staging unions
back from the telemetry hub's span log, so a hub that does not record
is refused rather than silently reporting zero, and a hub shared
across a sweep must give every run exactly the figures a fresh hub
would.
"""

from __future__ import annotations

import pytest

from repro.cloud.cluster import ClusterSpec
from repro.core.strategies import StrategyKind
from repro.data.files import synthetic_dataset
from repro.engines.compute import FixedComputeModel
from repro.engines.simulated import SimulatedEngine
from repro.errors import ConfigurationError
from repro.telemetry import NULL_TELEMETRY, Telemetry

STRATEGIES = (
    StrategyKind.REAL_TIME,
    StrategyKind.PRE_PARTITIONED_REMOTE,
    StrategyKind.COMMON_DATA,
)


def _run(strategy=StrategyKind.REAL_TIME, **kwargs):
    return SimulatedEngine(ClusterSpec(num_workers=2)).run(
        synthetic_dataset("fig6", 20, "2 MB", seed=1),
        compute_model=FixedComputeModel(0.1),
        strategy=strategy,
        **kwargs,
    )


def _fig6(outcome):
    return (
        outcome.makespan,
        outcome.transfer_time,
        outcome.execution_time,
        outcome.extra["staging_time"],
    )


@pytest.mark.parametrize(
    "hub", [NULL_TELEMETRY, Telemetry()], ids=["null", "non-recording"]
)
def test_non_recording_hub_is_refused(hub):
    with pytest.raises(ConfigurationError, match="must record"):
        _run(telemetry=hub)


def test_shared_hub_runs_match_fresh_hub_runs():
    # A hub shared across a sweep holds every earlier run's spans; each
    # run must count only its own.
    shared = Telemetry(record=True)
    swept = [_fig6(_run(s, telemetry=shared)) for s in STRATEGIES]
    fresh = [_fig6(_run(s, telemetry=Telemetry(record=True))) for s in STRATEGIES]
    private = [_fig6(_run(s)) for s in STRATEGIES]
    assert swept == fresh == private
    assert {span.run for span in shared.spans} == {f"fig6:{s.value}" for s in STRATEGIES}
