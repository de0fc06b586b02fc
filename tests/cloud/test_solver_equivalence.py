"""Scalar/NumPy max-min solver equivalence: bit-for-bit, not almost.

The batched solver in ``repro.cloud.maxmin`` promises that its
pure-Python and NumPy paths run identical IEEE-754 operations per
freeze round, so allocations must match *bytewise* — any ulp of
divergence would fork the event schedule downstream (flow end times
feed the kernel heap) and break cross-machine replay.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud import maxmin
from repro.cloud.network import Flow, Link
from repro.sim import Environment

pytestmark = pytest.mark.skipif(
    maxmin._np is None, reason="NumPy unavailable; single-path build"
)


@st.composite
def flow_sets(draw):
    """Random topologies spanning both sides of the dispatch threshold."""
    n_links = draw(st.integers(1, 12))
    links = [
        Link(f"l{i}", draw(st.floats(0.5, 2000.0)))
        for i in range(n_links)
    ]
    n_flows = draw(st.integers(1, 96))
    env = Environment()
    flows = []
    for i in range(n_flows):
        path_size = draw(st.integers(1, n_links))
        indices = draw(
            st.lists(
                st.integers(0, n_links - 1),
                min_size=path_size,
                max_size=path_size,
                unique=True,
            )
        )
        max_rate = draw(st.one_of(st.none(), st.floats(0.25, 1000.0)))
        flows.append(
            Flow(i, [links[j] for j in indices], 1.0, env.event(), max_rate, 0.0, "")
        )
    return flows


def _packed(rates: list[float]) -> bytes:
    return struct.pack(f"<{len(rates)}d", *rates)


@given(flow_sets())
@settings(max_examples=150, deadline=None)
def test_scalar_and_numpy_paths_bitwise_identical(flows):
    py = maxmin._solve_py(flows)
    np_ = maxmin._solve_np(flows)
    assert _packed(py) == _packed(np_)


def test_end_to_end_schedule_digest_solver_independent(monkeypatch):
    """A full simulated run is byte-identical under either solver path."""
    from repro.core.strategies import StrategyKind
    from repro.engines.simulated import SimulationOptions
    from repro.workloads import als_profile, run_profile

    from tests.integration.test_determinism_replay import _schedule_digest

    def run():
        profile = als_profile(scale=0.1, seed=7)
        outcome = run_profile(
            profile, StrategyKind.REAL_TIME, options=SimulationOptions(seed=7)
        )
        return _schedule_digest(outcome)

    # Every component below the threshold → scalar; every one at or
    # above it → NumPy (when installed).
    monkeypatch.setattr(maxmin, "VECTOR_THRESHOLD", 10**9)
    scalar_digest = run()
    monkeypatch.setattr(maxmin, "VECTOR_THRESHOLD", 1)
    vector_digest = run()
    assert scalar_digest == vector_digest
