"""Unit tests for the transfer service and staging plans."""

import pytest

from repro.cloud.network import FlowNetwork
from repro.errors import TransferError
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.transfer.base import TransferProtocol, TransferRequest
from repro.transfer.gridftp import GridFtpModel
from repro.transfer.scp import ScpModel
from repro.transfer.staging import StagingPlan, TransferService
from repro.util.units import MB, Mbit


class _Raw(TransferProtocol):
    """No handshake, perfect efficiency — for exact timing assertions."""

    name = "raw"
    handshake_latency = 0.0
    efficiency = 1.0
    streams = 1
    per_stream_cap_bps = None


def build(env, protocol, telemetry=None):
    net = FlowNetwork(env)
    net.add_link("up", 100 * Mbit)
    net.add_link("down", 100 * Mbit)
    return net, TransferService(env, net, protocol, telemetry)


class TestTransferService:
    def test_raw_transfer_timing(self):
        env = Environment()
        _net, service = build(env, _Raw())

        def proc(env):
            result = yield env.process(
                service.transfer(TransferRequest("f", 100 * MB, ("up", "down")))
            )
            return result

        p = env.process(proc(env))
        env.run()
        assert p.value.duration == pytest.approx(8.0, rel=1e-6)

    def test_scp_adds_handshake_and_overhead(self):
        env = Environment()
        _net, service = build(env, ScpModel())

        def proc(env):
            result = yield env.process(
                service.transfer(TransferRequest("f", 93 * MB, ("up", "down")))
            )
            return result

        p = env.process(proc(env))
        env.run()
        # 93 MB at 93% efficiency = 100 MB wire = 8 s, plus handshake.
        assert p.value.duration == pytest.approx(8.0 + ScpModel().handshake_latency, rel=1e-3)

    def test_gridftp_splits_streams(self):
        env = Environment()
        net, service = build(env, GridFtpModel())

        def proc(env):
            yield env.process(
                service.transfer(TransferRequest("f", 10 * MB, ("up", "down")))
            )

        env.process(proc(env))
        env.run()
        assert net.completed_flows == GridFtpModel().streams

    def test_results_recorded(self):
        env = Environment()
        _net, service = build(env, _Raw())

        def proc(env):
            yield env.process(service.transfer(TransferRequest("a", 1 * MB, ("up",))))
            yield env.process(service.transfer(TransferRequest("b", 1 * MB, ("up",))))

        env.process(proc(env))
        env.run()
        assert [r.file_name for r in service.results] == ["a", "b"]

    def test_monitor_intervals_emitted(self):
        env = Environment()
        tel = Telemetry(lambda: env.now, record=True)
        _net, service = build(env, _Raw(), tel)

        def proc(env):
            yield env.process(service.transfer(TransferRequest("a", 1 * MB, ("up",))))

        env.process(proc(env))
        env.run()
        assert [s.key for s in tel.spans] == ["transfer"]


class TestStagingPlan:
    def test_concurrency_limits_parallelism(self):
        env = Environment()
        _net, service = build(env, _Raw())
        plan = StagingPlan(concurrency=1)
        for i in range(3):
            plan.add(TransferRequest(f"f{i}", 100 * MB, ("up", "down")))

        def proc(env):
            results = yield env.process(plan.execute(service))
            return results

        p = env.process(proc(env))
        env.run()
        # Serialized: 3 x 8 s (sharing would also give 24 s total, but
        # serialization means the first finishes at 8 s).
        assert env.now == pytest.approx(24.0, rel=1e-6)
        assert min(r.end for r in p.value) == pytest.approx(8.0, rel=1e-6)

    def test_unbounded_concurrency_shares_fairly(self):
        env = Environment()
        _net, service = build(env, _Raw())
        plan = StagingPlan(concurrency=3)
        for i in range(3):
            plan.add(TransferRequest(f"f{i}", 100 * MB, ("up", "down")))

        def proc(env):
            results = yield env.process(plan.execute(service))
            return results

        p = env.process(proc(env))
        env.run()
        assert all(r.end == pytest.approx(24.0, rel=1e-6) for r in p.value)

    def test_total_bytes(self):
        plan = StagingPlan()
        plan.add(TransferRequest("a", 10, ("l",)))
        plan.add(TransferRequest("b", 20, ("l",)))
        assert plan.total_bytes == 30

    def test_invalid_concurrency(self):
        env = Environment()
        _net, service = build(env, _Raw())
        plan = StagingPlan(concurrency=0)
        plan.add(TransferRequest("a", 10, ("up",)))
        p = env.process(plan.execute(service))
        with pytest.raises(TransferError):
            env.run()

    def test_empty_plan_completes_instantly(self):
        env = Environment()
        _net, service = build(env, _Raw())

        def proc(env):
            results = yield env.process(StagingPlan().execute(service))
            return results

        p = env.process(proc(env))
        env.run()
        assert p.value == []
