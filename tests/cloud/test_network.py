"""Unit tests for the flow-level network model."""


import pytest

from repro.errors import NetworkError
from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.cloud.network import Flow, FlowNetwork, Link, Route, max_min_rates
from repro.util.units import MB, Mbit


def _transfer(env, net, path, nbytes, **kw):
    """Helper: run a single transfer to completion, return finish time."""

    def proc(env):
        flow = net.start_flow(path, nbytes, **kw)
        yield flow.done
        return env.now

    p = env.process(proc(env))
    env.run()
    return p.value


def _flow_spans(tel, tag):
    return [s for s in tel.spans if s.key == "flow" and dict(s.tags)["tag"] == tag]


class TestLink:
    def test_positive_capacity_required(self):
        with pytest.raises(NetworkError):
            Link("l", 0)

    def test_negative_latency_rejected(self):
        with pytest.raises(NetworkError):
            Link("l", 1e6, latency_s=-1)

    def test_duplicate_link_name(self):
        net = FlowNetwork(Environment())
        net.add_link("x", 1e6)
        with pytest.raises(NetworkError):
            net.add_link("x", 1e6)

    def test_unknown_link_lookup(self):
        net = FlowNetwork(Environment())
        with pytest.raises(NetworkError):
            net.link("nope")


class TestRoute:
    def test_empty_route_rejected(self):
        with pytest.raises(NetworkError):
            Route("r", ())

    def test_route_registration_validates_links(self):
        net = FlowNetwork(Environment())
        net.add_link("a", 1e6)
        with pytest.raises(NetworkError):
            net.add_route("r", ["a", "missing"])

    def test_named_route_usable(self):
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("a", 100 * Mbit)
        route = net.add_route("r", ["a"])
        finish = _transfer(env, net, net.route("r"), 100 * MB)
        assert finish == pytest.approx(8.0, rel=1e-6)


class TestSingleFlow:
    def test_duration_matches_bandwidth(self):
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("l", 100 * Mbit)
        finish = _transfer(env, net, ["l"], 100 * MB)
        assert finish == pytest.approx(8.0, rel=1e-6)

    def test_latency_added_once(self):
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("l", 100 * Mbit, latency_s=0.5)
        finish = _transfer(env, net, ["l"], 100 * MB)
        assert finish == pytest.approx(8.5, rel=1e-6)

    def test_multi_hop_limited_by_slowest(self):
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("fast", 1000 * Mbit)
        net.add_link("slow", 10 * Mbit)
        finish = _transfer(env, net, ["fast", "slow"], 10 * MB)
        assert finish == pytest.approx(8.0, rel=1e-6)

    def test_max_rate_cap(self):
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("l", 100 * Mbit)
        finish = _transfer(env, net, ["l"], 25 * MB, max_rate=20 * Mbit)
        assert finish == pytest.approx(10.0, rel=1e-6)

    def test_zero_volume_is_pure_latency(self):
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("l", 100 * Mbit, latency_s=0.25)
        finish = _transfer(env, net, ["l"], 0)
        assert finish == pytest.approx(0.25)

    def test_zero_volume_records_monitor_interval(self):
        """Control messages (0 bytes) still show up in the flow trace."""
        env = Environment()
        tel = Telemetry(lambda: env.now, record=True)
        net = FlowNetwork(env, telemetry=tel)
        net.add_link("l", 100 * Mbit, latency_s=0.25)
        _transfer(env, net, ["l"], 0, tag="ctrl")
        (span,) = _flow_spans(tel, "ctrl")
        assert dict(span.tags)["nbytes"] == 0.0
        assert span.duration == pytest.approx(0.25)

    def test_zero_volume_instant_records_monitor_interval(self):
        """Even a 0-byte, 0-latency transfer leaves a trace record."""
        env = Environment()
        tel = Telemetry(lambda: env.now, record=True)
        net = FlowNetwork(env, telemetry=tel)
        net.add_link("l", 100 * Mbit)
        net.start_flow(["l"], 0, tag="ping")
        (span,) = _flow_spans(tel, "ping")
        assert dict(span.tags)["nbytes"] == 0.0
        assert span.start == span.end == 0.0

    def test_negative_volume_rejected(self):
        net = FlowNetwork(Environment())
        net.add_link("l", 1e6)
        with pytest.raises(NetworkError):
            net.start_flow(["l"], -1)

    def test_mean_throughput_recorded(self):
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("l", 100 * Mbit)

        def proc(env):
            flow = net.start_flow(["l"], 100 * MB)
            yield flow.done
            return flow

        p = env.process(proc(env))
        env.run()
        assert p.value.mean_throughput_bps == pytest.approx(100 * Mbit, rel=1e-6)


class TestFairSharing:
    def test_equal_split_on_shared_link(self):
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("up", 100 * Mbit)
        for i in range(4):
            net.add_link(f"w{i}", 100 * Mbit)
        ends = []

        def one(env, i):
            flow = net.start_flow(["up", f"w{i}"], 100 * MB)
            yield flow.done
            ends.append(env.now)

        for i in range(4):
            env.process(one(env, i))
        env.run()
        # 400 MB aggregate over a 100 Mbit/s bottleneck = 32 s; fair
        # sharing means everyone finishes together.
        assert all(e == pytest.approx(32.0, rel=1e-6) for e in ends)

    def test_late_joiner_shares_then_speeds_up(self):
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("up", 100 * Mbit)
        net.add_link("a", 100 * Mbit)
        net.add_link("b", 100 * Mbit)
        finish = {}

        def one(env, name, start, nbytes):
            yield env.timeout(start)
            flow = net.start_flow(["up", name], nbytes)
            yield flow.done
            finish[name] = env.now

        env.process(one(env, "a", 0, 100 * MB))
        env.process(one(env, "b", 4, 50 * MB))
        env.run()
        # a alone for 4s (50MB done), then both at 50 Mbit finish their
        # remaining 50MB at t=12.
        assert finish["a"] == pytest.approx(12.0, rel=1e-6)
        assert finish["b"] == pytest.approx(12.0, rel=1e-6)

    def test_unrelated_links_independent(self):
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("l1", 100 * Mbit)
        net.add_link("l2", 100 * Mbit)
        ends = []

        def one(env, link):
            flow = net.start_flow([link], 100 * MB)
            yield flow.done
            ends.append(env.now)

        env.process(one(env, "l1"))
        env.process(one(env, "l2"))
        env.run()
        assert all(e == pytest.approx(8.0, rel=1e-6) for e in ends)

    def test_bytes_accounting(self):
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("l", 100 * Mbit)
        _transfer(env, net, ["l"], 10 * MB)
        assert net.total_bytes_moved == pytest.approx(10 * MB)
        assert net.completed_flows == 1


class TestMaxMinRates:
    def _flow(self, path, max_rate=None):
        env = Environment()
        from repro.sim.kernel import Event

        return Flow(0, path, 1 * MB, Event(env), max_rate, 0.0, "t")

    def test_single_flow_gets_capacity(self):
        link = Link("l", 100.0)
        flow = self._flow([link])
        rates = max_min_rates([flow])
        assert rates[flow] == pytest.approx(100.0)

    def test_two_flows_split(self):
        link = Link("l", 100.0)
        f1, f2 = self._flow([link]), self._flow([link])
        rates = max_min_rates([f1, f2])
        assert rates[f1] == pytest.approx(50.0)
        assert rates[f2] == pytest.approx(50.0)

    def test_capped_flow_releases_capacity(self):
        link = Link("l", 100.0)
        capped = self._flow([link], max_rate=10.0)
        free = self._flow([link])
        rates = max_min_rates([capped, free])
        assert rates[capped] == pytest.approx(10.0)
        assert rates[free] == pytest.approx(90.0)

    def test_bottleneck_then_secondary(self):
        # f1 crosses both links; f2 only the big one. The 10-capacity
        # link caps f1 at 10; f2 then gets 90 of the big link.
        small = Link("small", 10.0)
        big = Link("big", 100.0)
        f1 = self._flow([small, big])
        f2 = self._flow([big])
        rates = max_min_rates([f1, f2])
        assert rates[f1] == pytest.approx(10.0)
        assert rates[f2] == pytest.approx(90.0)

    def test_empty_flow_set(self):
        assert max_min_rates([]) == {}
