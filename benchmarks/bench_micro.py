"""Micro-benchmarks of the substrates.

These time the hot paths of the library itself (not the simulated
experiment results): kernel event throughput, flow-network replanning,
partition generation, and the message codec.
"""

import pytest

from repro.cloud.network import FlowNetwork
from repro.core.messages import SetPartitionInfo, decode_message, encode_message
from repro.data.files import synthetic_dataset
from repro.data.partition import PartitionScheme, generate_groups
from repro.sim import Environment, Resource, Store
from repro.util.units import MB, Mbit


@pytest.mark.benchmark(group="micro-kernel")
def test_kernel_event_throughput(benchmark):
    """Timeout-chain throughput: events processed per second."""

    def run_chain():
        env = Environment()

        def chain(env):
            for _ in range(10_000):
                yield env.timeout(1)

        env.process(chain(env))
        env.run()
        return env.now

    result = benchmark(run_chain)
    assert result == 10_000.0


@pytest.mark.benchmark(group="micro-kernel")
def test_kernel_resource_contention(benchmark):
    """1000 tasks over a 4-slot resource."""

    def run():
        env = Environment()
        cpu = Resource(env, capacity=4)

        def task(env):
            with cpu.request() as req:
                yield req
                yield env.timeout(1)

        for _ in range(1000):
            env.process(task(env))
        env.run()
        return env.now

    assert benchmark(run) == 250.0


@pytest.mark.benchmark(group="micro-kernel")
def test_kernel_store_producer_consumer(benchmark):
    def run():
        env = Environment()
        store = Store(env)
        received = [0]

        def producer(env):
            for i in range(5000):
                yield store.put(i)

        def consumer(env):
            for _ in range(5000):
                yield store.get()
                received[0] += 1

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        return received[0]

    assert benchmark(run) == 5000


@pytest.mark.benchmark(group="micro-network")
def test_flow_network_replan_churn(benchmark):
    """200 staggered flows over a shared bottleneck (constant replans)."""

    def run():
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("up", 100 * Mbit)
        for i in range(8):
            net.add_link(f"d{i}", 100 * Mbit)

        def one(env, i):
            yield env.timeout(i * 0.01)
            flow = net.start_flow(["up", f"d{i % 8}"], 1 * MB)
            yield flow.done

        for i in range(200):
            env.process(one(env, i))
        env.run()
        return net.completed_flows

    assert benchmark(run) == 200


# min_rounds: per-round spread on this bench is ~±25% on a shared
# container; the default 5-round calibration makes the median a coin
# flip, 15 rounds makes it reproducible.
@pytest.mark.benchmark(group="micro-network", min_rounds=15)
def test_flow_network_clustered_churn_2000(benchmark):
    """2,000 flows over 32 disjoint rack components with batched arrivals.

    Each virtual 10 ms tick admits one flow per rack, so every wake
    coalesces 32 same-timestamp arrivals and the incremental planner
    only re-solves the racks whose links changed.
    """

    def run():
        env = Environment()
        net = FlowNetwork(env)
        racks = 32
        for r in range(racks):
            net.add_link(f"up{r}", 100 * Mbit)
            for w in range(4):
                net.add_link(f"r{r}w{w}", 100 * Mbit)

        def one(env, i):
            yield env.timeout((i // racks) * 0.01)
            r = i % racks
            flow = net.start_flow([f"up{r}", f"r{r}w{i % 4}"], 1 * MB)
            yield flow.done

        for i in range(2000):
            env.process(one(env, i))
        env.run()
        return net.completed_flows

    assert benchmark(run) == 2000


@pytest.mark.benchmark(group="micro-partition")
def test_partition_generation_pairwise(benchmark):
    dataset = synthetic_dataset("bench", 10_000, 1000)
    groups = benchmark(generate_groups, dataset, PartitionScheme.PAIRWISE_ADJACENT)
    assert len(groups) == 5000


@pytest.mark.benchmark(group="micro-partition")
def test_partition_generation_all_to_all(benchmark):
    dataset = synthetic_dataset("bench", 300, 1000)
    groups = benchmark(generate_groups, dataset, PartitionScheme.ALL_TO_ALL)
    assert len(groups) == 300 * 299 // 2


@pytest.mark.benchmark(group="micro-telemetry")
def test_chrome_trace_export_10k_spans(benchmark):
    """Serialize a 10k-span recording hub to trace-event JSON bytes."""
    from repro.telemetry import Telemetry, dump_chrome_trace

    tel = Telemetry(clock=lambda: 0.0, record=True)
    parent = tel.span_complete("run", 0.0, 10_000.0, track="control")
    for i in range(10_000):
        tel.span_complete(
            "exec", float(i), float(i + 1),
            parent=parent, track=f"worker:{i % 16}", task=i,
        )

    def export():
        return len(dump_chrome_trace(tel))

    assert benchmark(export) > 100_000


# Informational (not a guarded group): wall time of the cacheless
# whole-program audit over the full tree — parse, summary extraction,
# call graph, all per-file and project rule packs. Tracks how the
# audit cost scales as the codebase grows.
@pytest.mark.benchmark(group="micro-audit")
def test_whole_program_audit_full_tree(benchmark):
    from repro.analysis.project import audit_paths

    def run():
        findings, project = audit_paths(["src"])
        assert not findings
        return project.stats["files"]

    assert benchmark.pedantic(run, rounds=3, iterations=1) > 100


@pytest.mark.benchmark(group="micro-protocol")
def test_message_codec_round_trip(benchmark):
    message = SetPartitionInfo(
        groups=tuple((f"file{i:05d}", f"file{i+1:05d}") for i in range(0, 500, 2)),
        sizes=tuple((6_500_000, 6_500_000) for _ in range(250)),
    )

    def round_trip():
        return decode_message(encode_message(message))

    assert benchmark(round_trip) == message


@pytest.mark.benchmark(group="micro-faults")
def test_transfer_service_retry_disabled_overhead(benchmark):
    """500 clean transfers with the retry machinery present but off.

    Paper-faithful policy, no fault model: the per-transfer cost of the
    retry loop must stay within noise of the pre-retry service (the
    wrapping adds one generator frame and two branch tests per call).
    """
    from repro.transfer.base import TransferProtocol, TransferRequest
    from repro.transfer.retry import TransferRetryPolicy
    from repro.transfer.staging import TransferService

    class Raw(TransferProtocol):
        handshake_latency = 0.0
        efficiency = 1.0
        streams = 1

    def run():
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("up", 100 * Mbit)
        service = TransferService(
            env, net, Raw(), retry_policy=TransferRetryPolicy.paper_faithful()
        )

        def one(env, i):
            yield env.timeout(i * 0.01)
            yield env.process(
                service.transfer(TransferRequest(f"f{i}", 1 * MB, ("up",)))
            )

        for i in range(500):
            env.process(one(env, i))
        env.run()
        return len(service.results)

    assert benchmark(run) == 500


@pytest.mark.benchmark(group="micro-faults")
def test_transfer_service_retry_storm(benchmark):
    """500 transfers at 30% transient fault rate under resilient retry.

    Times the full failure loop — fault draw, flow cancellation-free
    fault return, backoff with seeded jitter, reattempt — at a rate
    high enough that roughly half the transfers retry at least once.
    """
    from repro.cloud.failures import TransferFaultModel
    from repro.transfer.base import TransferProtocol, TransferRequest
    from repro.transfer.retry import TransferRetryPolicy
    from repro.transfer.staging import TransferService

    class Raw(TransferProtocol):
        handshake_latency = 0.0
        efficiency = 1.0
        streams = 1

    policy = TransferRetryPolicy(
        max_attempts=5, backoff_base_s=0.01, jitter_fraction=0.25
    )

    def run():
        env = Environment()
        net = FlowNetwork(env)
        net.add_link("up", 100 * Mbit)
        service = TransferService(
            env,
            net,
            Raw(),
            retry_policy=policy,
            fault_model=TransferFaultModel(0.3, seed=13),
        )

        def one(env, i):
            yield env.timeout(i * 0.01)
            yield env.process(
                service.transfer(TransferRequest(f"f{i}", 1 * MB, ("up",)))
            )

        for i in range(500):
            env.process(one(env, i))
        env.run()
        return len(service.results)

    assert benchmark(run) == 500


@pytest.mark.benchmark(group="micro-telemetry")
def test_telemetry_ship_encode_batches(benchmark):
    """The TCP worker flush path, telemetry enabled: 1k task/exec span
    pairs plus metric observations recorded on a worker hub, drained
    through the shipper in 10 batches and encoded to TELEMETRY frame
    payload bytes."""
    from repro.telemetry import Telemetry
    from repro.telemetry.shipping import TelemetryShipper, encode_batch

    def ship():
        tel = Telemetry(clock=lambda: 0.0, record=True, run="w0")
        shipper = TelemetryShipper(tel)
        hist = tel.metrics.histogram("task.exec_seconds")
        tasks = tel.metrics.counter("worker.tasks", ok=True)
        payload_bytes = 0
        for i in range(1_000):
            task = tel.span_complete(
                "task", float(i), float(i + 1), track="worker:w0", task=i
            )
            tel.span_complete(
                "exec", float(i), float(i + 1), parent=task, track="worker:w0"
            )
            hist.observe(1.0)
            tasks.inc()
            if i % 100 == 99:
                payload_bytes += len(encode_batch(shipper.take_batch()))
        return payload_bytes

    assert benchmark(ship) > 10_000


@pytest.mark.benchmark(group="micro-telemetry")
def test_telemetry_disabled_span_path(benchmark):
    """The same instrumentation sequence against ``NULL_TELEMETRY`` —
    the disabled path every untraced run takes. Guards the zero-cost
    contract: no record allocation, no batches, just no-op calls."""
    from repro.telemetry import NULL_TELEMETRY as tel

    def emit():
        hist = tel.metrics.histogram("task.exec_seconds")
        tasks = tel.metrics.counter("worker.tasks", ok=True)
        n = 0
        for i in range(1_000):
            with tel.span("task", track="worker:w0", task=i):
                with tel.span("exec", track="worker:w0"):
                    n += 1
            hist.observe(1.0)
            tasks.inc()
        return n

    assert benchmark(emit) == 1_000
