"""Transfer execution: the service that moves files over the flow network.

:class:`TransferService` is what the simulated FRIEDA engine calls to
"scp a file": it applies a :class:`~repro.transfer.base.TransferProtocol`
model (handshake, efficiency, parallel streams) and starts flows on the
cluster's :class:`~repro.cloud.network.FlowNetwork`.

:class:`StagingPlan` batches many requests with a concurrency limit —
the master in pre-partitioning mode stages every partition this way
before execution starts (§III-B "Pre-Partitioned Task and Data").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cloud.failures import TransferFaultModel
from repro.cloud.network import FlowNetwork
from repro.errors import TransferError
from repro.sim.kernel import Environment
from repro.sim.resources import Resource
from repro.telemetry.metrics import NULL_METRICS
from repro.telemetry.spans import SpanHandle, Telemetry
from repro.transfer.base import TransferProtocol, TransferRequest, TransferResult
from repro.transfer.retry import TransferRetryPolicy
from repro.util.seeding import make_rng


class TransferService:
    """Executes file transfers on a flow network under a protocol model.

    ``retry_policy`` (default: paper-faithful single attempt) governs
    how attempt failures — transient faults from ``fault_model``,
    per-attempt timeouts — are retried. A transfer whose retries exhaust
    returns a failed :class:`TransferResult` rather than raising, so
    callers always get one result per request.
    """

    def __init__(
        self,
        env: Environment,
        network: FlowNetwork,
        protocol: TransferProtocol,
        telemetry: Telemetry | None = None,
        *,
        retry_policy: TransferRetryPolicy | None = None,
        fault_model: Optional[TransferFaultModel] = None,
        seed: int = 0,
    ):
        self.env = env
        self.network = network
        self.protocol = protocol
        self.retry_policy = retry_policy or TransferRetryPolicy.paper_faithful()
        self.fault_model = fault_model
        self._seed = seed
        #: Built on the first backoff (see :meth:`transfer`).
        self._backoff_rng = None
        self.telemetry = telemetry
        metrics = telemetry.metrics if telemetry is not None else NULL_METRICS
        self._m_count = metrics.counter("transfer.count")
        self._m_bytes = metrics.counter("transfer.bytes")
        self._h_seconds = metrics.histogram("transfer.seconds")
        self._m_retries = metrics.counter("transfer.retries")
        self._m_failed = metrics.counter("transfer.failed")
        self._m_timeouts = metrics.counter("transfer.timeouts")
        self._m_faults = metrics.counter("transfer.faults")
        self._h_attempts = metrics.histogram("transfer.attempts")
        self.results: list[TransferResult] = []

    def _attempt(self, request: TransferRequest):
        """Process: one wire attempt. Returns (ok, error) — never raises."""
        attempt_start = self.env.now
        if self.protocol.handshake_latency > 0:
            yield self.env.timeout(self.protocol.handshake_latency)
        wire_bytes = self.protocol.effective_bytes(request.nbytes)
        # A transient fault kills the stream after a drawn fraction of
        # the wire bytes: that much bandwidth is genuinely consumed,
        # then the attempt fails.
        fault_at: Optional[float] = None
        if self.fault_model is not None:
            fault_at = self.fault_model.draw()
            if fault_at is not None:
                wire_bytes *= fault_at
        sizes = self.protocol.stream_sizes(int(round(wire_bytes)))
        flows = [
            self.network.start_flow(
                request.path,
                size,
                max_rate=self.protocol.per_stream_cap_bps,
                tag=request.tag or request.file_name,
            )
            for size in sizes
            if size > 0
        ]
        timed_out = False
        if flows:
            completion = self.env.all_of([f.done for f in flows])
            timeout_s = self.retry_policy.timeout_s
            if timeout_s is None:
                yield completion
            else:
                # The guard covers the whole attempt including handshake.
                remaining = timeout_s - (self.env.now - attempt_start)
                if remaining <= 0:
                    timed_out = True
                else:
                    guard = self.env.timeout(remaining)
                    yield self.env.any_of([completion, guard])
                    timed_out = not completion.triggered
                if timed_out:
                    for flow in flows:
                        self.network.cancel_flow(flow, reason="transfer-timeout")
        if timed_out:
            self._m_timeouts.inc()
            return False, "timeout"
        if fault_at is not None:
            self._m_faults.inc()
            return False, f"transient-fault@{fault_at:.2f}"
        return True, ""

    def transfer(self, request: TransferRequest, parent: SpanHandle | None = None):
        """Process: move one file; returns a :class:`TransferResult`.

        Use as ``result = yield env.process(service.transfer(req))``.
        ``parent`` links the emitted "transfer" span into the
        requester's trace tree (e.g. a task's fetch span). Check
        ``result.ok`` — a transfer whose retries exhaust does not raise.
        """
        policy = self.retry_policy
        start = self.env.now
        attempt = 0
        ok, error = False, ""
        while True:
            attempt += 1
            ok, error = yield from self._attempt(request)
            if ok or attempt >= policy.max_attempts:
                break
            self._m_retries.inc()
            if self._backoff_rng is None:
                self._backoff_rng = make_rng(self._seed, "transfer-backoff")
            delay = policy.backoff_s(attempt, self._backoff_rng)
            if delay > 0:
                yield self.env.timeout(delay)
        result = TransferResult(
            file_name=request.file_name,
            nbytes=request.nbytes,
            start=start,
            end=self.env.now,
            ok=ok,
            error=error,
            attempts=attempt,
            tag=request.tag,
        )
        self.results.append(result)
        if self.telemetry is not None:
            # Annotate the span with retry detail only when something
            # non-default happened, so single-attempt traces (and the
            # golden trace bytes) are unchanged.
            extra = {} if ok and attempt == 1 else {"ok": ok, "attempts": attempt}
            self.telemetry.span_complete(
                "transfer",
                start,
                result.end,
                parent=parent,
                track="network",
                file=request.file_name,
                tag=request.tag,
                **extra,
            )
        self._m_count.inc()
        self._h_seconds.observe(result.end - start)
        self._h_attempts.observe(attempt)
        if ok:
            self._m_bytes.inc(request.nbytes)
        else:
            self._m_failed.inc()
        return result


@dataclass
class StagingPlan:
    """A batch of transfers executed with bounded concurrency.

    ``concurrency`` limits simultaneous sessions per plan (scp to many
    hosts is typically fanned out a few sessions at a time; unbounded
    fan-out just splits the same bottleneck bandwidth thinner while
    paying every handshake up front).
    """

    requests: list[TransferRequest] = field(default_factory=list)
    concurrency: int = 4

    def add(self, request: TransferRequest) -> None:
        self.requests.append(request)

    @property
    def total_bytes(self) -> int:
        return sum(r.nbytes for r in self.requests)

    def execute(self, service: TransferService, parent: SpanHandle | None = None):
        """Process: run all transfers; returns list of results in finish order.

        Use as ``results = yield env.process(plan.execute(service))``.
        ``parent`` is forwarded to each transfer's span.
        """
        if self.concurrency < 1:
            raise TransferError("staging concurrency must be >= 1")
        env = service.env
        gate = Resource(env, capacity=self.concurrency)
        results: list[TransferResult] = []

        def one(request: TransferRequest):
            with gate.request() as slot:
                yield slot
                result = yield env.process(service.transfer(request, parent=parent))
            results.append(result)
            return result

        children = [env.process(one(r), name=f"stage-{r.file_name}") for r in self.requests]
        if children:
            yield env.all_of(children)
        return results
