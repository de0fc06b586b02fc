"""Flow-level network model with max-min fair bandwidth sharing.

Why flow-level: the paper's experiments are characterized by *which
transfers share which bottleneck* (all workers pull through the master's
single provisioned 100 Mbps uplink), not by packet dynamics. A
progressive-filling (water-filling) max-min allocation over a set of
concurrent flows captures exactly that: when the master streams to four
workers at once each flow gets ~25 Mbps; when three finish the last one
speeds up to 100 Mbps.

Mechanics
---------
A :class:`Link` has a capacity in bits/s. A :class:`Flow` occupies a
path (sequence of links) and drains a fixed number of bits. Whenever the
set of active flows changes, the model:

1. advances every active flow by ``rate × elapsed`` bits,
2. recomputes max-min fair rates (respecting per-flow rate caps, which
   model single-stream protocol limits — see :mod:`repro.transfer`),
3. schedules a wake-up at the earliest projected flow completion.

Disk I/O reuses the same machinery: a disk is just a pair of links
(read/write), so an end-to-end transfer path ``[src-disk-read,
src-uplink, dst-downlink, dst-disk-write]`` is automatically limited by
its slowest stage. This mirrors the observation in the paper's §III-A
that local disks, block stores, and network storage have different
bandwidth trade-offs.

Performance model
-----------------
Replanning is *incremental*: the max-min allocation decomposes over the
connected components of the flow/link bipartite graph, so an arrival or
departure only perturbs rates inside its own component. The planner
tracks which links changed since the last plan and re-solves only the
affected components, reusing frozen rates everywhere else. All
arrivals/retirements that land at the same virtual instant are coalesced
into a single replanning pass. Components are solved by the batched
solver in :mod:`repro.cloud.maxmin` — one aggregate capacity delta per
link per freeze round.

Three structural choices keep the per-wake cost flat as flow counts
grow:

- **Drain is closed-form.** A flow's remaining volume is only a
  function of the last rate change (``R0 - rate × (now - t0)``), so
  nothing iterates over active flows between replans, and evaluating
  the formula at any instant gives the same bits regardless of how
  often intermediate code looked at it. This is what makes
  ``incremental=True`` and ``incremental=False`` replay identically:
  both materialize at the same rate-change instants.
- **The completion heap holds frontiers, not futures.** Each replanned
  component pushes only its earliest projected completion (plus exact
  ties); later completions are discovered by the replan that the
  earliest retirement triggers. Projections are stored per flow and
  re-pushed verbatim, so duplicate entries are bitwise equal and the
  heap stays O(components), not O(rate changes).
- **Component discovery uses visit stamps.** Reachability marks links
  and flows with a per-replan token instead of building hash sets.

Both planner modes solve each component with identical,
deterministically-ordered arithmetic, so the two replay byte-identically
— see ``tests/cloud/test_max_min_incremental.py``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence

from repro.cloud.maxmin import solve_rates
from repro.errors import NetworkError
from repro.sim.kernel import Environment, Event
from repro.telemetry.metrics import NULL_METRICS
from repro.telemetry.spans import Telemetry
from repro.util.units import bytes_to_bits

#: Flows whose remaining volume is below this many bits are considered
#: drained (guards against float dust keeping flows alive forever).
_EPSILON_BITS = 1e-6

#: Flows with less than this much *time* of work left are also retired:
#: at high rates the residual bits can correspond to a delay below the
#: float resolution of `now + delay`, which would stall virtual time.
_EPSILON_TIME = 1e-9

_LINK_NAME = operator.attrgetter("name")
_FLOW_ID = operator.attrgetter("id")


class Link:
    """A unidirectional capacity-constrained channel.

    ``capacity`` is the *current* (possibly degraded) rate; links are
    created at ``base_capacity`` and fault injection may lower the
    current rate — to zero for a blackout — via
    :meth:`FlowNetwork.set_link_capacity`.
    """

    __slots__ = (
        "name",
        "capacity",
        "base_capacity",
        "latency",
        "_flows",
        "_visit",
        "_s_stamp",
        "_s_cap",
        "_s_count",
        "_s_kstamp",
        "_s_frozen",
        "_s_delta",
    )

    def __init__(self, name: str, capacity_bps: float, latency_s: float = 0.0):
        if capacity_bps <= 0:
            raise NetworkError(f"link {name!r} needs positive capacity")
        if latency_s < 0:
            raise NetworkError(f"link {name!r} has negative latency")
        self.name = name
        self.capacity = float(capacity_bps)
        self.base_capacity = float(capacity_bps)
        self.latency = float(latency_s)
        self._flows: set["Flow"] = set()
        #: Visit stamp for component discovery (see FlowNetwork._component).
        self._visit = 0
        # Token-validated scratch slots for the scalar max-min solver
        # (see repro.cloud.maxmin — avoids per-solve dict building).
        self._s_stamp = 0
        self._s_cap = 0.0
        self._s_count = 0
        self._s_kstamp = 0
        self._s_frozen = 0
        self._s_delta = 0.0

    @property
    def degraded(self) -> bool:
        return self.capacity < self.base_capacity

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.capacity:.0f}bps flows={len(self._flows)}>"


@dataclass(frozen=True)
class Route:
    """A named path through the network (sequence of link names)."""

    name: str
    links: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise NetworkError(f"route {self.name!r} has no links")


class Flow:
    """One in-flight transfer.

    ``done`` is the completion event; its value is the flow itself so
    processes can inspect it (cancelled, end_time) afterwards.
    """

    __slots__ = (
        "id",
        "path",
        "total_bits",
        "remaining_bits",
        "rate",
        "max_rate",
        "done",
        "start_time",
        "end_time",
        "tag",
        "cancelled",
        "_version",
        "_rate_t0",
        "_projected_end",
        "_visit",
        "_s_rate",
    )

    def __init__(
        self,
        flow_id: int,
        path: Sequence[Link],
        nbytes: float,
        done: Event,
        max_rate: Optional[float],
        start_time: float,
        tag: str,
    ):
        self.id = flow_id
        self.path = tuple(path)
        self.total_bits = bytes_to_bits(nbytes)
        self.remaining_bits = self.total_bits
        self.rate = 0.0
        self.max_rate = max_rate
        self.done = done
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self.tag = tag
        #: True when the flow was torn down before draining (timeout
        #: guard, injected transfer fault). ``done`` still succeeds so
        #: waiters wake up; they must check this flag.
        self.cancelled = False
        #: Bumped on every rate change/retirement; projected-completion
        #: heap entries carry the version they were computed under, so
        #: stale entries are recognized and skipped (lazy invalidation).
        self._version = 0
        #: ``remaining_bits`` is exact as of this instant; between rate
        #: changes the live value is ``remaining_bits - rate * (now -
        #: _rate_t0)`` (closed form — no per-wake advancement loop).
        self._rate_t0 = start_time
        #: Projected completion under the current rate, computed once
        #: per rate change so re-pushing it is bitwise stable.
        self._projected_end = math.inf
        #: Visit stamp for component discovery.
        self._visit = 0
        #: Solver scratch slot (repro.cloud.maxmin).
        self._s_rate = 0.0

    def __repr__(self) -> str:
        return f"<Flow {self.id} tag={self.tag} remaining={self.remaining_bits:.0f}b>"


def _components(flows: Sequence[Flow]) -> list[list[Flow]]:
    """Partition ``flows`` into connected components of the flow/link graph.

    Each component's flows appear in the order they occur in ``flows``
    (deterministic given a deterministic input order).
    """
    link_members: dict[Link, list[Flow]] = {}
    for flow in flows:
        for link in flow.path:
            link_members.setdefault(link, []).append(flow)
    comp_id: dict[Flow, int] = {}
    count = 0
    for flow in flows:
        if flow in comp_id:
            continue
        comp_id[flow] = count
        stack = [flow]
        while stack:
            member = stack.pop()
            for link in member.path:
                for peer in link_members[link]:
                    if peer not in comp_id:
                        comp_id[peer] = count
                        stack.append(peer)
        count += 1
    components: list[list[Flow]] = [[] for _ in range(count)]
    for flow in flows:
        components[comp_id[flow]].append(flow)
    return components


def max_min_rates(
    flows: Iterable[Flow],
    capacities: dict[Link, float] | None = None,
) -> dict[Flow, float]:
    """Progressive-filling max-min fair allocation with per-flow caps.

    Repeatedly finds the most-constrained link (smallest fair share),
    freezes its flows at that share, removes the consumed capacity, and
    iterates. Flows with ``max_rate`` below their fair share are frozen
    at their cap first (standard extension for rate-limited flows).

    The allocation decomposes over connected components of the flow/link
    bipartite graph; each component is solved independently (this is
    what makes incremental replanning exact — see :class:`FlowNetwork`).
    """
    ordered = list(flows)
    if not ordered:
        return {}
    rates: dict[Flow, float] = {}
    for component in _components(ordered):
        rates.update(zip(component, solve_rates(component, capacities)))
    return rates


class FlowNetwork:
    """The dynamic flow simulation over a set of links.

    Components create links once (:meth:`add_link`) and start transfers
    with :meth:`start_flow`. A background driver process retires drained
    flows and re-plans rates whenever the active set changes.

    ``incremental=True`` (the default) re-solves only the connected
    components touched by arrivals/departures since the last plan;
    ``incremental=False`` re-solves every component from scratch each
    time. Both produce byte-identical schedules (each component is
    solved with identical arithmetic either way); the flag exists for
    the equivalence tests and as an escape hatch.
    """

    def __init__(
        self,
        env: Environment,
        *,
        incremental: bool = True,
        telemetry: Telemetry | None = None,
    ):
        self.env = env
        self.telemetry = telemetry
        metrics = telemetry.metrics if telemetry is not None else NULL_METRICS
        self._m_flows = metrics.counter("network.flows_completed")
        self._m_bytes = metrics.counter("network.bytes_moved")
        self._m_replans = metrics.counter("network.replans")
        self._m_cancelled = metrics.counter("network.flows_cancelled")
        self._m_capacity_changes = metrics.counter("network.capacity_changes")
        self.incremental = incremental
        self._links: dict[str, Link] = {}
        #: Active flows in arrival order (dict for deterministic iteration).
        self._flows: dict[Flow, None] = {}
        self._flow_ids = itertools.count()
        #: Monotone token stamped onto links/flows during component
        #: discovery (cheaper than per-replan visited sets).
        self._visit_token = 0
        #: Arrivals whose startup latency has elapsed, awaiting admission
        #: by the driver (coalesces same-instant arrivals into one plan).
        self._pending: list[Flow] = []
        #: Links whose flow membership changed since the last plan.
        self._dirty_links: set[Link] = set()
        #: Lazily-invalidated min-heap of (projected_end, flow_id,
        #: version, flow); entries whose version no longer matches the
        #: flow are skipped on pop.
        self._completion_heap: list[tuple[float, int, int, Flow]] = []
        #: The driver's (recycled) wake event; other code pokes it.
        self._wake = Event(env)
        #: Currently armed completion alarm (a pooled Timeout) + deadline.
        self._alarm: Optional[Event] = None
        self._alarm_deadline = math.inf
        self._driver = env.process(self._drive(), name="flow-network")
        self.completed_flows = 0
        self.total_bytes_moved = 0.0
        #: Number of (coalesced) replanning passes actually executed.
        self.replans = 0

    # -- topology ---------------------------------------------------------
    def add_link(self, name: str, capacity_bps: float, latency_s: float = 0.0) -> Link:
        """Create and register a link (names are unique)."""
        if name in self._links:
            raise NetworkError(f"duplicate link name {name!r}")
        link = Link(name, capacity_bps, latency_s)
        self._links[name] = link
        return link

    def link(self, name: str) -> Link:
        try:
            return self._links[name]
        except KeyError:
            raise NetworkError(f"unknown link {name!r}") from None

    def set_link_capacity(self, name: str, capacity_bps: float) -> Link:
        """Change a link's current capacity (fault injection / repair).

        ``0`` models a blackout: flows crossing the link stall at rate
        zero and resume when capacity is restored. The change triggers
        an incremental replan of the affected component at this instant.
        """
        if capacity_bps < 0:
            raise NetworkError(f"link {name!r} capacity cannot be negative")
        link = self.link(name)
        if capacity_bps == link.capacity:
            return link
        link.capacity = float(capacity_bps)
        self._m_capacity_changes.inc()
        self._dirty_links.add(link)
        self._poke()
        if self.telemetry is not None:
            self.telemetry.event(
                "link.capacity", capacity_bps, track="network", link=name
            )
        return link

    def restore_link(self, name: str) -> Link:
        """Return a degraded link to its provisioned capacity."""
        return self.set_link_capacity(name, self.link(name).base_capacity)

    # -- flows --------------------------------------------------------------
    def start_flow(
        self,
        path: Sequence[str] | Route,
        nbytes: float,
        *,
        max_rate: Optional[float] = None,
        latency: Optional[float] = None,
        tag: str = "",
    ) -> Flow:
        """Begin a transfer of ``nbytes`` along ``path``.

        ``latency`` (default: sum of link latencies) delays the first
        bit; ``max_rate`` caps the flow below its fair share (protocol
        single-stream limits). Returns the :class:`Flow`; wait on
        ``flow.done``.
        """
        if nbytes < 0:
            raise NetworkError("cannot transfer a negative volume")
        route = path if isinstance(path, Route) else Route("<anon>", tuple(path))
        links = [self.link(name) for name in route.links]
        if max_rate is not None and max_rate <= 0:
            raise NetworkError("max_rate must be positive")
        done = Event(self.env)
        flow = Flow(
            flow_id=next(self._flow_ids),
            path=links,
            nbytes=nbytes,
            done=done,
            max_rate=max_rate,
            start_time=self.env.now,
            tag=tag,
        )
        startup = sum(l.latency for l in links) if latency is None else latency
        if nbytes == 0:
            # Pure-latency "transfer" (control message): no bandwidth use.
            if startup > 0:
                self.env.process(self._zero_volume(flow, startup), name=f"flow{flow.id}-zero")
            else:
                self._finish_zero_volume(flow)
            return flow
        if startup > 0:
            self.env.process(self._launch(flow, startup), name=f"flow{flow.id}-launch")
        else:
            self._admit(flow)
        return flow

    def transfer(self, path: Sequence[str] | Route, nbytes: float, **kw) -> Event:
        """Shorthand: start a flow, return its completion event."""
        return self.start_flow(path, nbytes, **kw).done

    def cancel_flow(self, flow: Flow, reason: str = "") -> bool:
        """Tear down an in-flight flow before it drains.

        Used by the transfer timeout guard: the abandoned flow must stop
        consuming bandwidth immediately. ``flow.done`` still *succeeds*
        (with the flow as value) so any waiter wakes up; the waiter must
        check :attr:`Flow.cancelled`. Returns False when the flow had
        already finished.
        """
        if flow.done.triggered:
            return False
        flow.cancelled = True
        if flow in self._flows:
            # Account bits drained up to this instant, then release the
            # flow's share so the component replans without it.
            self._materialize(flow, self.env.now)
            del self._flows[flow]
            for link in flow.path:
                link._flows.discard(flow)
            self._dirty_links.update(flow.path)
            self._poke()
        else:
            # Still in startup latency or awaiting admission.
            try:
                self._pending.remove(flow)
            except ValueError:
                pass
        flow.rate = 0.0
        flow._version += 1
        flow.end_time = self.env.now
        self._m_cancelled.inc()
        flow.done.succeed(flow)
        if self.telemetry is not None:
            self.telemetry.span_complete(
                "flow",
                flow.start_time,
                flow.end_time,
                track="network",
                flow=flow.id,
                tag=flow.tag,
                nbytes=(flow.total_bits - flow.remaining_bits) / 8.0,
                cancelled=True,
                reason=reason,
            )
        return True

    def _zero_volume(self, flow: Flow, startup: float):
        yield self.env.timeout(startup)
        self._finish_zero_volume(flow)

    def _finish_zero_volume(self, flow: Flow) -> None:
        if flow.cancelled:
            return
        flow.end_time = self.env.now
        self.completed_flows += 1
        self._m_flows.inc()
        flow.done.succeed(flow)
        if self.telemetry is not None:
            # Control messages carry no payload but still count: record
            # the span so consumers see every flow, not just bulk data
            # movements.
            self.telemetry.span_complete(
                "flow",
                flow.start_time,
                flow.end_time,
                track="network",
                flow=flow.id,
                tag=flow.tag,
                nbytes=0.0,
            )

    def _launch(self, flow: Flow, startup: float):
        yield self.env.timeout(startup)
        self._admit(flow)

    def _admit(self, flow: Flow) -> None:
        """Queue an arrival for the driver and wake it at this instant."""
        if flow.cancelled:
            return  # cancelled during startup latency
        self._pending.append(flow)
        self._poke()

    # -- engine -------------------------------------------------------------
    def _poke(self) -> None:
        """Wake the driver within the current virtual instant (idempotent)."""
        wake = self._wake
        if not wake.triggered:
            wake.succeed()

    def _on_alarm(self, timeout: Event) -> None:
        """A projected-completion alarm fired; stale alarms are ignored."""
        if timeout is self._alarm:
            self._alarm = None
            self._alarm_deadline = math.inf
            self._poke()
        self.env.release_timeout(timeout)  # type: ignore[arg-type]

    def _drive(self):
        """Driver process: one service pass per wake, then sleep."""
        wake = self._wake
        while True:
            yield wake
            self._service()
            wake.reset()

    @staticmethod
    def _materialize(flow: Flow, now: float) -> None:
        """Fold drained bits into ``remaining_bits`` as of ``now``.

        Closed-form over the interval since the last rate change, so the
        result is independent of how many times anything *looked* at the
        flow in between — the property the incremental/full equivalence
        tests rely on.
        """
        rate = flow.rate
        if rate > 0.0:
            flow.remaining_bits -= rate * (now - flow._rate_t0)
        flow._rate_t0 = now

    def _service(self) -> None:
        """Retire due flows, admit arrivals, replan, re-arm the alarm."""
        now = self.env.now

        # Retire drained flows: pop projected completions that are due
        # and verify against the actual remaining volume (including
        # residue that would drain in under a nanosecond — _EPSILON_TIME).
        heap = self._completion_heap
        due = now + _EPSILON_TIME
        while heap:
            projected, flow_id, version, flow = heap[0]
            if version != flow._version:
                heappop(heap)  # stale: rate changed since this projection
                continue
            if projected > due:
                break
            heappop(heap)
            self._materialize(flow, now)
            if flow.remaining_bits <= max(_EPSILON_BITS, flow.rate * _EPSILON_TIME):
                self._retire(flow, now)
            else:
                # Woken marginally early (float slack in alarm delay
                # arithmetic): project again from the advanced state.
                flow._version += 1
                flow._projected_end = now + flow.remaining_bits / flow.rate
                heappush(heap, (flow._projected_end, flow_id, flow._version, flow))

        # Admit arrivals whose startup latency elapsed at this instant.
        if self._pending:
            pending, self._pending = self._pending, []
            for flow in pending:
                if flow.cancelled:
                    continue  # cancelled between admission and service
                self._flows[flow] = None
                for link in flow.path:
                    link._flows.add(flow)
                self._dirty_links.update(flow.path)

        # One coalesced replanning pass for everything that changed.
        if self._dirty_links:
            self._replan(now)

        # Re-arm the completion alarm if an earlier wake-up is needed.
        while heap and heap[0][2] != heap[0][3]._version:
            heappop(heap)
        if heap:
            deadline = heap[0][0]
            if self._alarm is None or deadline < self._alarm_deadline:
                alarm = self.env.pooled_timeout(max(0.0, deadline - now))
                alarm.callbacks.append(self._on_alarm)
                self._alarm = alarm
                self._alarm_deadline = deadline

    def _retire(self, flow: Flow, now: float) -> None:
        del self._flows[flow]
        for link in flow.path:
            link._flows.discard(flow)
        self._dirty_links.update(flow.path)
        flow.remaining_bits = 0.0
        flow.rate = 0.0
        flow._version += 1
        flow.end_time = now
        self.completed_flows += 1
        self.total_bytes_moved += flow.total_bits / 8.0
        self._m_flows.inc()
        self._m_bytes.inc(flow.total_bits / 8.0)
        flow.done.succeed(flow)
        if self.telemetry is not None:
            self.telemetry.span_complete(
                "flow",
                flow.start_time,
                flow.end_time,
                track="network",
                flow=flow.id,
                tag=flow.tag,
                nbytes=flow.total_bits / 8.0,
            )

    def _replan(self, now: float) -> None:
        """Recompute rates for every component touched since the last plan.

        With ``incremental=False`` every component is re-solved; either
        way each component's flows are solved in flow-id order, so the
        two modes produce bitwise-identical rates.
        """
        dirty, self._dirty_links = self._dirty_links, set()
        self.replans += 1
        self._m_replans.inc()
        if self.incremental:
            token = self._visit_token = self._visit_token + 1
            for link in sorted(dirty, key=_LINK_NAME):
                if link._visit == token:
                    continue
                component_flows = self._component(link, token)
                if component_flows:
                    component_flows.sort(key=_FLOW_ID)
                    self._apply_rates(
                        component_flows, solve_rates(component_flows), now
                    )
        else:
            ordered_all = sorted(self._flows, key=_FLOW_ID)
            for component in _components(ordered_all):
                self._apply_rates(component, solve_rates(component), now)

    def _component(self, start: Link, token: int) -> list[Flow]:
        """Flows of the component containing ``start``, stamped with ``token``.

        Links reached are stamped too so the replan loop can skip dirty
        links already covered by an earlier component this pass. The
        returned order is unspecified (set iteration) — callers sort.
        """
        start._visit = token
        stack = [start]
        flows: list[Flow] = []
        while stack:
            link = stack.pop()
            for flow in link._flows:
                if flow._visit != token:
                    flow._visit = token
                    flows.append(flow)
                    for other in flow.path:
                        if other._visit != token:
                            other._visit = token
                            stack.append(other)
        return flows

    def _apply_rates(
        self, ordered: Sequence[Flow], rates: Sequence[float], now: float
    ) -> None:
        """Install a component's new rates; push its completion frontier.

        ``rates`` is parallel to ``ordered``. Only the earliest
        projected completion (and bitwise ties) goes on the heap:
        retiring it dirties the component, and the replan that follows
        pushes the next frontier. Projections are stored on the flow at
        rate-change time and re-pushed verbatim, so pushes for
        unchanged flows are exact duplicates of live entries — both
        planner modes therefore arm identical alarms.
        """
        heap = self._completion_heap
        frontier = math.inf
        ties: list[Flow] = []
        for flow, rate in zip(ordered, rates):
            if rate != flow.rate:
                old_rate = flow.rate
                if old_rate > 0.0:
                    flow.remaining_bits -= old_rate * (now - flow._rate_t0)
                flow._rate_t0 = now
                flow.rate = rate
                flow._version += 1
                flow._projected_end = projected = (
                    now + flow.remaining_bits / rate if rate > 0.0 else math.inf
                )
            else:
                projected = flow._projected_end
            if projected < frontier:
                frontier = projected
                ties = [flow]
            elif projected == frontier and frontier != math.inf:
                ties.append(flow)
        for flow in ties:
            heappush(heap, (frontier, flow.id, flow._version, flow))
