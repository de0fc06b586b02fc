"""Failure injection for the cloud substrate.

§V-A ("Robust"): *"Cloud environments often rely on commodity hardware
and have been shown to have availability fluctuations."* The injectors
produce exactly those fluctuations so FRIEDA's failure isolation and
recovery loop can be exercised. The fault taxonomy (DESIGN.md §11):

- **VM crash** — :class:`FailureInjector`, scripted
  (:class:`FailureSchedule`) or random (exponential time-to-failure
  with a given MTTF). A crash interrupts the node's worker processes,
  so the master learns of the loss immediately (the connection breaks).
- **Silent VM failure** — same injector, ``mode="silent"``: the node
  stops without the connection breaking. Nothing reports the loss; only
  the heartbeat sweep can detect it (missed beats → declared dead).
- **Link degradation / blackout** — :class:`LinkFaultInjector`: a
  link's capacity drops to a fraction of its provisioned rate (zero =
  blackout) for an interval, then recovers. Transfers crossing it slow
  down or stall; the flow network replans incrementally.
- **Transient transfer fault** — :class:`TransferFaultModel`: an
  individual transfer attempt dies mid-stream after a drawn fraction of
  its bytes (the scp-session-reset class of fault Pilot-Data retries
  around). Consumed by the transfer service's retry loop.

All randomness flows through :func:`repro.util.seeding.make_rng` with
named streams, so every chaos scenario replays byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cloud.cluster import VirtualCluster
from repro.cloud.network import FlowNetwork
from repro.errors import ConfigurationError
from repro.sim.kernel import Environment
from repro.telemetry.metrics import NULL_METRICS
from repro.util.seeding import make_rng

if TYPE_CHECKING:
    import numpy as np

#: Failure-cause marker for silent (fail-stop without notification)
#: VM deaths. The engine's worker loop checks for this prefix to decide
#: whether the loss is reported immediately (crash) or must be
#: discovered by the heartbeat sweep (silent).
SILENT_CAUSE = "silent"


def is_silent_cause(cause: str) -> bool:
    return str(cause).startswith(SILENT_CAUSE)


@dataclass(frozen=True)
class FailureRecord:
    """One injected failure that actually happened."""

    time: float
    vm_id: str
    cause: str


@dataclass(frozen=True)
class FailureSchedule:
    """Deterministic list of (time, vm_id[, mode]) failures.

    ``mode`` defaults to ``"crash"``; ``"silent"`` kills the VM without
    breaking its connection (detectable only via heartbeats).
    """

    entries: tuple[tuple[float, str, str], ...]

    @classmethod
    def of(cls, *entries: Sequence) -> "FailureSchedule":
        normalized = []
        for entry in entries:
            if len(entry) == 2:
                when, vm_id = entry
                mode = "crash"
            else:
                when, vm_id, mode = entry
            if mode not in ("crash", "silent"):
                raise ConfigurationError(f"unknown failure mode {mode!r}")
            normalized.append((float(when), str(vm_id), mode))
        return cls(tuple(sorted(normalized)))

    @property
    def has_silent(self) -> bool:
        return any(mode == "silent" for _t, _v, mode in self.entries)


class FailureInjector:
    """Drives VM failures into a cluster.

    Exactly one of ``schedule`` or ``mttf_s`` should be provided.
    With ``mttf_s``, each *worker* VM draws an exponential lifetime;
    the master is spared by default because the paper calls the master
    a single point of failure handled separately (§V-A) — pass
    ``spare_master=False`` to include it.

    ``silent_fraction`` (random mode only) makes that fraction of
    failures *silent*: the VM dies without its connection breaking, so
    only the heartbeat sweep can discover the loss.
    """

    def __init__(
        self,
        env: Environment,
        cluster: VirtualCluster,
        *,
        schedule: Optional[FailureSchedule] = None,
        mttf_s: Optional[float] = None,
        max_failures: Optional[int] = None,
        spare_master: bool = True,
        silent_fraction: float = 0.0,
        seed: int = 0,
    ):
        if (schedule is None) == (mttf_s is None):
            raise ValueError("provide exactly one of schedule= or mttf_s=")
        if not 0.0 <= silent_fraction <= 1.0:
            raise ValueError("silent_fraction must be in [0, 1]")
        self.env = env
        self.cluster = cluster
        self.records: list[FailureRecord] = []
        self.max_failures = max_failures
        self._spare_master = spare_master
        self._silent_fraction = float(silent_fraction)
        if schedule is not None:
            self.process = env.process(self._run_schedule(schedule), name="failure-injector")
        else:
            rng = make_rng(seed, "failures", cluster.spec.name)
            self.process = env.process(self._run_random(float(mttf_s), rng), name="failure-injector")

    def _eligible(self) -> list[str]:
        out = []
        for vm_id, vm in self.cluster.vms.items():
            if not vm.is_running:
                continue
            if self._spare_master and vm is self.cluster.master_vm:
                continue
            out.append(vm_id)
        return out

    def _inject(self, vm_id: str, cause: str) -> None:
        vm = self.cluster.vms.get(vm_id)
        if vm is None or not vm.is_running:
            return
        self.cluster.fail_vm(vm_id, cause)
        self.records.append(FailureRecord(self.env.now, vm_id, cause))

    def _run_schedule(self, schedule: FailureSchedule):
        for when, vm_id, mode in schedule.entries:
            delay = when - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._inject(vm_id, "silent-scheduled" if mode == "silent" else "scheduled")
            if self.max_failures is not None and len(self.records) >= self.max_failures:
                return

    def _run_random(self, mttf_s: float, rng: np.random.Generator):
        if mttf_s <= 0:
            raise ValueError("mttf_s must be positive")
        while True:
            # Pooled exponential: with k eligible VMs the next failure
            # arrives at rate k/MTTF, then strikes a uniform victim.
            eligible = self._eligible()
            if not eligible:
                return
            gap = float(rng.exponential(mttf_s / len(eligible)))
            yield self.env.timeout(gap)
            eligible = self._eligible()
            if not eligible:
                return
            victim = str(rng.choice(eligible))
            cause = "random"
            if self._silent_fraction > 0 and float(rng.random()) < self._silent_fraction:
                cause = "silent-random"
            self._inject(victim, cause)
            if self.max_failures is not None and len(self.records) >= self.max_failures:
                return


@dataclass(frozen=True)
class LinkFaultRecord:
    """One link degradation window that actually happened."""

    start: float
    link: str
    duration: float
    #: Remaining capacity as a fraction of the provisioned rate
    #: (0.0 = blackout).
    fraction: float


@dataclass(frozen=True)
class LinkFaultSchedule:
    """Deterministic list of (start, link_name, duration, fraction)."""

    entries: tuple[tuple[float, str, float, float], ...]

    @classmethod
    def of(cls, *entries: Sequence) -> "LinkFaultSchedule":
        normalized = []
        for start, link, duration, fraction in entries:
            if duration <= 0:
                raise ConfigurationError(f"link fault on {link!r} needs duration > 0")
            if not 0.0 <= fraction < 1.0:
                raise ConfigurationError(
                    f"link fault fraction must be in [0, 1), got {fraction}"
                )
            normalized.append((float(start), str(link), float(duration), float(fraction)))
        return cls(tuple(sorted(normalized)))


class LinkFaultInjector:
    """Drives link degradation/blackout windows into a flow network.

    Exactly one of ``schedule`` or ``mtbf_s`` should be provided. In
    random mode, faults arrive as a Poisson process with mean gap
    ``mtbf_s``; each strikes a uniform victim among ``links`` that is
    not already degraded, blacks it out with probability
    ``blackout_prob`` (otherwise capacity drops to a fraction drawn
    uniform in ``severity_range``), and heals after an exponential
    outage with mean ``mean_outage_s``. Overlapping scheduled windows
    on an already-degraded link are skipped (recorded faults only).

    Every window emits a ``link.degraded`` span on the network track
    and bumps the ``network.link_faults`` counter.
    """

    def __init__(
        self,
        env: Environment,
        network: FlowNetwork,
        *,
        links: Sequence[str] = (),
        schedule: Optional[LinkFaultSchedule] = None,
        mtbf_s: Optional[float] = None,
        mean_outage_s: float = 30.0,
        blackout_prob: float = 0.25,
        severity_range: tuple[float, float] = (0.05, 0.5),
        max_faults: Optional[int] = None,
        seed: int = 0,
    ):
        if (schedule is None) == (mtbf_s is None):
            raise ValueError("provide exactly one of schedule= or mtbf_s=")
        lo, hi = severity_range
        if not 0.0 <= lo <= hi < 1.0:
            raise ValueError("severity_range must satisfy 0 <= lo <= hi < 1")
        self.env = env
        self.network = network
        self.records: list[LinkFaultRecord] = []
        self.max_faults = max_faults
        self._links = tuple(links)
        self._active: set[str] = set()
        metrics = network.telemetry.metrics if network.telemetry is not None else NULL_METRICS
        self._m_faults = metrics.counter("network.link_faults")
        if schedule is not None:
            self.process = env.process(self._run_schedule(schedule), name="link-fault-injector")
        else:
            if not self._links:
                raise ValueError("random link faults need a candidate links= list")
            rng = make_rng(seed, "link-faults")
            self.process = env.process(
                self._run_random(
                    float(mtbf_s), float(mean_outage_s), float(blackout_prob),
                    (float(lo), float(hi)), rng,
                ),
                name="link-fault-injector",
            )

    @property
    def faults_injected(self) -> int:
        return len(self.records)

    def _begin_window(self, link_name: str, duration: float, fraction: float) -> bool:
        """Start one degradation window (spawns the heal process)."""
        if link_name in self._active:
            return False  # already degraded; don't stack windows
        link = self.network.link(link_name)
        self._active.add(link_name)
        self.records.append(
            LinkFaultRecord(self.env.now, link_name, duration, fraction)
        )
        self._m_faults.inc()
        self.network.set_link_capacity(link_name, fraction * link.base_capacity)
        # frieda: allow[dropped-event] -- heal runs fire-and-forget; the
        # injector never joins it (windows may outlive the injector loop)
        self.env.process(
            self._heal(link_name, duration, fraction), name=f"link-heal-{link_name}"
        )
        return True

    def _heal(self, link_name: str, duration: float, fraction: float):
        start = self.env.now
        yield self.env.timeout(duration)
        self.network.restore_link(link_name)
        self._active.discard(link_name)
        if self.network.telemetry is not None:
            self.network.telemetry.span_complete(
                "link.degraded",
                start,
                self.env.now,
                track="network",
                link=link_name,
                fraction=fraction,
            )

    def _run_schedule(self, schedule: LinkFaultSchedule):
        for start, link_name, duration, fraction in schedule.entries:
            delay = start - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._begin_window(link_name, duration, fraction)
            if self.max_faults is not None and len(self.records) >= self.max_faults:
                return

    def _run_random(
        self,
        mtbf_s: float,
        mean_outage_s: float,
        blackout_prob: float,
        severity_range: tuple[float, float],
        rng: np.random.Generator,
    ):
        if mtbf_s <= 0:
            raise ValueError("mtbf_s must be positive")
        while True:
            yield self.env.timeout(float(rng.exponential(mtbf_s)))
            candidates = [l for l in self._links if l not in self._active]
            if not candidates:
                continue
            victim = str(rng.choice(candidates))
            duration = float(rng.exponential(mean_outage_s))
            if float(rng.random()) < blackout_prob:
                fraction = 0.0
            else:
                fraction = float(rng.uniform(*severity_range))
            if duration > 0:
                self._begin_window(victim, duration, fraction)
            if self.max_faults is not None and len(self.records) >= self.max_faults:
                return


class TransferFaultModel:
    """Seeded transient per-transfer faults.

    Each transfer *attempt* independently dies with probability
    ``fault_rate``; a faulted attempt perishes after a drawn fraction of
    its wire bytes has moved (the bytes are really transferred — the
    bandwidth was really spent — but the file never lands). Consumed by
    :class:`~repro.transfer.staging.TransferService`, whose retry policy
    decides what happens next.

    Draw order is the transfer-attempt order, which the simulation makes
    deterministic, so a seeded chaos run replays byte-identically.
    """

    def __init__(self, fault_rate: float, *, seed: int = 0):
        if not 0.0 <= fault_rate < 1.0:
            raise ValueError("fault_rate must be in [0, 1)")
        self.fault_rate = float(fault_rate)
        self._rng = make_rng(seed, "transfer-faults")
        self.faults_drawn = 0

    def draw(self) -> Optional[float]:
        """One attempt's fate: None = clean, else the surviving byte
        fraction in (0, 1) at which the stream dies."""
        if self.fault_rate <= 0.0:
            return None
        if float(self._rng.random()) >= self.fault_rate:
            return None
        self.faults_drawn += 1
        return float(self._rng.uniform(0.05, 0.95))
