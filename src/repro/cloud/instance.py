"""Instance types and virtual machines.

The paper's testbed is 4 × *c1.xlarge* (4 QEMU cores, 4 GB memory) with
100 Mbps provisioned links. :data:`C1_XLARGE` encodes that type; two
smaller types exist for heterogeneous-cluster experiments (the paper
motivates real-time partitioning with heterogeneity).

A :class:`VirtualMachine` owns:

- a CPU :class:`~repro.sim.resources.Resource` with one slot per core
  (multicore worker cloning in FRIEDA grabs one slot per program
  instance),
- a local disk (created by the cluster, see :mod:`repro.cloud.storage`),
- a registry of processes to interrupt if the VM fails.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ProvisioningError
from repro.sim.kernel import Environment, Process
from repro.sim.resources import Resource
from repro.util.units import GB, Mbit


@dataclass(frozen=True)
class InstanceType:
    """A cloud instance flavour (immutable catalog entry)."""

    name: str
    cores: int
    memory_bytes: int
    local_disk_bytes: int
    #: Local-disk streaming bandwidth, bits/s (paper §III-A: local disk
    #: is the fastest tier but very limited in size).
    disk_read_bps: float
    disk_write_bps: float
    #: NIC rate, bits/s. The experiments provision 100 Mbps.
    nic_bps: float
    hourly_price: float = 0.0
    #: Relative per-core speed (1.0 = the reference c1.xlarge core).
    #: Heterogeneous clusters mix types with different speeds — the
    #: environment §III-A says real-time partitioning is designed for.
    core_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ProvisioningError(f"{self.name}: cores must be >= 1")
        if min(self.disk_read_bps, self.disk_write_bps, self.nic_bps) <= 0:
            raise ProvisioningError(f"{self.name}: bandwidths must be positive")
        if self.core_speed <= 0:
            raise ProvisioningError(f"{self.name}: core_speed must be positive")


#: The paper's evaluation instance: 4 cores, 4 GB, 100 Mbps provisioned.
C1_XLARGE = InstanceType(
    name="c1.xlarge",
    cores=4,
    memory_bytes=4 * GB,
    local_disk_bytes=40 * GB,
    disk_read_bps=800 * Mbit,
    disk_write_bps=640 * Mbit,
    nic_bps=100 * Mbit,
    hourly_price=0.68,
)

M1_SMALL = InstanceType(
    name="m1.small",
    cores=1,
    memory_bytes=int(1.7 * GB),
    local_disk_bytes=10 * GB,
    disk_read_bps=400 * Mbit,
    disk_write_bps=320 * Mbit,
    nic_bps=100 * Mbit,
    hourly_price=0.09,
    core_speed=0.5,
)

M1_LARGE = InstanceType(
    name="m1.large",
    cores=2,
    memory_bytes=int(7.5 * GB),
    local_disk_bytes=80 * GB,
    disk_read_bps=800 * Mbit,
    disk_write_bps=640 * Mbit,
    nic_bps=200 * Mbit,
    hourly_price=0.34,
)


class VmState(str, enum.Enum):
    PROVISIONING = "provisioning"
    RUNNING = "running"
    FAILED = "failed"
    TERMINATED = "terminated"


class VirtualMachine:
    """A running (simulated) VM.

    Failure semantics: :meth:`fail` flips the state, interrupts every
    registered process with the VM as the interrupt cause, and records
    the failure time. FRIEDA's controller learns about it through the
    worker's connection breaking, matching §II-D ("Information on any
    failed worker gets reported to the controller").
    """

    def __init__(self, env: Environment, vm_id: str, itype: InstanceType):
        self.env = env
        self.vm_id = vm_id
        self.itype = itype
        self.state = VmState.PROVISIONING
        self.cpu = Resource(env, capacity=itype.cores)
        #: Set by the cluster when it creates the local disk volume.
        self.local_disk: Optional[Any] = None
        self.boot_time: Optional[float] = None
        self.failure_time: Optional[float] = None
        self.termination_time: Optional[float] = None
        self._processes: list[Process] = []

    # -- lifecycle -------------------------------------------------------
    def mark_running(self) -> None:
        if self.state is not VmState.PROVISIONING:
            raise ProvisioningError(f"{self.vm_id}: cannot boot from {self.state}")
        self.state = VmState.RUNNING
        self.boot_time = self.env.now

    @property
    def is_running(self) -> bool:
        return self.state is VmState.RUNNING

    @property
    def is_gone(self) -> bool:
        """True once the VM failed or was terminated: it never runs again."""
        return self.state in (VmState.FAILED, VmState.TERMINATED)

    def register_process(self, process: Process) -> Process:
        """Track a process so :meth:`fail` can interrupt it."""
        self._processes.append(process)
        return process

    def fail(self, cause: str = "vm-failure") -> None:
        """Kill the VM: interrupt all registered live processes."""
        if self.is_gone:
            return
        self.state = VmState.FAILED
        self.failure_time = self.env.now
        for process in self._processes:
            if process.is_alive:
                process.interrupt((self.vm_id, cause))

    def terminate(self) -> None:
        """Graceful shutdown (end of run, or elastic scale-down)."""
        if self.state is VmState.TERMINATED:
            return
        self.state = VmState.TERMINATED
        self.termination_time = self.env.now

    @property
    def uptime(self) -> float:
        """Seconds between boot and failure/termination (or now)."""
        if self.boot_time is None:
            return 0.0
        end = self.failure_time or self.termination_time or self.env.now
        return max(0.0, end - self.boot_time)

    def __repr__(self) -> str:
        return f"<VM {self.vm_id} {self.itype.name} {self.state.value}>"
