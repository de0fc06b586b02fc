"""Virtual cluster assembly and the ORCA-like provisioner.

The cluster wires together VMs, storage volumes and the flow network
into the star topology of the testbed:

- every VM gets an uplink (``vmX.up``) and a downlink (``vmX.down``)
  at its NIC rate through an uncongested core,
- an optional WAN link models cross-site transfers (the Figure 7
  placement experiments: shipping data *to* the compute site crosses
  the WAN; moving computation to the data does not),
- an optional shared :class:`~repro.cloud.storage.NetworkStorage`
  models the iSCSI tier.

:class:`Provisioner` plays the role ORCA/Flukes play in §IV-A: it turns
a :class:`ClusterSpec` into booted VMs, simulating boot latency, and
supports adding VMs later (elasticity, §V-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


from repro.cloud.instance import C1_XLARGE, InstanceType, VirtualMachine
from repro.cloud.network import FlowNetwork
from repro.cloud.storage import LocalDisk, NetworkStorage, StorageVolume
from repro.errors import NetworkError, ProvisioningError
from repro.sim.kernel import Environment, Event
from repro.telemetry.spans import Telemetry
from repro.util.seeding import make_rng
from repro.util.units import Mbit


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative description of the virtual cluster to provision."""

    name: str = "cluster"
    instance_type: InstanceType = C1_XLARGE
    num_workers: int = 4
    #: Heterogeneous clusters: when non-empty, worker VM *i* uses
    #: ``worker_instance_types[i % len]`` instead of ``instance_type``.
    worker_instance_types: tuple[InstanceType, ...] = ()
    #: Provisioned per-VM link rate; the paper pins this to 100 Mbps.
    link_bps: float = 100 * Mbit
    link_latency_s: float = 0.001
    #: Master runs on its own VM (data source in the remote strategies).
    master_instance_type: Optional[InstanceType] = None
    #: Mean VM boot delay (exponential); 0 disables boot simulation.
    mean_boot_delay_s: float = 0.0
    #: Shared network-storage tier (None to omit).
    network_storage_bytes: float = 0.0
    network_storage_bps: float = 400 * Mbit
    network_storage_server_bps: float = 400 * Mbit
    #: WAN link between the data-source site and the compute site;
    #: 0 keeps everything on one site.
    wan_bps: float = 0.0
    wan_latency_s: float = 0.03
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers < 0:
            raise ProvisioningError("num_workers must be >= 0")
        if self.link_bps <= 0:
            raise ProvisioningError("link_bps must be positive")


class VirtualCluster:
    """The provisioned environment FRIEDA runs in."""

    def __init__(
        self,
        env: Environment,
        spec: ClusterSpec,
        telemetry: Telemetry | None = None,
    ):
        self.env = env
        self.spec = spec
        if telemetry is None:
            # Standalone construction: a private hub that keeps metrics
            # but records nothing (the engine passes its own hub).
            telemetry = Telemetry(clock=lambda: env.now)
        self.telemetry = telemetry
        self.network = FlowNetwork(env, telemetry=telemetry)
        self.vms: dict[str, VirtualMachine] = {}
        self.master_vm: Optional[VirtualMachine] = None
        self.shared_storage: Optional[NetworkStorage] = None
        self.wan_link_name: Optional[str] = None
        self._vm_counter = 0
        if spec.network_storage_bytes > 0:
            self.shared_storage = NetworkStorage(
                self.network,
                f"{spec.name}.nstore",
                spec.network_storage_bytes,
                read_bps=spec.network_storage_bps,
                write_bps=spec.network_storage_bps,
                server_uplink_bps=spec.network_storage_server_bps,
            )
        if spec.wan_bps > 0:
            self.wan_link_name = f"{spec.name}.wan"
            self.network.add_link(self.wan_link_name, spec.wan_bps, spec.wan_latency_s)

    # -- construction -----------------------------------------------------
    def _next_vm_id(self, role: str) -> str:
        vm_id = f"{role}{self._vm_counter}"
        self._vm_counter += 1
        return vm_id

    def create_vm(
        self,
        role: str = "worker",
        itype: InstanceType | None = None,
        *,
        site: str = "compute",
    ) -> VirtualMachine:
        """Create (but do not boot) a VM with its links and local disk.

        ``site`` tags the VM for WAN routing: flows between VMs on
        different sites traverse the WAN link.
        """
        itype = itype or self.spec.instance_type
        vm_id = self._next_vm_id(role)
        vm = VirtualMachine(self.env, vm_id, itype)
        rate = min(self.spec.link_bps, itype.nic_bps)
        self.network.add_link(f"{vm_id}.up", rate, self.spec.link_latency_s)
        self.network.add_link(f"{vm_id}.down", rate, self.spec.link_latency_s)
        vm.local_disk = LocalDisk(
            self.network,
            f"{vm_id}.disk",
            itype.local_disk_bytes,
            read_bps=itype.disk_read_bps,
            write_bps=itype.disk_write_bps,
        )
        vm.site = site  # type: ignore[attr-defined]
        self.vms[vm_id] = vm
        return vm

    # -- queries ----------------------------------------------------------
    @property
    def worker_vms(self) -> list[VirtualMachine]:
        return [vm for vm_id, vm in self.vms.items() if vm is not self.master_vm]

    def running_workers(self) -> list[VirtualMachine]:
        return [vm for vm in self.worker_vms if vm.is_running]

    def vm(self, vm_id: str) -> VirtualMachine:
        try:
            return self.vms[vm_id]
        except KeyError:
            raise ProvisioningError(f"unknown VM {vm_id!r}") from None

    @property
    def total_cores(self) -> int:
        return sum(vm.itype.cores for vm in self.vms.values() if vm.is_running)

    # -- routing ----------------------------------------------------------
    def route_between(self, src_vm: str, dst_vm: str) -> tuple[str, ...]:
        """Network path (link names) from one VM's NIC to another's.

        Adds the WAN hop when the VMs sit on different sites.
        """
        src = self.vm(src_vm)
        dst = self.vm(dst_vm)
        if src_vm == dst_vm:
            return ()
        hops: list[str] = [f"{src_vm}.up"]
        if getattr(src, "site", "compute") != getattr(dst, "site", "compute"):
            if self.wan_link_name is None:
                raise NetworkError(
                    f"{src_vm} and {dst_vm} are on different sites but the "
                    "cluster has no WAN link"
                )
            hops.append(self.wan_link_name)
        hops.append(f"{dst_vm}.down")
        return tuple(hops)

    def disk_to_disk_path(self, src_vm: str, dst_vm: str) -> tuple[str, ...]:
        """Full path: source disk read → network → destination disk write."""
        src_disk: StorageVolume = self.vm(src_vm).local_disk
        dst_disk: StorageVolume = self.vm(dst_vm).local_disk
        return src_disk.read_path() + self.route_between(src_vm, dst_vm) + dst_disk.write_path()

    def storage_read_path(self, dst_vm: str) -> tuple[str, ...]:
        """Path for a VM reading from shared network storage."""
        if self.shared_storage is None:
            raise NetworkError("cluster has no shared network storage")
        return self.shared_storage.read_path() + (f"{dst_vm}.down",)

    # -- failure hook -------------------------------------------------------
    def fail_vm(self, vm_id: str, cause: str = "injected") -> None:
        vm = self.vm(vm_id)
        vm.fail(cause)
        if vm.local_disk is not None:
            vm.local_disk.clear()  # ephemeral disk dies with the VM
        self.telemetry.event("vm.failed", vm_id, track="control", cause=cause)
        self.telemetry.metrics.counter("cluster.vm_failures").inc()


class Provisioner:
    """Boots a :class:`VirtualCluster` from a :class:`ClusterSpec`.

    Boot delays are exponential with mean ``spec.mean_boot_delay_s``;
    a zero mean boots everything instantaneously (useful in unit tests).
    """

    def __init__(
        self,
        env: Environment,
        telemetry: Telemetry | None = None,
    ):
        self.env = env
        self.telemetry = telemetry

    def provision(self, spec: ClusterSpec) -> tuple[VirtualCluster, Event]:
        """Create the cluster; returns (cluster, ready_event)."""
        cluster = VirtualCluster(self.env, spec, self.telemetry)
        rng = make_rng(spec.seed, "provision", spec.name)
        master = cluster.create_vm(
            "master", spec.master_instance_type or spec.instance_type
        )
        cluster.master_vm = master
        workers = []
        for index in range(spec.num_workers):
            if spec.worker_instance_types:
                itype = spec.worker_instance_types[index % len(spec.worker_instance_types)]
            else:
                itype = spec.instance_type
            workers.append(cluster.create_vm("worker", itype))

        def boot(vm: VirtualMachine):
            if spec.mean_boot_delay_s > 0:
                yield self.env.timeout(float(rng.exponential(spec.mean_boot_delay_s)))
            vm.mark_running()
            cluster.telemetry.event("vm.booted", vm.vm_id, track="control")
            cluster.telemetry.metrics.counter("cluster.vms_booted").inc()
            return vm

        boots = [self.env.process(boot(vm), name=f"boot-{vm.vm_id}") for vm in [master, *workers]]
        ready = self.env.all_of(boots)
        return cluster, ready

    def provision_now(self, spec: ClusterSpec) -> VirtualCluster:
        """Provision and run the env until the cluster is fully booted."""
        cluster, ready = self.provision(spec)
        self.env.run(until=ready)
        return cluster

    def add_worker(
        self,
        cluster: VirtualCluster,
        itype: InstanceType | None = None,
        *,
        boot_delay: float | None = None,
    ) -> tuple[VirtualMachine, Event]:
        """Elastically add one worker VM; returns (vm, booted_event)."""
        vm = cluster.create_vm("worker", itype)
        delay = (
            boot_delay
            if boot_delay is not None
            else cluster.spec.mean_boot_delay_s
        )

        def boot():
            if delay > 0:
                yield self.env.timeout(delay)
            vm.mark_running()
            cluster.telemetry.event("vm.booted", vm.vm_id, track="control", elastic=True)
            cluster.telemetry.metrics.counter("cluster.vms_booted").inc()
            return vm

        return vm, self.env.process(boot(), name=f"boot-{vm.vm_id}")
