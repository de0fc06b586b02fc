"""Storage tiers: local disk, block store, network (iSCSI-style) storage.

§III-A of the paper: *"Every virtual machine has a local disk that
provides the fastest I/O [but] local disk space is very limited. ...
various cloud providers provide a way to use block store volumes ...
External storage, like iSCSI disks ... provide means to handle and
store large amounts of data which can be shared across the network."*

Each volume contributes **links** to the cluster's
:class:`~repro.cloud.network.FlowNetwork`, so a transfer path through a
volume is automatically throttled by the volume's bandwidth and shares
it fairly with concurrent I/O:

- :class:`LocalDisk` — per-VM, fast, small; read/write links private to
  the VM.
- :class:`BlockStore` — attachable volume with its own bandwidth,
  larger but slower than local disk.
- :class:`NetworkStorage` — a shared server: all clients contend on the
  server's uplink (this is what makes "pre-partitioning remote" read
  contention real in the Figure 6 experiments).

Volumes also track contents (file name → bytes) against capacity, so a
strategy that tries to replicate the whole dataset onto a 40 GB local
disk fails the same way it would on the testbed.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.cloud.network import FlowNetwork
from repro.errors import StorageError
from repro.telemetry.metrics import Counter
from repro.util.units import format_bytes


class StorageTier(str, enum.Enum):
    LOCAL = "local"
    BLOCK = "block"
    NETWORK = "network"


class StorageVolume:
    """Base volume: capacity accounting + read/write links.

    ``read_path()``/``write_path()`` return the link-name segments a
    transfer must traverse to read from / write to this volume.
    """

    tier: StorageTier = StorageTier.LOCAL

    def __init__(
        self,
        network: FlowNetwork,
        name: str,
        capacity_bytes: float,
        read_bps: float,
        write_bps: float,
        *,
        read_latency: float = 0.0,
        write_latency: float = 0.0,
    ):
        if capacity_bytes <= 0:
            raise StorageError(f"volume {name!r} needs positive capacity")
        self.name = name
        self.capacity_bytes = float(capacity_bytes)
        self.network = network
        self._contents: dict[str, int] = {}
        self._used = 0
        self._read_link = network.add_link(f"{name}.read", read_bps, read_latency)
        self._write_link = network.add_link(f"{name}.write", write_bps, write_latency)
        # Per-tier counters, resolved on first use: rendering a labelled
        # name per file would dominate the metrics cost of a wide run.
        self._m_read: Optional[Counter] = None
        self._m_write: Optional[tuple[Counter, Counter]] = None

    # -- paths -----------------------------------------------------------
    def read_path(self) -> tuple[str, ...]:
        return (self._read_link.name,)

    def write_path(self) -> tuple[str, ...]:
        return (self._write_link.name,)

    # -- telemetry ---------------------------------------------------------
    def note_read(self, nbytes: float) -> None:
        """Account a read of ``nbytes`` from this volume in the metrics
        registry (per storage tier, matching the paper's tier
        comparison).  The byte movement itself is modelled by the flow
        network; this is the aggregate-counting side."""
        counter = self._m_read
        if counter is None:
            telemetry = self.network.telemetry
            if telemetry is None:
                return
            counter = self._m_read = telemetry.metrics.counter(
                "storage.read_bytes", tier=self.tier.value
            )
        counter.inc(nbytes)

    # -- contents ----------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self._used

    def has_file(self, name: str) -> bool:
        return name in self._contents

    def file_names(self) -> frozenset[str]:
        return frozenset(self._contents)

    def store_file(self, name: str, size: int) -> None:
        """Account for a file landing on the volume (idempotent per name)."""
        if name in self._contents:
            return
        if size < 0:
            raise StorageError(f"negative size for {name!r}")
        if self._used + size > self.capacity_bytes:
            raise StorageError(
                f"volume {self.name!r} full: {format_bytes(self._used)} used of "
                f"{format_bytes(self.capacity_bytes)}, cannot fit {format_bytes(size)}"
            )
        self._contents[name] = size
        self._used += size
        counters = self._m_write
        if counters is None:
            telemetry = self.network.telemetry
            if telemetry is None:
                return
            tier = self.tier.value
            counters = self._m_write = (
                telemetry.metrics.counter("storage.write_bytes", tier=tier),
                telemetry.metrics.counter("storage.files_stored", tier=tier),
            )
        written, stored = counters
        written.inc(size)
        stored.inc()

    def remove_file(self, name: str) -> None:
        size = self._contents.pop(name, None)
        if size is not None:
            self._used -= size

    def clear(self) -> None:
        self._contents.clear()
        self._used = 0

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name} "
            f"{format_bytes(self._used)}/{format_bytes(self.capacity_bytes)}>"
        )


class LocalDisk(StorageVolume):
    """Per-VM ephemeral disk — fastest tier, smallest capacity.

    Contents vanish with the VM (transient storage; the paper's
    "snapshots of the data need to be captured" elasticity concern).
    """

    tier = StorageTier.LOCAL


class BlockStore(StorageVolume):
    """Attachable block volume (EBS-like): persists across VM failure."""

    tier = StorageTier.BLOCK

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.attached_to: Optional[str] = None

    def attach(self, vm_id: str) -> None:
        if self.attached_to is not None and self.attached_to != vm_id:
            raise StorageError(
                f"block store {self.name!r} already attached to {self.attached_to!r}"
            )
        self.attached_to = vm_id

    def detach(self) -> None:
        self.attached_to = None


class NetworkStorage(StorageVolume):
    """Shared network storage (iSCSI-like) behind a server uplink.

    Every client read crosses both the volume's read link *and* the
    shared server uplink, so N concurrent readers see ~1/N of the
    server bandwidth — the contention that penalizes the
    "pre-partitioned remote" strategy in Figure 6a.
    """

    tier = StorageTier.NETWORK

    def __init__(
        self,
        network: FlowNetwork,
        name: str,
        capacity_bytes: float,
        read_bps: float,
        write_bps: float,
        server_uplink_bps: float,
        **kwargs,
    ):
        super().__init__(network, name, capacity_bytes, read_bps, write_bps, **kwargs)
        self._server_link = network.add_link(f"{name}.server", server_uplink_bps)

    def read_path(self) -> tuple[str, ...]:
        return (self._read_link.name, self._server_link.name)

    def write_path(self) -> tuple[str, ...]:
        return (self._server_link.name, self._write_link.name)
