"""Unit tests for storage volumes and tiers."""

import pytest

from repro.cloud.network import FlowNetwork
from repro.cloud.storage import BlockStore, LocalDisk, NetworkStorage, StorageTier
from repro.errors import StorageError
from repro.sim import Environment
from repro.util.units import GB, MB, Mbit


@pytest.fixture
def net():
    return FlowNetwork(Environment())


class TestVolumeContents:
    def test_capacity_accounting(self, net):
        disk = LocalDisk(net, "d", 10 * MB, 1e6, 1e6)
        disk.store_file("a", 4 * MB)
        assert disk.used_bytes == 4 * MB
        assert disk.free_bytes == 6 * MB

    def test_overflow_raises(self, net):
        disk = LocalDisk(net, "d", 10 * MB, 1e6, 1e6)
        disk.store_file("a", 8 * MB)
        with pytest.raises(StorageError):
            disk.store_file("b", 4 * MB)

    def test_store_idempotent_per_name(self, net):
        disk = LocalDisk(net, "d", 10 * MB, 1e6, 1e6)
        disk.store_file("a", 4 * MB)
        disk.store_file("a", 4 * MB)
        assert disk.used_bytes == 4 * MB

    def test_clear_empties_volume(self, net):
        disk = LocalDisk(net, "d", 10 * MB, 1e6, 1e6)
        disk.store_file("a", 1 * MB)
        disk.store_file("b", 1 * MB)
        disk.clear()
        assert disk.used_bytes == 0
        assert disk.file_names() == frozenset()

    def test_negative_size_rejected(self, net):
        disk = LocalDisk(net, "d", 10 * MB, 1e6, 1e6)
        with pytest.raises(StorageError):
            disk.store_file("a", -1)

    def test_zero_capacity_rejected(self, net):
        with pytest.raises(StorageError):
            LocalDisk(net, "d", 0, 1e6, 1e6)


class TestTierPaths:
    def test_local_disk_paths_single_hop(self, net):
        disk = LocalDisk(net, "d", 1 * GB, 1e6, 1e6)
        assert disk.read_path() == ("d.read",)
        assert disk.write_path() == ("d.write",)
        assert disk.tier is StorageTier.LOCAL

    def test_network_storage_adds_server_hop(self, net):
        store = NetworkStorage(net, "ns", 1 * GB, 1e6, 1e6, server_uplink_bps=1e6)
        assert store.read_path() == ("ns.read", "ns.server")
        assert store.write_path() == ("ns.server", "ns.write")
        assert store.tier is StorageTier.NETWORK

    def test_links_registered_on_network(self, net):
        LocalDisk(net, "d", 1 * GB, 1e6, 1e6)
        assert net.link("d.read").capacity == 1e6
        assert net.link("d.write").capacity == 1e6


class TestNetworkStorageContention:
    def test_server_uplink_is_shared_bottleneck(self):
        env = Environment()
        net = FlowNetwork(env)
        store = NetworkStorage(
            net, "ns", 1 * GB, read_bps=400 * Mbit, write_bps=400 * Mbit,
            server_uplink_bps=100 * Mbit,
        )
        for i in range(4):
            net.add_link(f"w{i}", 100 * Mbit)
        ends = []

        def reader(env, i):
            flow = net.start_flow(list(store.read_path()) + [f"w{i}"], 25 * MB)
            yield flow.done
            ends.append(env.now)

        for i in range(4):
            env.process(reader(env, i))
        env.run()
        # 100 MB aggregate through the 100 Mbit server uplink: 8 s.
        assert max(ends) == pytest.approx(8.0, rel=1e-6)


class TestBlockStore:
    def test_attach_detach(self, net):
        bs = BlockStore(net, "b", 1 * GB, 1e6, 1e6)
        bs.attach("vm0")
        assert bs.attached_to == "vm0"
        bs.detach()
        bs.attach("vm1")

    def test_reattach_same_vm_ok(self, net):
        bs = BlockStore(net, "b", 1 * GB, 1e6, 1e6)
        bs.attach("vm0")
        bs.attach("vm0")

    def test_double_attach_rejected(self, net):
        bs = BlockStore(net, "b", 1 * GB, 1e6, 1e6)
        bs.attach("vm0")
        with pytest.raises(StorageError):
            bs.attach("vm1")
