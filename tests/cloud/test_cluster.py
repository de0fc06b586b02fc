"""Unit tests for cluster assembly and the provisioner."""

import pytest

from repro.cloud.cluster import ClusterSpec, Provisioner
from repro.cloud.instance import C1_XLARGE, M1_SMALL
from repro.errors import NetworkError, ProvisioningError
from repro.sim import Environment
from repro.util.units import GB, Mbit


class TestClusterSpec:
    def test_defaults_match_paper(self):
        spec = ClusterSpec()
        assert spec.num_workers == 4
        assert spec.link_bps == 100 * Mbit
        assert spec.instance_type is C1_XLARGE

    def test_negative_workers_rejected(self):
        with pytest.raises(ProvisioningError):
            ClusterSpec(num_workers=-1)

    def test_zero_link_rejected(self):
        with pytest.raises(ProvisioningError):
            ClusterSpec(link_bps=0)


class TestProvisioning:
    def test_provision_now_boots_everything(self):
        env = Environment()
        cluster = Provisioner(env).provision_now(ClusterSpec(num_workers=3))
        assert len(cluster.vms) == 4  # master + 3 workers
        assert all(vm.is_running for vm in cluster.vms.values())
        assert cluster.master_vm is not None
        assert len(cluster.worker_vms) == 3

    def test_boot_delay_advances_clock(self):
        env = Environment()
        spec = ClusterSpec(num_workers=2, mean_boot_delay_s=30.0, seed=7)
        Provisioner(env).provision_now(spec)
        assert env.now > 0

    def test_boot_deterministic_for_seed(self):
        times = []
        for _ in range(2):
            env = Environment()
            spec = ClusterSpec(num_workers=2, mean_boot_delay_s=30.0, seed=7)
            Provisioner(env).provision_now(spec)
            times.append(env.now)
        assert times[0] == times[1]

    def test_local_disks_created(self):
        env = Environment()
        cluster = Provisioner(env).provision_now(ClusterSpec(num_workers=1))
        for vm in cluster.vms.values():
            assert vm.local_disk is not None
            assert vm.local_disk.capacity_bytes == C1_XLARGE.local_disk_bytes

    def test_elastic_add_worker(self):
        env = Environment()
        provisioner = Provisioner(env)
        cluster = provisioner.provision_now(ClusterSpec(num_workers=1))
        vm, booted = provisioner.add_worker(cluster, M1_SMALL, boot_delay=5.0)
        env.run(until=booted)
        assert vm.is_running
        assert vm.itype is M1_SMALL
        assert len(cluster.worker_vms) == 2


class TestRouting:
    @pytest.fixture
    def cluster(self):
        env = Environment()
        return Provisioner(env).provision_now(ClusterSpec(num_workers=2))

    def test_route_between_vms(self, cluster):
        path = cluster.route_between("master0", "worker1")
        assert path == ("master0.up", "worker1.down")

    def test_route_to_self_is_empty(self, cluster):
        assert cluster.route_between("worker1", "worker1") == ()

    def test_disk_to_disk_path(self, cluster):
        path = cluster.disk_to_disk_path("master0", "worker2")
        assert path == (
            "master0.disk.read",
            "master0.up",
            "worker2.down",
            "worker2.disk.write",
        )

    def test_unknown_vm_raises(self, cluster):
        with pytest.raises(ProvisioningError):
            cluster.route_between("ghost", "worker1")

    def test_storage_paths_require_shared_storage(self, cluster):
        with pytest.raises(NetworkError):
            cluster.storage_read_path("worker1")

    def test_shared_storage_paths(self):
        env = Environment()
        spec = ClusterSpec(num_workers=1, network_storage_bytes=10 * GB)
        cluster = Provisioner(env).provision_now(spec)
        path = cluster.storage_read_path("worker1")
        assert path[-1] == "worker1.down"
        assert any("nstore" in hop for hop in path)

    def test_cross_site_requires_wan(self):
        env = Environment()
        cluster = Provisioner(env).provision_now(ClusterSpec(num_workers=1))
        remote = cluster.create_vm("worker", site="data-site")
        remote.mark_running()
        with pytest.raises(NetworkError):
            cluster.route_between("master0", remote.vm_id)

    def test_wan_hop_inserted_across_sites(self):
        env = Environment()
        spec = ClusterSpec(num_workers=1, wan_bps=50 * Mbit)
        cluster = Provisioner(env).provision_now(spec)
        remote = cluster.create_vm("worker", site="data-site")
        remote.mark_running()
        path = cluster.route_between("master0", remote.vm_id)
        assert cluster.wan_link_name in path


class TestFailureHook:
    def test_fail_vm_clears_ephemeral_disk(self):
        env = Environment()
        cluster = Provisioner(env).provision_now(ClusterSpec(num_workers=1))
        vm = cluster.vm("worker1")
        vm.local_disk.store_file("data", 1000)
        cluster.fail_vm("worker1")
        assert not vm.is_running
        assert vm.local_disk.used_bytes == 0

    def test_fail_vm_counts_a_vm_once(self):
        env = Environment()
        cluster = Provisioner(env).provision_now(ClusterSpec(num_workers=2))
        cluster.fail_vm("worker1")
        cluster.fail_vm("worker1", cause="again")
        failures = cluster.telemetry.metrics.counter("cluster.vm_failures")
        assert failures.value == 1
        assert cluster.vm("worker1").is_gone
        assert not cluster.vm("worker2").is_gone
