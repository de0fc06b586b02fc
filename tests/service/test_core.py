"""Control-plane core: leases, quotas, cancel, crash isolation,
per-job metric namespacing."""

from repro.service.admission import TenantQuota
from repro.service.core import ControlPlaneService
from repro.service.jobs import JobSpec, JobState
from repro.telemetry.metrics import MetricsRegistry


def spec(tenant="t", name="j", sizes=(100, 100), **kw):
    return JobSpec.from_sizes(tenant, name, list(sizes), **kw)


def make_service(workers=2, **kw):
    clock = {"now": 0.0}
    svc = ControlPlaneService(
        [f"w:{i}" for i in range(workers)], clock=lambda: clock["now"], **kw
    )
    return svc, clock


def drain(svc, clock, step=1.0):
    """Lease and complete everything until the service is idle."""
    for _ in range(10_000):
        leases = svc.lease_free_workers()
        if not leases:
            if svc.idle:
                return
            clock["now"] += step
            continue
        for lease in leases:
            clock["now"] += step
            svc.complete(lease)
    raise AssertionError("service did not drain")


class TestLeaseCycle:
    def test_lease_complete_roundtrip(self):
        svc, clock = make_service()
        ticket = svc.submit(spec(sizes=(10,)))
        lease = svc.lease("w:0")
        assert lease is not None
        assert lease.job_id == ticket["job_id"]
        assert svc.pool.free_workers() == ("w:1",)
        clock["now"] = 2.0
        assert svc.complete(lease)
        assert svc.job(ticket["job_id"]).state is JobState.DONE
        assert svc.fair.usage("t") == 2.0
        assert svc.pool.free_workers() == ("w:0", "w:1")

    def test_lease_returns_none_when_nothing_runnable(self):
        svc, _clock = make_service()
        assert svc.lease("w:0") is None

    def test_max_concurrent_tasks_quota_gates_leasing(self):
        svc, _clock = make_service(
            workers=4, default_quota=TenantQuota(max_concurrent_tasks=2)
        )
        svc.submit(spec(sizes=(10,) * 8))
        leases = svc.lease_free_workers()
        assert len(leases) == 2  # quota, not pool size, is the binding limit
        assert svc.lease("w:3") is None

    def test_byte_quota_gates_leasing(self):
        svc, _clock = make_service(
            workers=4, default_quota=TenantQuota(max_inflight_bytes=150)
        )
        svc.submit(spec(sizes=(100, 100, 100)))
        leases = svc.lease_free_workers()
        assert len(leases) == 1  # a second 100-byte lease would exceed 150
        svc.complete(leases[0])
        assert len(svc.lease_free_workers()) == 1

    def test_quota_binds_per_tenant_not_globally(self):
        svc, _clock = make_service(
            workers=4, default_quota=TenantQuota(max_concurrent_tasks=1)
        )
        svc.submit(spec(tenant="a", name="a1", sizes=(10,) * 4))
        svc.submit(spec(tenant="b", name="b1", sizes=(10,) * 4))
        leases = svc.lease_free_workers()
        assert {lease.tenant for lease in leases} == {"a", "b"}
        assert len(leases) == 2

    def test_stale_complete_is_ignored(self):
        metrics = MetricsRegistry()
        svc, _clock = make_service(metrics=metrics)
        svc.submit(spec(sizes=(10,)))
        lease = svc.lease("w:0")
        svc.worker_crashed("w:0")
        assert not svc.complete(lease)  # report raced the crash sweep
        assert metrics.counter("service.leases.stale_reports").value == 1


class TestIdle:
    def test_idle_ignores_finished_jobs_but_not_their_draining_leases(self):
        svc, clock = make_service(workers=3, max_running_jobs=3)
        assert svc.idle
        svc.submit(spec(tenant="a", name="done", sizes=(10,)))
        doomed = svc.submit(spec(tenant="b", name="doomed", sizes=(10, 10)))
        assert not svc.idle  # work queued, nothing leased yet
        leases = svc.lease_free_workers()
        assert len(leases) == 3
        svc.cancel(doomed["job_id"])
        svc.complete(leases[0])
        assert [j["state"] for j in svc.list_jobs()] == ["done", "cancelled"]
        assert not svc.idle  # the cancelled job's leases are still out
        for lease in leases[1:]:
            svc.complete(lease)
        assert svc.idle
        svc.submit(spec(tenant="c", name="late", sizes=(10,)))
        assert not svc.idle
        drain(svc, clock)
        assert svc.idle


class TestCancel:
    def test_cancel_releases_leases_and_frees_capacity(self):
        svc, clock = make_service(workers=2, max_running_jobs=1)
        first = svc.submit(spec(name="first", sizes=(10, 10, 10, 10)))
        second = svc.submit(spec(name="second", sizes=(10,)))
        leases = svc.lease_free_workers()
        assert len(leases) == 2
        assert svc.cancel(first["job_id"])
        job = svc.job(first["job_id"])
        assert job.state is JobState.CANCELLED
        # Cancellation freed the running slot: the parked job starts.
        assert svc.job(second["job_id"]).state is JobState.RUNNING
        # Outstanding leases drain without touching the dead scheduler,
        # but the worker-seconds are still charged.
        clock["now"] = 3.0
        for lease in leases:
            assert svc.complete(lease)
        assert not job.leases
        assert svc.pool.free_workers() == ("w:0", "w:1")
        assert svc.fair.usage("t") == 6.0
        assert job.scheduler.summary()["completed"] == 0

    def test_cancel_parked_job(self):
        svc, _clock = make_service(max_running_jobs=1)
        svc.submit(spec(name="first"))
        parked = svc.submit(spec(name="second"))
        assert svc.cancel(parked["job_id"])
        assert svc.job(parked["job_id"]).state is JobState.CANCELLED

    def test_cancel_is_idempotent_and_safe_on_done(self):
        svc, clock = make_service()
        ticket = svc.submit(spec(sizes=(10,)))
        drain(svc, clock)
        assert not svc.cancel(ticket["job_id"])
        assert not svc.cancel("999")


class TestCrashIsolation:
    def test_crash_requeues_into_owning_job_only(self):
        svc, _clock = make_service(workers=2)
        a = svc.submit(spec(tenant="a", name="a1", sizes=(10,) * 4))
        b = svc.submit(spec(tenant="b", name="b1", sizes=(10,) * 4))
        # Deterministic fair-share: w:0 serves a, w:1 serves b.
        leases = svc.lease_free_workers()
        owner = {lease.worker_id: lease.job_id for lease in leases}
        crashed_worker = "w:0"
        owning_job = owner[crashed_worker]
        other_job = b["job_id"] if owning_job == a["job_id"] else a["job_id"]
        before = svc.job(other_job).scheduler.summary()
        report = svc.worker_crashed(crashed_worker)
        assert report["owning_job"] == owning_job
        assert report["requeued_tasks"], "the leased task must requeue"
        # The other job's accounting is untouched by the crash.
        after = svc.job(other_job).scheduler.summary()
        assert after == before
        assert not svc.job(other_job).scheduler.lost_tasks

    def test_replacement_id_is_fresh_and_leasable(self):
        svc, clock = make_service(workers=1)
        svc.submit(spec(sizes=(10, 10)))
        svc.lease("w:0")
        report = svc.worker_crashed("w:0")
        assert report["replacement"] == "w:0:r1"
        assert "w:0:r1" in svc.pool.free_workers()
        drain(svc, clock)
        assert svc.list_jobs()[0]["state"] == "done"

    def test_error_isolated_worker_still_serves_other_tenants(self):
        svc, _clock = make_service(workers=1, isolate_after=1)
        a = svc.submit(spec(tenant="a", name="a1", sizes=(10, 10)))
        svc.submit(spec(tenant="b", name="b1", sizes=(10, 10)))
        lease = svc.lease("w:0")
        assert lease.tenant == "a"
        svc.complete(lease, ok=False, error="boom")
        assert svc.job(a["job_id"]).scheduler.faults.is_isolated("w:0")
        # The worker is dead *to tenant a's job* but not to tenant b's.
        lease2 = svc.lease("w:0")
        assert lease2 is not None
        assert lease2.tenant == "b"


class TestMetricNamespacing:
    def test_per_job_gauges_do_not_collide(self):
        metrics = MetricsRegistry()
        svc, _clock = make_service(metrics=metrics)
        a = svc.submit(spec(tenant="a", name="a1", sizes=(10, 10, 10)))
        b = svc.submit(spec(tenant="b", name="b1", sizes=(10,)))
        depth_a = metrics.gauge(f"job.{a['job_id']}.queue.depth").value
        depth_b = metrics.gauge(f"job.{b['job_id']}.queue.depth").value
        assert (depth_a, depth_b) == (3, 1)
        lease = svc.lease("w:0")
        owner = lease.job_id
        expected = 2 if owner == a["job_id"] else 0
        assert metrics.gauge(f"job.{owner}.queue.depth").value == expected

    def test_service_level_gauges(self):
        metrics = MetricsRegistry()
        svc, clock = make_service(metrics=metrics, max_running_jobs=1)
        svc.submit(spec(name="first"))
        svc.submit(spec(name="second"))
        assert metrics.gauge("service.jobs.running").value == 1
        assert metrics.gauge("service.jobs.parked").value == 1
        drain(svc, clock)
        assert metrics.gauge("service.jobs.running").value == 0
        assert metrics.counter("service.jobs.completed").value == 2
