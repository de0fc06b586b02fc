"""The running-job index behind the lease cycle: how much work a load
costs, and that a snapshot round-trip rebuilds it."""

from repro.service.admission import TenantQuota
from repro.service.core import ControlPlaneService
from repro.service.jobs import JobSpec, JobState
from repro.service.sim import run_service_load
from tests.service.test_recovery import Clock


def test_lease_is_called_about_once_per_grant(monkeypatch):
    """A round stops asking once nothing is runnable, so ``lease()``
    calls track leases granted, not free workers x rounds (852 calls
    for these 179 grants when every free worker was asked).  Virtual
    time and a fixed seed: the counts repeat exactly."""
    calls = grants = 0
    real_lease = ControlPlaneService.lease

    def counting_lease(self, worker_id):
        nonlocal calls, grants
        calls += 1
        lease = real_lease(self, worker_id)
        grants += lease is not None
        return lease

    monkeypatch.setattr(ControlPlaneService, "lease", counting_lease)
    result = run_service_load(60, seed=0, num_workers=32)
    assert all(info["state"] == "done" for info in result.per_job.values())
    assert grants == sum(info["summary"]["total"] for info in result.per_job.values())
    assert calls <= 2 * grants


CONFIG = dict(
    max_running_jobs=2,
    default_quota=TenantQuota(max_concurrent_tasks=2),
)


def busy_service(clock):
    """RUNNING, PARKED, DONE and CANCELLED jobs, and leases still out."""
    svc = ControlPlaneService(["w0", "w1", "w2", "w3"], clock=clock, **CONFIG)
    ids = [
        svc.submit(JobSpec.from_sizes(tenant, name, sizes))["job_id"]
        for tenant, name, sizes in [
            ("acme", "quick", [10]),
            ("beta", "doomed", [10, 20, 30]),
            ("acme", "long", [10, 20, 30, 40]),
            ("beta", "next", [10, 20]),
            ("gamma", "waits", [10]),
        ]
    ]
    clock.now = 1.0
    first = svc.lease_free_workers()  # quick x1, doomed x2
    clock.now = 2.0
    svc.complete(first[0])  # quick is DONE; long starts
    svc.cancel(ids[1])  # doomed is CANCELLED, two leases draining; next starts
    clock.now = 3.0
    svc.lease_free_workers()
    return svc, ids


def test_snapshot_roundtrip_rebuilds_the_running_index():
    clock = Clock()
    live, ids = busy_service(clock)
    quick, doomed, long, nxt, waits = ids
    states = {job_id: live.job(job_id).state for job_id in ids}
    assert states == {
        quick: JobState.DONE,
        doomed: JobState.CANCELLED,
        long: JobState.RUNNING,
        nxt: JobState.RUNNING,
        waits: JobState.PARKED,
    }
    assert live.job(doomed).leases, "the cancelled job still has leases out"

    restored = ControlPlaneService._from_snapshot(
        live.capture_state(), clock=clock, **CONFIG
    )
    assert sorted(restored._running) == sorted(live._running) == [long, nxt]
    assert not restored.idle

    # Drain both to the end, side by side: same grants every round, and
    # the cancelled job never gets another lease.
    for _ in range(20):
        if live.idle:
            break
        clock.now += 1.0
        for svc in (live, restored):
            for worker in ("w0", "w1", "w2", "w3"):
                lease = svc.pool.lease_of(worker)
                if lease is not None:
                    svc.complete(lease)
        granted = live.lease_free_workers()
        assert restored.lease_free_workers() == granted  # leases compare by value
        assert all(lease.job_id != doomed for lease in granted)
    assert live.idle and restored.idle
    assert restored.capture_state() == live.capture_state()
    assert restored.job(waits).state is JobState.DONE
    assert restored.job(doomed).scheduler.summary()["completed"] == 0
