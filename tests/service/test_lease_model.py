"""Model check of the lease cycle against a brute-force oracle.

A Hypothesis state machine drives one ``ControlPlaneService`` with
random submit / assignment round / complete ok / complete error /
cancel over a few tenants with tight quotas.  The oracle is the lease
scan as it was before the running-job index existed: walk *every* job
ever submitted, ask every free worker, never stop early.  It lives in
this file only.
"""

import copy

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.service.admission import TenantQuota
from repro.service.core import ControlPlaneService
from repro.service.jobs import JobSpec, JobState

TENANTS = ("a", "b", "c", "d")
WEIGHTS = {"a": 1.0, "b": 2.0, "c": 0.5}  # d: the default weight
QUOTAS = {
    "a": TenantQuota(max_concurrent_tasks=1, max_running_jobs=1, max_parked_jobs=2),
    "b": TenantQuota(max_concurrent_tasks=2, max_inflight_bytes=250, max_running_jobs=2),
    # 200-byte tasks can never be leased to c: those submissions are shed.
    "c": TenantQuota(max_concurrent_tasks=2, max_inflight_bytes=150, max_running_jobs=1),
}  # d: the default quota
SIZES = (50, 100, 150, 200)
# Binary fractions: sums of lease durations are exact in floating point.
STEPS = (0.0, 0.25, 0.5, 1.0)


def oracle_pick(svc, worker_id):
    """The ``(job_id, task_id)`` the pre-index ``lease()`` would grant
    ``worker_id``, or ``None``: a scan over all jobs, then
    ``FairShareScheduler.pick``."""
    candidates = []
    for job in svc._jobs.values():
        if job.state is not JobState.RUNNING:
            continue
        head = job.scheduler.peek_pending()
        if head is None:
            continue
        tenant = svc._tenants[job.tenant]
        quota = svc.admission.quota(job.tenant)
        if tenant.inflight_tasks >= quota.max_concurrent_tasks:
            continue
        if tenant.inflight_bytes + head.total_size > quota.max_inflight_bytes:
            continue
        if job.scheduler.faults.is_isolated(worker_id):
            continue
        candidates.append((job.tenant, job.id))
    picked = svc.fair.pick(candidates)
    if picked is None:
        return None
    job = svc._jobs[picked[1]]
    return job.id, job.scheduler.peek_pending().index


def oracle_round(svc):
    """One assignment round the old way, on a throwaway copy of the
    service: every free worker is asked, and each answer is checked
    against :func:`oracle_pick` before it is applied."""
    twin = copy.deepcopy(svc)
    grants = []
    for worker_id in twin.pool.free_workers():
        expected = oracle_pick(twin, worker_id)
        lease = twin.lease(worker_id)
        if lease is None:
            assert expected is None
        else:
            assert (lease.job_id, lease.task_id) == expected
            grants.append(lease)
    return grants


class LeaseCycleMachine(RuleBasedStateMachine):
    @initialize(
        num_tenants=st.integers(2, 4),
        num_workers=st.integers(1, 5),
        max_running=st.integers(1, 3),
    )
    def build(self, num_tenants, num_workers, max_running):
        self.now = 0.0
        self.tenants = TENANTS[:num_tenants]
        self.svc = ControlPlaneService(
            [f"w{i}" for i in range(num_workers)],
            clock=lambda: self.now,
            weights=WEIGHTS,
            quotas=QUOTAS,
            max_running_jobs=max_running,
            max_parked_jobs=6,
            isolate_after=1,  # one error isolates: the per-worker filter matters
        )
        self.live = []  # leases out with workers, cancelled jobs' included
        self.charged = {}  # tenant -> sum of released lease durations
        self.errored = set()  # jobs that ever received an error report
        self.parked_before = []

    # -- rules ---------------------------------------------------------------
    @rule(
        tenant=st.integers(0, 3),
        sizes=st.lists(st.sampled_from(SIZES), max_size=3),
        step=st.sampled_from(STEPS),
    )
    def submit(self, tenant, sizes, step):
        self.now += step
        name = self.tenants[tenant % len(self.tenants)]
        self.svc.submit(JobSpec.from_sizes(name, f"job-{self.svc._next_id}", sizes))

    @rule()
    def assignment_round(self):
        expected = oracle_round(self.svc)
        leases = self.svc.lease_free_workers()
        # Leases compare by value: worker, job, task, attempt, timestamp.
        assert leases == expected
        self.live.extend(leases)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), ok=st.booleans(), step=st.sampled_from(STEPS))
    def complete(self, data, ok, step):
        lease = self.live.pop(data.draw(st.integers(0, len(self.live) - 1)))
        self.now += step
        assert self.svc.complete(lease, ok=ok, error="" if ok else "boom")
        self.charged[lease.tenant] = self.charged.get(lease.tenant, 0.0) + (
            self.now - lease.leased_at
        )
        if not ok:
            self.errored.add(lease.job_id)

    @precondition(lambda self: self.svc._jobs)
    @rule(data=st.data())
    def cancel(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.svc._jobs, key=int)))
        was_active = self.svc.job(job_id).active
        assert self.svc.cancel(job_id) == was_active

    # -- invariants ----------------------------------------------------------
    @invariant()
    def running_index_is_the_running_jobs(self):
        svc = self.svc
        running = [job for job in svc._jobs.values() if job.state is JobState.RUNNING]
        assert sorted(svc._running, key=int) == [job.id for job in running]
        assert all(svc._running[job.id] is job for job in running)
        assert len(running) <= svc.admission.max_running_jobs
        assert svc.idle == (
            not self.live
            and not any(job.scheduler.has_queued_work for job in running)
        )

    @invariant()
    def tenants_stay_within_quota(self):
        svc = self.svc
        assert svc.pool.busy == len(self.live)
        for name in self.tenants:
            mine = [lease for lease in self.live if lease.tenant == name]
            quota = svc.admission.quota(name)
            assert len(mine) <= quota.max_concurrent_tasks
            assert sum(lease.size for lease in mine) <= quota.max_inflight_bytes
            state = svc._tenant(name)
            assert state.inflight_tasks == len(mine)
            assert state.inflight_bytes == sum(lease.size for lease in mine)

    @invariant()
    def usage_is_released_lease_time(self):
        for name in self.tenants:
            assert self.svc.fair.usage(name) == self.charged.get(name, 0.0)

    @invariant()
    def done_jobs_completed_each_task_once(self):
        for job in self.svc._jobs.values():
            finished = [row[0] for row in job.completions]
            assert len(finished) == len(set(finished))
            assert set(finished) == set(job.scheduler.completed)
            if job.state is JobState.DONE and job.id not in self.errored:
                assert sorted(finished) == [g.index for g in job.spec.groups]

    @invariant()
    def parked_jobs_promote_in_arrival_order_modulo_quota(self):
        svc = self.svc
        parked = list(svc._parked)
        assert parked == sorted(parked, key=int)
        assert all(svc.job(j).state is JobState.PARKED for j in parked)

        def tenant_bound(job_id):
            tenant = svc.job(job_id).tenant
            quota = svc.admission.quota(tenant)
            return svc._tenant(tenant).running_jobs >= quota.max_running_jobs

        # Nothing that fits is left waiting ...
        if len(svc._running) < svc.admission.max_running_jobs:
            assert all(tenant_bound(j) for j in parked)
        # ... and whoever was overtaken in the last step was quota-bound.
        promoted = [
            j
            for j in self.parked_before
            if svc.job(j).state in (JobState.RUNNING, JobState.DONE)
        ]
        for winner in promoted:
            for waiting in parked:
                if int(waiting) < int(winner):
                    assert tenant_bound(waiting)
        self.parked_before = parked


LeaseCycleMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None, derandomize=True
)
TestLeaseCycleModel = LeaseCycleMachine.TestCase
