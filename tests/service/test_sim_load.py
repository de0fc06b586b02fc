"""Acceptance load: hundreds of synthetic tenants, deterministically.

These are the issue's acceptance criteria verbatim: ≥100 tenants
admitted on the simulated engine under weighted fair-share, the same
seed replays to byte-identical per-job outcome digests, and a shared
worker dying mid-run leaks no tasks across jobs.
"""

from repro.service.sim import (
    ServiceSimulation,
    run_service_load,
    synthetic_tenants,
)
from repro.telemetry.metrics import MetricsRegistry

TENANTS = 120


class TestSyntheticLoad:
    def test_all_tenants_admitted_and_completed(self):
        result = run_service_load(TENANTS, seed=0)
        assert result.admitted + result.parked == TENANTS
        assert result.rejected == 0
        assert len(result.per_job) == TENANTS
        assert all(
            info["state"] == "done" for info in result.per_job.values()
        )
        # Every task ran exactly once per job.
        for info in result.per_job.values():
            assert info["summary"]["lost"] == 0
            assert info["summary"]["completed"] == info["summary"]["total"]

    def test_same_seed_is_byte_identical(self):
        first = run_service_load(TENANTS, seed=7)
        second = run_service_load(TENANTS, seed=7)
        assert first.digest == second.digest
        assert first.per_job == second.per_job
        assert first.makespan == second.makespan

    def test_different_seed_diverges(self):
        assert (
            run_service_load(60, seed=1).digest
            != run_service_load(60, seed=2).digest
        )

    def test_weighted_load_still_deterministic(self):
        weights = {f"tenant-{i:03d}": 1.0 + (i % 3) for i in range(TENANTS)}
        a = run_service_load(TENANTS, seed=3, weights=weights)
        b = run_service_load(TENANTS, seed=3, weights=weights)
        assert a.digest == b.digest
        assert all(info["state"] == "done" for info in a.per_job.values())

    def test_task_failures_retry_and_complete(self):
        specs = synthetic_tenants(20, seed=5)
        fail = frozenset({("1", 0), ("4", 1), ("9", 0)})
        metrics = MetricsRegistry()
        sim = ServiceSimulation(
            specs, num_workers=6, seed=5, fail_tasks=fail, metrics=metrics
        )
        result = sim.run()
        assert all(info["state"] == "done" for info in result.per_job.values())
        retried = sum(
            metrics.counter(f"job.{job_id}.scheduler.retried").value
            for job_id, _ in fail
        )
        assert retried == len(fail)


class TestPinnedDigests:
    """The 120-tenant load and its kill-recover twin, pinned so a
    change that moves the service's schedule or its kill-recover path
    fails tier-1; ``make service-check`` and ``make recovery-check``
    gate on these pins."""

    def test_service_load_digest(self):
        result = run_service_load(TENANTS, seed=0)
        assert result.rejected == 0
        assert len(result.per_job) == TENANTS
        assert result.digest == (
            "9c0cc7aac1053ab4e77b872e578555dbf2081c4a08e251fabfc979c2621a4090"
        )
        # Equal to the kill-recover run's: a master crash may reshuffle
        # timing, never results.
        assert result.outcome_digest == (
            "3abc56356294982ad9f46406e0c7d969ab7b5daa8d1350c99c345388a3b57a7f"
        )

    def test_kill_recover_digests(self):
        result = run_service_load(TENANTS, seed=0, master_kill_script=[4.0, 11.0])
        assert result.recoveries == 2
        assert result.digest == (
            "8231bd15cba3fe73836eee5dc4bfa4c6203fd9986c48b7aae2e9f7caa16d98f7"
        )
        assert result.outcome_digest == (
            "3abc56356294982ad9f46406e0c7d969ab7b5daa8d1350c99c345388a3b57a7f"
        )


class TestCrashLoad:
    CRASHES = ((0.5, "sim:000"), (1.5, "sim:003"), (3.0, "sim:000:r1"))

    def run_with_crashes(self, seed):
        specs = synthetic_tenants(TENANTS, seed=seed)
        sim = ServiceSimulation(
            specs,
            num_workers=8,
            seed=seed,
            crash_script=self.CRASHES,
        )
        return sim.run()

    def test_crashes_leak_no_tasks_across_jobs(self):
        result = self.run_with_crashes(seed=13)
        assert all(
            info["state"] == "done" for info in result.per_job.values()
        )
        for report in result.crash_reports:
            # A crash either interrupted one owning job (whose task
            # requeued into that job) or hit an idle worker.
            if report["owning_job"] is not None:
                assert report["requeued_tasks"]
            else:
                assert report["requeued_tasks"] == []
        # No job lost work: requeued tasks landed back in their owner.
        for info in result.per_job.values():
            assert info["summary"]["lost"] == 0
            assert info["summary"]["completed"] == info["summary"]["total"]

    def test_replacements_join_with_minted_ids(self):
        result = self.run_with_crashes(seed=13)
        replacements = {r["replacement"] for r in result.crash_reports}
        assert "sim:000:r1" in replacements or "sim:003:r1" in replacements
        for rid in replacements:
            base, _, gen = rid.rpartition(":r")
            assert base and gen.isdigit()

    def test_crash_runs_replay_byte_identically(self):
        assert (
            self.run_with_crashes(seed=13).digest
            == self.run_with_crashes(seed=13).digest
        )
