"""Cross-engine chaos parity: all three planes conclude the same thing.

Each scenario from the standing catalogue runs on the simulated,
threaded, and TCP engines; the outcome digest (task accounting +
workers declared failed) must agree and equal the pinned value, and
every task must be accounted for. A second pass over representative
scenarios asserts the digests are also stable run-to-run — chaos runs
replay deterministically.
"""

import pytest

from repro.runtime.chaos import (
    ENGINES,
    ChaosScenario,
    outcome_digest,
    parity_digests,
    run_scenario,
    scenario_catalogue,
    worker_id,
    workers_failed,
)
from repro.errors import ConfigurationError


CATALOGUE = {sc.name: sc for sc in scenario_catalogue()}

#: The digest every engine must reach per scenario. Refactors of the
#: master lifecycle claim these byte-equal; a change here is a change
#: in what runs conclude and needs its own argument.
PINNED_DIGESTS = {
    "baseline": "5c90e5561e2ebfdb",
    "crash-retry": "f4d813f4adc9f506",
    "crash-paper-faithful": "f249f7b91863440d",
    "hang-heartbeat": "f4d813f4adc9f506",
    "wire-faults": "5c90e5561e2ebfdb",
}


class TestParity:
    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_engines_agree(self, name, tmp_path):
        digests = {}
        for engine in ENGINES:
            outcome = run_scenario(CATALOGUE[name], engine, str(tmp_path))
            # Conservation: every task lands in exactly one bucket.
            assert (
                outcome.tasks_completed + outcome.tasks_failed + outcome.tasks_lost
                == outcome.tasks_total
            ), engine
            digests[engine] = outcome_digest(outcome)
        assert digests == dict.fromkeys(ENGINES, PINNED_DIGESTS[name]), (
            f"parity broken or digest moved: {digests}"
        )

    def test_every_scenario_is_pinned(self):
        assert set(PINNED_DIGESTS) == set(CATALOGUE)

    def test_faulty_scenarios_differ_from_baseline(self, tmp_path):
        # Guard against a degenerate digest: a lossy scenario must not
        # hash equal to the clean one.
        base = parity_digests(CATALOGUE["baseline"], str(tmp_path), ["simulated"])
        lossy = parity_digests(
            CATALOGUE["crash-paper-faithful"], str(tmp_path), ["simulated"]
        )
        assert base["simulated"] != lossy["simulated"]


class TestDeterminism:
    @pytest.mark.parametrize("name", ["crash-retry", "wire-faults"])
    def test_digests_stable_across_repeats(self, name, tmp_path):
        first = parity_digests(CATALOGUE[name], str(tmp_path))
        second = parity_digests(CATALOGUE[name], str(tmp_path))
        assert first == second


class TestScenarioSemantics:
    def test_crash_scenario_reports_one_worker_failed(self, tmp_path):
        outcome = run_scenario(CATALOGUE["crash-retry"], "simulated", str(tmp_path))
        assert workers_failed(outcome) == 1
        assert outcome.tasks_completed == outcome.tasks_total

    def test_hang_scenario_uses_heartbeats(self, tmp_path):
        outcome = run_scenario(CATALOGUE["hang-heartbeat"], "tcp", str(tmp_path))
        assert outcome.extra["nodes_declared_dead"] == [worker_id("tcp", 1)]

    def test_wire_scenario_perturbs_the_tcp_plane(self, tmp_path):
        outcome = run_scenario(CATALOGUE["wire-faults"], "tcp", str(tmp_path))
        assert outcome.extra["injected_faults"], "fault script never fired"
        assert outcome.tasks_completed == outcome.tasks_total

    def test_digest_covers_worker_failures(self, tmp_path):
        # Same task accounting, different worker-loss count -> digests
        # must differ (retried crash vs clean run).
        clean = run_scenario(CATALOGUE["baseline"], "simulated", str(tmp_path))
        crashed = run_scenario(CATALOGUE["crash-retry"], "simulated", str(tmp_path))
        assert crashed.tasks_completed == crashed.tasks_total
        assert outcome_digest(clean) != outcome_digest(crashed)


class TestScenarioValidation:
    def test_unknown_engine_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_scenario(CATALOGUE["baseline"], "quantum", str(tmp_path))

    def test_fault_on_missing_worker_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosScenario(name="bad", workers=2, crash_on_task={5: 1})

    def test_truncate_wire_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosScenario(name="bad", wire_rules=({"action": "truncate"},))

    def test_worker_id_mapping(self):
        assert worker_id("simulated", 0) == "worker1:0"
        assert worker_id("threaded", 1) == "local:1"
        assert worker_id("tcp", 2) == "tcp:2"
