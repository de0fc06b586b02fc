PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint audit check accel bench bench-check bench-update bench-macro bench-macro-update ledger-check schema-check trace-demo chaos chaos-runtime service-check recovery-check

test:
	$(PYTHON) -m pytest -x -q

# The exporter's format contract: trace-event schema + golden bytes.
schema-check:
	$(PYTHON) -m pytest tests/telemetry/test_export.py -x -q

# frieda-lint (custom AST invariant checker) + ruff (style/pyflakes).
# ruff is pinned in the `test` extra; when it is not installed (minimal
# containers) the custom analyzer still gates and ruff is skipped.
lint:
	$(PYTHON) -m repro.analysis src --baseline lint-baseline.json
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipped (pip install -e '.[test]')"; \
	fi

# frieda-audit: the whole-program pass on top of frieda-lint — call-
# graph IO/wall-clock taint from the sim packages, thread lock
# discipline, asyncio discipline, protocol exhaustiveness. The summary
# cache makes incremental re-runs parse only edited files.
audit:
	$(PYTHON) -m repro.analysis src --project \
		--cache build/audit-cache.json --baseline lint-baseline.json

# Multi-tenant control plane: the full service suite (admission,
# fair-share, quotas, leases, HTTP front end) plus the deterministic
# 120-tenant load on the simulated plane — run twice so a determinism
# regression in the service path fails loudly here, not in CI.
service-check:
	$(PYTHON) -m pytest tests/service -x -q
	$(PYTHON) -c "from repro.service.sim import run_service_load; \
		a = run_service_load(120, seed=0); b = run_service_load(120, seed=0); \
		assert a.rejected == 0 and len(a.per_job) == 120, 'admission regressed'; \
		assert a.digest == b.digest, 'service load not deterministic'; \
		import sys; sys.stdout.write('service load reproducible: ' + a.digest[:16] + chr(10))"

# Crash-consistency gate: the 120-tenant load with the control plane
# killed twice mid-run and recovered from its write-ahead journal.
# Run twice and diffed (the kill-recover path itself must be
# deterministic), then checked against the uninterrupted same-seed run:
# per-job task outcomes must be byte-identical — a master crash may
# reshuffle timing, never results.
recovery-check:
	$(PYTHON) -m pytest tests/service/test_journal.py \
		tests/service/test_recovery.py tests/service/test_kill_master.py -x -q
	$(PYTHON) -c "from repro.service.sim import run_service_load; \
		kills = [4.0, 11.0]; \
		a = run_service_load(120, seed=0, master_kill_script=kills); \
		b = run_service_load(120, seed=0, master_kill_script=kills); \
		c = run_service_load(120, seed=0); \
		assert a.recoveries == 2, 'master kills not exercised'; \
		assert a.digest == b.digest, 'kill-recover run not deterministic'; \
		assert a.outcome_digest == c.outcome_digest, 'crash changed job outcomes'; \
		import sys; sys.stdout.write('kill-recover outcome parity: ' + a.outcome_digest[:16] + chr(10))"

# One command to gate a PR locally: invariants (per-file + whole-
# program), tests (which include the exporter schema/golden contract),
# runtime chaos parity, perf regressions, the service control plane,
# the 1k and 10k macro tiers
# (100k is opt-in: `FRIEDA_MACRO_TIERS=100k make bench-macro`),
# and the ledger's correctness pass.
check: lint audit test schema-check chaos-runtime service-check recovery-check bench-check bench-macro ledger-check

# Build the optional C kernel accelerator in place. Soft-fails: without
# a compiler the pure-Python kernel serves every caller (same
# semantics), the benchmark baselines just won't be reachable.
accel:
	-$(PYTHON) setup.py build_ext --inplace

bench: accel
	$(PYTHON) -m benchmarks.run_bench

# Produce a small Fig 6 trace and summarize it — the quickest way to
# see the telemetry pipeline end to end. Artifacts land in build/
# (never committed); open build/trace-demo.json at
# https://ui.perfetto.dev for the interactive view.
trace-demo:
	mkdir -p build
	$(PYTHON) -m repro.experiments fig6 --scale 0.1 \
		--trace build/trace-demo.json --metrics build/trace-demo-metrics.json
	$(PYTHON) -m repro trace summarize build/trace-demo.json
	$(PYTHON) -m repro report build/trace-demo.json \
		--metrics build/trace-demo-metrics.json

bench-check: accel
	$(PYTHON) -m benchmarks.run_bench --check

bench-update: accel
	$(PYTHON) -m benchmarks.run_bench --update

# End-to-end simulated-plane runs at macro worker counts. Defaults to
# the 1k and 10k tiers; set FRIEDA_MACRO_TIERS=1k,10k,100k for the full family.
bench-macro: accel
	$(PYTHON) -m benchmarks.bench_macro

bench-macro-update: accel
	$(PYTHON) -m benchmarks.bench_macro --update

# The layered performance ledger (benchmarks/ledger, BENCHMARK.json):
# its self-test, then one short untraced pass of all eight workloads at
# seed 0. Exits non-zero on any failed correctness check or a witness
# that differs from benchmarks/ledger/expected.json. No number is gated
# here: 2 s a workload proves the workloads still run and still agree,
# it does not measure them (`python -m benchmarks.ledger --compare`
# over >= 5 runs a side does).
ledger-check:
	$(PYTHON) -m pytest benchmarks/ledger -q
	$(PYTHON) -m benchmarks.ledger --seed 0 --runs 1 --no-trace --seconds 2 \
		--out build/ledger/check.json

# Runtime chaos: fault-path suites for the real execution planes plus
# the cross-engine parity suite (simulated vs threaded vs TCP must
# reach identical outcome digests under equivalent injected faults),
# crash→rejoin on both real planes (fresh ids, recorded as late joins),
# the frame-decoder fuzz (hostile bytes raise only ProtocolError), the
# small-task path's pinned write and executor-hop counts, and staging
# (link-or-copy, and staging failures accounted as one task error).
chaos-runtime:
	$(PYTHON) -m pytest tests/integration/test_chaos_parity.py \
		tests/runtime/test_tcp_faults.py tests/runtime/test_local_faults.py \
		tests/runtime/test_faults.py tests/runtime/test_telemetry_ship.py \
		tests/runtime/test_rejoin_parity.py \
		tests/runtime/test_protocol_fuzz.py tests/runtime/test_small_task_path.py \
		tests/runtime/test_staging.py -x -q

# Seeded chaos sweep (VM failures + link faults + transfer faults) run
# twice; the digests must match byte-for-byte or determinism regressed,
# and must equal the pinned digest (tests/experiments/chaos_digest.txt,
# also checked in tier-1) or the sweep's outcome moved.
chaos:
	$(PYTHON) -m repro.experiments chaos --scale 0.05 | tee /tmp/frieda-chaos-1.txt
	$(PYTHON) -m repro.experiments chaos --scale 0.05 > /tmp/frieda-chaos-2.txt
	@grep '^chaos digest:' /tmp/frieda-chaos-1.txt > /tmp/frieda-chaos-digest-1.txt
	@grep '^chaos digest:' /tmp/frieda-chaos-2.txt > /tmp/frieda-chaos-digest-2.txt
	@diff /tmp/frieda-chaos-digest-1.txt /tmp/frieda-chaos-digest-2.txt \
		&& echo "chaos sweep reproducible: digests match"
	@diff tests/experiments/chaos_digest.txt /tmp/frieda-chaos-digest-1.txt \
		&& echo "chaos digest matches the pinned value"
