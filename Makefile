PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint audit check accel bench bench-check bench-update bench-macro bench-macro-update ledger-check schema-check trace-demo chaos chaos-runtime service-check recovery-check

test:
	$(PYTHON) -m pytest -x -q

# The exporter's format contract (trace-event schema + golden bytes) and
# the span/event log's storage contract beneath it.
schema-check:
	$(PYTHON) -m pytest tests/telemetry/test_export.py tests/telemetry/test_recordlog.py -x -q

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
# fair-share, quotas, leases, HTTP front end). Determinism of the
# 120-tenant load is gated by its pinned digests
# (tests/service/test_sim_load.py::TestPinnedDigests): a same-seed
# rerun that drifts cannot match a pin, so no second run is needed.
service-check:
	$(PYTHON) -m pytest tests/service -x -q

# Crash-consistency gate: the journal and recovery suites plus the
# pinned 120-tenant load with the control plane killed twice mid-run
# and recovered from its write-ahead journal. Its outcome digest is
# pinned equal to the uninterrupted run's: a master crash may reshuffle
# timing, never results.
recovery-check:
	$(PYTHON) -m pytest tests/service/test_journal.py \
		tests/service/test_recovery.py tests/service/test_kill_master.py \
		tests/service/test_sim_load.py::TestPinnedDigests -x -q

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

# Seeded chaos sweep (VM failures + link faults + transfer faults),
# its digest diffed against the pin (tests/experiments/chaos_digest.txt):
# a mismatch means the sweep's outcome moved or stopped being
# deterministic. Tier-1 (tests/experiments/test_robustness.py) also
# runs the sweep twice and checks the same pin.
chaos:
	$(PYTHON) -m repro.experiments chaos --scale 0.05 | tee /tmp/frieda-chaos.txt
	@grep '^chaos digest:' /tmp/frieda-chaos.txt | diff tests/experiments/chaos_digest.txt - \
		&& echo "chaos digest matches the pinned value"
