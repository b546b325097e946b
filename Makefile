# Developer entry points for the SecureCloud reproduction.
#
# Every target runs from the repository root; PYTHONPATH=src makes the
# repro package importable without an editable install.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-cov bench bench-smoke bench-gate chaos-smoke \
        service-smoke perf-smoke perf-compare experiments

test:
	$(PYTHON) -m pytest -x -q

# Full benchmark suite via pytest-benchmark; regenerates every table
# under benchmarks/out/ (both .txt and .json artifacts).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fast CI smoke: every experiment runs once end-to-end; experiments
# that support a reduced workload (e.g. a9) use it.  Fails loudly if
# any benchmark path regresses.
bench-smoke:
	$(PYTHON) -m repro.cli smoke

# Performance gate: run A1, A9, A10, E6, E7, and E8 in smoke mode and
# fail if any gated metric (visits/match, virtual_ms/match,
# virtual_ms/MB, virtual_ms/pub, detect_ms_med, recover_ms_med,
# ms_per_join, silent_loss) regressed more than 10% against the
# checked-in benchmarks/out/gate_*.json baselines, printing one
# aggregated summary table with a single exit code.  The A9 rows pin
# the chunked-parallel sealing cost model (serial XOF vs. chunked at
# 64/256 KiB chunks x 1/2/4/8 workers); the E7 rows pin node-failover
# detection/recovery latency and zero silent loss; the E8 rows pin the
# attested-join cost model (cold vs. cached vs. batched vs. ticket)
# and provisioned mass-recovery latency; the E9 rows pin the streaming
# plane's shed accounting, commit-lag tail, recovery latency, and zero
# silent loss under overload and churn; the E10 rows pin the front
# door's completed-request p99, the victim tenant's latency ratio
# under a noisy tenant's chaos, and zero silent request loss.
# Regenerate with:
#   $(PYTHON) -m repro.cli gate --update
bench-gate:
	$(PYTHON) -m repro.cli gate

# Coverage gate: tier-1 suite under line coverage with enforced floors
# (src/repro/telemetry/ >= 90%, src/repro/crypto/ >= 90%,
# src/repro/scbr/provisioning.py >= 90%, src/repro/streams/ >= 90%,
# src/repro/service/ >= 90%, repo-wide ratchet at the measured
# baseline); uses the coverage package when installed, else a built-in
# settrace collector.  See tools/test_cov.py.
test-cov:
	$(PYTHON) tools/test_cov.py -x -q

# Smoke run plus the chaos determinism gate: the E5 fault-injection
# scenarios, the E6 sharded-plane failover scenarios, the E7
# node-fault scenarios, the E8 attested-join scenarios (batched
# enrollment included), the E9 streaming-churn scenarios
# (backpressure, shedding, crash replay, autoscaling), and the E10
# front-door scenarios (gateway crash replay, sealed audit chains)
# must produce identical results (fault log, delivery set, sealed
# audit digests, and telemetry snapshot) across two same-seed runs,
# and the same payload sealed twice through the chunked process pool
# (plus once serially) must yield byte-identical ciphertext.
chaos-smoke:
	$(PYTHON) -m repro.cli smoke --chaos

# Fast front-door check: the service-layer conformance harness alone
# (sealed audit properties, admission/quota/billing books,
# cross-tenant isolation vs the operator oracle, gateway crash
# replay with exactly-once audit).
service-smoke:
	$(PYTHON) -m pytest -x -q tests/service

# The two-clock request-path benchmark's own smoke test (outside
# tier-1; see benchmarks/perf/README.md).
perf-smoke:
	$(PYTHON) -m pytest benchmarks/perf -q

# Compare two saved `python3 -m benchmarks.perf` reports:
#   make perf-compare A=parent.json B=change.json
perf-compare:
	python3 -m benchmarks.perf --compare $(A) $(B)

# Regenerate every paper table/figure through the CLI runner.
experiments:
	$(PYTHON) -m repro.cli run all
