# Developer entry points for the SecureCloud reproduction.
#
# Every target runs from the repository root; PYTHONPATH=src makes the
# repro package importable without an editable install.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-cov bench bench-smoke bench-gate chaos-smoke \
        service-smoke perf-smoke perf-compare perf-pairs lines import-cost \
        registration-cost seal-sites match-cost e1-cost forest-cost \
        bringup-cost knobs reach surface experiments

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

# Performance gate: the smoke-mode rows of every experiment in
# GATE_SPECS (src/repro/cli.py) against benchmarks/out/gate_*.json;
# regenerate with `$(PYTHON) -m repro.cli gate --update`.
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
# front-door scenarios (admission, quotas, sealed audit chains; gateway
# crash replay is exercised in tests/service/test_chaos_robustness.py,
# not here) must produce identical results (fault log, delivery set, sealed
# audit digests, and telemetry snapshot) across two same-seed runs.
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

# Paired before/after runs of one benchmark workload, alternating which
# checkout goes first, then the benchmark's own comparison:
#   make perf-pairs PARENT=/root/scratch/parent W=tenant_mix N=10
# Appends to $(OUT)/parent.$(W).json and $(OUT)/change.$(W).json; S is
# the time box per run (BENCHMARK.json's run_seconds).
N ?= 10
S ?= 10
OUT ?= /root/scratch/pairs
perf-pairs:
	@test -d "$(PARENT)/benchmarks/perf" || \
	  { echo "PARENT=<checkout of the parent commit> is required"; exit 2; }
	@test -n "$(W)" || { echo "W=<workload> is required"; exit 2; }
	@mkdir -p $(OUT)
	@here=$$(pwd); a=$(OUT)/parent.$(W).json; b=$(OUT)/change.$(W).json; \
	run() { (cd $$1 && python3 -m benchmarks.perf --workload $(W) \
	         --seconds $(S) --out $$2 >/dev/null) || exit 1; }; \
	for i in $$(seq 1 $(N)); do \
	  if [ $$((i % 2)) -eq 1 ]; then run $(PARENT) $$a; run $$here $$b; \
	  else run $$here $$b; run $(PARENT) $$a; fi; \
	  echo "pair $$i/$(N) done"; \
	done; \
	python3 -m benchmarks.perf --compare $$a $$b

# Source line counts, exactly as `python3 -m benchmarks.perf` reports
# them (`repo.src_lines` and one row per package), without a benchmark
# run: a simplicity PR states its delta from two of these.
lines:
	@python3 -c "from benchmarks.perf.__main__ import source_lines; \
	[print('%-24s %6d' % row) for row in sorted(source_lines().items())]"

# What a process pays before it does any work: CPU seconds, peak
# resident memory and module count of a fresh interpreter that has
# imported the front door and the smart-grid package, as the benchmark
# harness and the examples do (DESIGN section 14, "Cold start").
import-cost:
	@$(PYTHON) -c "import resource, sys; import repro.service, repro.smartgrid; \
	u = resource.getrusage(resource.RUSAGE_SELF); \
	print('import repro.service, repro.smartgrid: %.2f CPU-s, %.1f MiB peak RSS,' \
	      ' %d modules' % (u.ru_utime + u.ru_stime, u.ru_maxrss / 1024, len(sys.modules)))"

# What registering a subscription costs as the database fills: CPU ms
# per subscribe for each 1 000 of 4 000 through a seeded default front
# door, and the share of it spent re-sealing shard checkpoints (DESIGN
# section 8, "What a checkpoint costs").
registration-cost:
	@$(PYTHON) tools/registration_cost.py

# Where a benchmark workload's sealing CPU goes: per call site of
# seal / open / seal_records / open_records, calls per op, mean payload
# bytes, microseconds per call and share of the ops' CPU, plus the
# HMAC-CTR keystream share (DESIGN section 10, "Which framing when"):
#   make seal-sites W=publish_fanout
seal-sites:
	@test -n "$(W)" || { echo "W=<workload> is required"; exit 2; }
	@$(PYTHON) tools/seal_sites.py $(W)

# What the containment walk costs a publish on the host: per shard
# match of `publish_fanout` (seed 2018, 1 400 publishes), calls, mean
# visits, microseconds per match and per visit, the matches' share of
# the publishes' CPU and the charge's share of the matches (DESIGN
# section 5, "A forest visit is two keys").
match-cost:
	@$(PYTHON) tools/match_cost.py

# What Figure 3 costs on the host: CPU seconds of one 96 MiB enclave
# LinearIndex match and of `repro.cli run e1` (DESIGN section 5, "A
# table is one run").
e1-cost:
	@$(PYTHON) tools/e1_cost.py

# What building a wide containment forest costs: CPU seconds of a
# 20 000-subscription, 20-attribute ContainmentIndex build, its roots,
# depth and covers calls (DESIGN section 5, "A forest build reads only
# buckets that can cover").
forest-cost:
	@$(PYTHON) tools/forest_cost.py

# Where one cold front-door bring-up spends its CPU: calls and CPU ms of
# RSA keygen, DH generate, DH shared_key, RSA sign and RSA verify, and
# the residual (DESIGN section 14, "Fixed-parameter modexps").
bringup-cost:
	@$(PYTHON) tools/bringup_cost.py

# Which construction values any run sets: per constructor in src/repro
# (every class with its own __init__ or @dataclass, plus
# NodeTopology.build), its settable-value count, and per value the
# caller groups (tests, benchmarks, benchmarks/perf, examples, tools)
# that pass it a non-default value, over tier-1, `repro.cli smoke`,
# `benchmarks.perf --seconds 1` and every example (~3 min).
knobs:
	@python3 tools/knob_census.py

# Which runs reach each definition in src/repro: per def its size, the
# runs that call it (tier-1, smoke, smoke --chaos, gate, run all,
# benchmarks.perf --seconds 1, the examples, trace, metrics a10) and its
# tags, then the defs only tier-1 or nothing reaches (~11 min; a kept
# one is tagged raise, cli or boundary, or DESIGN section 16 names it).
reach:
	@python3 tools/knob_census.py --reach

# What crosses the enclave boundary: per enclave code, entry point and
# parameter, the types the host passed and one kind (sealed, plaintext,
# bookkeeping, live object, callable); per sealed format (AAD label or
# platform seal), each field sealed, the enclave codes that read it and
# whether they compare it with enclave state, over tier-1, `repro.cli
# smoke`, `gate` and `benchmarks.perf --seconds 1` (~1 min; DESIGN
# section 17 carries the two tables, tests/test_surface_census.py their
# rows).
surface:
	@python3 tools/knob_census.py --surface

# Regenerate every paper table/figure through the CLI runner.
experiments:
	$(PYTHON) -m repro.cli run all
