PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint check perf-smoke fleet-smoke serve-smoke kv-smoke bench \
	figures replaybench replaybench-test

test: lint check
	$(PYTHON) -m pytest -q

# Generic lint and typing over src/repro: ruff, then mypy.  Both are
# optional: environments without them (e.g. the minimal CI image) skip
# with a notice instead of failing.  The repo's own determinism and
# layering rules are tier-1 tests (DESIGN.md §9), run by `make test`.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro; \
	else \
		echo "lint: ruff not installed, skipping"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "lint: mypy not installed, skipping"; \
	fi

# The correctness harness under a tight time budget: seeded-corruption
# detection, property fuzz (TRIM + faults + crash streams), and the
# timeline-vs-DES differential replay.  Also part of the plain suite;
# this target isolates it for quick iteration on FTL hot paths.
check:
	$(PYTHON) -m pytest -q tests/unit/test_check.py \
		tests/property/test_check_fuzz.py \
		tests/integration/test_differential.py

# Tiny parallel-engine smoke: process-pool round trip and jobs=1 vs
# jobs=2 digest identity.  Part of the plain suite too; this target
# isolates it.
perf-smoke:
	$(PYTHON) -m pytest -q -m perf_smoke

# Fleet smoke: small sharded runs — jobs=1 vs jobs=N digest identity,
# routing/partition coverage.  Part of the plain suite too.
fleet-smoke:
	$(PYTHON) -m pytest -q -m fleet_smoke

# Serve smoke: three tenants stream small traces through the socket
# service, final digests must equal the batch runs, a SIGTERM'd server
# checkpoints every session and a restart resumes them bit-exact.
serve-smoke:
	$(PYTHON) -m pytest -q -m serve_smoke

# KV smoke: keyed zoo workloads end-to-end through the key→LPN layer,
# the pool on/off ablation, and jobs=1 vs jobs=N digest identity.
kv-smoke:
	$(PYTHON) -m pytest -q -m kv_smoke

# Refresh the tracked BENCH_replay.json on this machine: every
# BENCHMARK.json workload through replaybench for its run_seconds, plus
# the fleet cell at jobs=1 and jobs=min(4, cores).  Exits 1 on a wrong
# digest, failed requests or a sub-1x fleet speedup.  Not run in CI.
bench:
	$(PYTHON) benchmarks/bench.py

# Replay benchmark (BENCHMARK.json): every workload at seed 1, untraced
# end-to-end metrics and the traced per-layer ledger (replaybench/README.md).
replaybench:
	$(PYTHON) replaybench/report.py

# The replay benchmark's own tests (also a CI step).
replaybench-test:
	$(PYTHON) -m pytest -q replaybench/tests

figures:
	$(PYTHON) -m pytest benchmarks -q -s
