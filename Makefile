# Convenience targets (plain pytest/python underneath; see README).

PYTHON ?= python

.PHONY: install test test-model test-sanitize lint lint-report baseline bench bench-report bench-batch bench-throughput bench-throughput-batched bench-latency bench-recovery bench-executors bench-e2e-smoke chaos coverage examples figure1 profile clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Model-based differential harness only: every dictionary variant driven
# through random op interleavings against a plain-dict oracle.
test-model:
	PYTHONPATH=src $(PYTHON) -m pytest tests/model/ -q

# Coverage with the ratcheted minimum from .coverage-min (requires
# pytest-cov; CI installs it — locally: pip install pytest-cov).
coverage:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ --cov=repro --cov-report=term \
		--cov-fail-under=$$(cat .coverage-min)

# detlint (the in-tree determinism & PDM-discipline linter): per-file rules
# plus the cross-module flow pass (COST1xx/RACE2xx/DET101), with the
# baseline ratchet (the grandfathered-finding file may only shrink).
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint src tests benchmarks examples scripts
	$(PYTHON) scripts/check_lint_baseline.py
	@command -v ruff >/dev/null 2>&1 && ruff check src tests benchmarks || \
		echo "ruff not installed; skipped (CI runs it)"

# Machine-readable lint report (the CI artifact): full finding list,
# suppression counts, and flow-pass coverage as JSON.
lint-report:
	mkdir -p benchmarks/results
	PYTHONPATH=src $(PYTHON) -m repro.lint --format json \
		> benchmarks/results/LINT_report.json; \
		status=$$?; cat benchmarks/results/LINT_report.json; exit $$status

baseline:
	PYTHONPATH=src $(PYTHON) -m repro.lint --update-baseline

# Tier-1 under CPython's strictest runtime checks: dev mode (extra memory
# and encoding checks), warnings-as-errors for resource leaks and
# deprecations, and faulthandler for native-crash tracebacks.
test-sanitize:
	PYTHONPATH=src $(PYTHON) -X dev -X faulthandler \
		-W error::DeprecationWarning -W error::ResourceWarning \
		-m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Round-packing payoff: sequential vs batched lookup rounds, written as
# the machine-readable acceptance artefact BENCH_batch.json.
bench-batch:
	mkdir -p benchmarks/results
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_batch.py -q --benchmark-disable

# Serving throughput under skew (rounds/op, ops/sec, buffer-pool hit rate),
# written as BENCH_throughput.json (a report; nothing gates its numbers).
bench-throughput:
	mkdir -p benchmarks/results
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_throughput.py -q --benchmark-disable

# Vectorized batch kernel path only (-k batched): in-run >=3x speedup
# over the sequential baseline at bit-identical charged rounds (both
# asserted inside the benchmark), merged into BENCH_throughput.json.
# Run after bench-throughput when you want both sections: the skew test
# rewrites the artifact whole, the batched test merges into it.
bench-throughput-batched:
	mkdir -p benchmarks/results
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_throughput.py -q --benchmark-disable -k batched

# Wall-clock latency percentiles per op class/layer, per-disk utilization,
# and the always-on tracker's self-measured overhead, written as
# BENCH_latency.json (a report; the no-recorder cost is gated by call
# counts in tests/obs/test_detached_cost.py).
bench-latency:
	mkdir -p benchmarks/results
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_latency.py -q --benchmark-disable

# Self-healing under rolling failures: time-to-heal, degraded-read
# fraction, and foreground p99 impact per structure (BENCH_recovery.json).
bench-recovery:
	mkdir -p benchmarks/results
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_fault_recovery.py -q --benchmark-disable

# Executor scaling: wall-clock round time per backend (simulated /
# file / file workers=1) with identical charged rounds asserted, and
# the file backend's parallel-over-sequential speedup gated >= 2x at
# D=8 (BENCH_executors.json).
bench-executors:
	mkdir -p benchmarks/results
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_executors.py -q --benchmark-disable

# End-to-end facade benchmark (benchmarks/e2e), smoke form: every
# workload at 1/20 length with every BENCHMARK.json metric reported, the
# exact gate (every counted metric equal to the committed baseline; wall
# metrics are not gated), then the benchmark's own tests (tier-1 does
# not collect them).  The full run is python3 benchmarks/e2e/run.py.
bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke \
		--out benchmarks/results/BENCH_e2e_smoke.json
	$(PYTHON) scripts/check_e2e_exact.py benchmarks/baselines/e2e_smoke.json \
		benchmarks/results/BENCH_e2e_smoke.json
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e -q

# Instrumented smoke run: spans + metrics + theorem-bound monitors over both
# dictionaries, written as a machine-readable report (and a Perfetto trace).
bench-report:
	mkdir -p benchmarks/results
	PYTHONPATH=src $(PYTHON) -m repro.obs --structure both \
		--operations 512 --capacity 512 --quiet \
		--json benchmarks/results/BENCH_smoke.json \
		--chrome-trace benchmarks/results/BENCH_smoke_trace.json

# Deterministic chaos run: seeded fault plan against all three dictionaries,
# verified against a model — exit 1 on any silent wrong answer.
chaos:
	mkdir -p benchmarks/results
	PYTHONPATH=src $(PYTHON) -m repro.faults --structure all \
		--operations 256 --capacity 128 --quiet \
		--json benchmarks/results/BENCH_chaos.json

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

figure1:
	$(PYTHON) -m repro

# cProfile over an instrumented replay: pstats dump + top-20 table.
profile:
	PYTHONPATH=src $(PYTHON) -m repro.obs --structure basic \
		--operations 1024 --capacity 512 --quiet --profile
	$(PYTHON) scripts/profile_simulation.py

# benchmarks/results is cleared file-by-file: trajectory.json is the
# committed cross-PR bench trajectory and must survive a clean.
clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find benchmarks/results -type f ! -name trajectory.json -delete 2>/dev/null || true
	find . -name __pycache__ -type d -exec rm -rf {} +
