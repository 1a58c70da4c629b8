# One entry point for the checks CI and local development share.
#
#   make test        - the tier-1 suite (tests/, includes the differential
#                      symbolic-vs-explicit suite, the interp-vs-codegen step
#                      engine differentials and the benchmark smoke runs)
#   make cov         - the tier-1 suite under coverage with the minimum gate
#                      (CI runs this on the py3.12 leg only)
#   make lint        - ruff (high-signal core rules) + byte-compilation check
#   make bench-smoke - only the benchmark smoke runs (every benchmarks/bench_*.py
#                      main path at its smallest size); writes BENCH_SMOKE.json,
#                      the per-benchmark wall-clock + peak-BDD-node artifact CI
#                      uploads
#   make bench-check - gate: fail if any smoke benchmark regressed >3x against
#                      the committed benchmarks/BENCH_BASELINE.json (seconds or
#                      peak BDD nodes)
#   make perfbench-smoke - every BENCHMARK.json workload for 3 s (perfbench/run.py
#                      --trace 0), plus the symbolic one with --trace 1; fails
#                      unless each run attempted operations and none failed
#   make perfbench-counts - gate: every workload traced at seed 3; its routes and
#                      count/% per-layer metrics must equal the committed
#                      benchmarks/PERFBENCH_COUNTS.json exactly (regenerate it
#                      with `python tools/perfbench_smoke.py --counts --update`)
#   make bench       - the full pytest-benchmark campaign over benchmarks/

PYTHON ?= python
PYTEST := PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest
COV_MIN ?= 85
BENCH_FACTOR ?= 3.0

.PHONY: test cov lint bench-smoke bench-check perfbench-smoke perfbench-counts bench

test:
	$(PYTEST) -x -q

cov:
	$(PYTEST) -q --cov=repro --cov-report=term-missing:skip-covered --cov-fail-under=$(COV_MIN)

lint:
	$(PYTHON) -m ruff check .
	$(PYTHON) -m compileall -q src

bench-smoke:
	$(PYTEST) -q -m bench_smoke

bench-check:
	$(PYTHON) tools/check_bench_regression.py BENCH_SMOKE.json benchmarks/BENCH_BASELINE.json --factor $(BENCH_FACTOR)

perfbench-smoke:
	$(PYTHON) tools/perfbench_smoke.py

perfbench-counts:
	$(PYTHON) tools/perfbench_smoke.py --counts

bench:
	$(PYTEST) -q -o python_files='bench_*.py' benchmarks
