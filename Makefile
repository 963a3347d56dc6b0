PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test fuzz coverage examples bench bench-full perfbench serve-bench scale-bench stats chaos open-loop trace docs-check

## Tier-1 test suite (what CI runs).  Includes 200 seeded differential
## plan-fuzzing cases; `make fuzz` cranks the seed count.
test:
	$(PYTHON) -m pytest -x -q

## Differential plan fuzzing with extra seeds (default 1000; override
## with FUZZ_SEEDS=n).  Every failure message prints the reproducing
## seed and plan, and seeds are stable across runs.
FUZZ_SEEDS ?= 1000
fuzz:
	FUZZ_PLAN_CASES=$(FUZZ_SEEDS) $(PYTHON) -m pytest tests/test_fuzz_plans.py -q

## Coverage-gated test run (CI job "coverage"; needs pytest-cov).  The
## fail-under threshold is a ratchet: raise it when coverage grows,
## never lower it.
COV_FAIL_UNDER ?= 87
coverage:
	$(PYTHON) -m pytest -q --cov=repro \
		--cov-report=term-missing:skip-covered \
		--cov-fail-under=$(COV_FAIL_UNDER)

## Docs consistency (CI runs this too): python snippets in README.md and
## docs/*.md must parse, their imports/symbol references must resolve
## against the package, and referenced repo paths must exist.
docs-check:
	$(PYTHON) tools/check_docs.py

## Run every docs-facing example script (CI runs this too, so the
## quickstart and tours referenced from README.md cannot rot).
examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null; \
	done; echo "all examples ran cleanly"

## Quick benchmark pass: fig5-fig9 sweeps + TPC-H execution suite,
## appending wall-clock and simulated seconds to BENCH_results.json.
bench:
	$(PYTHON) benchmarks/run_benchmarks.py --sf 0.05 --repeat 3

## Larger TPC-H scale factor for more stable wall-clock numbers.
bench-full:
	$(PYTHON) benchmarks/run_benchmarks.py --sf 0.1 --repeat 5

## The repository benchmark (BENCHMARK.json): each perfbench workload
## once, untraced, printing its `details:` line and its metrics line.
## SEED and SECONDS are overridable, so an A/B against another checkout
## is this one command run in each tree.
SEED ?= 1
SECONDS ?= 15
PERFBENCH_WORKLOADS = adhoc_cold dashboard_warm serve_refresh join_sweep
perfbench:
	@set -e; for workload in $(PERFBENCH_WORKLOADS); do \
		echo "== $$workload"; \
		$(PYTHON) perfbench/run.py --workload $$workload --seed $(SEED) \
			--seconds $(SECONDS) --trace 0 | tail -n 2; \
	done

## Serving smoke run (CI job "serve"): the cold tpch suite plus the
## 4-tenant serve suite into a scratch file, then gate the invariants —
## served per-query simulated seconds bit-identical to the cold suite AND
## to the recorded BENCH_results.json baseline, throughput >= 2x serial.
serve-bench:
	$(PYTHON) benchmarks/run_benchmarks.py --suites tpch serve \
		--sf 0.05 --repeat 1 --output /tmp/BENCH_serve_smoke.json
	$(PYTHON) tools/check_serve.py --bench /tmp/BENCH_serve_smoke.json \
		--baseline BENCH_results.json --min-speedup 2.0

## Worker-scaling smoke run (CI job "parallel"): the TPC-H suite at
## workers in {1,2,4,auto} into a scratch file, then gate the invariants —
## simulated seconds / device busy / link bytes bit-identical at every
## worker count, and (on hosts with >= 4 CPUs) wall-clock >= 1.5x faster
## at 4 workers than at 1.
scale-bench:
	$(PYTHON) benchmarks/run_benchmarks.py --suites scale \
		--sf 0.05 --repeat 3 --output /tmp/BENCH_scale_smoke.json
	$(PYTHON) tools/check_scale.py --bench /tmp/BENCH_scale_smoke.json \
		--min-speedup 1.5

## Statistics smoke run (CI job "stats"): the cardinality-estimation
## suite into a scratch file, then gate the invariants — per-query
## median q-error <= 4 on every evaluated TPC-H query, and simulated
## seconds bit-identical between statistics on/off whenever the chosen
## plan is unchanged.
stats:
	$(PYTHON) benchmarks/run_benchmarks.py --suites stats \
		--sf 0.05 --repeat 1 --output /tmp/BENCH_stats_smoke.json
	$(PYTHON) tools/check_stats.py --bench /tmp/BENCH_stats_smoke.json \
		--max-q-error 4.0

## Chaos smoke run (CI job "chaos"): the 4-tenant serve workload with a
## mid-run dual-GPU outage into a scratch file, then gate the invariants —
## every query completes cleanly, failed-over results bit-identical to
## fault-free solo runs, and the empty-fault-plan pass bit-identical to
## the recorded BENCH_results.json baseline.
chaos:
	$(PYTHON) benchmarks/run_benchmarks.py --suites chaos \
		--sf 0.05 --repeat 1 --output /tmp/BENCH_chaos_smoke.json
	$(PYTHON) tools/check_chaos.py --bench /tmp/BENCH_chaos_smoke.json \
		--baseline BENCH_results.json

## Tracing smoke run (CI job "obs"): a fault-injected, preempting chaos
## epoch served with tracing on at workers {1,2,auto} plus a replay into
## a scratch file, then gate the invariants — epoch JSONL byte-identical
## across all four drains, Chrome export Perfetto-loadable, every
## critical path names its binding resource, and the tracing-off path
## is at most 2% slower than the traced control on the TPC-H suite.
trace:
	$(PYTHON) benchmarks/run_benchmarks.py --suites trace \
		--sf 0.05 --repeat 1 --output /tmp/BENCH_trace_smoke.json
	$(PYTHON) tools/check_trace.py --bench /tmp/BENCH_trace_smoke.json \
		--max-overhead-pct 2.0

## Open-loop smoke run (CI job "open-loop"): the cold tpch suite plus the
## 4-tenant Poisson/trace open-loop suite (preemption + aging on) into a
## scratch file, then gate the invariants — per-query simulated seconds
## bit-identical to solo/recorded baselines, interactive p99 within each
## tenant's SLO, zero batch starvation, and same-seed replay exact.
open-loop:
	$(PYTHON) benchmarks/run_benchmarks.py --suites tpch open_loop \
		--sf 0.05 --repeat 1 --output /tmp/BENCH_open_loop_smoke.json
	$(PYTHON) tools/check_serve.py --bench /tmp/BENCH_open_loop_smoke.json \
		--baseline BENCH_results.json --require-open-loop
