# Convenience targets (everything works offline).
#
# The repo's benchmark is perf/ (`python3 perf/run.py`, contract in
# BENCHMARK.json, glossary in perf/README.md): five crash-terminated
# workloads, simulated + wall-clock metrics, `--trace` for the per-layer
# split.  `make perf-smoke` is its per-push self-test; `make perf` below
# is the older pytest guardrail set under benchmarks/.

.PHONY: install test bench perf perf-smoke report examples all clean \
	lint infer check sweep sweep-smoke concurrency sharded \
	explore-smoke explore-nightly plan plan-write

install:
	python setup.py develop

test:
	pytest tests/

# Protocol-conformance lint (PHX rules) plus ruff/mypy when available.
# ruff and mypy are optional (pip install -e .[lint]); the AST lint is
# stdlib-only and always runs.
lint:
	PYTHONPATH=src python -m repro.analysis lint src/repro/apps src/repro/core
	PYTHONPATH=src python -m repro.analysis sites
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro; \
	else \
		echo "ruff not installed; skipping (pip install -e .[lint])"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (pip install -e .[lint])"; \
	fi

# Whole-program type-inference gate: every component declaration in the
# deployed apps must match the inferred cheapest safe type (PHX010-012),
# modulo explicit pragmas.  Runs in well under ten seconds.
infer:
	PYTHONPATH=src python -m repro.analysis infer --check src/repro/apps

# Shard plan gate (PHX015–016 + byte identity; docs/internals.md
# section 15): rebuilds the plan from the deploy wiring and fails on
# findings or a byte-stale plans/apps.logplan.json.
# `plan-write` regenerates the committed artifact after wiring changes.
plan:
	PYTHONPATH=src python -m repro.analysis plan --check

plan-write:
	PYTHONPATH=src python -m repro.analysis plan --write

# The local all-in-one.  CI (.github/workflows/check.yml) runs each
# prerequisite as its own named step, once, and then only the pytest line.
check: lint infer plan concurrency sharded explore-smoke
	PYTHONPATH=src python -m pytest -x -q

# Same-seed determinism gate (docs/internals.md section 11): the
# concurrent bookstore workload runs twice under the deterministic
# scheduler; stable logs, traces, clock and replies must be
# byte-identical across the runs.
concurrency:
	PYTHONPATH=src python -m repro.concurrency

# Sharded-logging gate (docs/internals.md section 16): the committed
# LogPlan executed — the sharded concurrent bookstore run twice must be
# byte-identical per stream, fan out to real per-shard streams, and
# return the same replies/state as the flag-off single-log run.
sharded:
	PYTHONPATH=src python -m repro.concurrency sharded

# Schedule-space model checker (docs/internals.md section 13).
# `explore-smoke` is the per-push gate: full DPOR enumeration of the
# ledger workload at N=2 (must complete with zero TRC violations,
# strictly fewer schedules than naive enumeration, and a byte-identical
# SCHEDULE_ID replay) — a few seconds.  `explore-nightly` adds a
# budgeted N=3 exploration and the exploration x crash-point composite.
explore-smoke:
	PYTHONPATH=src python -m repro.concurrency.cli smoke

explore-nightly:
	PYTHONPATH=src python -m repro.concurrency.cli explore --sessions 3 \
		--budget 8000 --keep-going
	PYTHONPATH=src python -m repro.concurrency.cli crash-sweep \
		--budget 800 --specs 3
	PYTHONPATH=src python -m repro.concurrency.cli explore \
		--workload ledger-pipelined --sessions 3 --budget 8000 \
		--keep-going
	PYTHONPATH=src python -m repro.concurrency.cli crash-sweep \
		--workload ledger-pipelined --budget 800 --specs 3

# Deterministic crash-point sweep (docs/internals.md section 9): every
# durability boundary and message-pipeline point of every workload,
# crash -> recover -> compare against the fault-free golden run.  `sweep`
# is the full nightly pass; `sweep-smoke` is the sampled per-push subset
# (~440 points, under a minute).
sweep:
	PYTHONPATH=src python -m repro.faults sweep

sweep-smoke:
	PYTHONPATH=src python -m repro.faults sweep --message-stride 8 --stride 5

bench:
	pytest benchmarks/ --benchmark-only

# Hot-path guardrails: the log read/write microbenchmark, the Table 7
# recovery benchmark that exercises replay end to end, the smoke sizes
# of the on-demand recovery latency benchmark (run the latter with
# REPRO_BENCH_FULL=1 to regenerate BENCH_recovery.json), and the
# concurrent-throughput benchmark with its bookkeeping guardrail:
# scheduler-loop self time per step at N=64 over N=8 as a ratio, and
# vector-clock bytes per traced event.
perf:
	pytest benchmarks/bench_log_hotpath.py benchmarks/bench_table7_recovery.py \
		benchmarks/bench_recovery_latency.py \
		benchmarks/bench_concurrent_throughput.py --benchmark-only -s

# The perf/ benchmark at 1/20 size plus its self-test: a refactor that
# renames an entry point perf/README.md lists under "What the benchmark
# needs from `repro`" fails here instead of breaking the benchmark
# silently.  Never a source of reported numbers.
perf-smoke:
	python3 perf/run.py --smoke
	python -m pytest perf/ -q

report:
	python -m repro.bench EXPERIMENTS.md

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		python $$script || exit 1; \
	done

all: test bench report

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
