PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-fast oracle-dev perfbench-test exp-smoke bench-trajectory lint repro-lint typecheck docs check-docs bench bench-batched bench-families bench-substrate bench-frontier bench-batched-frontier bench-parallel bench-churn bench-fast check-bench bench-smoke doctor ci

test:            ## full test suite (tier-1 gate)
	$(PYTHON) -m pytest -x -q

repro-lint:      ## AST invariant checks (tools/repro_lint, stdlib-only)
	$(PYTHON) -m tools.repro_lint

typecheck:       ## mypy, strict on the core (skipped if mypy is absent)
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro; \
	else \
		echo "mypy not installed; skipping typecheck (CI runs it)"; \
	fi

lint: repro-lint ## repro-lint + ruff + mypy (absent tools are skipped)
	@if $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests tools benchmarks examples; \
	else \
		echo "ruff not installed; skipping ruff (CI runs it)"; \
	fi
	@$(MAKE) --no-print-directory typecheck

test-fast:       ## test suite without the slower integration modules
	$(PYTHON) -m pytest -x -q --ignore=tests/test_integration.py

oracle-dev:      ## differential oracle in dev mode (pools, shared memory, journals; leaked resources fail)
	$(PYTHON) -X dev -W error::ResourceWarning -m pytest -q tests/test_oracle.py

perfbench-test:  ## benchmark self-tests (perfbench MIS checks and tracer)
	$(PYTHON) -m pytest perfbench -q

docs:            ## regenerate docs/API.md from docstrings
	$(PYTHON) tools/gen_api_docs.py

check-docs:      ## fail if docs/API.md is stale
	$(PYTHON) tools/check_docs.py

bench:           ## full benchmark suite
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-batched:   ## serial vs batched trial-engine speedup report
	$(PYTHON) benchmarks/bench_batched_trials.py

bench-families:  ## serial vs batched speedups for the 3-state/3-color/scheduled engines
	$(PYTHON) benchmarks/bench_batched_families.py

bench-substrate: ## CSR substrate vs tuple/set representation at n = 2^20
	$(PYTHON) benchmarks/bench_graph_substrate.py

bench-frontier:  ## frontier engine vs PR 3 full-recompute path at n = 2^18 (>=5x asserted)
	$(PYTHON) benchmarks/bench_frontier.py

bench-batched-frontier:  ## batched frontier vs PR 2 full-reduction fleet (>=3x asserted on the tail-heavy workload)
	$(PYTHON) benchmarks/bench_batched_frontier.py

bench-parallel:  ## multi-core fleet sharding vs serial (hardware-scaled floor asserted; >=3x at 4 workers on 4+ cores)
	$(PYTHON) benchmarks/bench_parallel_sweep.py

bench-churn:     ## dynamic MIS service: frontier repair vs per-event rebuild at n = 2^16 (throughput floor asserted)
	$(PYTHON) benchmarks/bench_churn.py

bench-fast:      ## fast-mode speedups -> BENCH_*.json at repo root
	$(PYTHON) benchmarks/emit_bench_json.py

check-bench:     ## fail if any BENCH_*.json entry regresses its speedup floor
	$(PYTHON) tools/check_bench.py

bench-trajectory: ## rewrite every BENCH_*.json, then check their floors
	$(PYTHON) benchmarks/emit_bench_json.py
	$(PYTHON) tools/check_bench.py

exp-smoke:       ## fast-mode E12 (beeping/stone-age vs the reference), E18 (execution paths) and E20 (churn service)
	$(PYTHON) -m repro.experiments run E12
	$(PYTHON) -m repro.experiments run E18
	$(PYTHON) -m repro.experiments run E20

doctor:          ## self-check: substrate (shm, wire format), kill/hang/poison chaos matrix at 2 and 4 workers, churn service
	$(PYTHON) -m repro doctor

ci: lint test oracle-dev perfbench-test check-docs bench-smoke bench-trajectory exp-smoke   ## what the CI workflow runs (tier-1 runs the doctor)

bench-smoke:     ## CI-scale regression smoke (batched engines, substrate, frontier, fleet sharding, churn, E19)
	BENCH_FAST=1 $(PYTHON) benchmarks/bench_batched_families.py
	BENCH_FAST=1 $(PYTHON) benchmarks/bench_graph_substrate.py
	BENCH_FAST=1 $(PYTHON) benchmarks/bench_frontier.py
	BENCH_FAST=1 $(PYTHON) benchmarks/bench_batched_frontier.py
	BENCH_FAST=1 $(PYTHON) benchmarks/bench_parallel_sweep.py
	BENCH_FAST=1 $(PYTHON) benchmarks/bench_churn.py
	$(PYTHON) -m repro.experiments run E19
