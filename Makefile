# Repository verification targets.
#
#   make verify       tier-1 tests + doc link check + chaos run + bench smoke
#                     + benchmark-harness tests
#   make test         tier-1 test suite only
#   make perfbench-test  the repository benchmark harness's own tests
#                     (perfbench/tests): every workload emits every metric
#                     BENCHMARK.json names, and the span wrappers still
#                     find the collector/client methods they wrap by name
#   make doclinks     README.md / docs/*.md cross-reference check only
#   make chaos        fastest fault-injection scenario (see docs/RESILIENCE.md)
#   make bench        campaign benchmark -> BENCH_campaign.json
#                     (see docs/PERFORMANCE.md)
#   make bench-smoke  reduced-scale benchmark to a temp file (verify gate)
#   make bench-analysis  reduced-scale analysis fast-path benchmark to a
#                     temp file (verify gate; see docs/PERFORMANCE.md)
#   make bench-service  service latency/throughput benchmark to a temp
#                     file (see docs/SERVICE.md and docs/PERFORMANCE.md)
#   make bench-world  world-builder benchmark at smoke scale to a temp
#                     file (verify gate; see docs/PERFORMANCE.md)
#   make bench-collect  batched vs per-call collection at smoke scale:
#                     times both engines and asserts campaign sha256 /
#                     quota-ledger identity (verify gate; see
#                     docs/PERFORMANCE.md "Batched collection")
#   make serve-smoke  serve + loadgen burst: byte-identity vs the
#                     in-process reference and exact ledger reconciliation
#   make orchestrator-smoke  kill -9 the orchestrator daemon mid-campaign,
#                     resume over the same workdir, assert byte-identity
#                     and exact ledger reconciliation (see docs/ORCHESTRATOR.md)
#   make spill-smoke  kill -9 a spilling campaign mid-stream, resume over
#                     the same spill directory, assert the recovered store
#                     and analyses match an uninterrupted in-memory run
#                     exactly (see docs/PERSISTENCE.md)
#   make coverage     full suite under pytest-cov, >= 80% line coverage
#                     (skips gracefully when pytest-cov is not installed)
#   make coverage-fast  same gate minus the slowest end-to-end modules

PYTHON ?= python

.PHONY: verify test perfbench-test doclinks chaos bench bench-smoke \
	bench-analysis bench-service bench-world bench-collect serve-smoke \
	orchestrator-smoke spill-smoke coverage coverage-fast

verify: test perfbench-test doclinks chaos bench-smoke bench-analysis \
	bench-world bench-collect serve-smoke orchestrator-smoke spill-smoke \
	coverage-fast

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

perfbench-test:
	PYTHONPATH=src $(PYTHON) -m pytest perfbench/tests -q

doclinks:
	$(PYTHON) tools/check_doc_links.py

chaos:
	PYTHONPATH=src $(PYTHON) -m repro chaos --scenario malformed-json

bench:
	PYTHONPATH=src $(PYTHON) -m repro bench

bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bench --scenario reduced --quiet \
		--out $(or $(TMPDIR),/tmp)/repro_bench_smoke.json

bench-analysis:
	PYTHONPATH=src $(PYTHON) -m repro bench --scenario analysis-smoke --quiet \
		--out $(or $(TMPDIR),/tmp)/repro_bench_analysis.json

bench-service:
	$(PYTHON) tools/bench_service.py \
		--out $(or $(TMPDIR),/tmp)/repro_bench_service.json

bench-world:
	PYTHONPATH=src $(PYTHON) -m repro bench --scenario world-smoke --quiet \
		--out $(or $(TMPDIR),/tmp)/repro_bench_world.json

bench-collect:
	PYTHONPATH=src $(PYTHON) -m repro bench --scenario collect-smoke --quiet \
		--out $(or $(TMPDIR),/tmp)/repro_bench_collect.json

serve-smoke:
	$(PYTHON) tools/serve_smoke.py

orchestrator-smoke:
	$(PYTHON) tools/orchestrator_smoke.py

spill-smoke:
	$(PYTHON) tools/spill_smoke.py

coverage:
	$(PYTHON) tools/coverage_gate.py

coverage-fast:
	$(PYTHON) tools/coverage_gate.py --fast
