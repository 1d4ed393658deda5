# Repository verification targets.
#
#   make verify       tier-1 tests + benchmark-harness tests + paper-scale
#                     artifacts + doc link check + chaos run +
#                     serve/orchestrator/spill smokes + fast coverage gate
#   make test         tier-1 test suite only
#   make artifacts    the paper-scale table/figure suite (benchmarks/, scale
#                     1.0, seed 20250209), then fail if any rendered artifact
#                     under benchmarks/output differs from the committed one
#   make perfbench-test  the repository benchmark harness's own tests
#                     (perfbench/tests): every workload emits every metric
#                     BENCHMARK.json names, and the span wrappers still
#                     find the collector/client methods they wrap by name
#   make doclinks     README.md / docs/*.md cross-reference check only
#   make chaos        every fault-injection scenario, each over a spill
#                     directory (see docs/RESILIENCE.md)
#   make bench        the repository benchmark (perfbench/), end to end and
#                     traced, recorded in BENCH_campaign.json; writes nothing
#                     if either run fails its checks (see docs/PERFORMANCE.md)
#   make serve-smoke  serve + loadgen burst: byte-identity vs the
#                     in-process reference and exact ledger reconciliation
#   make orchestrator-smoke  kill -9 the orchestrator daemon mid-campaign,
#                     resume over the same workdir, assert byte-identity of
#                     the campaign's spill store and exact ledger
#                     reconciliation (see docs/ORCHESTRATOR.md)
#   make spill-smoke  kill -9 a spilling campaign mid-stream, resume over
#                     the same spill directory, assert the recovered store
#                     and analyses match an uninterrupted in-memory run
#                     exactly (see docs/PERSISTENCE.md)
#   make coverage     full suite under pytest-cov, >= 80% line coverage
#                     (skips gracefully when pytest-cov is not installed)
#   make coverage-fast  same gate minus the slowest end-to-end modules

PYTHON ?= python

.PHONY: verify test perfbench-test artifacts doclinks chaos bench serve-smoke \
	orchestrator-smoke spill-smoke coverage coverage-fast

verify: test perfbench-test artifacts doclinks chaos serve-smoke \
	orchestrator-smoke spill-smoke coverage-fast

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

perfbench-test:
	PYTHONPATH=src $(PYTHON) -m pytest perfbench/tests -q

artifacts:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks --benchmark-disable -q
	git diff --exit-code -- benchmarks/output

doclinks:
	$(PYTHON) tools/check_doc_links.py

chaos:
	@scenarios=$$(PYTHONPATH=src $(PYTHON) -m repro chaos --list | cut -d' ' -f1); \
	test -n "$$scenarios" || exit 1; \
	for scenario in $$scenarios; do \
		PYTHONPATH=src $(PYTHON) -m repro chaos --scenario $$scenario || exit 1; \
	done

bench:
	$(PYTHON) tools/record_bench.py

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
