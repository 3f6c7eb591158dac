# Convenience entry points.  Tier-1 is plain `make test`; `make verify`
# is the full pre-merge gate (tests + bench regression check); the chaos
# suite (fault injection, worker kills, crash/resume) can be run on its
# own while iterating on robustness work.

PYTEST = PYTHONPATH=src python -m pytest -x -q

.PHONY: verify test unit chaos bench bench-smoke bench-check perfbench-smoke \
	telemetry-demo store-demo

# the default pre-merge gate: tier-1 tests, then the hot-path regression
# check against the newest committed BENCH_<N>.json
verify: test bench-check

test:
	$(PYTEST)

# tier-1 minus the chaos suite — the fast inner loop
unit:
	$(PYTEST) -m "not chaos"

# fault-injection + crash-resilience suite only
chaos:
	$(PYTEST) -m chaos tests/test_chaos.py tests/test_faults.py \
		tests/test_ingest.py

# full hot-path benchmark harness → BENCH_8.json (see docs/performance.md)
bench:
	PYTHONPATH=src python benchmarks/run_bench.py
	PYTHONPATH=src:benchmarks python -m pytest -q \
		benchmarks/bench_performance.py benchmarks/bench_close_path.py \
		benchmarks/bench_compare_batch.py

# seconds-scale harness pass: validates every bench section end-to-end
# without the full-scale timings (CI runs this on every push)
bench-smoke:
	PYTHONPATH=src python benchmarks/run_bench.py --smoke \
		--output /tmp/BENCH.smoke.json

# regression gate: rerun the harness and fail on >25% hot-path slowdown
# against the newest committed BENCH_<N>.json baseline
bench-check:
	PYTHONPATH=src python benchmarks/run_bench.py --output /tmp/BENCH.current.json
	python benchmarks/check_regression.py --current /tmp/BENCH.current.json

# smoke-scale self-test of the end-to-end benchmark (perfbench/README.md):
# its traced runs resolve every layer entry point the tracer wraps, so a
# src change that breaks the tracer fails here
perfbench-smoke:
	python3 -m pytest perfbench -q

# telemetry walkthrough: one Class-A sample under a telemetry-enabled
# monitor, full detection narrative printed (docs/observability.md)
telemetry-demo:
	PYTHONPATH=src python examples/detection_timeline.py --prometheus

# persistent-store round trip: sharded build of a small corpus into a
# .cdbs file, header dump, then the full fsck pass (docs/performance.md)
store-demo:
	PYTHONPATH=src python examples/store_tool.py build /tmp/cryptodrop-demo.cdbs \
		--files 800 --workers 2
	PYTHONPATH=src python examples/store_tool.py info /tmp/cryptodrop-demo.cdbs
	PYTHONPATH=src python examples/store_tool.py verify /tmp/cryptodrop-demo.cdbs
