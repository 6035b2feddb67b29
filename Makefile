# Convenience targets for the reproduction repository.

PYTHON ?= python3

.PHONY: install test bench bench-perf bench-server quick-check reproduce clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# hot-path throughput regression harness: simulated cycles/sec and
# issued ops/sec over the stress scenarios, written to BENCH_hotpath.json
bench-perf:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_hotpath.py --output BENCH_hotpath.json --assert-replay-speedup 2.0 --assert-batch-speedup 10.0 --assert-telemetry-overhead 25

# evaluation-server load test: spawns `repro serve` on an ephemeral
# port, bursts all-duplicate traffic (coalescing), hammers the warm key
# (latency), revalidates via If-None-Match (304s); BENCH_server.json
bench-server:
	PYTHONPATH=src $(PYTHON) -m repro loadtest --clients 50 --requests 500 --output BENCH_server.json --assert-coalesce-ratio 0.9 --assert-p99-ms 250 --assert-zero-5xx

# the two output files the reproduction record refers to
outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

quick-check:
	$(PYTHON) -m pytest tests/isa tests/core -q

reproduce:
	$(PYTHON) examples/paper_reproduction.py

clean:
	rm -rf .pytest_cache .benchmarks .hypothesis
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
