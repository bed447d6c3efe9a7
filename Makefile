# Convenience targets for the Eugene reproduction.

PYTHON ?= python

.PHONY: install test chaos overload overload-smoke anytime anytime-smoke cluster cluster-proc autoscale autoscale-smoke workload workload-smoke isolation isolation-smoke bench bench-fast paper-check bench-e2e examples experiments clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

chaos:
	$(PYTHON) -m pytest tests/faults -q
	$(PYTHON) -m repro.cli chaos --seed 0

overload:
	$(PYTHON) -m repro.cli overload --seed 0

overload-smoke:
	$(PYTHON) -m pytest tests/admission tests/faults/test_overload_invariants.py -q
	$(PYTHON) -m repro.cli overload --smoke --seed 0

# Gen-2 anytime gate: exits non-zero unless gen-2 beats the current EDF and
# utility policies on accrued utility at >=2x overload with zero late
# responses.  Synthetic oracles — the gate is about scheduling dynamics,
# not the trained model (same rationale as the overload smoke path).
anytime:
	$(PYTHON) -m pytest tests/scheduler -q
	$(PYTHON) -m repro.cli anytime --smoke --seed 0 \
		--record bench_results/anytime.txt

anytime-smoke:
	$(PYTHON) -m pytest tests/scheduler/test_gen2.py tests/scheduler/test_utility_conservation.py -q
	$(PYTHON) -m repro.cli anytime --smoke --seed 0

cluster:
	$(PYTHON) -m pytest tests/cluster -q
	$(PYTHON) -m repro.cli cluster --seed 0

cluster-proc:
	$(PYTHON) -m pytest tests/cluster tests/faults/test_proc_chaos.py -q
	$(PYTHON) -m repro.cli cluster --seed 0 --backend process \
		--record bench_results/cluster_scaling_proc.txt

autoscale:
	$(PYTHON) -m pytest tests/cluster tests/faults/test_autoscale_chaos.py -q
	$(PYTHON) -m repro.cli autoscale --seed 0 \
		--record bench_results/autoscale.txt

autoscale-smoke:
	$(PYTHON) -m pytest tests/cluster/test_autoscaler.py tests/cluster/test_autoscaler_cluster.py -q
	$(PYTHON) -m repro.cli autoscale --smoke --seed 0

workload:
	$(PYTHON) -m pytest tests/workload -q
	$(PYTHON) -m repro.cli workload --seed 0

workload-smoke:
	$(PYTHON) -m pytest tests/workload -q
	$(PYTHON) -m repro.cli workload --smoke --seed 0

isolation:
	$(PYTHON) -m pytest tests/workload tests/admission -q
	$(PYTHON) -m repro.cli isolation --seed 0 \
		--record bench_results/isolation.txt

isolation-smoke:
	$(PYTHON) -m pytest tests/workload tests/admission -q
	$(PYTHON) -m repro.cli isolation --smoke --seed 0

bench:
	$(PYTHON) -m pytest benchmarks/test_paper.py --benchmark-only -s

bench-fast:
	$(PYTHON) -m pytest benchmarks/test_paper.py --benchmark-only -s -k fastpath

# Paper-record drift gate: re-run the paper experiments whose records are
# byte-identical run to run (all but the timed fastpath and gp-approx
# ones) and fail if any committed record under bench_results/ changed.
PAPER_STABLE = table1 or fig2 or table2 or table3 or fig4 or table4 or \
	resilience or compression or service-classes or partitioning or openloop
PAPER_RECORDS = $(addprefix bench_results/,table1_profiling.txt \
	fig2_reliability.txt table2_ece.txt table3_gp.txt fig4_scheduling.txt \
	table4_collaborative.txt resilience.txt compression_ablation.txt \
	service_classes.txt partitioning.txt openloop_serving.txt)

paper-check:
	$(PYTHON) -m pytest benchmarks/test_paper.py --benchmark-only -q -k "$(PAPER_STABLE)"
	git diff --exit-code -- $(PAPER_RECORDS)

# The repo's benchmark (BENCHMARK.json): five workloads, end-to-end and
# per-layer metrics; results land in the git-ignored bench/out/.
bench-e2e:
	python3 bench/run.py --seed 0

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/smart_campus.py
	$(PYTHON) examples/edge_caching.py
	$(PYTHON) examples/sensor_fusion.py
	$(PYTHON) examples/utility_scheduling.py

experiments:
	$(PYTHON) -m repro.cli all

clean:
	rm -rf .bench_cache .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
