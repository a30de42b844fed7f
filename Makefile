# Convenience targets for the multicast-scaling reproduction.

PYTHON ?= python

.PHONY: install lint lint-changed lint-smoke test test-fast bench bench-smoke serve-smoke chaos-smoke obs-smoke fleet-smoke scale-smoke regen-golden repro repro-paper examples clean

install:
	pip install -e . || $(PYTHON) setup.py develop

# Static invariant checks, per-file (RR001-RR010, RR015, RR016) and
# cross-file (RR011-RR014), over the whole program.  The content-hash cache makes
# warm runs near-instant; delete .lint-cache.json to force a cold run.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint --cache .lint-cache.json src benchmarks examples

# Fast inner loop: lint only git-dirty python files.  Cross-file rules
# are skipped (--no-project) because a partial file set has no call
# graph to speak of; run `make lint` before pushing.
lint-changed:
	@files=$$( (git diff --name-only HEAD -- '*.py'; git ls-files --others --exclude-standard -- '*.py') | sort -u ); \
	existing=""; \
	for f in $$files; do [ -f "$$f" ] && existing="$$existing $$f"; done; \
	if [ -z "$$existing" ]; then echo "lint-changed: no modified python files"; \
	else PYTHONPATH=src $(PYTHON) -m repro.lint --no-project $$existing; fi

# Cold-vs-warm cache speedup gate + warm-run wall-clock budget.
lint-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/lint_smoke.py

test: lint lint-smoke serve-smoke chaos-smoke obs-smoke fleet-smoke
	$(PYTHON) -m pytest tests/ --durations=10

# Inner-loop run: skips golden/slow/scale suites and the smoke gates.
test-fast:
	$(PYTHON) -m pytest tests/ -m "not golden and not slow and not scale"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Seconds-long engine-throughput sanity run.
# The parallel floor is hardware-aware — speedup over the 1-worker
# batched baseline must reach 0.6 x min(workers, cpus) — so multi-worker
# sweeps that regress below one core fail even on a 1-CPU box.
bench-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_runner_scaling.py --smoke --check-parallel-floor 0.6

# End-to-end estimation-service probe: real sockets, all four endpoints.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli serve --selftest --topologies arpa --sources 4 --receiver-sets 4

# Multi-process fleet over real sockets: 1-worker vs N-worker aggregate
# req/s plus a SIGKILL-under-load phase (zero lost requests).  The floor
# is hardware-aware like bench-smoke's: fleet speedup over one worker
# must reach 0.5 x min(workers, cpus), so a 1-CPU box only demands the
# fleet not fall below half of one core while real multi-core demands
# scaling.
fleet-smoke: lint
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fleet.py --smoke --check-fleet-floor 0.5

# Million-node tier: builds internet_like_graph at n=1M, runs a seeded
# sweep off the mmap'd DistanceStore, and asserts the documented memory
# ceilings (peak RSS <= 3 GB via getrusage, <= 512 MB tracemalloc for the
# vectorized build) plus a same-box generator speedup floor (>= 10x at
# 56k) — relative to this machine's own legacy-loop timing, so the gate
# is hardware-aware.  Excluded from `make test-fast`.
scale-smoke: lint
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_topology_scale.py -m scale -q

# Seeded fault schedules vs the serving invariants + no-op fire() budget.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/chaos_smoke.py --rounds 50

# Disarmed span/counter overhead budgets + pinned /metrics series names.
obs-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/obs_smoke.py

# Rewrite tests/golden/*.json; refuses on a dirty tree so a golden
# refresh is always its own reviewable commit.
regen-golden:
	PYTHONPATH=src $(PYTHON) tests/regen_golden.py

# Full artifact regeneration into ./reproduction (quick settings).
repro:
	$(PYTHON) -m repro.cli all --outdir reproduction

# Paper-fidelity regeneration (slow: paper sample counts + full scale).
repro-paper:
	$(PYTHON) -m repro.cli all --paper --scale 1.0 --outdir reproduction-paper

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
