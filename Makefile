# Convenience entry points; all targets assume the in-tree layout
# (src/ on PYTHONPATH, no install needed).

PYTHON ?= python

.PHONY: test smoke docs-check docs trace \
	analyze service-check fleet-check e2e-check \
	verify profile-model

# Tier-1: the fast default profile (service crash sweeps deselected via
# addopts).
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q --durations=10

# Just the worker-crash plan's tests, the Hartree plan and
# Adams-Moulton parity tests, the basis evaluator's bitwise tests
# against the per-shell loop and the spline's interval lookup against
# the binary search on every mesh, and the device layer's fast checks: the
# ocl model's prices, the host engine's bitwise cache-regime parity and
# the device bill of a run (launches, bytes, the scale model's kernels
# and launch sizing), and the model path's
# bitwise tests: the mappings and per-rank reductions against their
# loops, the summary batches against the per-batch objects, the
# greedy rounds against the heap loop, the scale-model ladder against
# its recorded reports and the per-rank atom CSR over shared rows
# against the expanded rows (all also part of `make test`).
# Last, the two-core view sweep and set-up sweep tests with BLAS pinned
# to one thread: there the sweep helper is live by the module's own
# width derivation (cores / BLAS threads), not only by the tests'
# patched width as in `make test`.
smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_faults.py \
		tests/test_fault_determinism.py
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_dft.py \
		-k "MultipoleSolver or AdamsMoulton"
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_setup_primitives.py \
		-k StackedEvaluation
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_basis_spline.py \
		-k IntervalLookup
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_ocl.py
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_backends.py \
		-k "device or Device or PhaseParity"
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_mapping.py \
		-k "equal_the_loops or SummaryBatchOracles"
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_model_parity.py \
		tests/test_mapping_properties.py::TestRankAtomCsr
	OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src $(PYTHON) -m pytest \
		-q tests/test_view_sweep.py tests/test_setup_sweep.py

# Documentation gate: every doctest in the observability-facing modules
# must run, every audited public object must carry a docstring, and the
# generated CLI/settings reference (docs/CLI.md, docs/SETTINGS.md) and
# DESIGN.md's per-package line-count table must match the code.
docs-check:
	PYTHONPATH=src $(PYTHON) -m pytest --doctest-modules -q \
		src/repro/obs src/repro/service src/repro/utils/timing.py \
		src/repro/utils/balance.py src/repro/utils/artifacts.py \
		src/repro/utils/scratch.py src/repro/utils/journal.py \
		src/repro/backends/batched.py src/repro/backends/sweep.py \
		src/repro/basis/spline.py \
		src/repro/testing/docs.py \
		src/repro/grids/sparsity.py src/repro/utils/neighbors.py \
		src/repro/fleet.py
	PYTHONPATH=src $(PYTHON) tools/check_docstrings.py
	PYTHONPATH=src $(PYTHON) tools/gen_cli_docs.py --check
	$(PYTHON) tools/loc_table.py --check

# Regenerate the committed CLI/settings reference and the DESIGN.md
# line-count table from the code.
docs:
	PYTHONPATH=src $(PYTHON) tools/gen_cli_docs.py
	$(PYTHON) tools/loc_table.py --write

# Span trace of a real physics run, openable at https://ui.perfetto.dev.
# --force: the artifacts are regenerated on every invocation.
trace:
	PYTHONPATH=src $(PYTHON) -m repro physics --molecule water --level minimal \
		--trace trace.json --report run_report.json --force

# Profile order of the scale models: one priced 10 004-atom configuration
# under cProfile (the report first, then the top of the cumulative list).
profile-model:
	PYTHONPATH=src $(PYTHON) -m cProfile -s cumulative -m repro model \
		--polyethylene 10004 --ranks 2048 --baseline | head -60

# Post-mortem analytics: record a dense water trace and a screened one
# (the run prints its device bill beside the measured phases), then
# render the first's per-phase clock table, the two tables joined by
# phase, and the scaling-attribution tables.
analyze:
	PYTHONPATH=src $(PYTHON) -m repro physics --molecule water --level minimal \
		--trace trace.json --report run_report.json --force
	PYTHONPATH=src $(PYTHON) -m repro physics --molecule water --level minimal \
		--screening 1e-6 --trace trace_screened.json --force
	PYTHONPATH=src $(PYTHON) -m repro analyze trace trace.json
	PYTHONPATH=src $(PYTHON) -m repro analyze diff trace.json trace_screened.json
	PYTHONPATH=src $(PYTHON) -m repro analyze scaling --atoms 602 \
		--base-ranks 8 --points 2

# Simulation-service correctness contract: the statestore, cache-key and
# journal-reader (rollup / health / fleet trace) suites, the default-off
# worker-crash chaos sweeps, and the end-to-end CLI demo (second
# identical submit must be a cache hit served from the journal-replayed
# result store, no recomputation; `repro status` and `repro slo` read the
# demo's journal, and its checksum must not move across `repro status`).
service-check:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_service_statestore.py \
		tests/test_service_keys.py tests/test_telemetry.py
	PYTHONPATH=src $(PYTHON) -m pytest -q -m service tests/test_service_chaos.py
	rm -rf .service-demo
	PYTHONPATH=src $(PYTHON) -m repro submit --molecule h2 --level minimal \
		--store .service-demo/journal.jsonl
	PYTHONPATH=src $(PYTHON) -m repro submit --molecule h2 --level minimal \
		--store .service-demo/journal.jsonl | grep -q "cache hit"
	cksum < .service-demo/journal.jsonl > .service-demo/before.cksum
	PYTHONPATH=src $(PYTHON) -m repro status --store .service-demo/journal.jsonl
	cksum < .service-demo/journal.jsonl | cmp - .service-demo/before.cksum
	PYTHONPATH=src $(PYTHON) -m repro slo --store .service-demo/journal.jsonl
	rm -rf .service-demo

# Fleet contract: the bit-exactness parity suite (a wave of N vs N
# sequential runs across screening and submission order, device bills
# included, one group live at a time, both pools through the one wave
# function) and the service chaos sweeps that drain in waves (crashed
# waves retried byte-identical to a sequential drain).
fleet-check:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_fleet.py
	PYTHONPATH=src $(PYTHON) -m pytest -q -m service -k fleet tests/test_service_chaos.py

# End-to-end benchmark harness contract (BENCHMARK.json vs the harness)
# plus a 2-atom smoke of all four workloads (~15 s): catches a module
# the benchmark preloads or drives being deleted or renamed.
e2e-check:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/e2e/test_harness.py

# Physics-invariant + golden + differential-conformance check on both
# reference molecules (H2, and water for its two species' radial meshes),
# plus the documentation, service, fleet and e2e-harness gates (all
# tier-1 sized).  Deterministic counters and modeled seconds are pinned
# by parity tests in `make test` (tests/test_counter_parity.py,
# tests/test_model_parity.py).
verify: docs-check service-check fleet-check e2e-check
	PYTHONPATH=src $(PYTHON) -m repro verify
