# Convenience targets; everything also runs as plain commands.

PYTHON ?= python

.PHONY: test bench bench-smoke figures report-smoke faults-smoke checkpoint-smoke kernel-smoke batch-smoke top-smoke serve-smoke chaos-smoke bench-diff serve

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Full figure regeneration (pytest-benchmark over benchmarks/).
figures:
	PYTHONPATH=src $(PYTHON) -m repro figures

bench: figures

# One tiny point of every bench family through the experiment runner,
# under a wall-clock budget -- the CI pulse-check for the measurement
# stack (see benchmarks/smoke.py).  The closing bench-diff only checks
# the BENCH ratios against BENCH_TRAJECTORY.json; it never appends to
# the tracked trajectory.
bench-smoke: report-smoke faults-smoke checkpoint-smoke kernel-smoke batch-smoke top-smoke serve-smoke chaos-smoke
	PYTHONPATH=src $(PYTHON) benchmarks/smoke.py
	PYTHONPATH=src $(PYTHON) -m repro bench-diff

# Telemetry pulse-check: run the report CLI on a tiny 2x2 mesh and
# re-validate every artifact (metrics schema, trace-event JSON with
# complete packet lifecycles, heatmap CSV).  See docs/OBSERVABILITY.md.
report-smoke:
	PYTHONPATH=src $(PYTHON) -m repro report \
		--out .report-smoke --mesh 2x2 --cycles 600 --check

# Resilience pulse-check: a tiny deterministic fault campaign that must
# recover, plus a dead link with no recovery armed that the progress
# watchdog must catch instead of hanging.  See docs/RESILIENCE.md.
faults-smoke:
	PYTHONPATH=src $(PYTHON) -m repro faults --smoke

# Crash-safety pulse-check: checkpoint a fault sweep, SIGKILL it
# mid-campaign, resume, and require the results to match an
# uninterrupted run with no completed point recomputed.  See
# docs/CHECKPOINT.md.
checkpoint-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/checkpoint_smoke.py

# Compiled-kernel pulse-check: codegen the standard 4x4 mesh, run it
# against the interpreted loop, require byte-identical digests.  See
# docs/PERFORMANCE.md and benchmarks/kernel_smoke.py.
kernel-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/kernel_smoke.py

# Batched Monte-Carlo pulse-check: a small replica batch whose every
# lane digest must equal a scalar rebuild, then a replicated campaign
# SIGKILLed at its first batch checkpoint and resumed to the exact
# per-lane metrics of an uninterrupted run, with its streamed
# events.jsonl validated and replayed.  See docs/BATCHING.md.
batch-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/batch_smoke.py

# Fleet-telemetry pulse-check: a tiny cached sweep through the
# experiment runner, then the `repro top` dashboard, the event-stream
# replay and the Prometheus exposition must all agree on it.  See
# docs/OBSERVABILITY.md.
top-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/top_smoke.py

# DSE-service pulse-check: seed a store through the work-stealing farm
# (digest-identical to serial), boot `python -m repro serve` on a free
# port, require a covered query to be a pure store hit, a miss to land
# in the store and hit on repeat, a background job to stream events,
# and /metrics to expose the store/serve series.  See docs/SERVICE.md.
serve-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/serve_smoke.py

# Supervision pulse-check: the seeded chaos harness -- a clean
# work-stealing sweep vs one with injected worker SIGKILLs, SIGSTOP
# stalls, store corruption and event-log truncation; the result digest
# must match, the journal must show every point exactly once, and no
# worker process may survive.  Plus a poison-pill quarantine drill.
# See docs/RESILIENCE.md and `python -m repro chaos`.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/chaos_smoke.py

# The DSE query service itself (docs/SERVICE.md).
serve:
	PYTHONPATH=src $(PYTHON) -m repro serve --store .repro-store

# Perf-regression gate: diff the tracked BENCH ratios against the
# committed BENCH_TRAJECTORY.json (exit 1 past a 20% relative drop).
bench-diff:
	PYTHONPATH=src $(PYTHON) -m repro bench-diff
