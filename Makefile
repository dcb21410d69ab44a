GO ?= go

.PHONY: check lint race bench bench-scale bench-ctest bench-json bench-diff bench-gate run-all

# Tier-1 gate: lint (gofmt + vet), build, test, a race pass over the fault
# plane and its attack-side recovery paths, quick fault-sweep/multiregion/
# channel-ablation, event-kernel and CTest smoke runs, and a smoke run of the
# benchmark record tooling against the checked-in fixture.
check: lint bench-scale bench-ctest bench-gate
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./internal/core/... ./internal/faas/...
	@$(GO) run ./cmd/eaao -quick run faultsweep >/dev/null
	@echo "faultsweep smoke OK"
	@$(GO) run ./cmd/eaao -quick run multiregion >/dev/null
	@echo "multiregion smoke OK"
	@$(GO) run ./cmd/eaao -quick run channelablation >/dev/null
	@echo "channelablation smoke OK"
	@$(GO) run ./cmd/eaao -quick run noisesweep >/dev/null
	@echo "noisesweep smoke OK"
	@$(GO) run ./internal/tools/benchjson -label smoke \
		-in internal/tools/benchfmt/testdata/sample_bench.txt -out /tmp/BENCH_smoke.json
	@$(GO) run ./internal/tools/benchdiff /tmp/BENCH_smoke.json /tmp/BENCH_smoke.json >/dev/null
	@rm -f /tmp/BENCH_smoke.json
	@echo "bench tooling smoke OK"

# Fails if any file needs gofmt, then runs vet.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# Race-detector pass. The trial engine's jobs=8 determinism test exercises
# the parallel path, so this catches any shared-state leak between trial
# worlds even on a single-core machine.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# Event-kernel throughput smoke: one iteration of the scale benchmark, so the
# tier-1 gate notices if the kernel's events/sec or allocs/event fall off a
# cliff (the BENCH_*.json trajectory records the exact numbers).
bench-scale:
	@$(GO) test -run '^$$' -bench BenchmarkScaleKernel -benchtime 1x -benchmem
	@echo "scale kernel smoke OK"

# CTest layer smoke: one iteration of each BenchmarkCTest case (ns/CTest), so
# the gate notices if the batched contention-vote path breaks.
bench-ctest:
	@$(GO) test -run '^$$' -bench BenchmarkCTest -benchtime 1x -benchmem ./internal/core/covert
	@echo "ctest smoke OK"

# Snapshot the benchmark suite into BENCH_<git-short-sha>.json. Run on a
# quiet machine; the record is meant to be checked in.
bench-json:
	$(GO) test -bench=. -benchmem | \
		$(GO) run ./internal/tools/benchjson -label $$(git rev-parse --short HEAD) \
		-out BENCH_$$(git rev-parse --short HEAD).json

# Compare two records: make bench-diff BASE=BENCH_baseline.json HEAD=BENCH_pr3.json
bench-diff:
	$(GO) run ./internal/tools/benchdiff $(BASE) $(HEAD)

# Regression gate over the two most recent checked-in records: fails on any
# >25% movement in the guarded budgets (ns/op, B/op, allocs/op growth;
# events/sec drop; allocs/event growth). Records are snapshots from a quiet
# machine, so the gate is deterministic — it audits the trajectory, it does
# not re-run benchmarks.
GATE_BASE ?= BENCH_pr9.json
GATE_HEAD ?= BENCH_pr10.json
bench-gate:
	@$(GO) run ./internal/tools/benchdiff -gate 25 $(GATE_BASE) $(GATE_HEAD)
	@echo "bench gate OK"

run-all:
	$(GO) run ./cmd/eaao run all
