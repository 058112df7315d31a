GO ?= go
BENCH_DIR ?= bench-results
BASELINE_DIR ?= bench-results/baseline

.PHONY: build test vet fmt-check staticcheck test-race bench bench-smoke bench-json bench-gate bench-json-gate bench-baseline chaos fuzz-smoke provload-quick provload loc ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fail when any file is not gofmt-clean, listing the offenders.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test-race:
	$(GO) test -race ./...

# Static analysis beyond go vet (checks scoped by staticcheck.conf). CI
# installs a pinned version; locally the target is a no-op with a notice
# when the binary is absent, since this repo builds offline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# Run the testing.B benchmark suite (one benchmark per experiment, plus the
# E4b batch-vs-per-edge, E13 closure-cache and cold-closure comparisons).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Benchmark smoke for CI: one iteration of E4b proves the lineage benchmark
# paths still run, ColdClosure prints the absolute ns/op, B/op and
# allocs/op of a cold closure over 4 file shards (depth-128 chain, cache
# off and on a miss) — the figure E13's warm÷cold ratio used to stand in
# for — and ShardedReopen those of opening 4 file shards holding 2 048
# runs, by full scan and from checkpoints, which E15's warm÷cold reopen
# ratio used to stand in for.
bench-smoke:
	$(GO) test -run '^$$' -bench E4b -benchtime 1x .
	$(GO) test -run '^$$' -bench ColdClosure -benchtime 200x -benchmem .
	$(GO) test -run '^$$' -bench ShardedReopen -benchtime 10x -benchmem .

# Run the full experiment suite and write machine-readable BENCH_<ID>.json
# files so successive PRs can track a perf trajectory. CI uploads these as
# build artifacts.
bench-json:
	$(GO) run ./cmd/provbench -json $(BENCH_DIR)

# Bench regression gate: re-run the gated experiments and fail when a gated
# metric (machine-independent speedup ratios, e.g. E15's group-commit
# speedup) regresses beyond its tolerance against the committed baseline in
# $(BASELINE_DIR). E14 and E16 are not in the list: their sharding and
# pushdown ratios moved with run placement, which is now affinity-based and
# pinned by shardedstore's deterministic placement and round-count tests
# (TestPlacementFollowsInputs, TestPlacementBalanceGuard,
# TestPushdownRoundsMatchChainCrossings); both still run and report absolute
# times, and E16 checks its rounds against shard membership. E17 is not in the list: its
# gates divided by evaluators that now exist only as test references;
# internal/query/pql's plan-shape and allocation tests and provload's
# analytics workload cover what they guarded. Nor is E13: warm ÷ cold
# closure time fails when the cold closure gets faster; closurecache's
# deterministic tests (a hit makes no backend call and one allocation, a
# patch touches only entries holding an attachment point) and
# BenchmarkColdClosure's absolute figures replaced it. Nor E20: what its
# incremental ÷ re-query ratio guarded — maintenance narrowing to the
# affected subscriptions — is standing's TestPatchTouchesOnlyAttachedSubs,
# a count of Expand calls on the index both layers share.
GATED := E15,E18,E19,E21
bench-gate:
	$(GO) run ./cmd/provbench -e $(GATED) -check $(BASELINE_DIR)

# Refresh the committed bench baseline deliberately (review the diff before
# committing: this is the reference future CI runs gate against).
bench-baseline:
	$(GO) run ./cmd/provbench -e $(GATED) -json $(BASELINE_DIR)

# Seeded chaos suite under the race detector: fault-injected replication,
# flapping partitions, promotion while partitioned. Deterministic fault
# schedules (fixed seeds), so a failure here is reproducible, not flaky.
chaos:
	$(GO) test -race -run 'TestChaos|TestPromotion|TestNodeEpoch' ./internal/store/replica/
	$(GO) test -race ./internal/faultinject/

# Every native fuzz target, ten seconds each, found by name so a new
# `func Fuzz…` joins without editing this file. -fuzzminimizetime 1s: left
# at its default the engine spends most of a short run minimizing.
fuzz-smoke:
	@set -e; for file in $$(grep -rl --include='*_test.go' '^func Fuzz' .); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$file); do \
			echo "== $$target ($$(dirname $$file))"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s -fuzzminimizetime 1s $$(dirname $$file); \
		done; \
	done

# CI's combined bench step: one full-suite run that both writes the
# BENCH_*.json artifacts and applies the regression gate, so the gated
# experiments are not executed twice.
bench-json-gate:
	$(GO) run ./cmd/provbench -json $(BENCH_DIR) -check $(BASELINE_DIR)

# provload smoke: every workload of the serving-path benchmark at tiny
# sizes, oracle checks included, in about five seconds (bench/README.md).
provload-quick:
	$(GO) run ./bench/provload -quick

# A full provload run (about six minutes: every workload untraced, then
# traced), written under $(BENCH_DIR) so nothing under bench/ changes, then
# compared metric by metric with the committed baseline.
provload:
	mkdir -p $(BENCH_DIR)
	$(GO) run ./bench/provload -out $(BENCH_DIR)/provload.json -results $(BENCH_DIR)
	$(GO) run ./bench/provload -compare bench/results/baseline.json $(BENCH_DIR)/provload.json

# The two size figures CHANGES.md records per PR (ROADMAP aim 2): non-test
# Go lines and exported top-level symbols, both outside bench/.
SRC = find . -name '*.go' ! -path './bench/*' ! -path './.*' ! -name '*_test.go'
loc:
	@printf 'non-test Go lines outside bench/: '; $(SRC) | xargs cat | wc -l
	@printf 'exported top-level symbols outside bench/: '; $(SRC) | \
		xargs grep -hE '^func [A-Z]|^func \([^)]*\) [A-Z]|^type [A-Z]|^var [A-Z]|^const [A-Z]' | wc -l

# Everything the CI workflow gates on, runnable locally.
ci: fmt-check build vet staticcheck test-race chaos fuzz-smoke bench-smoke provload-quick bench-gate

clean:
	find $(BENCH_DIR) -maxdepth 1 -name 'BENCH_*.json' -delete
