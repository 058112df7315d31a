GO ?= go
BENCH_DIR ?= bench-results

.PHONY: build test vet fmt-check deps-check staticcheck test-race bench bench-smoke bench-json chaos fuzz-smoke provload-quick provload loc ci clean

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

# Fail when provd or provctl depends on any package under
# internal/experiments: the paper-survey backends (experiments/survey) and
# the experiment tables stay out of the programs that serve provenance.
deps-check:
	@bad=$$($(GO) list -deps ./cmd/provd ./cmd/provctl | grep '^repro/internal/experiments' || true); \
	if [ -n "$$bad" ]; then \
		echo "provd/provctl depend on experiment-only packages:"; echo "$$bad"; exit 1; \
	fi

# Static analysis beyond go vet (checks scoped by staticcheck.conf). CI
# installs a pinned version; locally the target is a no-op with a notice
# when the binary is absent, since this repo builds offline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

# Run the testing.B benchmark suite: one benchmark per paper experiment
# (E1–E12) plus the per-layer micro-benchmarks of the system (E13–E21,
# ColdClosure, ShardedReopen; E17's lives beside its workload in pql).
bench:
	$(GO) test -run '^$$' -bench . -benchmem . ./internal/query/pql

# Benchmark smoke for CI: one iteration of E4b proves the lineage benchmark
# paths still run, ColdClosure prints the absolute ns/op, B/op and
# allocs/op of a cold closure over 4 file shards (depth-128 chain, cache
# off and on a miss), and ShardedReopen those of opening 4 file shards
# holding 2 048 runs, by full scan and from checkpoints. E20Standing prints
# those of one ingest under 64 standing subscriptions, 16 of them
# conjunctive (maintained rules of one Datalog program), beside a bare
# ingest. ReadPath prints those of the log read path per ≈3 KB record: a
# scan, a point read, the record decode alone and encoding/json's decode
# of the same bytes. E17StreamingExec prints those of the PQL join battery
# compiled through the shared conjunctive planner, on a MemStore, a 4-shard
# router and a FileStore reading its warm row image (no record decoded),
# beside the Datalog provenance fixpoint.
# E13ClosureCache/mode=snapshot prints ns/op and B/op of checkpointing and
# reopening a closure cache holding 256 closures of a chain store, and the
# closures.json size as snapshot_B.
bench-smoke:
	$(GO) test -run '^$$' -bench E4b -benchtime 1x .
	$(GO) test -run '^$$' -bench ColdClosure -benchtime 200x -benchmem .
	$(GO) test -run '^$$' -bench ShardedReopen -benchtime 10x -benchmem .
	$(GO) test -run '^$$' -bench E20Standing -benchtime 200x -benchmem .
	$(GO) test -run '^$$' -bench ReadPath -benchtime 200x -benchmem ./internal/store
	$(GO) test -run '^$$' -bench E17StreamingExec -benchtime 50x -benchmem ./internal/query/pql
	$(GO) test -run '^$$' -bench 'E13ClosureCache/mode=snapshot' -benchtime 10x -benchmem .

# Run the paper-reproduction suite (E1–E12) and write machine-readable
# BENCH_<ID>.json files to $(BENCH_DIR).
bench-json:
	$(GO) run ./cmd/provbench -json $(BENCH_DIR)

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

# Everything the CI workflow runs, runnable locally; loc only prints the
# two size figures and has no threshold.
ci: fmt-check build vet deps-check staticcheck test-race chaos fuzz-smoke bench-smoke provload-quick loc

clean:
	find $(BENCH_DIR) -maxdepth 1 -name 'BENCH_*.json' -delete
