GO ?= go
FSCK_DIR ?= /tmp/diurnal-fsck-store

.PHONY: build test tier1 vet race race-crashsafe fsck soak experiments bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# race-crashsafe focuses the race detector on the packages with the most
# cross-goroutine state: the pipeline/checkpoint machinery, the journal,
# the store, the lease-fenced shard ledger, the streaming daemon, and
# the kill-and-resume harness whose soaks kill that daemon.
race-crashsafe:
	$(GO) test -race ./internal/core/... ./internal/journal/... ./internal/dataset/... ./internal/shard/... ./internal/stream/... ./internal/chaos/...

# tier1 is the gate every change must pass: clean build, vet, the full
# test suite, and the crash-safety packages under the race detector.
tier1: build vet test race-crashsafe

# fsck archives a small dataset with `diurnalscan scan -save`, then runs
# the store integrity check (`diurnalscan verify`) over it — the
# end-to-end durability path: atomic log writes, CRC32C trailers,
# verification.
fsck: build
	rm -rf $(FSCK_DIR)
	$(GO) run ./cmd/diurnalscan scan -blocks 24 -end 2020-01-29 -save $(FSCK_DIR) >/dev/null
	$(GO) run ./cmd/diurnalscan verify $(FSCK_DIR)
	rm -rf $(FSCK_DIR)

# soak runs the short, fixed-seed soak cells of internal/chaos against the
# streaming daemon: fault-injected or lying observers, write-budgeted and
# fsync/rename-faulted filesystems, seeded-random SIGKILLs, and the
# harness oracle (prefix identity at every rebirth, exact final
# identity, contiguity and the latency bound) on every cell. The nightly
# CI job runs random draws of the same cells.
soak:
	$(GO) test ./internal/chaos/ -run 'TestChaosSoakShort|TestChaosSoakDiskPressure|TestByzantineSoakShort' -v

experiments:
	$(GO) run ./cmd/experiments

# bench runs every go-test benchmark in the repo with allocation reporting
# and records the machine-readable summary (ns/op, B/op, allocs/op) in
# $(BENCH_JSON) via cmd/benchjson; the usual text output still streams to
# the terminal. It is a working aid: bench/run.sh (see BENCHMARK.json) is
# the benchmark of record. The default output is an untracked scratch
# file, so a run neither overwrites a committed BENCH_<n>.json nor becomes
# the "highest sibling" baseline benchjson would compare itself against.
# The default single-iteration run keeps the full-world benchmarks
# affordable; override BENCH_ARGS (e.g. -benchtime=2s -bench=Periodogram)
# for steady-state numbers on a chosen subset.
BENCH_JSON ?= BENCH_local.json
BENCH_ARGS ?= -benchtime=1x
bench:
	$(GO) test -run='^$$' -bench=. -benchmem $(BENCH_ARGS) ./... | $(GO) run ./cmd/benchjson -o $(BENCH_JSON)
