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
# the store, the lease-fenced shard ledger, and the streaming daemon.
race-crashsafe:
	$(GO) test -race ./internal/core/... ./internal/journal/... ./internal/dataset/... ./internal/shard/... ./internal/stream/...

# tier1 is the gate every change must pass: clean build, vet, the full
# test suite, and the crash-safety packages under the race detector.
tier1: build vet test race-crashsafe

# fsck archives a small dataset with diurnalscan -save, then runs the
# store integrity check (-verify) over it — the end-to-end durability
# path: atomic log writes, CRC32C trailers, verification.
fsck: build
	rm -rf $(FSCK_DIR)
	$(GO) run ./cmd/diurnalscan -blocks 24 -end 2020-01-29 -save $(FSCK_DIR) >/dev/null
	$(GO) run ./cmd/diurnalscan -verify $(FSCK_DIR)
	rm -rf $(FSCK_DIR)

# soak runs the deterministic short chaos soak against the streaming
# daemon: fault-injected observers, seeded-random SIGKILLs, and the full
# invariant suite (prefix identity, exact resume, latency bound) on every
# incarnation. The byzantine leg reruns the kill loop with one lying
# observer and the integrity firewall armed. The nightly CI job runs the
# longer randomized variants.
soak:
	$(GO) test ./internal/stream/ -run 'TestChaosSoakShort|TestChaosSoakDiskPressure|TestByzantineSoakShort' -v

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
