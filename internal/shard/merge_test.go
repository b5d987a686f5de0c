package shard

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// TestMergeReportsGaps: a ledger nobody has worked on merges to a result
// whose audit lists every block as uncovered.
func TestMergeReportsGaps(t *testing.T) {
	world := testWorld(t, 6, 11)
	cfg := testConfig()
	l, err := Create(filepath.Join(t.TempDir(), "ledger"), core.RunSignature(cfg, world), len(world), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, audit, err := l.Merge(cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	if audit.Clean() {
		t.Fatal("an untouched ledger must not audit clean")
	}
	if len(audit.Gaps) != len(world) {
		t.Fatalf("%d gaps, want %d", len(audit.Gaps), len(world))
	}
	if len(audit.IncompleteShards) != 2 {
		t.Fatalf("incomplete shards %v", audit.IncompleteShards)
	}
}

// TestMergeTokenPrecedence drives the duplicate/conflict distinction
// directly: a later token re-journaling identical outcomes is harmless
// duplication; a later token journaling *different* outcomes for accepted
// blocks is a conflict that fails the audit. Determinism makes the latter
// impossible in healthy operation, which is exactly why the audit must
// refuse to bless it.
func TestMergeTokenPrecedence(t *testing.T) {
	world := testWorld(t, 6, 12)
	cfg := testConfig()
	sig := core.RunSignature(cfg, world)
	engA := &probe.Engine{Observers: probe.StandardObservers(2), QuarterSeed: 7}

	runJournal := func(l *Ledger, token uint64, eng *probe.Engine) {
		t.Helper()
		cp, err := core.OpenCheckpoint(l.journalPath(0, token))
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		if _, err := (&core.Pipeline{Config: cfg, Engine: eng, Checkpoint: cp}).
			Run(context.Background(), world); err != nil {
			t.Fatal(err)
		}
	}

	// Identical re-journal: token 2 re-runs the same engine.
	l, err := Create(filepath.Join(t.TempDir(), "dup"), sig, len(world), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runJournal(l, 1, engA)
	runJournal(l, 2, engA)
	merged, audit, err := l.Merge(cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Clean() {
		t.Fatalf("identical duplicates must not fail the audit:\n%s", audit)
	}
	if audit.DuplicateFrames != len(world) {
		t.Fatalf("%d duplicates, want %d", audit.DuplicateFrames, len(world))
	}
	if audit.Accepted != len(world) || len(merged.Blocks) != len(world) {
		t.Fatalf("accepted %d of %d", audit.Accepted, len(world))
	}

	// Conflicting re-journal: token 2 runs a different engine seed, so its
	// outcomes disagree with token 1's accepted frames. (The run signature
	// covers config and world, not the engine — exactly the hole a
	// conflicting write slips through, and the audit's job to catch.)
	l2, err := Create(filepath.Join(t.TempDir(), "conflict"), sig, len(world), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runJournal(l2, 1, engA)
	runJournal(l2, 2, &probe.Engine{Observers: probe.StandardObservers(2), QuarterSeed: 8})
	_, audit2, err := l2.Merge(cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	if audit2.Clean() {
		t.Fatal("conflicting frames must fail the audit")
	}
	if len(audit2.Conflicts) == 0 {
		t.Fatalf("no conflicts recorded:\n%s", audit2)
	}
}

// TestMergeForeignJournal: a journal bound to a different run signature is
// ignored for results and counted as a failure.
func TestMergeForeignJournal(t *testing.T) {
	world := testWorld(t, 4, 13)
	cfg := testConfig()
	l, err := Create(filepath.Join(t.TempDir(), "ledger"), core.RunSignature(cfg, world), len(world), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Journal the world under a *different* config (shifted analysis
	// window), then drop that journal into the ledger's shard-0 slot.
	foreign := cfg
	foreign.AnalysisEnd -= 86400
	cp, err := core.OpenCheckpoint(l.journalPath(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	eng := &probe.Engine{Observers: probe.StandardObservers(2), QuarterSeed: 7}
	if _, err := (&core.Pipeline{Config: foreign, Engine: eng, Checkpoint: cp}).
		Run(context.Background(), world); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	_, audit, err := l.Merge(cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	if audit.ForeignJournals != 1 {
		t.Fatalf("foreign journals %d, want 1", audit.ForeignJournals)
	}
	if audit.Clean() {
		t.Fatal("a foreign journal must fail the audit")
	}
}

// TestMergeDeadLetterFaults: a corrupted quarantine entry is surfaced in
// the audit without hiding the healthy entries — and a block that is both
// analyzed and dead-lettered is a conflict.
func TestMergeDeadLetterFaults(t *testing.T) {
	world := testWorld(t, 6, 14)
	cfg := testConfig()
	sig := core.RunSignature(cfg, world)
	l, err := Create(filepath.Join(t.TempDir(), "ledger"), sig, len(world), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A full healthy journal, plus a dead letter for an analyzed block and
	// a second entry corrupted on disk.
	cp, err := core.OpenCheckpoint(l.journalPath(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	eng := &probe.Engine{Observers: probe.StandardObservers(2), QuarterSeed: 7}
	if _, err := (&core.Pipeline{Config: cfg, Engine: eng, Checkpoint: cp}).
		Run(context.Background(), world); err != nil {
		t.Fatal(err)
	}
	cp.Close()
	if err := l.DeadLetters().Record(2, world[2].ID, errors.New("late give-up")); err != nil {
		t.Fatal(err)
	}
	if err := l.DeadLetters().Record(4, world[4].ID, errors.New("will be corrupted")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(l.DeadLetters().Dir(), dlName(4, world[4].ID))
	if err := os.WriteFile(path, []byte(`{"payload":{"index":4},"crc32c":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, audit, err := l.Merge(cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	if audit.Clean() {
		t.Fatal("dead-letter faults must fail the audit")
	}
	if len(audit.DeadLetterConflicts) != 1 {
		t.Fatalf("dead-letter conflicts: %v", audit.DeadLetterConflicts)
	}
	if len(audit.DeadLetterFaults) != 1 {
		t.Fatalf("dead-letter faults: %v", audit.DeadLetterFaults)
	}
	if len(audit.Gaps) != 0 {
		t.Fatalf("journal covered every block, but gaps: %v", audit.Gaps)
	}
}

// TestWorkerAllPoisonShard: a shard whose every responsive block is
// quarantined still completes — an all-dead-lettered shard is a valid
// terminal state, unlike an all-dead-lettered world.
func TestWorkerAllPoisonShard(t *testing.T) {
	world := testWorld(t, 8, 15)
	cfg := testConfig()
	sig := core.RunSignature(cfg, world)
	l, err := Create(filepath.Join(t.TempDir(), "ledger"), sig, len(world), 4,
		Options{TTL: 10 * time.Second, Poll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Quarantine shard 0's entire range up front.
	r := l.man.Shards[0]
	for g := r.Start; g < r.End; g++ {
		if err := l.DeadLetters().Record(g, world[g].ID, errors.New("panic: poison")); err != nil {
			t.Fatal(err)
		}
	}
	eng := &probe.Engine{Observers: probe.StandardObservers(2), QuarterSeed: 7}
	w := &Worker{ID: "w1", Ledger: l, Config: cfg, Engine: eng, World: world}
	rep, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CompletedShards) != 4 {
		t.Fatalf("completed %v, want all 4 shards", rep.CompletedShards)
	}
	_, audit, err := l.Merge(cfg, world)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Clean() {
		t.Fatalf("audit failed:\n%s", audit)
	}
	if audit.DeadLetters != r.End-r.Start {
		t.Fatalf("audit saw %d dead letters, want %d", audit.DeadLetters, r.End-r.Start)
	}
}

// Dir returns the quarantine directory.
func (s *DeadLetterStore) Dir() string { return s.dir }
