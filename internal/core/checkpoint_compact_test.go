package core

// Checkpoint journal compaction: auto-compaction bounds the file while a
// run is journaling, the rewrite deduplicates fenced writers' repeated
// frames keeping the first append, resume identity survives compaction,
// and a killed compaction's temp litter is swept at open.

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointAutoCompactionBoundsJournal(t *testing.T) {
	world := smallWorld(t, 12, 91)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cp.CompactBytes = 4 << 10
	// A compaction replaces the journal by an atomic rename, so the file
	// at path stops being the one opened here. Holding it open keeps its
	// inode from being reused by a later temp file.
	opened, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	first, err := (&Pipeline{Config: q1Config(), Engine: engine4(), Checkpoint: cp}).Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	was, err := opened.Stat()
	if err != nil {
		t.Fatal(err)
	}
	now, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(was, now) {
		t.Fatal("the 4KiB bound never triggered a compaction")
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume identity across the compacted journal: every block skipped,
	// same fingerprint.
	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Entries() != len(world) {
		t.Fatalf("compacted journal resumes %d blocks, world has %d", cp2.Entries(), len(world))
	}
	second, err := (&Pipeline{Config: q1Config(), Engine: engine4(), Checkpoint: cp2}).Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	if second.Report.ResumedBlocks != len(world) {
		t.Fatalf("resumed %d of %d blocks after compaction", second.Report.ResumedBlocks, len(world))
	}
	f1, err := first.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := second.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatalf("compaction changed the result: %s vs %s", f1, f2)
	}
}

func TestCheckpointCompactDedupsAndSweepsTemps(t *testing.T) {
	world := smallWorld(t, 8, 92)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Pipeline{Config: q1Config(), Engine: engine4(), Checkpoint: cp}).Run(context.Background(), world); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	cp, err = OpenCheckpoint(path) // Lookup serves the loaded prior entries
	if err != nil {
		t.Fatal(err)
	}
	// A fenced writer racing a reassigned lease re-journals blocks it
	// already completed: byte-identical duplicate frames.
	for i, wb := range world[:4] {
		o, ok := cp.Lookup(i, wb.ID)
		if !ok {
			t.Fatalf("block %d not journaled", i)
		}
		if err := cp.Append(i, *o); err != nil {
			t.Fatal(err)
		}
	}
	dup, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Compact(); err != nil {
		t.Fatal(err)
	}
	base, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if base.Size() >= dup.Size() {
		t.Errorf("compaction did not shrink the journal: %d -> %d bytes", dup.Size(), base.Size())
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	// Temp litter beside the journal (a killed compaction) is swept at
	// open, and the deduplicated base still resumes every block.
	litter := path + ".tmp12345"
	if err := os.WriteFile(litter, []byte("half a base"), 0o644); err != nil {
		t.Fatal(err)
	}
	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if _, err := os.Stat(litter); !os.IsNotExist(err) {
		t.Errorf("compaction temp litter survived open: %v", err)
	}
	if cp2.Entries() != len(world) {
		t.Fatalf("deduplicated base resumes %d blocks, want %d", cp2.Entries(), len(world))
	}
}

// Compact compacts the journal now, as an Append past CompactBytes does.
func (c *Checkpointer) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compactLocked()
}
