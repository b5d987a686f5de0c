package core

// A checkpoint directory an older build wrote may hold the temp file of a
// compaction a kill interrupted; opening the journal sweeps it, and the
// journal beside it still resumes every block.

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointOpenSweepsTemps(t *testing.T) {
	world := smallWorld(t, 8, 92)
	path := filepath.Join(t.TempDir(), "run.ckpt")

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
		t.Errorf("temp litter survived open: %v", err)
	}
	if cp2.Entries() != len(world) {
		t.Fatalf("journal resumes %d blocks, want %d", cp2.Entries(), len(world))
	}
}
