package core

// The journal's fault rule, applied to the checkpoint: a short write is
// rolled back, so the frames behind it survive a reopen.

import (
	"context"
	"path/filepath"
	"testing"

	"github.com/diurnalnet/diurnal/internal/faults"
)

func TestCheckpointShortWriteRollsBack(t *testing.T) {
	world := smallWorld(t, 8, 79)
	res, err := (&Pipeline{Config: q1Config(), Engine: engine4()}).Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	// Write 1 is the header; write 3 tears the second block's frame.
	cp, err := OpenCheckpointFS(path, &faults.FS{Plan: faults.FSPlan{ShortWriteAt: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.ensureSignature(RunSignature(q1Config(), world)); err != nil {
		t.Fatal(err)
	}
	acked := 0
	for i := range res.Blocks {
		if cp.Append(i, res.Blocks[i]) == nil {
			acked++
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if acked != len(res.Blocks)-1 {
		t.Fatalf("%d of %d appends acknowledged; the short write should refuse exactly one", acked, len(res.Blocks))
	}

	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Entries() != acked {
		t.Fatalf("reopened journal holds %d blocks, %d appends were acknowledged", cp2.Entries(), acked)
	}
}
