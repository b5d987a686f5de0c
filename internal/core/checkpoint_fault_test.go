package core

// The journal's two fault rules, applied to the checkpoint: a short write
// is rolled back, so the frames behind it survive a reopen, and a
// compaction whose replace may have landed poisons the journal instead
// of appending into the unlinked file the replace left behind.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/storage"
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

// lostDirSyncFS lands the first rename, then fails the directory fsync
// right after it: the window where a replace has taken effect but
// reports failure.
type lostDirSyncFS struct {
	storage.FS
	armed, fired bool
}

func (l *lostDirSyncFS) Rename(oldpath, newpath string) error {
	err := l.FS.Rename(oldpath, newpath)
	if err == nil && !l.fired {
		l.armed = true
	}
	return err
}

func (l *lostDirSyncFS) SyncDir(dir string) error {
	if l.armed {
		l.armed, l.fired = false, true
		return fmt.Errorf("injected: dir fsync lost after rename")
	}
	return l.FS.SyncDir(dir)
}

func TestCheckpointAmbiguousCompactionPoisons(t *testing.T) {
	world := smallWorld(t, 12, 91)
	res, err := (&Pipeline{Config: q1Config(), Engine: engine4()}).Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	fsys := &lostDirSyncFS{FS: storage.OS}
	cp, err := OpenCheckpointFS(path, fsys)
	if err != nil {
		t.Fatal(err)
	}
	cp.CompactBytes = 4 << 10
	if err := cp.ensureSignature(RunSignature(q1Config(), world)); err != nil {
		t.Fatal(err)
	}
	var acked []int
	refused := false
	for i := range res.Blocks {
		if err := cp.Append(i, res.Blocks[i]); err != nil {
			refused = true
			continue
		}
		if refused {
			t.Fatalf("block %d acknowledged after an earlier append was refused", i)
		}
		acked = append(acked, i)
	}
	cp.Close()
	if !fsys.fired {
		t.Fatal("no compaction reached the ambiguous rename")
	}

	cp2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	for _, i := range acked {
		if _, ok := cp2.Lookup(i, world[i].ID); !ok {
			t.Fatalf("block %d was acknowledged but is gone after a reopen", i)
		}
	}
}
