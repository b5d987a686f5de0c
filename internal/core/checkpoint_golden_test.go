package core

// The checkpoint's on-disk format, pinned by a committed journal.
//
// testdata/golden.ckpt was written by TestWriteCheckpointGolden on the
// commit before the checkpoint moved onto internal/journal:
//
//	go test ./internal/core -run '^TestWriteCheckpointGolden$' -count=1 \
//	    -args -golden-out "$PWD/internal/core/testdata"
//
// TestCheckpointGoldenFormat re-runs the same writer in a fresh process
// (gob numbers its types in the order a process first encodes them, so a
// process that had encoded other types first would write other bytes)
// and requires the result to equal the fixture byte for byte. It then
// reads the fixture back and reopens a copy of it.

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/netsim"
)

var goldenOut = flag.String("golden-out", "", "directory TestWriteCheckpointGolden writes the checkpoint fixture into")

const goldenCheckpoint = "golden.ckpt"

// goldenCheckpointRun is the fixture's world, config and outcomes: four
// blocks over three weeks, analyzed by one worker. Every numeric column
// of an analysis is cut to its first 64 values, which exercise its codec
// section as well as thousands would and keep the fixture small.
func goldenCheckpointRun(t *testing.T) (Config, []*dataset.WorldBlock, []BlockOutcome) {
	t.Helper()
	cfg := DefaultConfig(q1Start, netsim.Date(2020, time.January, 22))
	cfg.BaselineStart = q1Start
	cfg.BaselineEnd = netsim.Date(2020, time.January, 22)
	world := smallWorld(t, 4, 2028)
	res, err := (&Pipeline{Config: cfg, Engine: engine4(), Workers: 1}).Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	cut := func(xs []float64) []float64 { return xs[:min(len(xs), 64)] }
	for _, o := range res.Blocks {
		if a := o.Analysis; a != nil {
			if a.Series != nil {
				a.Series.Times = a.Series.Times[:min(len(a.Series.Times), 64)]
				a.Series.Counts = cut(a.Series.Counts)
			}
			a.Resampled, a.Trend, a.Seasonal, a.Normalized = cut(a.Resampled), cut(a.Trend), cut(a.Seasonal), cut(a.Normalized)
		}
	}
	return cfg, world, res.Blocks
}

// goldenOrder is the order of the fixture's block frames: every block,
// then one duplicate (a fenced writer's repeat). The build that wrote the
// fixture compacted two earlier duplicates away before the last frame;
// appending this order writes the same bytes.
var goldenOrder = []int{0, 1, 2, 3, 2}

// TestWriteCheckpointGolden writes the fixture into -golden-out.
func TestWriteCheckpointGolden(t *testing.T) {
	if *goldenOut == "" {
		t.Skip("writes the checkpoint fixture when -golden-out is set")
	}
	cfg, world, outcomes := goldenCheckpointRun(t)
	cp, err := OpenCheckpoint(filepath.Join(*goldenOut, goldenCheckpoint))
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.ensureSignature(RunSignature(cfg, world)); err != nil {
		t.Fatal(err)
	}
	for _, i := range goldenOrder {
		if err := cp.Append(i, outcomes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointGoldenFormat(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", goldenCheckpoint))
	if err != nil {
		t.Fatal(err)
	}

	out := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWriteCheckpointGolden$", "-golden-out", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fixture writer: %v\n%s", err, msg)
	}
	ents, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != goldenCheckpoint {
		t.Fatalf("writer left %v, want only %s", ents, goldenCheckpoint)
	}
	got, err := os.ReadFile(filepath.Join(out, goldenCheckpoint))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("writer produced %d bytes that differ from the %d-byte fixture", len(got), len(want))
	}

	// The fixture reads back: its signature, every frame, no torn tail.
	cfg, world, outcomes := goldenCheckpointRun(t)
	sig, entries, torn, err := ReadCheckpoint(filepath.Join("testdata", goldenCheckpoint))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sig, RunSignature(cfg, world)) || torn != 0 {
		t.Fatalf("fixture signature %x (%d torn bytes), want %x", sig, torn, RunSignature(cfg, world))
	}
	if len(entries) != len(goldenOrder) {
		t.Fatalf("fixture holds %d block frames, want %d", len(entries), len(goldenOrder))
	}
	for k, e := range entries {
		if e.Index != goldenOrder[k] {
			t.Fatalf("fixture frame %d is block %d, want %d", k, e.Index, goldenOrder[k])
		}
		a, err := encodeBlockFrame(e.Index, *e.Outcome)
		if err != nil {
			t.Fatal(err)
		}
		b, err := encodeBlockFrame(e.Index, outcomes[e.Index])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("fixture block %d differs from a fresh analysis", e.Index)
		}
	}

	// A copy reopens with every block.
	path := filepath.Join(t.TempDir(), goldenCheckpoint)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if cp.Entries() != len(world) {
		t.Fatalf("fixture reopens with %d blocks, want %d", cp.Entries(), len(world))
	}
	for i, wb := range world {
		if _, ok := cp.Lookup(i, wb.ID); !ok {
			t.Fatalf("fixture lost block %d", i)
		}
	}
}
