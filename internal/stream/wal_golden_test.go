package stream

// The daemon journals' on-disk format, pinned by a committed directory.
//
// testdata/golden-wal/ was written by TestWriteWALGolden on the commit
// before the daemon journals moved onto internal/journal, and re-pinned
// the same way when the daemon's run signature gained its schedule (only
// the segments' 'S' header frames changed):
//
//	go test ./internal/stream -run '^TestWriteWALGolden$' -count=1 \
//	    -args -golden-out "$PWD/internal/stream/testdata/golden-wal"
//
// Two daemon lives ingest the fixture's rounds under small segment and
// compaction thresholds, so the round journal has rotated and been
// compacted to a base segment. TestWALGoldenFormat re-runs the writer
// in a fresh process (gob numbers its types in the order a process first
// encodes them) and requires the same file names and bytes, manifests
// included. It then resumes a copy of the fixture.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/netsim"
)

var goldenOut = flag.String("golden-out", "", "directory TestWriteWALGolden writes the journal fixture into")

const goldenDir = "testdata/golden-wal"

// goldenLives is how many rounds each daemon life of the fixture has
// ingested when it closes.
var goldenLives = []int64{6, 10}

func goldenWAL(t *testing.T) ([]*dataset.WorldBlock, *Feeder, Config) {
	t.Helper()
	world := testWorld(t, 2, 2028)
	cfg := testConfig()
	cfg.SegmentBytes = 4 << 10
	cfg.CompactBytes = 64 << 10
	return world, testFeeder(t, testEngine(28), world, cfg), cfg
}

// feedGolden opens a daemon over dir and ingests rounds up to to,
// draining after each so every event is journaled before the next round.
func feedGolden(t *testing.T, dir string, world []*dataset.WorldBlock, f *Feeder, cfg Config, to int64) []Event {
	t.Helper()
	d, err := Open(dir, world, f.Observers(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	ctx := context.Background()
	for seq := d.NextIngestSeq(); seq < to; seq++ {
		r, err := f.Round(seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Ingest(ctx, r); err != nil {
			t.Fatal(err)
		}
		if err := d.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	evs := d.Events()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestWriteWALGolden writes the fixture into -golden-out.
func TestWriteWALGolden(t *testing.T) {
	if *goldenOut == "" {
		t.Skip("writes the journal fixture when -golden-out is set")
	}
	world, f, cfg := goldenWAL(t)
	for _, to := range goldenLives {
		feedGolden(t, *goldenOut, world, f, cfg, to)
	}
}

// readTree returns every file directly under dir by name.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

func TestWALGoldenFormat(t *testing.T) {
	want := readTree(t, goldenDir)

	out := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWriteWALGolden$", "-golden-out", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fixture writer: %v\n%s", err, msg)
	}
	got := readTree(t, out)
	for name, data := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("writer did not produce %s", name)
		} else if !bytes.Equal(g, data) {
			t.Errorf("writer's %s (%d bytes) differs from the fixture's (%d bytes)", name, len(g), len(data))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("writer produced %s, which the fixture lacks", name)
		}
	}

	// The fixture has rotated and compacted: its round manifest lists a
	// base segment (not the first one ever written) and segments after it.
	var m struct{ Segments []string }
	if err := json.Unmarshal(want["rounds.wal.manifest"], &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) < 2 || m.Segments[0] == "rounds-00000001.wal" {
		t.Fatalf("fixture's round manifest %v shows no compaction followed by a rotation", m.Segments)
	}

	// A copy resumes where the fixture stopped, with the events an
	// uninterrupted run journals.
	world, f, cfg := goldenWAL(t)
	last := goldenLives[len(goldenLives)-1]
	ref := feedGolden(t, t.TempDir(), world, f, testConfig(), last)
	dir := t.TempDir()
	for name, data := range want {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := Open(dir, world, f.Observers(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if next := d.NextIngestSeq(); next != last {
		t.Fatalf("fixture resumes at round %d, want %d", next, last)
	}
	evs := d.Events()
	if len(evs) != len(ref) {
		t.Fatalf("fixture holds %d events, an uninterrupted run %d", len(evs), len(ref))
	}
	for i := range evs {
		if evs[i] != ref[i] {
			t.Fatalf("fixture event %d diverges: %+v vs %+v", i, evs[i], ref[i])
		}
	}
}

// TestEventFrameDropsRemovedField: event frames journaled when Event still
// carried EvidenceSeq (the round of the daemon's since-removed online
// CUSUM alarm) decode into today's Event with every remaining field
// intact. gob matches struct fields by name and skips those the receiver
// lacks, so an events WAL written before the removal still reopens.
func TestEventFrameDropsRemovedField(t *testing.T) {
	type oldEvent struct {
		Seq                                int64
		Block                              int
		ID                                 netsim.BlockID
		Change                             core.Change
		FirstSeenSeq, EligibleSeq, EmitSeq int64
		EvidenceSeq                        int64
	}
	ch := core.Change{Dir: changepoint.Down, Start: 3600, Alarm: 7200, End: 10800, Point: 9000, Amplitude: -1.25, RawAmplitude: -4.5}
	for _, evidence := range []int64{-1, 0, 41} {
		old := oldEvent{Seq: 7, Block: 3, ID: 0x0a0b0c, Change: ch, FirstSeenSeq: 40, EligibleSeq: 42, EmitSeq: 44, EvidenceSeq: evidence}
		payload, err := encodeStreamFrame(frameEvent, old)
		if err != nil {
			t.Fatal(err)
		}
		df, err := decodeStreamFrame(payload)
		if err != nil {
			t.Fatalf("evidence %d: %v", evidence, err)
		}
		want := Event{Seq: 7, Block: 3, ID: 0x0a0b0c, Change: ch, FirstSeenSeq: 40, EligibleSeq: 42, EmitSeq: 44}
		if df.Tag != frameEvent || df.Event == nil || *df.Event != want {
			t.Fatalf("evidence %d: decoded %q frame %+v, want an event frame %+v", evidence, df.Tag, df.Event, want)
		}
	}
}
