package stream

// The daemon journals' on-disk format, pinned by committed directories.
//
// testdata/golden-wal-packed/ is today's format, written by
// TestWriteWALGolden:
//
//	go test ./internal/stream -run '^TestWriteWALGolden$' -count=1 \
//	    -args -golden-out "$PWD/internal/stream/testdata/golden-wal-packed"
//
// Two daemon lives ingest a one-block world's rounds under small segment
// and compaction thresholds, refreshing every round once the baseline is
// in. The round journal holds packed round frames in segments signed
// with the round signature; it has been compacted to a 'K' base segment
// and has rotated after it. The event journal holds events and refresh
// checkpoints ('C' frames); it has been compacted to its events and the
// checkpoint of the day, dropping the superseded ones, and has rotated
// after that too. TestWALGoldenFormat re-runs the writer in a fresh
// process (gob numbers its types in the order a process first encodes
// them) and requires the same file names and bytes, manifests included.
// It then resumes a copy of the fixture.
//
// Two older fixtures are read-only; a test opens a copy of each and
// finishes the stream with the events and result of an uninterrupted
// run:
//
//   - testdata/golden-wal-gob-rounds/ is the same world as written before
//     packed round frames: gob round frames in segments signed with the
//     plain run signature (TestWALGoldenGobRounds).
//   - testdata/golden-wal/ is the format before refresh checkpoints,
//     written by the writer of its day on a two-block world (and
//     re-pinned when the run signature gained the daemon's schedule). It
//     replays in full, and its first append rewrites its round journal
//     under the round signature (TestWALGoldenBeforeCheckpoints).

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/journal"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/storage"
)

var goldenOut = flag.String("golden-out", "", "directory TestWriteWALGolden writes the journal fixture into")

const (
	goldenDir          = "testdata/golden-wal-packed"
	gobRoundsGoldenDir = "testdata/golden-wal-gob-rounds"
	legacyGoldenDir    = "testdata/golden-wal"
)

// goldenLives is how many rounds each daemon life of the fixture has
// ingested when it closes; the second finishes the six-week stream.
var goldenLives = []int64{31, 42}

// goldenWAL is the fixture's world, feeder and config: one block over
// six weeks, one observer, a refresh every round. The round journal is
// compacted each time CompactBytes of rounds have been appended since its
// last base, and the rounds after the last compaction rotate.
func goldenWAL(t *testing.T) ([]*dataset.WorldBlock, *Feeder, Config) {
	t.Helper()
	start, _ := testWindow()
	end := start + 6*7*netsim.SecondsPerDay
	world, err := dataset.BuildWorld(dataset.WorldOpts{Blocks: 1, Seed: 49, Calendar: events.Year2020(), Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Core.AnalysisEnd = end
	cfg.RefreshEvery = 1
	cfg.SegmentBytes = 4 << 10
	cfg.CompactBytes = 16 << 10
	eng := &probe.Engine{Observers: probe.StandardObservers(1), QuarterSeed: 28}
	return world, testFeeder(t, eng, world, cfg), cfg
}

// legacyGoldenWAL is the read-only fixture's world, feeder and config,
// and how many rounds it holds.
func legacyGoldenWAL(t *testing.T) ([]*dataset.WorldBlock, *Feeder, Config, int64) {
	t.Helper()
	world := testWorld(t, 2, 2028)
	cfg := testConfig()
	cfg.SegmentBytes = 4 << 10
	cfg.CompactBytes = 64 << 10
	return world, testFeeder(t, testEngine(28), world, cfg), cfg, 10
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
func readTree(t testing.TB, dir string) map[string][]byte {
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

// writeTree writes files into a fresh directory and returns it.
func writeTree(t testing.TB, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// manifestSegments returns the segments a journal manifest lists.
func manifestSegments(t *testing.T, data []byte) []string {
	t.Helper()
	var m struct{ Segments []string }
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m.Segments
}

// journalTags returns the tags of the data frames the journal name in
// dir holds, in order, opened under the signature of cfg and world (for
// rounds, either round signature).
func journalTags(t *testing.T, dir, name string, cfg Config, world []*dataset.WorldBlock) []byte {
	t.Helper()
	sig := runSignature(cfg.withDefaults(), world)
	hdr, err := segmentHeader(sig, nil, nil)
	if name == "rounds" {
		hdr, err = segmentHeader(roundSignature(sig), sig, func() {})
	}
	if err != nil {
		t.Fatal(err)
	}
	var tags []byte
	l, err := journal.OpenLog(storage.OS, dir, name, hdr, 0, decoded(func(df decodedFrame) error {
		tags = append(tags, df.Tag)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	l.Close(false)
	return tags
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

	// The fixture has compacted and then rotated both journals: each
	// manifest lists a base segment (not the first one ever written) and
	// segments after it.
	for _, name := range []string{"rounds", "events"} {
		if segs := manifestSegments(t, want[name+".wal.manifest"]); len(segs) < 2 || segs[0] == name+"-00000001.wal" {
			t.Fatalf("fixture's %s manifest %v shows no compaction followed by a rotation", name, segs)
		}
	}
	world, f, cfg := goldenWAL(t)
	dir := writeTree(t, want)
	tags := journalTags(t, dir, "events", cfg, world)
	if !bytes.Contains(tags, []byte{frameEvent}) || !bytes.Contains(tags, []byte{frameRefresh}) {
		t.Fatalf("fixture's event journal holds frames %q, want events and refresh checkpoints", tags)
	}
	tags = journalTags(t, dir, "rounds", cfg, world)
	if tags[0] != frameCompactRounds || !bytes.Contains(tags, []byte{frameRound}) || bytes.Contains(tags, []byte{frameGobRound}) {
		t.Fatalf("fixture's round journal holds frames %q, want a base and packed rounds", tags)
	}
	sig := runSignature(cfg.withDefaults(), world)
	for i, s := range segmentSigs(t, dir, "rounds") {
		if !bytes.Equal(s, roundSignature(sig)) {
			t.Fatalf("fixture's round segment %d is not signed with the round signature", i)
		}
	}

	// A copy resumes where the fixture stopped, with the events an
	// uninterrupted run journals, and restores the result without
	// re-running a refresh.
	last := goldenLives[len(goldenLives)-1]
	ref := feedGolden(t, t.TempDir(), world, f, testConfigFor(cfg), last)
	if len(ref) == 0 {
		t.Fatal("the fixture's stream emits no events; the comparison would be vacuous")
	}
	var calls int
	d, err := open(dir, world, f.Observers(), cfg, 1, func(int) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if next := d.NextIngestSeq(); next != last {
		t.Fatalf("fixture resumes at round %d, want %d", next, last)
	}
	if calls != 0 {
		t.Errorf("opening the fixture analyzed %d blocks; its last checkpoint covers every round", calls)
	}
	if evs := d.Events(); !reflect.DeepEqual(evs, ref) {
		t.Fatalf("fixture holds events %+v, an uninterrupted run %+v", evs, ref)
	}
	if _, err := d.Result(); err != nil {
		t.Fatal(err)
	}
}

// testConfigFor is cfg without the fixture's storage thresholds, which a
// reference run does not need.
func testConfigFor(cfg Config) Config {
	cfg.SegmentBytes, cfg.CompactBytes = 0, 0
	return cfg
}

// segmentSigs returns the signature each segment of the journal name in
// dir opens with, in manifest order.
func segmentSigs(t *testing.T, dir, name string) [][]byte {
	t.Helper()
	manifest, err := os.ReadFile(filepath.Join(dir, name+".wal.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	var sigs [][]byte
	for _, seg := range manifestSegments(t, manifest) {
		data, err := os.ReadFile(filepath.Join(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		frames := journal.Frames(data)
		if len(frames) == 0 {
			t.Fatalf("segment %s holds no frame", seg)
		}
		df, err := decodeStreamFrame(frames[0].Payload)
		if err != nil || df.Tag != frameStreamHeader {
			t.Fatalf("segment %s does not open with a signature header: %v", seg, err)
		}
		sigs = append(sigs, df.Sig)
	}
	return sigs
}

// TestWALGoldenGobRounds: a directory whose round journal was written
// before packed round frames — gob round frames, segments signed with the
// plain run signature — opens from its last refresh checkpoint, and the
// stream finishes with an uninterrupted run's events and result.
func TestWALGoldenGobRounds(t *testing.T) {
	world, f, cfg := goldenWAL(t)
	refEvs, refFP := runStream(t, t.TempDir(), world, f, testConfigFor(cfg))
	dir := writeTree(t, readTree(t, gobRoundsGoldenDir))
	sig := runSignature(cfg.withDefaults(), world)
	for i, s := range segmentSigs(t, dir, "rounds") {
		if !bytes.Equal(s, sig) {
			t.Fatalf("the gob-rounds fixture's round segment %d is not signed with the plain run signature", i)
		}
	}
	if tags := journalTags(t, dir, "rounds", cfg, world); !bytes.Contains(tags, []byte{frameGobRound}) || bytes.Contains(tags, []byte{frameRound}) {
		t.Fatalf("the gob-rounds fixture's round journal holds frames %q, want gob rounds only", tags)
	}
	var calls int
	d, err := open(dir, world, f.Observers(), cfg, 1, func(int) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	next := d.NextIngestSeq()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if last := goldenLives[len(goldenLives)-1]; next != last {
		t.Fatalf("the gob-rounds fixture resumes at round %d, want %d", next, last)
	}
	if calls != 0 {
		t.Errorf("opening the gob-rounds fixture analyzed %d blocks; its last checkpoint covers every round", calls)
	}
	evs, fp := runStream(t, dir, world, f, cfg)
	if !reflect.DeepEqual(evs, refEvs) || fp != refFP {
		t.Fatalf("the gob-rounds fixture finished with %d events and fingerprint %.16s, an uninterrupted run %d and %.16s",
			len(evs), fp, len(refEvs), refFP)
	}
}

// TestWALGoldenBeforeCheckpoints: a directory written before the event
// journal carried refresh checkpoints opens by replaying every round,
// and the stream finishes with an uninterrupted run's events and result.
// Its round segments are signed with the plain run signature; once a
// round is appended, none is left.
func TestWALGoldenBeforeCheckpoints(t *testing.T) {
	world, f, cfg, held := legacyGoldenWAL(t)
	refEvs, refFP := runStream(t, t.TempDir(), world, f, testConfigFor(cfg))
	dir := writeTree(t, readTree(t, legacyGoldenDir))
	if tags := journalTags(t, dir, "events", cfg, world); bytes.Contains(tags, []byte{frameRefresh}) {
		t.Fatalf("the legacy fixture's event journal holds refresh checkpoints: %q", tags)
	}
	d, err := Open(dir, world, f.Observers(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if next := d.NextIngestSeq(); next != held {
		d.Close()
		t.Fatalf("legacy fixture resumes at round %d, want %d", next, held)
	}
	sig := runSignature(cfg.withDefaults(), world)
	for i, s := range segmentSigs(t, dir, "rounds") {
		if !bytes.Equal(s, sig) {
			d.Close()
			t.Fatalf("the legacy fixture's round segment %d is not signed with the plain run signature", i)
		}
	}
	// Its first append rewrites the round journal first.
	d.Start()
	r, err := f.Round(held)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range segmentSigs(t, dir, "rounds") {
		if !bytes.Equal(s, roundSignature(sig)) {
			t.Fatalf("after a round was appended to the legacy fixture, its round segment %d is still signed with the plain run signature", i)
		}
	}
	evs, fp := runStream(t, dir, world, f, cfg)
	if !reflect.DeepEqual(evs, refEvs) || fp != refFP {
		t.Fatalf("legacy fixture finished with %d events and fingerprint %.16s, an uninterrupted run %d and %.16s",
			len(evs), fp, len(refEvs), refFP)
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
