package stream

// The daemon journals' on-disk format, pinned by committed directories.
//
// testdata/golden-wal-append/ is today's format, written by
// TestWriteWALGolden:
//
//	go test ./internal/stream -run '^TestWriteWALGolden$' -count=1 \
//	    -args -golden-out "$PWD/internal/stream/testdata/golden-wal-append"
//
// Two daemon lives ingest a one-block world's rounds under a small
// segment threshold, refreshing every round once the baseline is in.
// The round journal is append-only: packed round frames in segments
// signed with the round signature, rotated several times and never
// rewritten. The event journal holds events and refresh checkpoints ('C'
// frames); it has been compacted to its events and the checkpoint of the
// day, dropping the superseded ones, and has rotated after that.
// TestWALGoldenFormat re-runs the writer in a fresh process and requires
// the same file names and bytes, manifests included. It then resumes a
// copy of the fixture.
//
// Three older fixtures are read-only; a test opens a copy of each and
// finishes the stream with the events and result of an uninterrupted
// run:
//
//   - testdata/golden-wal-packed/ is the same world as written while the
//     round journal was compacted: a 'K' base segment and packed round
//     frames after it (TestWALGoldenPacked).
//   - testdata/golden-wal-gob-rounds/ is the same world as written before
//     packed round frames: gob round frames in segments signed with the
//     plain run signature (TestWALGoldenGobRounds).
//   - testdata/golden-wal/ is the format before refresh checkpoints,
//     written by the writer of its day on a two-block world (and
//     re-pinned when the run signature gained the daemon's schedule). It
//     replays in full, and its first append seals its tail segment, which
//     is signed with the plain run signature, by a rotation
//     (TestWALGoldenBeforeCheckpoints).

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
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
	goldenDir          = "testdata/golden-wal-append"
	packedGoldenDir    = "testdata/golden-wal-packed"
	gobRoundsGoldenDir = "testdata/golden-wal-gob-rounds"
	legacyGoldenDir    = "testdata/golden-wal"
)

// goldenLives is how many rounds each daemon life of the fixture has
// ingested when it closes; the second finishes the six-week stream.
var goldenLives = []int64{31, 42}

// goldenWAL is the fixture's world, feeder and config: one block over
// six weeks, one observer, a refresh every round, and 4 KiB segments.
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
		hdr, err = segmentHeader(roundSignature(sig), sig, func(bool) {})
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

	// The round journal has rotated and was never rewritten: its manifest
	// lists every segment from the first, each signed with the round
	// signature and holding packed round frames only. The event journal
	// has been compacted and then rotated: its manifest lists a base
	// segment (not the first one ever written) and segments after it.
	world, f, cfg := goldenWAL(t)
	dir := writeTree(t, want)
	sig := runSignature(cfg.withDefaults(), world)
	segs := journalSegments(t, dir, "rounds")
	if len(segs) < 2 || segs[0].name != "rounds-00000001.wal" {
		t.Fatalf("fixture's round journal lists %d segments from %s; want the first and rotations after it", len(segs), segs[0].name)
	}
	for _, s := range segs {
		if !bytes.Equal(s.sig, roundSignature(sig)) {
			t.Fatalf("fixture's round segment %s is not signed with the round signature", s.name)
		}
		if len(s.tags) == 0 || bytes.Count(s.tags, []byte{frameRound}) != len(s.tags) {
			t.Fatalf("fixture's round segment %s holds frames %q, want packed rounds only", s.name, s.tags)
		}
	}
	if segs := manifestSegments(t, want["events.wal.manifest"]); len(segs) < 2 || segs[0] == "events-00000001.wal" {
		t.Fatalf("fixture's events manifest %v shows no compaction followed by a rotation", segs)
	}
	tags := journalTags(t, dir, "events", cfg, world)
	if !bytes.Contains(tags, []byte{frameEvent}) || !bytes.Contains(tags, []byte{frameRefresh}) {
		t.Fatalf("fixture's event journal holds frames %q, want events and refresh checkpoints", tags)
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

// testConfigFor is cfg without the fixture's segment threshold, which a
// reference run does not need.
func testConfigFor(cfg Config) Config {
	cfg.SegmentBytes = 0
	return cfg
}

// journalSegment is one segment of a journal, as its manifest lists it:
// the signature its header carries and the tags of its data frames.
type journalSegment struct {
	name string
	sig  []byte
	tags []byte
}

// journalSegments returns the segments of the journal name in dir, in
// manifest order.
func journalSegments(t *testing.T, dir, name string) []journalSegment {
	t.Helper()
	manifest, err := os.ReadFile(filepath.Join(dir, name+".wal.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	var segs []journalSegment
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
		s := journalSegment{name: seg, sig: df.Sig}
		for _, fr := range frames[1:] {
			s.tags = append(s.tags, fr.Payload[0])
		}
		segs = append(segs, s)
	}
	return segs
}

// checkLegacySealed: no segment of the round journal in dir signed with
// the plain run signature sig holds a packed round frame, and its tail is
// signed with the round signature — a journal an earlier version wrote,
// once a round has been appended to it.
func checkLegacySealed(t *testing.T, dir string, sig []byte) {
	t.Helper()
	segs := journalSegments(t, dir, "rounds")
	for _, s := range segs {
		if bytes.Equal(s.sig, sig) && bytes.Contains(s.tags, []byte{frameRound}) {
			t.Fatalf("round segment %s is signed with the plain run signature and holds frames %q", s.name, s.tags)
		}
	}
	if tail := segs[len(segs)-1]; !bytes.Equal(tail.sig, roundSignature(sig)) {
		t.Fatalf("the round journal's tail %s is not signed with the round signature", tail.name)
	}
}

// finishGolden opens dir, a copy of a read-only fixture of goldenWAL's
// world that holds every round: it must resume at the last round from
// its last refresh checkpoint, analyzing no block, and the stream must
// finish with an uninterrupted run's events and result. With no round
// left to append, the round journal is left as it was.
func finishGolden(t *testing.T, fixture, dir string) {
	t.Helper()
	world, f, cfg := goldenWAL(t)
	refEvs, refFP := runStream(t, t.TempDir(), world, f, testConfigFor(cfg))
	before := readTree(t, dir)
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
		t.Fatalf("the %s fixture resumes at round %d, want %d", fixture, next, last)
	}
	if calls != 0 {
		t.Errorf("opening the %s fixture analyzed %d blocks; its last checkpoint covers every round", fixture, calls)
	}
	evs, fp := runStream(t, dir, world, f, cfg)
	if !reflect.DeepEqual(evs, refEvs) || fp != refFP {
		t.Fatalf("the %s fixture finished with %d events and fingerprint %.16s, an uninterrupted run %d and %.16s",
			fixture, len(evs), fp, len(refEvs), refFP)
	}
	after := readTree(t, dir)
	for name, data := range before {
		if strings.HasPrefix(name, "rounds") && !bytes.Equal(after[name], data) {
			t.Errorf("finishing the %s fixture rewrote %s", fixture, name)
		}
	}
}

// TestWALGoldenPacked: a directory whose round journal an earlier version
// compacted — a 'K' base segment, then packed round frames — opens and
// finishes as an uninterrupted run does.
func TestWALGoldenPacked(t *testing.T) {
	world, _, cfg := goldenWAL(t)
	dir := writeTree(t, readTree(t, packedGoldenDir))
	sig := runSignature(cfg.withDefaults(), world)
	segs := journalSegments(t, dir, "rounds")
	if len(segs[0].tags) != 1 || segs[0].tags[0] != frameCompactRounds {
		t.Fatalf("the packed fixture's first round segment holds frames %q, want one base", segs[0].tags)
	}
	for _, s := range segs {
		if !bytes.Equal(s.sig, roundSignature(sig)) {
			t.Fatalf("the packed fixture's round segment %s is not signed with the round signature", s.name)
		}
	}
	if tags := journalTags(t, dir, "rounds", cfg, world); bytes.Count(tags, []byte{frameRound}) != len(tags)-1 {
		t.Fatalf("the packed fixture's round journal holds frames %q, want a base and packed rounds", tags)
	}
	finishGolden(t, "packed", dir)
}

// TestWALGoldenGobRounds: a directory whose round journal was written
// before packed round frames — gob round frames, segments signed with the
// plain run signature — opens and finishes as an uninterrupted run does.
func TestWALGoldenGobRounds(t *testing.T) {
	world, _, cfg := goldenWAL(t)
	dir := writeTree(t, readTree(t, gobRoundsGoldenDir))
	sig := runSignature(cfg.withDefaults(), world)
	for _, s := range journalSegments(t, dir, "rounds") {
		if !bytes.Equal(s.sig, sig) {
			t.Fatalf("the gob-rounds fixture's round segment %s is not signed with the plain run signature", s.name)
		}
	}
	if tags := journalTags(t, dir, "rounds", cfg, world); !bytes.Contains(tags, []byte{frameGobRound}) || bytes.Contains(tags, []byte{frameRound}) {
		t.Fatalf("the gob-rounds fixture's round journal holds frames %q, want gob rounds only", tags)
	}
	finishGolden(t, "gob-rounds", dir)
}

// TestWALGoldenBeforeCheckpoints: a directory written before the event
// journal carried refresh checkpoints opens by replaying every round,
// and the stream finishes with an uninterrupted run's events and result.
// Its round segments are signed with the plain run signature; the first
// append seals the tail, so that no packed round frame lands in a
// segment so signed, and a reopen still finishes identical. The daemon
// that appends runs under the default segment threshold, which the tail
// is far below, so only the seal can rotate it.
func TestWALGoldenBeforeCheckpoints(t *testing.T) {
	world, f, cfg, held := legacyGoldenWAL(t)
	refEvs, refFP := runStream(t, t.TempDir(), world, f, testConfigFor(cfg))
	dir := writeTree(t, readTree(t, legacyGoldenDir))
	if tags := journalTags(t, dir, "events", cfg, world); bytes.Contains(tags, []byte{frameRefresh}) {
		t.Fatalf("the legacy fixture's event journal holds refresh checkpoints: %q", tags)
	}
	d, err := Open(dir, world, f.Observers(), testConfigFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if next := d.NextIngestSeq(); next != held {
		d.Close()
		t.Fatalf("legacy fixture resumes at round %d, want %d", next, held)
	}
	sig := runSignature(cfg.withDefaults(), world)
	for _, s := range journalSegments(t, dir, "rounds") {
		if !bytes.Equal(s.sig, sig) {
			d.Close()
			t.Fatalf("the legacy fixture's round segment %s is not signed with the plain run signature", s.name)
		}
	}
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
	checkLegacySealed(t, dir, sig)
	evs, fp := runStream(t, dir, world, f, cfg)
	if !reflect.DeepEqual(evs, refEvs) || fp != refFP {
		t.Fatalf("legacy fixture finished with %d events and fingerprint %.16s, an uninterrupted run %d and %.16s",
			len(evs), fp, len(refEvs), refFP)
	}
	checkLegacySealed(t, dir, sig)
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
