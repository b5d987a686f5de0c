package stream

// Recovery restores the latest refresh checkpoint ('C' frame) instead of
// re-running every refresh. These tests kill a daemon after each refresh
// boundary and hold the reopened, finished stream to the uninterrupted
// run, and check that recovery falls back past a torn or missing
// checkpoint and refuses one that does not fit the journals.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/journal"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/storage"
)

// restoreSetup is a two-block world over seven weeks, refreshed every
// every rounds once the four-week baseline is in.
func restoreSetup(t *testing.T, every int) ([]*dataset.WorldBlock, *Feeder, Config) {
	t.Helper()
	start, _ := testWindow()
	end := start + 7*7*netsim.SecondsPerDay
	world, err := dataset.BuildWorld(dataset.WorldOpts{Blocks: 2, Seed: 77, Calendar: events.Year2020(), Start: start, End: end})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Core.AnalysisEnd = end
	cfg.RefreshEvery = every
	return world, testFeeder(t, testEngine(7), world, cfg), cfg
}

// boundary is a stream directory as a kill right after the refresh that
// processed round Round-1 leaves it.
type boundary struct {
	Round int64
	Files map[string][]byte
}

// finalFailure fails block 0's analysis in the final refresh: its hook
// panics on block 0 once due is set, which lockstep does before it
// ingests the final round. A nil *finalFailure fails nothing.
type finalFailure struct{ due atomic.Bool }

// hook returns the per-block hook that counts calls into calls and
// applies ff.
func (ff *finalFailure) hook(calls *int) func(b int) {
	return func(b int) {
		*calls++
		if ff != nil && b == 0 && ff.due.Load() {
			panic("final refresh fails")
		}
	}
}

// openWith opens dir on one lane with ff's hook and counts the blocks the
// detectors analyze, the open's replay included. A directory whose
// stream is complete holds the final refresh, so ff is due on it.
func openWith(t *testing.T, dir string, world []*dataset.WorldBlock, f *Feeder, cfg Config, ff *finalFailure, complete bool) (*Daemon, *int, error) {
	t.Helper()
	if ff != nil {
		ff.due.Store(complete)
	}
	calls := new(int)
	d, err := open(dir, world, f.Observers(), cfg, 1, ff.hook(calls))
	return d, calls, err
}

// lockstep ingests the rounds from d's next one up to round to one at
// a time, draining after each, and calls each after every round. ff is
// due from the stream's final round on.
func lockstep(t *testing.T, d *Daemon, f *Feeder, ff *finalFailure, to int64, each func(seq int64)) {
	t.Helper()
	ctx := context.Background()
	for seq := d.NextIngestSeq(); seq < to; seq++ {
		if ff != nil && seq == f.Rounds()-1 {
			ff.due.Store(true)
		}
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
		each(seq)
	}
}

// refreshBoundaries runs one lockstep life over every round in a fresh
// directory and copies the directory after each round whose processing
// ran a refresh. The life journals everything before the copy (Drain),
// and a kill writes nothing, so each copy is what Abort leaves there.
func refreshBoundaries(t *testing.T, world []*dataset.WorldBlock, f *Feeder, cfg Config, ff *finalFailure) []boundary {
	t.Helper()
	dir := t.TempDir()
	d, _, err := openWith(t, dir, world, f, cfg, ff, false)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Abort()
	var out []boundary
	refreshes := d.Stats().Refreshes
	lockstep(t, d, f, ff, f.Rounds(), func(seq int64) {
		if n := d.Stats().Refreshes; n > refreshes {
			refreshes = n
			out = append(out, boundary{Round: seq + 1, Files: readTree(t, dir)})
		}
	})
	return out
}

// finishStream runs an opened daemon to the end of the stream in
// lockstep and returns its events and result.
func finishStream(t *testing.T, d *Daemon, f *Feeder, ff *finalFailure) ([]Event, *core.WorldResult, string) {
	t.Helper()
	defer d.Close()
	d.Start()
	lockstep(t, d, f, ff, f.Rounds(), func(int64) {})
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := res.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return d.Events(), res, fp
}

// TestRestoreMatchesUninterrupted: a daemon killed right after any
// refresh reopens without analyzing a block — the latest checkpoint
// covers every journaled round — and finishes with the uninterrupted
// run's events, every field, and result, refreshing every round and
// every third, and with block 0's final refresh failing: that block then
// has no analysis in the result, however the daemon got there.
func TestRestoreMatchesUninterrupted(t *testing.T) {
	for _, tc := range []struct {
		every     int
		failFinal bool
	}{{1, false}, {3, false}, {1, true}} {
		t.Run(fmt.Sprintf("every=%d,failFinal=%v", tc.every, tc.failFinal), func(t *testing.T) {
			world, f, cfg := restoreSetup(t, tc.every)
			var ff *finalFailure
			if tc.failFinal {
				ff = &finalFailure{}
			}
			d, _, err := openWith(t, t.TempDir(), world, f, cfg, ff, false)
			if err != nil {
				t.Fatal(err)
			}
			refEvents, refRes, refFP := finishStream(t, d, f, ff)
			if failed := refRes.Blocks[0].Analysis == nil; failed != tc.failFinal {
				t.Fatalf("uninterrupted run: block 0 without an analysis is %v, want %v", failed, tc.failFinal)
			}
			var early int
			for _, ev := range refEvents {
				if ev.EmitSeq < f.Rounds()-1 {
					early++
				}
			}
			if early == 0 {
				t.Fatal("no event is emitted before the final refresh; restored candidates would go untested")
			}
			bounds := refreshBoundaries(t, world, f, cfg, ff)
			if len(bounds) < 3 {
				t.Fatalf("%d refresh boundaries", len(bounds))
			}
			for _, b := range bounds {
				d, calls, err := openWith(t, writeTree(t, b.Files), world, f, cfg, ff, b.Round == f.Rounds())
				if err != nil {
					t.Fatalf("reopening after the refresh of round %d: %v", b.Round-1, err)
				}
				if *calls != 0 {
					t.Errorf("reopening after the refresh of round %d analyzed %d blocks, want none", b.Round-1, *calls)
				}
				if next := d.NextIngestSeq(); next != b.Round {
					t.Fatalf("reopened after round %d at %d", b.Round-1, next)
				}
				evs, _, fp := finishStream(t, d, f, ff)
				if !reflect.DeepEqual(evs, refEvents) {
					t.Fatalf("killed after the refresh of round %d: finished with events\n  %+v\nuninterrupted\n  %+v", b.Round-1, evs, refEvents)
				}
				if fp != refFP {
					t.Fatalf("killed after the refresh of round %d: fingerprint %.16s, uninterrupted %.16s", b.Round-1, fp, refFP)
				}
			}
		})
	}
}

// eventsTail returns the path of the event journal's newest segment in
// dir and its frames.
func eventsTail(t *testing.T, dir string) (string, []journal.Frame) {
	t.Helper()
	segs := manifestSegments(t, readTree(t, dir)["events.wal.manifest"])
	path := filepath.Join(dir, segs[len(segs)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, journal.Frames(data)
}

// TestRestoreFallsBackPastLastCheckpoint: when the last checkpoint is
// torn or gone, recovery restores the one before it and re-runs the
// refresh after it, regenerating the events that refresh journaled.
func TestRestoreFallsBackPastLastCheckpoint(t *testing.T) {
	world, f, cfg := restoreSetup(t, 1)
	refEvents, refFP := runStream(t, t.TempDir(), world, f, cfg)
	bounds := refreshBoundaries(t, world, f, cfg, nil)
	// The boundary of the first refresh that emitted an event, with a
	// checkpoint before it.
	var b *boundary
	for i := 1; i < len(bounds) && b == nil; i++ {
		for _, ev := range refEvents {
			if ev.EmitSeq == bounds[i].Round-1 {
				b = &bounds[i]
				break
			}
		}
	}
	if b == nil {
		t.Fatal("no refresh after the first emitted an event")
	}
	for _, cut := range []struct {
		name string
		trim func(frame journal.Frame) int // bytes of the last frame to drop
	}{
		{"torn", func(fr journal.Frame) int { return 3 }},
		{"removed", func(fr journal.Frame) int { return len(fr.Payload) + journal.Overhead }},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := writeTree(t, b.Files)
			path, frames := eventsTail(t, dir)
			last := frames[len(frames)-1]
			if last.Payload[0] != frameRefresh {
				t.Fatalf("the event journal ends in a %q frame, want a refresh checkpoint", last.Payload[0])
			}
			if err := os.Truncate(path, int64(last.End-cut.trim(last))); err != nil {
				t.Fatal(err)
			}
			d, calls, err := openWith(t, dir, world, f, cfg, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if *calls != len(world) {
				t.Errorf("recovery analyzed %d blocks, want the %d of the one refresh after the previous checkpoint", *calls, len(world))
			}
			if _, frames := eventsTail(t, dir); frames[len(frames)-1].Payload[0] != frameRefresh {
				t.Error("recovery re-ran a refresh but journaled no checkpoint after it")
			}
			evs, _, fp := finishStream(t, d, f, nil)
			if !reflect.DeepEqual(evs, refEvents) || fp != refFP {
				t.Fatalf("finished with %d events and fingerprint %.16s, uninterrupted %d and %.16s", len(evs), fp, len(refEvents), refFP)
			}
		})
	}
}

// appendToEvents appends payload to the event journal in dir.
func appendToEvents(t *testing.T, dir string, world []*dataset.WorldBlock, cfg Config, payload []byte) {
	t.Helper()
	hdr, err := segmentHeader(runSignature(cfg.withDefaults(), world), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := journal.OpenLog(storage.OS, dir, "events", hdr, 0, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(true); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesMisfitCheckpoint: a checkpoint that counts more
// events than the journal holds before it, or covers rounds the round
// journal lacks, fails the open as an inconsistent WAL pair.
func TestRestoreRefusesMisfitCheckpoint(t *testing.T) {
	world, f, cfg := restoreSetup(t, 1)
	bounds := refreshBoundaries(t, world, f, cfg, nil)
	b := bounds[len(bounds)/2]
	_, frames := eventsTail(t, writeTree(t, b.Files))
	df, err := decodeStreamFrame(frames[len(frames)-1].Payload)
	if err != nil || df.Refresh == nil {
		t.Fatalf("the event journal does not end in a refresh checkpoint (%v)", err)
	}
	for name, edit := range map[string]func(c *refreshCheckpoint){
		"events past the journal": func(c *refreshCheckpoint) { c.NextEvent++ },
		"rounds past the journal": func(c *refreshCheckpoint) { c.Processed++ },
	} {
		t.Run(name, func(t *testing.T) {
			c := *df.Refresh
			edit(&c)
			payload, err := encodeStreamFrame(frameRefresh, &c)
			if err != nil {
				t.Fatal(err)
			}
			dir := writeTree(t, b.Files)
			appendToEvents(t, dir, world, cfg, payload)
			d, err := Open(dir, world, f.Observers(), cfg)
			if err == nil {
				d.Close()
				t.Fatal("the open succeeded")
			}
			if !strings.Contains(err.Error(), "WAL pair is inconsistent") {
				t.Fatalf("want an inconsistent WAL pair, got: %v", err)
			}
		})
	}
}

// TestRestoreAckedJournalReplays: an event journal an earlier version
// compacted to a 'P' ack frame holds no event bodies for the prefix it
// acknowledges, so recovery ignores its checkpoints and replays every
// round, regenerating that prefix; the stream still finishes with the
// uninterrupted run's events.
func TestRestoreAckedJournalReplays(t *testing.T) {
	world, f, cfg := restoreSetup(t, 1)
	refEvents, refFP := runStream(t, t.TempDir(), world, f, cfg)
	bounds := refreshBoundaries(t, world, f, cfg, nil)
	b := bounds[len(bounds)-2]
	dir := writeTree(t, b.Files)
	d, err := Open(dir, world, f.Observers(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	journaled := d.Events()
	if len(journaled) == 0 {
		t.Fatal("no events journaled at the kill; the ack would acknowledge nothing")
	}
	d.Close()
	hdr, err := segmentHeader(runSignature(cfg.withDefaults(), world), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := journal.OpenLog(storage.OS, dir, "events", hdr, 0, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	ack, err := encodeStreamFrame(frameEventsAck, eventsAck{Count: int64(len(journaled))})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(ack); err != nil {
		t.Fatal(err)
	}
	// One checkpoint after the ack, as a later version appends.
	c, err := encodeStreamFrame(frameRefresh, &refreshCheckpoint{Processed: b.Round, Refreshes: 1, NextEvent: int64(len(journaled)), Cands: make([][]*candidate, len(world))})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(c); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(true); err != nil {
		t.Fatal(err)
	}
	d, calls, err := openWith(t, dir, world, f, cfg, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if *calls == 0 {
		t.Error("an acked journal reopened without a replay")
	}
	if got := d.Events(); !reflect.DeepEqual(got, journaled) {
		d.Close()
		t.Fatalf("the acked journal reopened with %d events, want the %d acknowledged", len(got), len(journaled))
	}
	evs, _, fp := finishStream(t, d, f, nil)
	if !reflect.DeepEqual(evs, refEvents) || fp != refFP {
		t.Fatalf("finished with %d events and fingerprint %.16s, uninterrupted %d and %.16s", len(evs), fp, len(refEvents), refFP)
	}
}

// TestEventJournalDropsSupersededCheckpoints: the event journal is
// compacted once its superseded checkpoints outweigh both a segment and the rest of it, so after a refresh they
// never do, across a kill and reopen too; the stream finishes with the
// uninterrupted run's events and result.
func TestEventJournalDropsSupersededCheckpoints(t *testing.T) {
	world, f, cfg := restoreSetup(t, 1)
	refEvents, refFP := runStream(t, t.TempDir(), world, f, cfg)
	cfg.SegmentBytes = 4 << 10
	dir := t.TempDir()
	var compactions int64
	// check holds the daemon's count of superseded checkpoint bytes to
	// the journal's and the journal to the bound.
	check := func(d *Daemon, seq int64) {
		d.mu.Lock()
		defer d.mu.Unlock()
		var all, last int64
		if err := d.events.Replay(func(payload []byte) error {
			if payload[0] == frameRefresh {
				last = frameBytes(payload)
				all += last
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if d.superseded != all-last {
			t.Fatalf("after round %d the daemon counts %d superseded checkpoint bytes, the journal holds %d", seq, d.superseded, all-last)
		}
		usage := d.events.Usage()
		if live := usage.Bytes - d.superseded; d.superseded > max(cfg.SegmentBytes, live) {
			t.Fatalf("after round %d the event journal holds %d bytes of superseded checkpoints beside %d others", seq, d.superseded, live)
		}
		compactions += usage.Compactions
	}
	d, _, err := openWith(t, dir, world, f, cfg, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	// The kill comes late enough that the journal holds superseded
	// checkpoints for the reopen to count.
	kill := f.Rounds() - 4
	lockstep(t, d, f, nil, kill, func(seq int64) { check(d, seq) })
	d.Abort()
	if d.superseded == 0 {
		t.Fatalf("no superseded checkpoint at the kill after round %d", kill-1)
	}
	d, _, err = openWith(t, dir, world, f, cfg, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	check(d, kill-1)
	defer d.Close()
	d.Start()
	lockstep(t, d, f, nil, f.Rounds(), func(seq int64) { check(d, seq) })
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := res.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	evs := d.Events()
	if compactions == 0 {
		t.Fatal("the event journal was never compacted; the bound went untested")
	}
	if !reflect.DeepEqual(evs, refEvents) || fp != refFP {
		t.Fatalf("finished with %d events and fingerprint %.16s, uninterrupted %d and %.16s", len(evs), fp, len(refEvents), refFP)
	}
}
