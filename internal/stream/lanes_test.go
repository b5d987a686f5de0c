package stream

// A refresh analyzes its blocks on several lanes and then numbers their
// events in block order. These tests pin the two promises that split
// makes: the lane count changes nothing the detector computes, and a
// kernel panic costs its block one BlockError per refresh instead of the
// daemon.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/faults"
)

// detectorRun is what one detector computed over a whole stream.
type detectorRun struct {
	events []Event
	stats  detSnapshot
	fp     string
	res    *core.WorldResult
	det    *detector
}

// runDetector ingests every round of f into a fresh detector with the
// given lane count and per-block hook.
func runDetector(t *testing.T, world []*dataset.WorldBlock, f *Feeder, cfg Config, lanes int, hook func(b int)) detectorRun {
	t.Helper()
	det := testDetector(t, cfg, world, f.Observers(), lanes)
	det.hookBlock = hook
	var run detectorRun
	for seq := int64(0); seq < f.Rounds(); seq++ {
		r, err := f.Round(seq)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := det.ingest(r)
		if err != nil {
			t.Fatalf("lanes %d: round %d: %v", lanes, seq, err)
		}
		run.events = append(run.events, evs...)
	}
	res, err := det.result()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := res.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	run.stats, run.fp, run.res, run.det = snapshotDet(det), fp, res, det
	return run
}

// sameRun fails the test unless got computed exactly what want did.
func sameRun(t *testing.T, label string, got, want detectorRun) {
	t.Helper()
	if len(got.events) != len(want.events) {
		t.Fatalf("%s: %d events, want %d", label, len(got.events), len(want.events))
	}
	for i := range got.events {
		if got.events[i] != want.events[i] {
			t.Fatalf("%s: event %d differs:\n  got  %+v\n  want %+v", label, i, got.events[i], want.events[i])
		}
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("%s: counters %+v, want %+v", label, got.stats, want.stats)
	}
	if got.fp != want.fp {
		t.Errorf("%s: fingerprint %s, want %s", label, got.fp[:16], want.fp[:16])
	}
}

// TestRefreshLanesInvariance: one lane, two, three and more lanes than
// blocks journal the same events, counters and result, on a faulty world
// and on a world with a lying observer and the integrity firewall armed.
func TestRefreshLanesInvariance(t *testing.T) {
	start, _ := testWindow()
	faulty := func(t *testing.T) ([]*dataset.WorldBlock, *Feeder, Config) {
		world := testWorld(t, 6, 77)
		cfg := testConfig()
		eng := &faults.Engine{Inner: testEngine(7), Plan: faults.DefaultPlan(3, 0.5, start, 19)}
		return world, testFeeder(t, eng, world, cfg), cfg
	}
	attacked := func(t *testing.T) ([]*dataset.WorldBlock, *Feeder, Config) {
		world := testWorld(t, 4, 11)
		cfg := byzConfig()
		return world, testFeeder(t, byzEngine(t, "timelie", 3), world, cfg), cfg
	}
	for _, tc := range []struct {
		name  string
		build func(*testing.T) ([]*dataset.WorldBlock, *Feeder, Config)
	}{{"faults", faulty}, {"integrity", attacked}} {
		t.Run(tc.name, func(t *testing.T) {
			world, f, cfg := tc.build(t)
			ref := runDetector(t, world, f, cfg, 1, nil)
			if len(ref.events) == 0 {
				t.Fatal("the one-lane run emitted no events; the invariance check would be vacuous")
			}
			if cfg.Core.Integrity && len(ref.res.Report.GatedStreams) == 0 {
				t.Fatal("the attacked world gated no stream")
			}
			for _, lanes := range []int{2, 3, len(world) + 3} {
				got := runDetector(t, world, f, cfg, lanes, nil)
				if want := min(lanes, len(world)); len(got.det.lanes) != want {
					t.Fatalf("%d lanes requested over %d blocks: detector runs %d, want %d", lanes, len(world), len(got.det.lanes), want)
				}
				sameRun(t, fmt.Sprintf("%d lanes", lanes), got, ref)
			}
		})
	}

	// A WAL written by a one-lane daemon reopens under four lanes: Open's
	// replay regenerates the journaled prefix exactly, and the finished
	// stream journals the one-lane detector's events.
	t.Run("reopen", func(t *testing.T) {
		world, f, cfg := faulty(t)
		ref := runDetector(t, world, f, cfg, 1, nil)
		dir := t.TempDir()
		ctx := context.Background()
		d, err := open(dir, world, f.Observers(), cfg, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		for seq := int64(0); seq < 2*f.Rounds()/3; seq++ {
			r, err := f.Round(seq)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Ingest(ctx, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		before := d.Events()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if len(before) == 0 {
			t.Fatal("no events journaled before the reopen; the prefix check would be vacuous")
		}
		d, err = open(dir, world, f.Observers(), cfg, 4, nil)
		if err != nil {
			t.Fatalf("reopening a one-lane WAL under four lanes: %v", err)
		}
		if got := d.Events(); !reflect.DeepEqual(got, before) {
			t.Fatalf("reopened under four lanes with %d journaled events, want the %d written", len(got), len(before))
		}
		d.Start()
		if err := f.Feed(ctx, d); err != nil {
			t.Fatal(err)
		}
		if err := d.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		evs := d.Events()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(evs, ref.events) {
			t.Fatalf("four-lane resume journaled %d events, one-lane detector %d, or they differ", len(evs), len(ref.events))
		}
	})
}

// TestRefreshPanicIsBlockError: a kernel panic on one block becomes a
// core.PanicError for that block at every refresh. The stream keeps
// going, the other blocks emit exactly what they emit in a clean run, and
// a daemon killed half way resumes to the same events and BlockErrors.
func TestRefreshPanicIsBlockError(t *testing.T) {
	world := testWorld(t, 6, 77)
	cfg := testConfig()
	f := testFeeder(t, testEngine(7), world, cfg)
	const poisoned = 2
	hook := func(b int) {
		if b == poisoned {
			panic("poisoned block")
		}
	}

	clean := runDetector(t, world, f, cfg, 1, nil)
	sick := runDetector(t, world, f, cfg, 2, hook)
	var pe *core.PanicError
	if !errors.As(sick.det.errs[poisoned], &pe) || pe.Value != "poisoned block" || len(pe.Stack) == 0 {
		t.Fatalf("poisoned block's error %v, want a PanicError with its stack", sick.det.errs[poisoned])
	}
	for b, err := range sick.det.errs {
		if b != poisoned && err != nil {
			t.Errorf("healthy block %d failed: %v", b, err)
		}
	}
	if sick.stats.blockErrs != sick.stats.refreshes || sick.stats.refreshes == 0 {
		t.Errorf("%d block errors over %d refreshes, want one per refresh", sick.stats.blockErrs, sick.stats.refreshes)
	}
	if a := sick.res.Blocks[poisoned].Analysis; a != nil {
		t.Errorf("poisoned block has an analysis in the result")
	}
	// Every other block's events are the clean run's, renumbered.
	healthy := func(evs []Event) []Event {
		var out []Event
		for _, ev := range evs {
			if ev.Block != poisoned {
				ev.Seq = 0
				out = append(out, ev)
			}
		}
		return out
	}
	if want := healthy(clean.events); len(want) == 0 {
		t.Fatal("the healthy blocks emit no events; the check would be vacuous")
	} else if got := healthy(sick.events); !reflect.DeepEqual(got, want) {
		t.Fatalf("healthy blocks emitted %d events beside the poisoned one, %d in the clean run, or they differ", len(got), len(want))
	}

	// The daemon: one uninterrupted life, then a life killed half way
	// and resumed under another lane count.
	ctx := context.Background()
	d, err := open(t.TempDir(), world, f.Observers(), cfg, 2, hook)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	if err := f.Feed(ctx, d); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("the daemon stopped on a kernel panic: %v", err)
	}
	refEvents, refStats := d.Events(), d.Stats()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refEvents, sick.events) || refStats.BlockErrors != sick.stats.blockErrs {
		t.Fatalf("daemon journaled %d events and %d block errors, detector %d and %d",
			len(refEvents), refStats.BlockErrors, len(sick.events), sick.stats.blockErrs)
	}

	dir := t.TempDir()
	d, err = open(dir, world, f.Observers(), cfg, 2, hook)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	for seq := int64(0); seq < f.Rounds()/2; seq++ {
		r, err := f.Round(seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Ingest(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	d.Abort()
	d, err = open(dir, world, f.Observers(), cfg, 3, hook)
	if err != nil {
		t.Fatalf("reopening after a kill: %v", err)
	}
	d.Start()
	if err := f.Feed(ctx, d); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	evs, st := d.Events(), d.Stats()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, refEvents) {
		t.Errorf("resumed daemon journaled %d events, uninterrupted %d, or they differ", len(evs), len(refEvents))
	}
	if st.BlockErrors != refStats.BlockErrors || st.Refreshes != refStats.Refreshes {
		t.Errorf("resumed daemon counted %d block errors over %d refreshes, uninterrupted %d over %d",
			st.BlockErrors, st.Refreshes, refStats.BlockErrors, refStats.Refreshes)
	}
}
