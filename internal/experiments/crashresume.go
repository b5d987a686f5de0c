package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/diurnalnet/diurnal/internal/chaos"
	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// CrashResumeResult records the kill-and-resume robustness check: one
// world is analyzed uninterrupted, then again with the run killed partway
// through and resumed from its checkpoint journal, and the two results
// are compared byte-for-byte (via WorldResult.Fingerprint).
type CrashResumeResult struct {
	// Blocks is the world size.
	Blocks int
	// KillAfter is how many completed block collections the interrupted
	// run survived before its context was canceled.
	KillAfter int
	// JournaledAtCrash is how many finished blocks the checkpoint journal
	// held when the run died.
	JournaledAtCrash int
	// ResumedFromJournal is how many blocks the second run restored from
	// the journal instead of re-analyzing.
	ResumedFromJournal int
	// InterruptedErr is the error the killed run returned.
	InterruptedErr string
	// Identical reports whether the resumed result's fingerprint matches
	// the uninterrupted run's — the crash-safety contract.
	Identical bool
	// Fingerprint and ResumedFingerprint are the two result digests.
	Fingerprint, ResumedFingerprint string

	// The hedged phase repeats the crash with straggler hedging tuned so
	// aggressively that hedges fire even on a healthy world, checking the
	// two machines compose: a crash cannot make a hedged double
	// completion journal twice.
	//
	// HedgedJournaledAtCrash is how many frames the hedged run appended
	// before it died; HedgedDuplicates is how many of those were repeat
	// frames for an already-journaled block (must be zero).
	HedgedJournaledAtCrash, HedgedDuplicates int
	// HedgedResumed and HedgedHedges count blocks restored from the
	// journal and hedges fired during the resumed leg.
	HedgedResumed, HedgedHedges int
	// HedgedIdentical reports whether the hedged kill-and-resume ended at
	// the uninterrupted fingerprint.
	HedgedIdentical bool
}

// String renders the check as text.
func (r *CrashResumeResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kill-and-resume over %d blocks:\n", r.Blocks)
	fmt.Fprintf(&b, "  killed after %d block collections; journal held %d finished blocks\n",
		r.KillAfter, r.JournaledAtCrash)
	fmt.Fprintf(&b, "  interrupted run returned: %s\n", r.InterruptedErr)
	fmt.Fprintf(&b, "  resumed run restored %d blocks from the journal\n", r.ResumedFromJournal)
	verdict := "IDENTICAL"
	if !r.Identical {
		verdict = "DIVERGED"
	}
	fmt.Fprintf(&b, "  uninterrupted %s\n  resumed       %s\n  => %s\n",
		r.Fingerprint[:16], r.ResumedFingerprint[:16], verdict)
	hedged := "IDENTICAL"
	if !r.HedgedIdentical {
		hedged = "DIVERGED"
	}
	fmt.Fprintf(&b, "  hedged crash: %d frames journaled (%d duplicates), resumed %d blocks, %d hedges => %s\n",
		r.HedgedJournaledAtCrash, r.HedgedDuplicates, r.HedgedResumed, r.HedgedHedges, hedged)
	return b.String()
}

// CrashResume is the checkpoint/resume acceptance experiment. It runs one
// world three ways — uninterrupted; killed partway with a checkpoint
// journal attached; resumed from that journal — and asserts the resumed
// result is identical to the uninterrupted one. A non-nil error means the
// crash-safety contract is broken (or the harness could not run at all).
func CrashResume(opts Options) (*CrashResumeResult, error) {
	start, end := q1Window()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   opts.blocks(160),
		Seed:     opts.seed() + 31,
		Calendar: events.Year2020(),
		Start:    start,
		End:      end,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(start, end)
	cfg.BaselineStart = start
	cfg.BaselineEnd = netsim.Date(2020, time.January, 29)
	eng := &probe.Engine{Observers: probe.StandardObservers(4), QuarterSeed: opts.seed()}

	// Reference: the uninterrupted run.
	full, err := (&core.Pipeline{Config: cfg, Engine: eng}).Run(context.Background(), world)
	if err != nil {
		return nil, fmt.Errorf("uninterrupted run: %w", err)
	}
	want, err := full.Fingerprint()
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "diurnal-crashresume")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &CrashResumeResult{
		Blocks:      len(world),
		KillAfter:   len(world) / 4,
		Fingerprint: want,
	}

	// Killed after KillAfter collections, exactly as a signal would
	// cancel the run, with the journal attached; then resumed by a fresh
	// pipeline from the same journal.
	leg, err := chaos.BatchKillResume(context.Background(), core.Pipeline{Config: cfg, Engine: eng}, world,
		filepath.Join(dir, "run.ckpt"), res.KillAfter, want)
	res.InterruptedErr, res.JournaledAtCrash = leg.InterruptedErr, leg.Journaled
	res.ResumedFromJournal, res.ResumedFingerprint = leg.Resumed, leg.Fingerprint
	if err != nil {
		return res, fmt.Errorf("kill-and-resume: %w", err)
	}
	res.Identical = true

	// Hedged crash: the same kill with straggler hedging tuned so hedges
	// fire even on a healthy world (deadline at the p50 after two
	// samples). Hedge double completions and a mid-run kill are the two
	// paths to duplicate journal frames; this leg drives both at once.
	hedge := &health.HedgeConfig{
		Multiplier:  1,
		Quantile:    0.5,
		MinSamples:  2,
		MinDeadline: time.Millisecond,
		Poll:        time.Millisecond,
	}
	leg, err = chaos.BatchKillResume(context.Background(), core.Pipeline{Config: cfg, Engine: eng, Hedge: hedge}, world,
		filepath.Join(dir, "hedged.ckpt"), res.KillAfter, want)
	res.HedgedJournaledAtCrash, res.HedgedDuplicates = leg.Journaled, leg.Duplicates
	res.HedgedResumed, res.HedgedHedges = leg.Resumed, leg.Hedges
	if err != nil {
		return res, fmt.Errorf("hedged kill-and-resume: %w", err)
	}
	res.HedgedIdentical = true
	return res, nil
}
