package core

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/health"
)

// fingerprintIgnoringObservers fingerprints a result with every
// BlockOutcome.Observers zeroed, so supervised runs (which track
// contributing observers) compare against plain runs byte for byte.
func fingerprintIgnoringObservers(t *testing.T, res *WorldResult) string {
	t.Helper()
	blocks := append([]BlockOutcome(nil), res.Blocks...)
	for i := range blocks {
		blocks[i].Observers = 0
	}
	fp, err := (&WorldResult{Blocks: blocks, Report: res.Report}).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestSupervisedFaultFreeRunMatchesPlain is the determinism acceptance
// gate: with no faults injected, enabling the full supervisor (breakers,
// hedging, quorum) must reproduce the plain
// pipeline's output byte for byte.
func TestSupervisedFaultFreeRunMatchesPlain(t *testing.T) {
	world := smallWorld(t, 200, 47)
	eng := engine4()

	plain := &Pipeline{Config: q1Config(), Engine: eng}
	want, err := plain.Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}

	breaker := health.DefaultBreaker()
	hedge := health.DefaultHedge()
	sup := &Pipeline{
		Config:          q1Config(),
		Engine:          eng,
		ExcludeSuspects: true,
		Breaker:         &breaker,
		Hedge:           &hedge,
		Quorum:          2,
	}
	got, err := sup.Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := fingerprintIgnoringObservers(t, want), fingerprintIgnoringObservers(t, got); a != b {
		t.Fatalf("supervised fault-free run diverged from plain run: %s != %s", a, b)
	}
	if n := len(got.Report.BreakerTransitions); n != 0 {
		t.Fatalf("fault-free run must not trip breakers, got %d transitions: %v",
			n, got.Report.BreakerTransitions)
	}
	if got.Report.Degraded() {
		t.Fatalf("fault-free run reported degraded: open=%v shortfalls=%v",
			got.Report.BreakerOpen, got.Report.QuorumShortfalls)
	}
	if len(got.Report.HealthScores) == 0 {
		t.Fatal("supervised run must report final health scores")
	}
}

// TestFlapTripsBreakerAndFlagsQuorum injects a mid-run observer flap:
// the breaker must open (recording the transition), readmit the observer
// after it recovers, and the blocks analyzed below quorum must be
// flagged so the run finishes degraded but complete.
func TestFlapTripsBreakerAndFlagsQuorum(t *testing.T) {
	// Blocks with no ever-active targets never reach the prober and so
	// never advance the tracker; the world is sized so the surviving
	// ~55% of blocks still cover the full trip→cooldown→probation→
	// readmit cycle.
	world := smallWorld(t, 160, 48)
	eng := &faults.Engine{
		Inner: engine4(),
		// Observer 3 goes silent from collection call 12 through 35 — long
		// after any pre-scan would have sampled it, and long enough that
		// the EWMA collapses well below its peers.
		Plan: &faults.Plan{Seed: 7, Flaps: []faults.Flap{{Observer: 3, FromCall: 12, ToCall: 36}}},
	}
	p := &Pipeline{
		Config: q1Config(),
		Engine: eng,
		// One worker makes the commit order the world order, so the flap
		// window maps deterministically onto tracker sequence numbers.
		Workers: 1,
		Breaker: &health.BreakerConfig{Alpha: 0.5, Tol: 0.2, MinSamples: 4, Cooldown: 8, Probation: 4},
		Quorum:  4,
	}
	res, err := p.Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.AnalyzedBlocks != len(world) {
		t.Fatalf("flap must not fail blocks: analyzed %d of %d", res.Report.AnalyzedBlocks, len(world))
	}
	var opened, readmitted bool
	for _, tx := range res.Report.BreakerTransitions {
		if tx.Observer != 3 {
			t.Fatalf("only observer 3 flapped, but observer %d transitioned: %v", tx.Observer, tx)
		}
		if tx.From == health.Closed && tx.To == health.Open {
			opened = true
		}
		if tx.From == health.HalfOpen && tx.To == health.Closed {
			readmitted = true
		}
	}
	if !opened {
		t.Fatalf("breaker never opened under flap; transitions: %v scores: %v",
			res.Report.BreakerTransitions, res.Report.HealthScores)
	}
	if !readmitted {
		t.Fatalf("recovered observer never readmitted; transitions: %v", res.Report.BreakerTransitions)
	}
	if len(res.Report.QuorumShortfalls) == 0 {
		t.Fatal("blocks analyzed during the flap must be flagged below quorum")
	}
	if !res.Report.Degraded() {
		t.Fatal("a run with quorum shortfalls must report Degraded")
	}
}

// TestQuorumFlagsWithoutDropping: the quorum guard only flags. Blocks
// analyzed below quorum keep their analyses and count in the world
// aggregates exactly as in a run with the guard off.
func TestQuorumFlagsWithoutDropping(t *testing.T) {
	world := smallWorld(t, 30, 49)
	run := func(quorum int) *WorldResult {
		eng := &faults.Engine{
			Inner: engine4(),
			Plan:  &faults.Plan{Seed: 7, Flaps: []faults.Flap{{Observer: 3, FromCall: 1}}}, // silent all run
		}
		res, err := (&Pipeline{Config: q1Config(), Engine: eng, Workers: 1, Quorum: quorum}).
			Run(context.Background(), world)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flagged, plain := run(4), run(0)
	if len(flagged.Report.QuorumShortfalls) == 0 {
		t.Fatal("a permanently silent observer must produce quorum shortfalls")
	}
	for _, i := range flagged.Report.QuorumShortfalls {
		if flagged.Blocks[i].Analysis == nil {
			t.Fatalf("flagged block %d lost its analysis", i)
		}
	}
	if a, b := fingerprintIgnoringObservers(t, flagged), fingerprintIgnoringObservers(t, plain); a != b {
		t.Fatalf("the quorum guard changed the blocks: %.16s vs %.16s", a, b)
	}
	if !reflect.DeepEqual(flagged.Cells, plain.Cells) || !reflect.DeepEqual(flagged.CellCS, plain.CellCS) ||
		!reflect.DeepEqual(flagged.ContinentCS, plain.ContinentCS) ||
		!reflect.DeepEqual(flagged.DownDaily, plain.DownDaily) || !reflect.DeepEqual(flagged.UpDaily, plain.UpDaily) {
		t.Fatal("flagged blocks must count in the world aggregates as in an unguarded run")
	}
}

// TestHedgeRescuesStalledBlocks injects per-block collector stalls far
// longer than the test budget and checks that hedged re-dispatch (a) keeps
// the results identical to an unstalled run, (b) actually hedged, and (c)
// journals each block exactly once despite double completions.
func TestHedgeRescuesStalledBlocks(t *testing.T) {
	world := smallWorld(t, 28, 52)
	inner := engine4()

	plain := &Pipeline{Config: q1Config(), Engine: inner}
	want, err := plain.Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := fingerprintIgnoringObservers(t, want)

	eng := &faults.Engine{
		Inner: inner,
		Plan: &faults.Plan{
			Seed: 11,
			// ~1 in 4 blocks stalls for 30s on its first attempt — far past
			// the test deadline unless hedges rescue them. The first 8
			// calls run clean so the latency baseline can arm.
			Stall: &faults.Stall{Prob: 0.25, Delay: 30 * time.Second, Attempts: 1, FromCall: 8},
		},
	}
	cp, err := OpenCheckpoint(filepath.Join(t.TempDir(), "hedged.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	p := &Pipeline{
		Config:     q1Config(),
		Engine:     eng,
		Workers:    4,
		Checkpoint: cp,
		Hedge: &health.HedgeConfig{
			Multiplier:  3,
			MinSamples:  4,
			MinDeadline: 10 * time.Millisecond,
			Poll:        2 * time.Millisecond,
		},
	}
	done := make(chan struct{})
	var res *WorldResult
	go func() {
		defer close(done)
		res, err = p.Run(context.Background(), world)
	}()
	// Generous cap: under the race detector every block is ~10× slower,
	// and the adaptive deadline scales with it. Without hedging the run
	// would need minutes (each stalled block burns its full 30s delay).
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("hedged run did not finish: stalled blocks were never rescued")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.HedgedBlocks == 0 {
		t.Fatal("stall injection should have triggered at least one hedge")
	}
	if got := fingerprintIgnoringObservers(t, res); got != wantFP {
		t.Fatalf("hedged run diverged from plain run: %s != %s", got, wantFP)
	}
	if got, want := cp.Entries(), res.Report.AnalyzedBlocks; got != want {
		t.Fatalf("journal holds %d entries for %d analyzed blocks: hedging double-journaled", got, want)
	}
}
