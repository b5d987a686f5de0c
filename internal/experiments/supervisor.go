package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// SupervisorResult records the self-healing supervisor acceptance study:
// one world run four ways — plain; fully supervised but fault-free;
// under a mid-run observer flap; under injected per-block stalls with
// hedged re-dispatch and a checkpoint journal attached.
type SupervisorResult struct {
	// Blocks is the world size; ProbedBlocks counts blocks with at least
	// one ever-active target (only those reach the prober and advance the
	// breaker tracker).
	Blocks, ProbedBlocks int

	// PlainDuration and CleanDuration time the baseline run and the
	// fault-free supervised run (breakers + hedging + quorum);
	// CleanIdentical reports whether the supervised run reproduced the
	// plain output byte for byte.
	PlainDuration, CleanDuration time.Duration
	CleanIdentical               bool

	// Flap phase: observer FlapObserver goes silent over a window of
	// collection calls. The breaker must open, readmit the observer after
	// it recovers, and flag the blocks analyzed below quorum.
	FlapObserver            int
	FlapTransitions         []string
	FlapOpened, FlapReadmit bool
	FlapShortfalls          int
	FlapDegraded            bool

	// Stall phase: a fraction of blocks stall for StallDelay on their
	// first collection attempt; hedged re-dispatch must keep the wall time
	// under WallBound (2x the unstalled supervised run, floored for toy
	// worlds whose clean run is shorter than a single stall) and journal
	// every block exactly once.
	StallDelay                    time.Duration
	StalledDuration, WallBound    time.Duration
	HedgedBlocks, HedgeWins       int
	JournalEntries, StallAnalyzed int
	WallBounded, ExactlyOnce      bool
}

// String renders the study as text.
func (r *SupervisorResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline supervisor over %d blocks (%d probed):\n", r.Blocks, r.ProbedBlocks)
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "VIOLATED"
	}
	fmt.Fprintf(&b, "  fault-free: plain %v, supervised %v; outputs identical: %s\n",
		r.PlainDuration.Round(time.Millisecond), r.CleanDuration.Round(time.Millisecond),
		verdict(r.CleanIdentical))
	fmt.Fprintf(&b, "  flap of observer %d: opened=%v readmitted=%v shortfall blocks=%d degraded=%v\n",
		r.FlapObserver, r.FlapOpened, r.FlapReadmit, r.FlapShortfalls, r.FlapDegraded)
	for _, tx := range r.FlapTransitions {
		fmt.Fprintf(&b, "    %s\n", tx)
	}
	fmt.Fprintf(&b, "  stalls of %v: run took %v (bound %v: %s), %d hedges / %d hedge wins\n",
		r.StallDelay.Round(time.Millisecond), r.StalledDuration.Round(time.Millisecond),
		r.WallBound.Round(time.Millisecond), verdict(r.WallBounded), r.HedgedBlocks, r.HedgeWins)
	fmt.Fprintf(&b, "  journal: %d entries for %d analyzed blocks (exactly-once: %s)\n",
		r.JournalEntries, r.StallAnalyzed, verdict(r.ExactlyOnce))
	return b.String()
}

// fingerprintSansObservers digests a result with every per-block
// contributing-observer count zeroed, so supervised runs (which record
// them when a quorum is set) compare against plain runs byte for byte.
func fingerprintSansObservers(res *core.WorldResult) (string, error) {
	blocks := append([]core.BlockOutcome(nil), res.Blocks...)
	for i := range blocks {
		blocks[i].Observers = 0
	}
	return (&core.WorldResult{Blocks: blocks, Report: res.Report}).Fingerprint()
}

// Supervisor is the self-healing supervisor acceptance experiment. It
// asserts the three contracts of the runtime supervision layer: (1)
// fault-free supervision is byte-identical to the plain pipeline, (2) a
// mid-run observer flap trips that observer's breaker, flags the
// under-quorum blocks, and readmits the observer once it recovers, and
// (3) injected per-block stalls are rescued by hedged re-dispatch fast
// enough to keep wall time bounded, with exactly one journal entry per
// block despite double completions. A non-nil error means a contract is
// broken (or the harness could not run at all).
func Supervisor(opts Options) (*SupervisorResult, error) {
	start, end := q1Window()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   opts.blocks(160),
		Seed:     opts.seed() + 41,
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
	const observers = 4
	eng := &probe.Engine{Observers: probe.StandardObservers(observers), QuarterSeed: opts.seed()}

	res := &SupervisorResult{Blocks: len(world)}
	for _, wb := range world {
		if len(wb.EverActive()) > 0 {
			res.ProbedBlocks++
		}
	}
	if res.ProbedBlocks < 24 {
		return nil, fmt.Errorf("only %d of %d blocks have ever-active targets; world too small for the flap schedule", res.ProbedBlocks, len(world))
	}

	// Phase 1: the plain baseline, timed.
	t0 := time.Now()
	plain, err := (&core.Pipeline{Config: cfg, Engine: eng}).Run(context.Background(), world)
	if err != nil {
		return nil, fmt.Errorf("plain run: %w", err)
	}
	res.PlainDuration = time.Since(t0)
	want, err := plain.Fingerprint()
	if err != nil {
		return nil, err
	}

	// Phase 2: the full supervisor on a clean measurement plane. This is
	// the determinism contract — supervision may only change how blocks
	// are scheduled and policed, never what they compute.
	breaker := health.DefaultBreaker()
	hedge := health.DefaultHedge()
	t0 = time.Now()
	clean, err := (&core.Pipeline{
		Config:          cfg,
		Engine:          eng,
		ExcludeSuspects: true,
		Breaker:         &breaker,
		Hedge:           &hedge,
		Quorum:          2,
	}).Run(context.Background(), world)
	if err != nil {
		return nil, fmt.Errorf("supervised clean run: %w", err)
	}
	res.CleanDuration = time.Since(t0)
	got, err := fingerprintSansObservers(clean)
	if err != nil {
		return nil, err
	}
	res.CleanIdentical = got == want
	if !res.CleanIdentical {
		return res, fmt.Errorf("supervised fault-free run diverged from plain run: %s != %s", got[:16], want[:16])
	}
	if n := len(clean.Report.BreakerTransitions); n != 0 {
		return res, fmt.Errorf("fault-free run tripped breakers: %v", clean.Report.BreakerTransitions)
	}

	// Phase 3: a mid-run observer flap. The schedule scales with the
	// probed-block count n: only blocks with targets reach the prober, so
	// n — not the world size — is the tracker's clock. One worker makes
	// collection order the world order, so the window is deterministic.
	n := res.ProbedBlocks
	res.FlapObserver = observers - 1
	flapFrom := max(6, n/8)
	flapTo := flapFrom + max(8, n/4)
	flapEng := &faults.Engine{
		Inner: eng,
		Plan: &faults.Plan{
			Seed:  opts.seed() + 43,
			Flaps: []faults.Flap{{Observer: res.FlapObserver, FromCall: flapFrom, ToCall: flapTo}},
		},
	}
	flap, err := (&core.Pipeline{
		Config:  cfg,
		Engine:  flapEng,
		Workers: 1,
		Breaker: &health.BreakerConfig{
			Alpha: 0.5, Tol: 0.2, MinSamples: 4,
			Cooldown:  max(3, n/16),
			Probation: max(2, n/32),
		},
		Quorum: observers,
	}).Run(context.Background(), world)
	if err != nil {
		return res, fmt.Errorf("flap run: %w", err)
	}
	if flap.Report.AnalyzedBlocks != len(world) {
		return res, fmt.Errorf("flap failed blocks: analyzed %d of %d", flap.Report.AnalyzedBlocks, len(world))
	}
	for _, tx := range flap.Report.BreakerTransitions {
		res.FlapTransitions = append(res.FlapTransitions, tx.String())
		if tx.From == health.Closed && tx.To == health.Open {
			res.FlapOpened = true
		}
		if tx.From == health.HalfOpen && tx.To == health.Closed {
			res.FlapReadmit = true
		}
	}
	res.FlapShortfalls = len(flap.Report.QuorumShortfalls)
	res.FlapDegraded = flap.Report.Degraded()
	if !res.FlapOpened {
		return res, fmt.Errorf("breaker never opened under flap (calls %d..%d of %d); scores %v",
			flapFrom, flapTo, n, flap.Report.HealthScores)
	}
	if !res.FlapReadmit {
		return res, fmt.Errorf("recovered observer never readmitted; transitions: %v", res.FlapTransitions)
	}
	if res.FlapShortfalls == 0 {
		return res, fmt.Errorf("no blocks flagged below quorum during the flap")
	}
	if !res.FlapDegraded {
		return res, fmt.Errorf("a run with quorum shortfalls must report Degraded")
	}

	// Phase 4: per-block stalls, hedged re-dispatch, and a checkpoint
	// journal. The stall delay dwarfs the clean run, so without hedging a
	// single stalled block would blow the wall-time bound by itself.
	res.StallDelay = 8 * res.CleanDuration
	if res.StallDelay < 2*time.Second {
		res.StallDelay = 2 * time.Second
	}
	if res.StallDelay > 20*time.Second {
		res.StallDelay = 20 * time.Second
	}
	// The bound is 2x the unstalled supervised run. On toy worlds the
	// clean run can be shorter than scheduler noise, so the bound is
	// floored at clean + 1s — still far below the cost of even one
	// unrescued stall.
	res.WallBound = 2 * res.CleanDuration
	if floor := res.CleanDuration + time.Second; res.WallBound < floor {
		res.WallBound = floor
	}
	dir, err := os.MkdirTemp("", "diurnal-supervisor")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cp, err := core.OpenCheckpoint(filepath.Join(dir, "hedged.ckpt"))
	if err != nil {
		return nil, err
	}
	defer cp.Close()
	stallEng := &faults.Engine{
		Inner: eng,
		Plan: &faults.Plan{
			Seed:  opts.seed() + 47,
			Stall: &faults.Stall{Prob: 0.1, Delay: res.StallDelay, Attempts: 1, FromCall: 8},
		},
	}
	t0 = time.Now()
	stalled, err := (&core.Pipeline{
		Config:     cfg,
		Engine:     stallEng,
		Workers:    4,
		Checkpoint: cp,
		// A tight deadline (1.5x p95) and one hedge slot per worker keep
		// the rescue overhead small next to the 2x wall-time bound; a
		// false hedge on a merely slow block is wasted work, never wrong
		// output.
		Hedge: &health.HedgeConfig{
			Multiplier:    1.5,
			MinSamples:    4,
			MinDeadline:   10 * time.Millisecond,
			MaxConcurrent: 4,
			Poll:          2 * time.Millisecond,
		},
	}).Run(context.Background(), world)
	if err != nil {
		return res, fmt.Errorf("stalled run: %w", err)
	}
	res.StalledDuration = time.Since(t0)
	res.HedgedBlocks = stalled.Report.HedgedBlocks
	res.HedgeWins = stalled.Report.HedgeWins
	res.JournalEntries = cp.Entries()
	res.StallAnalyzed = stalled.Report.AnalyzedBlocks
	res.WallBounded = res.StalledDuration < res.WallBound
	res.ExactlyOnce = res.JournalEntries == res.StallAnalyzed
	if res.HedgedBlocks == 0 {
		return res, fmt.Errorf("stall injection triggered no hedges")
	}
	if got, err := fingerprintSansObservers(stalled); err != nil {
		return res, err
	} else if got != want {
		return res, fmt.Errorf("hedged stalled run diverged from plain run: %s != %s", got[:16], want[:16])
	}
	if !res.ExactlyOnce {
		return res, fmt.Errorf("journal holds %d entries for %d analyzed blocks: hedging double-journaled", res.JournalEntries, res.StallAnalyzed)
	}
	if !res.WallBounded {
		return res, fmt.Errorf("hedging failed to bound wall time: %v >= %v (clean run %v, stall %v)",
			res.StalledDuration, res.WallBound, res.CleanDuration, res.StallDelay)
	}
	return res, nil
}
