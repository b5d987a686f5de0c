package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/shard"
)

// ShardFailoverResult records the sharded-run acceptance experiment: one
// world with deterministic poison blocks is analyzed by a single process
// (the reference), then by a fleet of lease-fenced shard workers where
// the first leaseholder is killed mid-shard and, separately, where a
// worker stalls its lease renewals while continuing to compute. Both
// sharded legs must merge to the reference fingerprint with a clean
// cross-shard audit and the poison blocks dead-lettered exactly once.
type ShardFailoverResult struct {
	// Blocks, Shards, Workers describe the scale.
	Blocks, Shards, Workers int
	// PoisonBlocks is how many blocks the injected fault plan poisons
	// (deterministic panic on every collection attempt).
	PoisonBlocks int
	// KillAfter is the crashed worker's collection budget before its
	// process dies (context cancelled, lease left to rot).
	KillAfter int
	// InheritedBlocks counts blocks the surviving workers restored from
	// the dead leaseholder's journal instead of re-analyzing.
	InheritedBlocks int
	// Journals and DuplicateFrames come from the crash leg's audit: more
	// journals than shards proves a takeover under a higher fencing token
	// happened; duplicates must be zero (the dead worker wrote nothing
	// after the takeover).
	Journals, DuplicateFrames int
	// DeadLetters is the quarantine manifest size after the crash leg;
	// DeadLettersExact reports it matches the expected poison set exactly
	// once each.
	DeadLetters      int
	DeadLettersExact bool
	// Identical reports the crash leg's merged fingerprint equals the
	// single-process reference.
	Identical bool
	// Fingerprint and MergedFingerprint are the two digests.
	Fingerprint, MergedFingerprint string

	// The stall leg: a worker whose lease renewals are suppressed (it
	// keeps computing) is fenced by a takeover; its late journal appends
	// must be rejected, not duplicated into the result.
	//
	// StallFenced counts shards the stalled worker abandoned on
	// core.ErrFenced; StallDuplicates counts identical frames the audit
	// tolerated (a fenced append racing the takeover's seed scan);
	// StallConflicts must be zero.
	StallFenced, StallDuplicates, StallConflicts int
	// StallIdentical reports the stall leg's merged fingerprint equals
	// the reference.
	StallIdentical bool
}

// String renders the experiment as text.
func (r *ShardFailoverResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shard failover over %d blocks, %d shards, %d workers, %d poison blocks:\n",
		r.Blocks, r.Shards, r.Workers, r.PoisonBlocks)
	fmt.Fprintf(&b, "  crash leg: leaseholder killed after %d collections; takeover inherited %d journaled blocks\n",
		r.KillAfter, r.InheritedBlocks)
	fmt.Fprintf(&b, "  %d journals across %d shards (>%d proves fenced takeover), %d duplicate frames\n",
		r.Journals, r.Shards, r.Shards, r.DuplicateFrames)
	exact := "exactly once each"
	if !r.DeadLettersExact {
		exact = "MISMATCHED"
	}
	fmt.Fprintf(&b, "  dead letters: %d quarantined, %s\n", r.DeadLetters, exact)
	verdict := "IDENTICAL"
	if !r.Identical {
		verdict = "DIVERGED"
	}
	fmt.Fprintf(&b, "  reference %s\n  merged    %s\n  => %s\n",
		r.Fingerprint[:16], r.MergedFingerprint[:16], verdict)
	stall := "IDENTICAL"
	if !r.StallIdentical {
		stall = "DIVERGED"
	}
	fmt.Fprintf(&b, "  stall leg: %d shard(s) abandoned on fencing, %d duplicate frames tolerated, %d conflicts => %s\n",
		r.StallFenced, r.StallDuplicates, r.StallConflicts, stall)
	return b.String()
}

// slowProber delays every collection, stretching a shard's wall-clock so
// a stalled lease reliably expires mid-shard.
type slowProber struct {
	inner core.Prober
	delay time.Duration
}

func (p *slowProber) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error) {
	select {
	case <-ctx.Done():
		return bufs, ctx.Err()
	case <-time.After(p.delay):
	}
	return p.inner.CollectInto(ctx, b, start, end, bufs)
}

// ShardFailover is the sharded-run acceptance experiment. A non-nil error
// means the lease-fencing / dead-letter / merge-audit contract is broken.
func ShardFailover(opts Options) (*ShardFailoverResult, error) {
	start, end := q1Window()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   opts.blocks(96),
		Seed:     opts.seed() + 57,
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
	eng := &probe.Engine{Observers: probe.StandardObservers(2), QuarterSeed: opts.seed()}

	// Deterministic poison: the same blocks panic on every attempt, in
	// every process — the precondition for an exactly-once manifest.
	poison := &faults.Poison{Prob: 0.1}
	faulty := &faults.Engine{Inner: eng, Plan: &faults.Plan{Seed: opts.seed(), Poison: poison}}
	expectPoison := map[int]bool{}
	for i, wb := range world {
		// Blocks with no ever-active targets never reach the prober, so
		// the poison cannot fire for them.
		if poison.Selects(opts.seed(), wb.ID) && len(wb.Block.EverActive()) > 0 {
			expectPoison[i] = true
		}
	}
	if len(expectPoison) == 0 {
		return nil, fmt.Errorf("poison plan selected no responsive blocks; raise -blocks")
	}

	res := &ShardFailoverResult{
		Blocks:       len(world),
		Shards:       3,
		Workers:      3,
		PoisonBlocks: len(expectPoison),
		KillAfter:    len(world) / 8,
	}

	dir, err := os.MkdirTemp("", "diurnal-shardfailover")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Reference: one process, one quarantine store, no sharding.
	refDL, err := shard.OpenDeadLetters(filepath.Join(dir, "ref-deadletter"))
	if err != nil {
		return nil, err
	}
	ref, err := (&core.Pipeline{Config: cfg, Engine: faulty, DeadLetter: refDL}).Run(context.Background(), world)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if res.Fingerprint, err = ref.Fingerprint(); err != nil {
		return nil, err
	}
	if got := len(ref.Report.DeadLettered); got != len(expectPoison) {
		return nil, fmt.Errorf("reference run dead-lettered %d blocks, poison plan expects %d", got, len(expectPoison))
	}

	sig := core.RunSignature(cfg, world)

	// ---- Crash leg: kill the first leaseholder mid-shard. ----
	ledger, err := shard.Create(filepath.Join(dir, "crash-ledger"), sig, len(world), res.Shards,
		shard.Options{TTL: 250 * time.Millisecond, Poll: 10 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	// Worker 1 runs alone first and dies: its prober cancels the worker's
	// whole context after KillAfter collections — kill -9 as the ledger
	// sees it (no lease release, no journal close, a torn tail possible).
	killCtx, kill := context.WithCancel(context.Background())
	defer kill()
	w1 := &shard.Worker{
		ID:     "w1",
		Ledger: ledger,
		Config: cfg,
		Engine: &faults.WorkerCrash{Inner: faulty, Kill: kill, AfterCollections: res.KillAfter},
		World:  world,
	}
	if _, err := w1.Run(killCtx); err == nil {
		return nil, fmt.Errorf("killed worker finished cleanly; kill budget %d never fired", res.KillAfter)
	}

	// Workers 2 and 3 arrive after the crash, drain the remaining shards,
	// wait out the dead lease, and take over its shard under token 2.
	var wg sync.WaitGroup
	reports := make([]*shard.Report, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &shard.Worker{
				ID:     fmt.Sprintf("w%d", i+2),
				Ledger: ledger,
				Config: cfg,
				Engine: faulty,
				World:  world,
			}
			reports[i], errs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("surviving worker %d: %w", i+2, err)
		}
		res.InheritedBlocks += reports[i].Resumed
	}

	merged, audit, err := ledger.Merge(cfg, world)
	if err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	res.Journals = audit.Journals
	res.DuplicateFrames = audit.DuplicateFrames
	res.DeadLetters = audit.DeadLetters
	if !audit.Clean() {
		return res, fmt.Errorf("crash-leg audit failed:\n%s", audit)
	}
	if res.Journals <= res.Shards {
		return res, fmt.Errorf("only %d journals for %d shards; the takeover never happened", res.Journals, res.Shards)
	}
	if res.InheritedBlocks == 0 {
		return res, fmt.Errorf("takeover re-analyzed everything; the dead worker's journal was not inherited")
	}
	if res.DuplicateFrames != 0 {
		return res, fmt.Errorf("crash leg accepted %d duplicate journal frames", res.DuplicateFrames)
	}
	if res.MergedFingerprint, err = merged.Fingerprint(); err != nil {
		return res, err
	}
	res.Identical = res.MergedFingerprint == res.Fingerprint
	if !res.Identical {
		return res, fmt.Errorf("sharded result diverged from single-process reference:\n%s", res)
	}
	res.DeadLettersExact = deadLettersMatch(ledger, expectPoison)
	if !res.DeadLettersExact {
		return res, fmt.Errorf("dead-letter manifest does not match the poison plan exactly once each:\n%s", res)
	}

	// ---- Stall leg: a worker computes on while its lease rots. ----
	stallLedger, err := shard.Create(filepath.Join(dir, "stall-ledger"), sig, len(world), res.Shards,
		shard.Options{TTL: 150 * time.Millisecond, Poll: 10 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	stall := &faults.LeaseStall{AllowRenewals: 0}
	var swg sync.WaitGroup
	var stallRep, liveRep *shard.Report
	var stallErr, liveErr error
	swg.Add(1)
	go func() {
		defer swg.Done()
		// Single-threaded and slowed, so its first shard takes far longer
		// than the TTL it never renews.
		w := &shard.Worker{
			ID:        "w-stall",
			Ledger:    stallLedger,
			Config:    cfg,
			Engine:    &slowProber{inner: faulty, delay: 40 * time.Millisecond},
			World:     world,
			Workers:   1,
			RenewGate: stall.Allow,
		}
		stallRep, stallErr = w.Run(context.Background())
	}()
	// The healthy worker starts late enough that the stalled worker holds
	// a shard first, then sweeps everything — including the stalled
	// worker's shard once its lease expires.
	time.Sleep(50 * time.Millisecond)
	swg.Add(1)
	go func() {
		defer swg.Done()
		w := &shard.Worker{ID: "w-live", Ledger: stallLedger, Config: cfg, Engine: faulty, World: world}
		liveRep, liveErr = w.Run(context.Background())
	}()
	swg.Wait()
	if stallErr != nil {
		return res, fmt.Errorf("stalled worker: %w", stallErr)
	}
	if liveErr != nil {
		return res, fmt.Errorf("healthy worker: %w", liveErr)
	}
	_ = liveRep
	res.StallFenced = stallRep.Fenced
	if res.StallFenced == 0 {
		return res, fmt.Errorf("stalled worker was never fenced; the lease-stall scenario did not engage")
	}
	stallMerged, stallAudit, err := stallLedger.Merge(cfg, world)
	if err != nil {
		return res, fmt.Errorf("stall-leg merge: %w", err)
	}
	res.StallDuplicates = stallAudit.DuplicateFrames
	res.StallConflicts = len(stallAudit.Conflicts)
	if !stallAudit.Clean() {
		return res, fmt.Errorf("stall-leg audit failed:\n%s", stallAudit)
	}
	sfp, err := stallMerged.Fingerprint()
	if err != nil {
		return res, err
	}
	res.StallIdentical = sfp == res.Fingerprint
	if !res.StallIdentical {
		return res, fmt.Errorf("stall-leg result diverged from reference:\n%s", res)
	}
	if !deadLettersMatch(stallLedger, expectPoison) {
		return res, fmt.Errorf("stall-leg dead-letter manifest does not match the poison plan")
	}
	return res, nil
}

// deadLettersMatch reports whether the ledger's quarantine manifest holds
// exactly the expected global indices, once each.
func deadLettersMatch(l *shard.Ledger, expect map[int]bool) bool {
	entries, faults := l.DeadLetters().Entries()
	if len(faults) != 0 || len(entries) != len(expect) {
		return false
	}
	seen := map[int]bool{}
	for _, e := range entries {
		if !expect[e.Index] || seen[e.Index] {
			return false
		}
		seen[e.Index] = true
	}
	return true
}
