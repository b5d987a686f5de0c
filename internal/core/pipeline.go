package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
)

// Prober abstracts the probing engine seen by the analysis pipeline.
// *probe.Engine satisfies it directly; internal/faults.Engine wraps one to
// inject measurement-plane failures without the pipeline noticing, and
// dataset.ReplayProber serves archived observations instead of probing.
type Prober interface {
	// CollectInto gathers per-observer record streams for one block over
	// [start, end), reusing bufs (which may be nil), and honors ctx
	// cancellation. See probe.Engine.CollectInto for the buffer contract.
	CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error)
}

// DeadLetterer quarantines poison blocks: blocks whose analysis fails
// permanently (a deterministic panic, a blown per-block deadline, an
// exhausted transient-retry budget, a corrupt archived log) are recorded
// durably and skipped on every later attempt instead of burning their
// retry budget again. internal/shard.DeadLetterStore is the file-backed
// implementation.
type DeadLetterer interface {
	// Lookup reports whether the block is already quarantined, and why.
	Lookup(index int, id netsim.BlockID) (reason string, ok bool)
	// Record quarantines the block with its fault context. Recording the
	// same block twice must be idempotent (first write wins).
	Record(index int, id netsim.BlockID, err error) error
}

// BlockOutcome pairs a block's pipeline result with its placement.
type BlockOutcome struct {
	ID       netsim.BlockID
	Place    geo.Placement
	Analysis *BlockAnalysis
	// Observers is how many observers contributed at least one record to
	// the analysis, recorded only when the pipeline's quorum guard is
	// enabled (Pipeline.Quorum > 0); zero means "not tracked", which is
	// also what blocks resumed from pre-quorum journals report.
	Observers int
}

// BlockError records one block's analysis failure during a world run.
type BlockError struct {
	// Index is the block's position in the input world slice.
	Index int
	ID    netsim.BlockID
	Err   error
}

// Error renders the failure with its block identity.
func (e BlockError) Error() string {
	return fmt.Sprintf("block %d (%s): %v", e.Index, e.ID, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e BlockError) Unwrap() error { return e.Err }

// RunReport describes how a world run degraded: which blocks failed and
// which observers were discarded. A fully healthy run has an empty report.
type RunReport struct {
	// BlockErrors lists per-block failures in world order; the matching
	// WorldResult.Blocks entries carry a nil Analysis. The run continues
	// past them — one sick block no longer aborts the world.
	BlockErrors []BlockError
	// ExcludedObservers are engine observer indices whose record streams
	// were discarded before merging by the §2.7 cross-observer health
	// check — the paper's "sites c and g removed in 2020" decision as
	// code. Nil when the check is disabled or found nothing.
	ExcludedObservers []int
	// ObserverRates are the sampled per-observer reply rates behind the
	// exclusion decision (nil when the check is disabled).
	ObserverRates []float64
	// AnalyzedBlocks counts blocks whose analysis completed.
	AnalyzedBlocks int
	// ResumedBlocks counts blocks restored from the checkpoint journal
	// instead of being re-analyzed (zero without a checkpoint).
	ResumedBlocks int
	// RetriedBlocks counts blocks that needed at least one retry after a
	// transient collection failure.
	RetriedBlocks int
	// BreakerTransitions is the runtime circuit breakers' full state-change
	// log in decision order (nil when Pipeline.Breaker is unset).
	BreakerTransitions []health.Transition
	// BreakerOpen lists observers whose breaker was still open when the
	// run finished — the mid-run analogue of ExcludedObservers.
	BreakerOpen []int
	// HealthScores are the final per-observer EWMA reply-rate scores (nil
	// when Pipeline.Breaker is unset).
	HealthScores []float64
	// HedgedBlocks counts blocks that exceeded the straggler deadline and
	// were re-dispatched; HedgeWins counts hedge attempts that finished
	// before their primary.
	HedgedBlocks, HedgeWins int
	// QuorumShortfalls lists indices of blocks analyzed with fewer than
	// Pipeline.Quorum contributing observers, ascending (nil when the
	// quorum guard is disabled or nothing fell short).
	QuorumShortfalls []int
	// QuarantinedBlocks counts shortfall blocks excluded from world
	// aggregates because QuarantineBelowQuorum was set. Their analyses
	// remain in WorldResult.Blocks for inspection.
	QuarantinedBlocks int
	// DeadLettered lists blocks quarantined through Pipeline.DeadLetter in
	// world order: permanent per-block failures recorded durably and
	// skipped on resume instead of being retried forever. Their
	// WorldResult.Blocks entries carry a nil Analysis, and they do not
	// appear in BlockErrors.
	DeadLettered []BlockError
	// GatedStreams lists observers the data-integrity firewall excluded
	// from at least one block's merge (ascending; nil when
	// Config.Integrity is off or nothing was gated). A gated observer
	// marks the run degraded: its data was judged untrustworthy, not
	// merely missing.
	GatedStreams []int
	// AgreementScores are the per-observer aggregate cross-observer
	// agreement scores (matching votes / compared votes over all
	// committed blocks; 1 for observers with no peer overlap). Nil when
	// Config.Integrity is off.
	AgreementScores []float64
	// IntegrityVerdicts attributes every gated (block, observer) stream
	// with the gate it tripped, ordered by block index then observer.
	// Nil when Config.Integrity is off or nothing was gated.
	IntegrityVerdicts []IntegrityVerdict
}

// Degraded reports whether the run finished in degraded mode: observers
// still tripped out by their breakers, blocks analyzed below the observer
// quorum, blocks dead-lettered out of the run, or observer streams gated
// by the data-integrity firewall. Scripted runs use this (via the exit
// code of diurnalscan scan, daemon and merge) to detect
// partial-confidence output.
func (r *RunReport) Degraded() bool {
	return len(r.BreakerOpen) > 0 || len(r.QuorumShortfalls) > 0 || len(r.DeadLettered) > 0 ||
		len(r.GatedStreams) > 0
}

// WorldResult aggregates a whole-world pipeline run.
type WorldResult struct {
	// Blocks holds per-block outcomes in world order.
	Blocks []BlockOutcome
	// Cells accumulates per-gridcell responsive/change-sensitive counts
	// for coverage analysis (Table 4).
	Cells map[geo.CellKey]*geo.CellStats
	// DownDaily and UpDaily count, per gridcell and UTC day index, how
	// many change-sensitive blocks alarmed in each direction (Figures
	// 8–10 derive from these).
	DownDaily, UpDaily map[geo.CellKey]map[int64]int
	// CellCS is the number of change-sensitive blocks per cell.
	CellCS map[geo.CellKey]int
	// ContinentCS is the change-sensitive block count per continent.
	ContinentCS map[geo.Continent]int
	// Report summarizes degradation during the run (never nil after Run).
	Report *RunReport
}

// Pipeline runs the full analysis over a simulated world.
type Pipeline struct {
	Config Config
	Engine Prober
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// BatchSize is ignored. It used to select a cross-block batched
	// classification pass that measured no faster than the per-block path
	// and was removed (DESIGN §13); the field remains only because
	// bench/scan.go still sets it, and goes when that line does.
	BatchSize int
	// ExcludeSuspects enables the §2.7 cross-observer health check: reply
	// rates are sampled over up to HealthSample blocks and observers
	// flagged by reconstruct.ObserverHealth.Suspect have their streams
	// discarded before merging, reproducing the paper's observer-discard
	// decision.
	ExcludeSuspects bool
	// HealthSample bounds how many blocks the health pre-pass probes
	// (default 64).
	HealthSample int
	// BlockTimeout bounds one block's probe-and-analyze attempt; a block
	// that blows its deadline becomes a BlockError while the run
	// continues. Zero disables per-block deadlines.
	BlockTimeout time.Duration
	// MaxRetries is how many extra attempts a block gets when collection
	// fails with a transient error (see IsTransient). Zero means the
	// default of 2; negative disables retries. Non-transient errors are
	// never retried.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt (default 10ms). Backoff waits honor ctx cancellation.
	RetryBackoff time.Duration
	// Checkpoint, when non-nil, journals every completed block outcome
	// and, on resume, restores journaled blocks instead of re-analyzing
	// them. See OpenCheckpoint.
	Checkpoint *Checkpointer
	// Breaker, when non-nil, enables per-observer runtime circuit
	// breakers: each observer's per-block reply rate feeds an EWMA health
	// score, observers whose score collapses relative to their peers are
	// tripped out of subsequent blocks, and readmitted after cooldown and
	// probation. When ExcludeSuspects is also set, the pre-scan's rates
	// seed the scores and its exclusions start with open breakers, so the
	// static and runtime checks agree from the first block.
	Breaker *health.BreakerConfig
	// Hedge, when non-nil, enables straggler detection: a watchdog tracks
	// completed-block latency quantiles and re-dispatches blocks exceeding
	// the adaptive deadline to a fresh attempt, delivering whichever
	// finishes first (results are identical either way — analysis is
	// deterministic) and journaling exactly once.
	Hedge *health.HedgeConfig
	// DeadLetter, when non-nil, quarantines poison blocks: a block whose
	// analysis fails permanently is recorded there (with its fault
	// context) instead of in Report.BlockErrors, and blocks already
	// quarantined are skipped — never re-analyzed — with the skip recorded
	// in Report.DeadLettered. Blocks interrupted by run-level cancellation
	// are neither: they stay eligible for the resumed run.
	DeadLetter DeadLetterer
	// Quorum, when positive, flags blocks analyzed with fewer than this
	// many contributing observers in Report.QuorumShortfalls.
	Quorum int
	// QuarantineBelowQuorum additionally excludes shortfall blocks from
	// world-level aggregates (their analyses stay in Blocks).
	QuarantineBelowQuorum bool
	// MaxInflight bounds admitted-but-unfinished blocks (default: the
	// worker count — backpressure from the slowest worker, no queue
	// buildup).
	MaxInflight int
	// MemoryBudget, when positive, caps the estimated bytes of in-flight
	// block collections; admission narrows until the estimate fits, so
	// huge worlds cannot OOM the scheduler. See estimateBlockBytes.
	MemoryBudget int64
	// Clock injects time for the hedging watchdog (default wall clock).
	Clock health.Clock
}

// Run probes and analyzes every block, in parallel, and aggregates the
// results. The output is deterministic for a fixed world and config —
// including across a kill-and-resume cycle through Checkpoint.
//
// Per-block failures do not abort the run: worker panics and analysis
// errors are accumulated into the result's Report and the remaining
// blocks are analyzed, so a partial WorldResult covering every healthy
// block is returned. The error is non-nil only when the configuration is
// invalid, the checkpoint journal belongs to a different run, ctx was
// canceled, or every block failed.
//
// Cancellation: when ctx is done the run stops promptly (mid-block via
// the prober's ctx, between blocks via the dispatch loop) and returns the
// partial result with ctx's error. Blocks completed before the
// cancellation are already journaled if a Checkpoint is attached, so a
// later Run with the same checkpoint resumes where this one died.
func (p *Pipeline) Run(ctx context.Context, world []*dataset.WorldBlock) (*WorldResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, err := p.newRun(ctx, world)
	if err != nil {
		return nil, err
	}
	return r.execute(ctx)
}

// run is the state of one Pipeline.Run call: everything resolved once up
// front (config, retry policy, worker count, the engine as wrapped by the
// settle layers) plus the result under construction and the tallies the
// workers share.
type run struct {
	p     *Pipeline
	cfg   Config // resolved: defaults applied and validated once per run
	world []*dataset.WorldBlock
	// eng is what the workers collect through: p.Engine wrapped by layers.
	eng Prober
	// layers are the settle-per-block engine wrappers, innermost first.
	layers  []layer
	hed     *hedger
	workers int
	// retries is the number of extra attempts after a transient failure;
	// backoff the delay before the first of them.
	retries int
	backoff time.Duration
	res     *WorldResult

	// mu guards the tallies below and the slices of res.Report that
	// workers append to. res.Blocks needs no lock: each index is written
	// by the one worker that owns the block.
	mu               sync.Mutex
	journalErr       error
	resumed, retried int
}

// newRun validates the configuration, runs the observer pre-scan, and
// builds the layer stack around the engine.
func (p *Pipeline) newRun(ctx context.Context, world []*dataset.WorldBlock) (*run, error) {
	cfg, err := p.Config.resolved()
	if err != nil {
		return nil, err
	}
	if p.Checkpoint != nil {
		if err := p.Checkpoint.ensureSignature(runSignature(cfg, world)); err != nil {
			return nil, err
		}
	}
	r := &run{
		p:       p,
		cfg:     cfg,
		world:   world,
		eng:     p.Engine,
		workers: p.Workers,
		retries: p.MaxRetries,
		backoff: p.RetryBackoff,
		res: &WorldResult{
			Blocks:      make([]BlockOutcome, len(world)),
			Cells:       map[geo.CellKey]*geo.CellStats{},
			DownDaily:   map[geo.CellKey]map[int64]int{},
			UpDaily:     map[geo.CellKey]map[int64]int{},
			CellCS:      map[geo.CellKey]int{},
			ContinentCS: map[geo.Continent]int{},
			Report:      &RunReport{},
		},
	}
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case r.retries == 0:
		r.retries = 2
	case r.retries < 0:
		r.retries = 0
	}
	if r.backoff <= 0 {
		r.backoff = 10 * time.Millisecond
	}
	// The integrity firewall wraps the raw engine directly — inside the
	// exclusion and supervision layers — so its gates judge what the
	// observers actually reported, and everything outside it (pre-scan
	// drops, breaker drops, reply-rate samples) sees the gated view.
	if cfg.Integrity {
		r.push(newIntegrityProber(r.eng))
	}
	// Observer supervision. The static pre-scan always runs when enabled;
	// with a breaker configured its verdict seeds the runtime tracker
	// (initial scores + pre-opened breakers) instead of freezing an
	// exclusion layer around the engine, so the pre-scan and the breaker
	// agree on exclusion yet the breaker can still readmit a recovered
	// observer.
	var tracker *health.Tracker
	if p.Breaker != nil {
		tracker = health.NewTracker(*p.Breaker)
	}
	if p.ExcludeSuspects {
		excluded, rates := r.suspectObservers(ctx)
		r.res.Report.ExcludedObservers = excluded
		r.res.Report.ObserverRates = rates
		if tracker != nil {
			tracker.Seed(rates, excluded)
		} else if len(excluded) > 0 {
			r.push(newExcludeProber(r.eng, excluded))
		}
	}
	if tracker != nil || p.Quorum > 0 {
		r.push(newSupervisedProber(r.eng, tracker))
	}
	if p.Hedge != nil {
		clock := p.Clock
		if clock == nil {
			clock = health.System
		}
		r.hed = newHedger(r, *p.Hedge, clock)
	}
	return r, nil
}

// push makes l the new outermost layer. l must already wrap r.eng.
func (r *run) push(l layer) {
	r.layers = append(r.layers, l)
	r.eng = l
}

// execute drives every block through the workers and finalizes the report
// and the world aggregates.
func (r *run) execute(ctx context.Context) (*WorldResult, error) {
	p, res, world := r.p, r.res, r.world
	if r.hed != nil {
		go r.hed.watch(ctx)
		defer close(r.hed.stop)
	}
	// Bounded admission: dispatch stalls once MaxInflight blocks (or the
	// MemoryBudget's worth of estimated collection bytes) are admitted but
	// unfinished, so a huge world exerts backpressure on the dispatcher
	// instead of queueing without bound.
	var admit chan struct{}
	if p.MaxInflight > 0 || p.MemoryBudget > 0 {
		inflight := p.MaxInflight
		if inflight <= 0 {
			inflight = r.workers
		}
		if p.MemoryBudget > 0 {
			if slots := int(p.MemoryBudget / estimateBlockBytes(r.cfg)); slots < 1 {
				inflight = 1
			} else if slots < inflight {
				inflight = slots
			}
		}
		admit = make(chan struct{}, inflight)
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns its scratch outright: no pool round-trips, no
			// locks, and the FFT-plan/workspace caches stay warm for the
			// worker's whole share of the world.
			sc := NewScratch()
			for i := range jobs {
				r.runBlock(ctx, i, sc)
				if admit != nil {
					<-admit
				}
			}
		}()
	}
dispatch:
	for i := range world {
		if admit != nil {
			select {
			case admit <- struct{}{}:
			case <-ctx.Done():
				break dispatch
			}
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			if admit != nil {
				<-admit // the block was never handed to a worker
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	res.Report.ResumedBlocks = r.resumed
	res.Report.RetriedBlocks = r.retried
	if r.hed != nil {
		res.Report.HedgedBlocks, res.Report.HedgeWins = r.hed.stats()
	}
	for _, l := range r.layers {
		l.report(res.Report)
	}
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("core: run interrupted: %w", err)
	}
	if r.journalErr != nil {
		return res, fmt.Errorf("core: checkpoint journaling failed: %w", r.journalErr)
	}
	sort.Slice(res.Report.BlockErrors, func(i, j int) bool {
		return res.Report.BlockErrors[i].Index < res.Report.BlockErrors[j].Index
	})
	sort.Slice(res.Report.DeadLettered, func(i, j int) bool {
		return res.Report.DeadLettered[i].Index < res.Report.DeadLettered[j].Index
	})
	for i := range res.Blocks {
		b := &res.Blocks[i]
		if b.Analysis != nil {
			res.Report.AnalyzedBlocks++
		}
		// Quorum guard: a block merged from too few observers carries a
		// §2.7-style single-vantage bias, so it is flagged — and with
		// quarantine on, kept out of the world aggregates. Observers == 0
		// means "not tracked" (quorum off, or resumed from a pre-quorum
		// journal) and is never flagged.
		if p.Quorum > 0 && b.Analysis != nil && b.Observers > 0 && b.Observers < p.Quorum {
			res.Report.QuorumShortfalls = append(res.Report.QuorumShortfalls, i)
			if p.QuarantineBelowQuorum {
				res.Report.QuarantinedBlocks++
				continue
			}
		}
		res.aggregate(b)
	}
	if len(world) > 0 && res.Report.AnalyzedBlocks == 0 && len(res.Report.BlockErrors) > 0 {
		return res, fmt.Errorf("core: all %d blocks failed: %w", len(world), res.Report.BlockErrors[0])
	}
	if len(world) > 0 && res.Report.AnalyzedBlocks == 0 && len(res.Report.DeadLettered) == len(world) {
		return res, fmt.Errorf("core: all %d blocks dead-lettered: %w", len(world), res.Report.DeadLettered[0])
	}
	return res, nil
}

// runBlock takes one block from checkpoint lookup through analysis
// (hedged when a watchdog is attached) to delivery.
func (r *run) runBlock(ctx context.Context, i int, sc *Scratch) {
	if r.settledWithoutAnalysis(i) {
		return
	}
	var (
		analysis *BlockAnalysis
		attempts int
		err      error
	)
	if r.hed != nil {
		analysis, attempts, err = r.hed.run(ctx, i, r.world[i], sc)
	} else {
		analysis, attempts, err = r.analyzeBlock(ctx, r.world[i], sc)
	}
	r.deliver(ctx, i, analysis, attempts, err)
}

// settledWithoutAnalysis handles the two pre-analysis short circuits —
// checkpoint restore and dead-letter skip — and reports whether the block
// is settled without analyzing it.
func (r *run) settledWithoutAnalysis(i int) bool {
	wb := r.world[i]
	if r.p.Checkpoint != nil {
		if prior, ok := r.p.Checkpoint.Lookup(i, wb.ID); ok {
			r.res.Blocks[i] = *prior
			r.mu.Lock()
			r.resumed++
			r.mu.Unlock()
			return true
		}
	}
	// A block already dead-lettered (by this run's earlier life, or by
	// another worker sharing the quarantine store) is skipped outright: a
	// poison block must cost its retry budget once, not once per resume.
	if r.p.DeadLetter != nil {
		if reason, ok := r.p.DeadLetter.Lookup(i, wb.ID); ok {
			r.fail(&r.res.Report.DeadLettered, i, fmt.Errorf("%s", reason))
			return true
		}
	}
	return false
}

// fail records block i's failure in list (Report.BlockErrors or
// Report.DeadLettered) and leaves its result slot without an analysis.
func (r *run) fail(list *[]BlockError, i int, err error) {
	wb := r.world[i]
	r.mu.Lock()
	*list = append(*list, BlockError{Index: i, ID: wb.ID, Err: err})
	r.mu.Unlock()
	r.res.Blocks[i] = BlockOutcome{ID: wb.ID, Place: wb.Place}
}

// deliver lands one analyzed (or failed) block: the retried tally, then
// either the error path (every layer discards; dead-letter or BlockError)
// or the success path (every layer commits, innermost first; result slot;
// exactly-once journal append).
func (r *run) deliver(ctx context.Context, i int, analysis *BlockAnalysis, attempts int, err error) {
	wb := r.world[i]
	if attempts > 1 {
		r.mu.Lock()
		r.retried++
		r.mu.Unlock()
	}
	if err != nil {
		for _, l := range r.layers {
			l.discard(wb.ID)
		}
		// A block killed by run-level cancellation is neither finished
		// nor failed: leave it for the resumed run.
		if ctx.Err() != nil {
			return
		}
		// With a quarantine attached, a permanent failure is dead-lettered:
		// recorded durably with its fault context and skipped by every
		// later resume. Only if the quarantine itself cannot record does
		// the failure fall back to an ordinary (retryable-on-resume)
		// BlockError.
		if r.p.DeadLetter != nil && r.p.DeadLetter.Record(i, wb.ID, err) == nil {
			r.fail(&r.res.Report.DeadLettered, i, err)
			return
		}
		r.fail(&r.res.Report.BlockErrors, i, err)
		return
	}
	outcome := BlockOutcome{ID: wb.ID, Place: wb.Place, Analysis: analysis}
	// Exactly one commit per layer per completed block, whichever attempt's
	// collection it came from. Samples flow outward: the firewall's
	// agreement samples reach the supervisor, where they override its
	// reply-rate samples wherever peer overlap gave them meaning — so
	// breakers open on persistent liars, not just dead streams.
	var samples []health.Sample
	for _, l := range r.layers {
		var observers int
		samples, observers = l.commit(i, wb.ID, samples)
		if observers > 0 && r.p.Quorum > 0 {
			outcome.Observers = observers
		}
	}
	r.res.Blocks[i] = outcome
	if r.p.Checkpoint != nil {
		if err := r.p.Checkpoint.Append(i, outcome); err != nil {
			r.mu.Lock()
			if r.journalErr == nil {
				r.journalErr = err
			}
			r.mu.Unlock()
		}
	}
}

// analyzeBlock runs one block with bounded retry-with-backoff for
// transient prober errors. attempts reports how many attempts ran.
func (r *run) analyzeBlock(ctx context.Context, wb *dataset.WorldBlock, sc *Scratch) (a *BlockAnalysis, attempts int, err error) {
	backoff := r.backoff
	for {
		attempts++
		a, err = r.analyzeOnce(ctx, wb, sc)
		if err == nil || !IsTransient(err) || attempts > r.retries || ctx.Err() != nil {
			return a, attempts, err
		}
		// A stopped timer, unlike time.After, does not stay pending until
		// it fires when a cancelled run abandons a long backoff.
		t := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, attempts, ctx.Err()
		case <-t.C:
		}
		backoff *= 2
	}
}

// analyzeOnce is a single attempt: it applies the per-block deadline and
// converts a worker panic into a PanicError, so one pathological block
// becomes one BlockError instead of killing the world run.
func (r *run) analyzeOnce(ctx context.Context, wb *dataset.WorldBlock, sc *Scratch) (a *BlockAnalysis, err error) {
	if r.p.BlockTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.p.BlockTimeout)
		defer cancel()
	}
	defer func() {
		if rec := recover(); rec != nil {
			a, err = nil, &PanicError{Value: rec, Stack: debug.Stack()}
		}
	}()
	return r.cfg.collectAndAnalyze(ctx, r.eng, wb.Block, sc)
}

// healthTol is the reply-rate tolerance below the median before an
// observer is suspect.
const healthTol = 0.1

// suspectObservers samples reply rates across the world and returns the
// observer indices to discard, with the sampled rates. It never flags
// every observer: with no healthy reference the check cannot tell who is
// broken, so it degrades to keeping them all.
//
// Sampling strides ceil(len(world)/sample), so the probed blocks spread
// across the whole world instead of clustering in a fixed prefix (a
// floor stride used to land all samples in the first half when the world
// wasn't a multiple of the sample size, biasing rates toward whatever
// pathology that prefix happened to have). The rates double as the
// runtime breakers' initial health scores (see Pipeline.Breaker), so the
// one-shot pre-scan and the continuous breaker judge observers from the
// same evidence.
func (r *run) suspectObservers(ctx context.Context) (excluded []int, rates []float64) {
	p, cfg, world := r.p, r.cfg, r.world
	sample := p.HealthSample
	if sample <= 0 {
		sample = 64
	}
	if sample > len(world) {
		sample = len(world)
	}
	if sample == 0 {
		return nil, nil
	}
	stride := (len(world) + sample - 1) / sample
	if stride < 1 {
		stride = 1
	}
	var health *reconstruct.ObserverHealth
	var bufs [][]probe.Record
	for i, n := 0, 0; i < len(world) && n < sample; i += stride {
		if ctx.Err() != nil {
			return nil, nil
		}
		var err error
		bufs, err = p.Engine.CollectInto(ctx, world[i].Block, cfg.AnalysisStart, cfg.AnalysisEnd, bufs)
		if err != nil {
			continue
		}
		if health == nil {
			health = reconstruct.NewObserverHealth(len(bufs))
		}
		health.Add(bufs)
		n++
	}
	if health == nil {
		return nil, nil
	}
	rates = health.Rates()
	excluded = health.Suspect(healthTol)
	if len(excluded) == len(rates) {
		return nil, rates
	}
	return excluded, rates
}

// Reaggregate rebuilds every world-level tally (cells, daily up/down
// counts, change-sensitive totals, AnalyzedBlocks) from Blocks alone. The
// shard merge step assembles Blocks from per-shard journals and calls this
// to reproduce exactly the aggregates a single-process Run would have
// computed. A nil Report is allocated.
func (r *WorldResult) Reaggregate() {
	r.Cells = map[geo.CellKey]*geo.CellStats{}
	r.DownDaily = map[geo.CellKey]map[int64]int{}
	r.UpDaily = map[geo.CellKey]map[int64]int{}
	r.CellCS = map[geo.CellKey]int{}
	r.ContinentCS = map[geo.Continent]int{}
	if r.Report == nil {
		r.Report = &RunReport{}
	}
	r.Report.AnalyzedBlocks = 0
	for i := range r.Blocks {
		b := &r.Blocks[i]
		if b.Analysis != nil {
			r.Report.AnalyzedBlocks++
		}
		r.aggregate(b)
	}
}

// aggregate folds one block outcome into the world-level tallies.
func (r *WorldResult) aggregate(b *BlockOutcome) {
	if b.Analysis == nil {
		return
	}
	cell := b.Place.Cell
	cs := r.Cells[cell]
	if cs == nil {
		cs = &geo.CellStats{Continent: b.Place.Region.Continent}
		r.Cells[cell] = cs
	}
	if b.Analysis.Class.Responsive {
		cs.Responsive++
	}
	if !b.Analysis.Class.ChangeSensitive {
		return
	}
	cs.ChangeSensitive++
	r.CellCS[cell]++
	r.ContinentCS[b.Place.Region.Continent]++
	for _, c := range b.Analysis.Changes {
		day := netsim.DayIndex(c.Point)
		var m map[geo.CellKey]map[int64]int
		if c.Dir == changepoint.Down {
			m = r.DownDaily
		} else {
			m = r.UpDaily
		}
		if m[cell] == nil {
			m[cell] = map[int64]int{}
		}
		m[cell][day]++
	}
}

// CellFractionSeries returns the daily fraction of the cell's
// change-sensitive blocks showing a change in the given direction over
// [startDay, endDay) (UTC day indices), as plotted in Figures 9b and 10b.
func (r *WorldResult) CellFractionSeries(cell geo.CellKey, dir changepoint.Direction, startDay, endDay int64) []float64 {
	n := int(endDay - startDay)
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	total := r.CellCS[cell]
	if total == 0 {
		return out
	}
	src := r.DownDaily
	if dir == changepoint.Up {
		src = r.UpDaily
	}
	days := src[cell]
	for d, count := range days {
		if d >= startDay && d < endDay {
			out[d-startDay] = float64(count) / float64(total)
		}
	}
	return out
}

// ContinentFractionSeries returns the daily fraction of the continent's
// change-sensitive blocks with a downward change (Figure 8).
func (r *WorldResult) ContinentFractionSeries(cont geo.Continent, startDay, endDay int64) []float64 {
	n := int(endDay - startDay)
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	total := r.ContinentCS[cont]
	if total == 0 {
		return out
	}
	for cell, days := range r.DownDaily {
		if st := r.Cells[cell]; st == nil || st.Continent != cont {
			continue
		}
		for d, count := range days {
			if d >= startDay && d < endDay {
				out[d-startDay] += float64(count) / float64(total)
			}
		}
	}
	return out
}

// PeakDay returns the UTC day index with the largest downward fraction in
// the cell along with that fraction; ok is false when the cell saw no
// downward changes.
func (r *WorldResult) PeakDay(cell geo.CellKey) (day int64, frac float64, ok bool) {
	total := r.CellCS[cell]
	if total == 0 {
		return 0, 0, false
	}
	best := -1
	for d, count := range r.DownDaily[cell] {
		if count > best || (count == best && d < day) {
			best = count
			day = d
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return day, float64(best) / float64(total), true
}

// TopCells returns up to n cells ordered by change-sensitive block count
// (descending, ties by cell key for determinism).
func (r *WorldResult) TopCells(n int) []geo.CellKey {
	cells := make([]geo.CellKey, 0, len(r.CellCS))
	for c := range r.CellCS {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if r.CellCS[a] != r.CellCS[b] {
			return r.CellCS[a] > r.CellCS[b]
		}
		if a.Lat != b.Lat {
			return a.Lat < b.Lat
		}
		return a.Lon < b.Lon
	})
	if n < len(cells) {
		cells = cells[:n]
	}
	return cells
}

// ChangeSensitiveCount returns the number of change-sensitive blocks.
func (r *WorldResult) ChangeSensitiveCount() int {
	total := 0
	for _, n := range r.CellCS {
		total += n
	}
	return total
}
