// Package diurnal infers changes in daily human activity from Internet
// address responsiveness, reproducing the pipeline of Song, Baltra and
// Heidemann, "Inferring Changes in Daily Human Activity from Internet
// Response" (ACM IMC 2023).
//
// The pipeline turns repeated ICMP-style probes of /24 IPv4 blocks into
// detected human-activity changes:
//
//  1. reconstruct per-block active-address counts from incremental probe
//     rounds (with 1-loss repair for congested links),
//  2. keep only change-sensitive blocks — diurnal (FFT energy at 24 h)
//     with a persistent wide daily swing,
//  3. extract the long-term trend with STL,
//  4. detect changes with CUSUM on the normalized trend (filtering
//     outage-like down/up pairs), and
//  5. aggregate downward changes by 2×2° gridcell and continent.
//
// Because live Trinocular data is not available offline, the package ships
// a deterministic synthetic Internet (a world atlas of address-usage
// archetypes plus a calendar of real-world events such as the 2020
// work-from-home wave) that exercises the identical code paths. Callers
// with their own measurements can enter the pipeline at any stage: raw
// probe records via AnalyzeRecords, or an already reconstructed series via
// AnalyzeSeries.
//
// Quick start:
//
//	world, _ := diurnal.NewWorld(diurnal.WorldOptions{
//	    Blocks: 500, Seed: 1, Calendar: diurnal.Calendar2020(),
//	    Start: diurnal.Date(2020, 1, 1), End: diurnal.Date(2020, 3, 25),
//	})
//	report, _ := world.Run(diurnal.DefaultConfig(world.Start(), world.End()))
//	fmt.Println(report.ChangeSensitiveCount(), "change-sensitive blocks")
package diurnal

import (
	"context"
	"fmt"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/reconstruct"
	"github.com/diurnalnet/diurnal/internal/shard"
	"github.com/diurnalnet/diurnal/internal/stream"
)

// Re-exported pipeline types. Aliases keep the full functionality of the
// internal implementation available through the public API.
type (
	// Config parameterizes the analysis pipeline (windows, thresholds,
	// CUSUM settings).
	Config = core.Config
	// BlockAnalysis is the per-block pipeline output: reconstruction,
	// classification, trend, and detected changes.
	BlockAnalysis = core.BlockAnalysis
	// Change is one detected activity change with wall-clock boundaries.
	Change = core.Change
	// Report aggregates a world-scale run: per-block outcomes, gridcell
	// statistics, and daily down/up counts.
	Report = core.WorldResult
	// Series is a reconstructed active-address count over time.
	Series = reconstruct.Series
	// Record is one probe observation (time, address, responded).
	Record = probe.Record
	// Calendar maps world regions to scheduled ground-truth events.
	Calendar = events.Calendar
	// CellKey identifies a 2×2° geographic gridcell.
	CellKey = geo.CellKey
	// Continent is the coarse aggregation level of Figure 8.
	Continent = geo.Continent
	// Block is one simulated /24 network.
	Block = netsim.Block
	// Observer is a probing site.
	Observer = probe.Observer
	// Engine drives multi-observer probing of a block.
	Engine = probe.Engine
	// ProfileKind tells workplace-schedule blocks from home-schedule ones
	// (the paper's §2.6 future work, via BlockAnalysis.Profile).
	ProfileKind = core.ProfileKind
)

// Profile kinds, re-exported for callers of BlockAnalysis.Profile.
const (
	ProfileUnknown   = core.ProfileUnknown
	ProfileWorkplace = core.ProfileWorkplace
	ProfileHome      = core.ProfileHome
	ProfileMixed     = core.ProfileMixed
)

// DefaultConfig returns the paper's analysis configuration for a window.
func DefaultConfig(start, end int64) Config { return core.DefaultConfig(start, end) }

// Calendar2020 returns the 2020h1 ground-truth calendar (Covid WFH wave,
// Spring Festival, holidays, curfews).
func Calendar2020() *Calendar { return events.Year2020() }

// Calendar2023 returns the 2023q1 control calendar (Spring Festival only).
func Calendar2023() *Calendar { return events.Year2023() }

// Date returns the Unix timestamp of midnight UTC on the given date.
func Date(year, month, day int) int64 {
	return netsim.Date(year, time.Month(month), day)
}

// SecondsPerDay is the length of a UTC day in seconds.
const SecondsPerDay = netsim.SecondsPerDay

// WorldOptions configures a synthetic world.
type WorldOptions struct {
	// Blocks is the number of /24 networks to simulate.
	Blocks int
	// Seed makes the world deterministic.
	Seed uint64
	// Calendar schedules ground-truth events (nil for a quiet world).
	Calendar *Calendar
	// Start and End bound the simulation window (Unix seconds, UTC).
	Start, End int64
	// Observers is the number of probing sites (1–6, default 4).
	Observers int
	// disableNoise turns off random background outages and renumbering;
	// in-package tests set it.
	disableNoise bool
}

// World is a simulated Internet with its probing infrastructure.
type World struct {
	blocks []*dataset.WorldBlock
	engine *probe.Engine
	opts   WorldOptions
}

// NewWorld builds a deterministic synthetic world.
func NewWorld(opts WorldOptions) (*World, error) {
	if opts.Observers == 0 {
		opts.Observers = 4
	}
	if opts.Observers < 1 || opts.Observers > 6 {
		return nil, fmt.Errorf("diurnal: Observers must be 1..6, got %d", opts.Observers)
	}
	wo := dataset.WorldOpts{
		Blocks:   opts.Blocks,
		Seed:     opts.Seed,
		Calendar: opts.Calendar,
		Start:    opts.Start,
		End:      opts.End,
	}
	if opts.disableNoise {
		wo.OutageProb = -1
		wo.RenumberProb = -1
	}
	blocks, err := dataset.BuildWorld(wo)
	if err != nil {
		return nil, err
	}
	return &World{
		blocks: blocks,
		engine: &probe.Engine{
			Observers:   probe.StandardObservers(opts.Observers),
			QuarterSeed: netsim.Hash64(opts.Seed, 0x5eed),
		},
		opts: opts,
	}, nil
}

// Start returns the world's window start.
func (w *World) Start() int64 { return w.opts.Start }

// End returns the world's window end.
func (w *World) End() int64 { return w.opts.End }

// Size returns the number of simulated blocks.
func (w *World) Size() int { return len(w.blocks) }

// Engine exposes the world's probing engine for advanced use.
func (w *World) Engine() *Engine { return w.engine }

// BlockAt returns the i-th simulated block with its region code and
// gridcell.
func (w *World) BlockAt(i int) (b *Block, region string, cell CellKey) {
	wb := w.blocks[i]
	return wb.Block, wb.Place.Region.Code, wb.Place.Cell
}

// BlocksInRegion returns the indices of blocks placed in the region code.
func (w *World) BlocksInRegion(code string) []int {
	var out []int
	for i, wb := range w.blocks {
		if wb.Place.Region.Code == code {
			out = append(out, i)
		}
	}
	return out
}

// RunOptions tunes a crash-safe world run. The zero value matches the
// plain Run behavior: GOMAXPROCS workers, no checkpointing, no observer
// supervision, no quarantine.
type RunOptions struct {
	// Workers bounds analysis parallelism (default GOMAXPROCS). Blocks
	// are analyzed independently, one at a time per worker; results are
	// identical at any worker count.
	Workers int
	// CheckpointPath, when non-empty, journals completed blocks to this
	// file; rerunning with the same path resumes after a crash, skipping
	// every journaled block. The journal is bound to the (config, world)
	// pair and refuses to resume a different run.
	CheckpointPath string
	// Breaker enables the runtime observer supervisor: a pre-scan health
	// check (§2.7) seeds per-observer circuit breakers, observers whose
	// reply rate collapses mid-run are excluded until they recover, and
	// every state change is recorded in Report.Report.BreakerTransitions.
	Breaker bool
	// Hedge enables straggler detection: blocks exceeding an adaptive
	// latency deadline are re-dispatched and the first completion wins,
	// bounding tail latency without changing any result.
	Hedge bool
	// Quorum, when positive, flags blocks analyzed with records from
	// fewer than this many observers (Report.Report.QuorumShortfalls);
	// such a run reports Degraded.
	Quorum int
	// DeadLetterPath, when non-empty, quarantines poison blocks into this
	// directory: a block whose analysis fails permanently (deterministic
	// panic, exhausted transient retries, corrupt archive record) is
	// recorded there with its fault context and skipped — never
	// re-analyzed — by every later run sharing the directory. Skips and
	// give-ups are listed in Report.Report.DeadLettered, and such a run
	// reports Degraded.
	DeadLetterPath string
}

// Run probes and analyzes the whole world under cfg.
func (w *World) Run(cfg Config) (*Report, error) {
	return w.RunContext(context.Background(), cfg, RunOptions{})
}

// RunContext is Run with cancellation and crash-safety options. When ctx
// is canceled the partial result is returned with ctx's error; if a
// checkpoint path is set, the finished blocks are already journaled and a
// later RunContext with the same path resumes where this one stopped.
func (w *World) RunContext(ctx context.Context, cfg Config, opts RunOptions) (*Report, error) {
	p := &core.Pipeline{
		Config:  cfg,
		Engine:  w.engine,
		Workers: opts.Workers,
		Quorum:  opts.Quorum,
	}
	if opts.Breaker {
		b := health.DefaultBreaker()
		p.Breaker = &b
		p.ExcludeSuspects = true
	}
	if opts.Hedge {
		h := health.DefaultHedge()
		p.Hedge = &h
	}
	if opts.CheckpointPath != "" {
		cp, err := core.OpenCheckpoint(opts.CheckpointPath)
		if err != nil {
			return nil, err
		}
		defer cp.Close()
		p.Checkpoint = cp
	}
	if opts.DeadLetterPath != "" {
		dl, err := shard.OpenDeadLetters(opts.DeadLetterPath)
		if err != nil {
			return nil, err
		}
		p.DeadLetter = dl
	}
	return p.Run(ctx, w.blocks)
}

// Sharded runs: several worker processes share one world through a
// durable file-based ledger (internal/shard). Each worker claims
// block-range shards under time-bounded leases with monotonic fencing
// tokens; a crashed or stalled worker's shard is taken over after lease
// expiry, inheriting its journaled progress. MergeShards stitches every
// shard's journals into one Report and audits the result.
type (
	// ShardReport summarizes one shard worker's run.
	ShardReport = shard.Report
	// ShardAudit is the cross-shard integrity audit produced by
	// MergeShards; the result is trustworthy only when Clean reports true.
	ShardAudit = shard.Audit
)

// ShardOptions configures a sharded world run.
type ShardOptions struct {
	// Dir is the shard ledger directory, shared by all workers of the run.
	Dir string
	// Shards, when positive, creates the ledger with this many block-range
	// shards (or validates an existing one against it). Zero opens an
	// existing ledger.
	Shards int
	// WorkerID names this worker in leases, completion markers, and dead
	// letters (default "worker-<pid>").
	WorkerID string
	// LeaseTTL is the shard lease duration (default 30s): a worker that
	// stops renewing for this long loses its shard to another worker.
	LeaseTTL time.Duration
}

// RunShardWorker drains the ledger as one worker: it claims shards until
// every shard is complete, journaling per-block progress and
// quarantining poison blocks into the ledger's dead-letter store. Run one
// process per worker against the same Dir; any of them (or a later
// process) can then MergeShards.
func (w *World) RunShardWorker(ctx context.Context, cfg Config, opts ShardOptions) (*ShardReport, error) {
	ledger, err := w.openLedger(cfg, opts)
	if err != nil {
		return nil, err
	}
	worker := &shard.Worker{
		ID:     opts.WorkerID,
		Ledger: ledger,
		Config: cfg,
		Engine: w.engine,
		World:  w.blocks,
	}
	return worker.Run(ctx)
}

// MergeShards stitches a sharded run's per-shard journals and dead-letter
// manifest into one Report and runs the cross-shard integrity audit. The
// Report is returned even when the audit fails, for inspection; trust it
// only when the audit is Clean.
func (w *World) MergeShards(cfg Config, dir string) (*Report, *ShardAudit, error) {
	ledger, err := w.openLedger(cfg, ShardOptions{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	return ledger.Merge(cfg, w.blocks)
}

// Signature returns the run signature binding cfg to this exact world:
// the digest every artifact of the run (checkpoints, shard ledgers,
// serve snapshots) carries so that readers can refuse data produced by a
// different world or configuration.
func (w *World) Signature(cfg Config) []byte {
	return core.RunSignature(cfg, w.blocks)
}

func (w *World) openLedger(cfg Config, opts ShardOptions) (*shard.Ledger, error) {
	sig := core.RunSignature(cfg, w.blocks)
	sopt := shard.Options{TTL: opts.LeaseTTL}
	if opts.Shards > 0 {
		return shard.Create(opts.Dir, sig, len(w.blocks), opts.Shards, sopt)
	}
	return shard.Open(opts.Dir, sig, sopt)
}

// Streaming runs: instead of analyzing the window retrospectively, a
// daemon ingests probe rounds incrementally and emits change events with
// bounded latency as the data frontier advances. Every round is made
// durable in a write-ahead log before admission and every event is
// journaled before delivery, so a killed daemon resumes — by
// deterministic replay — to the exact detector state and event sequence
// it would have had uninterrupted.
type (
	// StreamEvent is one change detection emitted by a streaming run,
	// exactly once, with a contiguous sequence number.
	StreamEvent = stream.Event
)

// StreamOptions configures a crash-safe streaming run.
type StreamOptions struct {
	// Dir is the daemon's durable state directory (round and event WALs).
	// Rerunning with the same Dir resumes after a crash; the WALs are
	// bound to the (config, world) pair and refuse a different run.
	Dir string
	// RoundLen is the seconds of data per ingested round (default one
	// day; must be a multiple of 3600).
	RoundLen int64
	// RefreshEvery runs a trend refresh every N rounds (default 1).
	RefreshEvery int
	// ConfirmRefreshes is how many consecutive refreshes a candidate
	// change must survive before it is emitted (default 2). Together with
	// RefreshEvery it bounds detection latency.
	ConfirmRefreshes int
	// MaxQueue bounds admitted-but-unprocessed rounds; ingestion blocks
	// (bounded admission) when the analysis loop falls this far behind
	// (default 64).
	MaxQueue int
	// Watchdog, when positive, restarts the analysis loop if one step
	// wedges for this long; state is rebuilt by WAL replay.
	Watchdog time.Duration
	// SegmentBytes rotates WAL segments at roughly this size (default
	// 8 MiB; minimum 4096). Smaller segments bound the unit of
	// compaction and orphan recovery. The round WAL is append-only,
	// bounded by the analysis window; the event WAL drops its superseded
	// refresh checkpoints on its own.
	SegmentBytes int64
	// DiskBudget, when positive, caps the daemon directory's total
	// bytes. A round whose append would exceed the budget (after an
	// emergency compaction of the event WAL) is shed with
	// ErrStreamDiskPressure instead of being admitted.
	DiskBudget int64
	// OnEvent, when non-nil, receives each event right after it is
	// journaled, in sequence order.
	OnEvent func(StreamEvent)
}

// ErrStreamDiskPressure marks a streaming round shed because the
// daemon's disk budget is exhausted; classify with errors.Is.
var ErrStreamDiskPressure = stream.ErrDiskPressure

// RunStream probes and analyzes the world as a stream. It feeds every
// round of the analysis window through a durable ingestion daemon rooted
// at opts.Dir and returns the final world report (identical to a batch
// Run of the same world) plus the complete journaled event log. When ctx
// is canceled mid-stream the daemon drains the rounds already admitted,
// shuts down cleanly, and returns the events journaled so far with ctx's
// error; a later RunStream with the same Dir resumes where it stopped.
func (w *World) RunStream(ctx context.Context, cfg Config, opts StreamOptions) (*Report, []StreamEvent, error) {
	scfg := stream.Config{
		Core:             cfg,
		RoundLen:         opts.RoundLen,
		RefreshEvery:     opts.RefreshEvery,
		ConfirmRefreshes: opts.ConfirmRefreshes,
		MaxQueue:         opts.MaxQueue,
		Watchdog:         opts.Watchdog,
		SegmentBytes:     opts.SegmentBytes,
		DiskBudget:       opts.DiskBudget,
		OnEvent:          opts.OnEvent,
	}
	d, err := stream.Open(opts.Dir, w.blocks, len(w.engine.Observers), scfg)
	if err != nil {
		return nil, nil, err
	}
	f, err := stream.NewFeeder(ctx, w.engine, w.blocks, scfg)
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	d.Start()
	if err := f.Feed(ctx, d); err != nil {
		// Graceful drain on cancellation: everything admitted is
		// processed and journaled before shutdown, so nothing is lost.
		drainErr := d.Drain(context.Background())
		evs := d.Events()
		if cerr := d.Close(); drainErr == nil {
			drainErr = cerr
		}
		if drainErr != nil {
			// The drain itself failed, so the journal may be behind the
			// admitted rounds; that failure outranks the cancellation and
			// callers must not treat the shutdown as clean.
			return nil, evs, fmt.Errorf("diurnal: draining stream after %v: %w", err, drainErr)
		}
		return nil, evs, err
	}
	if err := d.Drain(ctx); err != nil {
		evs := d.Events()
		d.Close()
		return nil, evs, err
	}
	res, err := d.Result()
	if err != nil {
		d.Close()
		return nil, d.Events(), err
	}
	evs := d.Events()
	if err := d.Close(); err != nil {
		return res, evs, err
	}
	return res, evs, nil
}

// AnalyzeBlock runs the pipeline on a single simulated block.
func AnalyzeBlock(cfg Config, eng *Engine, b *Block) (*BlockAnalysis, error) {
	return cfg.AnalyzeBlock(eng, b)
}

// AnalyzeRecords enters the pipeline with raw per-observer probe records
// and the block's ever-active target list. perObserver is not modified:
// sanitizing and 1-loss repair work on the pipeline's own buffers.
func AnalyzeRecords(cfg Config, perObserver [][]Record, everActive []int) (*BlockAnalysis, error) {
	return cfg.AnalyzeRecords(perObserver, everActive)
}

// AnalyzeSeries enters the pipeline with an already reconstructed
// active-address series (times in Unix seconds, counts of active
// addresses).
func AnalyzeSeries(cfg Config, times []int64, counts []float64) (*BlockAnalysis, error) {
	if len(times) != len(counts) {
		return nil, fmt.Errorf("diurnal: %d times but %d counts", len(times), len(counts))
	}
	s := &reconstruct.Series{Times: times, Counts: counts}
	return cfg.AnalyzeSeries(s)
}
