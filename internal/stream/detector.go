package stream

// The streaming detector: pure, deterministic state evolution with no
// I/O. The daemon (and its crash/watchdog recovery) replays rounds
// through this code; determinism here is what makes the WAL the only
// durable state the daemon needs. A refresh's emission state — the
// counters and every block's candidates — is small, so the daemon
// journals it after each refresh (checkpoint) and recovery restores it
// instead of re-running every refresh (restore).

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/integrity"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// matchSlopDays is how far two changes' points may sit apart while still
// describing the same underlying change across refreshes.
const matchSlopDays = 2

// candidate tracks one potential change across refreshes. Its fields are
// exported for the refresh checkpoint's gob encoding.
type candidate struct {
	Change       core.Change
	FirstSeenSeq int64 // round seq starting the current presence streak
	SeenStreak   int64 // consecutive refreshes present (current streak)
	LastRefresh  int64 // refresh counter when last present
	EligibleSeq  int64 // round seq when the stability guard first held; -1 before
	Emitted      bool
}

// blockState is one block's streaming detector state.
type blockState struct {
	id    netsim.BlockID
	place geo.Placement
	eb    []int

	// acc holds every round's records per observer stream, as ingested
	// (the rounds' own slices, never mutated). front has taken
	// acc[o][:fed[o]] of each; a rebuild advances a reset front over all of
	// acc, and stale asks for one at the next refresh.
	acc      [][]probe.Record
	front    *core.FrontState
	fed      []int
	stale    bool
	rebuilds int // times front was rebuilt

	cands []*candidate
	last  *core.BlockAnalysis
	// pending marks a block restored from a checkpoint that no refresh
	// has analyzed since: last is nil, and result analyzes it.
	pending bool
}

// detector evolves a whole world's streaming state round by round.
type detector struct {
	cfg       Config        // defaulted + validated
	rc        core.Resolved // cfg.Core
	obsCount  int
	blocks    []*blockState
	lanes     []*core.Scratch      // the refresh's parallel phase, one scratch per lane
	errs      []error              // per block: the current refresh's failure, nil on success
	integ     *core.IntegrityTally // nil unless the firewall is on
	processed int64                // rounds fully processed
	refreshes int64
	blockErrs int64
	nextEvent int64

	// hookBlock, when set by in-package tests, runs inside the per-block
	// step before the kernel — the seam that injects a kernel panic.
	hookBlock func(b int)
}

// gate judges one block's round streams, tallies the verdicts, and
// returns the streams with the gated ones dropped, so a lying observer
// never contaminates a refresh's merge. perObs is never mutated: a
// copy-on-write slice protects the caller's round (it may still be
// journaled or retried). Replay rebuilds the same tally — Check is pure
// and rounds are replayed in order.
func (d *detector) gate(b int, perObs [][]probe.Record, start, end int64) [][]probe.Record {
	bs := d.blocks[b]
	verdicts := integrity.Check(integrity.Config{}, perObs, bs.eb, start, end)
	d.integ.Add(b, bs.id, verdicts)
	kept, copied := perObs, false
	for oi := range verdicts {
		if !verdicts[oi].Gated {
			continue
		}
		if !copied {
			kept, copied = append([][]probe.Record(nil), perObs...), true
		}
		kept[oi] = nil
	}
	return kept
}

// newDetector builds a detector whose refreshes run on min(lanes,
// len(world)) lanes, at least one. The daemon passes GOMAXPROCS; the lane
// count never changes what the detector computes, only how fast.
func newDetector(cfg Config, rc core.Resolved, world []*dataset.WorldBlock, obsCount, lanes int) *detector {
	d := &detector{
		cfg:      cfg,
		rc:       rc,
		obsCount: obsCount,
		lanes:    make([]*core.Scratch, max(1, min(lanes, len(world)))),
		errs:     make([]error, len(world)),
	}
	for i := range d.lanes {
		d.lanes[i] = core.NewScratch()
	}
	if rc.Config().Integrity {
		d.integ = &core.IntegrityTally{}
	}
	for _, wb := range world {
		bs := &blockState{
			id:    wb.ID,
			place: wb.Place,
			eb:    wb.EverActive(),
			acc:   make([][]probe.Record, obsCount),
			fed:   make([]int, obsCount),
		}
		bs.front = rc.NewFrontState(bs.eb)
		d.blocks = append(d.blocks, bs)
	}
	return d
}

// validateRound checks a round's shape against the stream position.
func (d *detector) validateRound(r *Round) error {
	if r.Seq != d.processed {
		return fmt.Errorf("stream: round seq %d, expected %d (rounds are ingested strictly in order)", r.Seq, d.processed)
	}
	start, end := d.cfg.roundWindow(r.Seq)
	if r.Start != start || r.End != end {
		return fmt.Errorf("stream: round %d window [%d,%d), expected [%d,%d)", r.Seq, r.Start, r.End, start, end)
	}
	if len(r.Blocks) != len(d.blocks) {
		return fmt.Errorf("stream: round %d covers %d blocks, world has %d", r.Seq, len(r.Blocks), len(d.blocks))
	}
	for b, perObs := range r.Blocks {
		if len(perObs) != d.obsCount {
			return fmt.Errorf("stream: round %d block %d has %d observer streams, expected %d", r.Seq, b, len(perObs), d.obsCount)
		}
	}
	return nil
}

// ingest processes one round: absorb it and — when a refresh is due —
// run the shared analysis kernel and the emission logic. Returned events
// are in emission order with their sequence numbers assigned; journaling
// them is the caller's job. The round's record slices are retained.
func (d *detector) ingest(r *Round) ([]Event, error) {
	if err := d.absorb(r); err != nil {
		return nil, err
	}
	final := d.processed == d.cfg.rounds()
	if final || d.processed%int64(d.cfg.RefreshEvery) == 0 {
		return d.refresh(r.End, r.Seq, final)
	}
	return nil, nil
}

// absorb takes one round in without refreshing: the round is validated,
// its streams gated when the firewall is on, and its records appended to
// every block's history. Recovery absorbs the rounds a checkpoint covers
// before it restores the checkpoint.
func (d *detector) absorb(r *Round) error {
	if err := d.validateRound(r); err != nil {
		return err
	}
	for b, perObs := range r.Blocks {
		bs := d.blocks[b]
		if d.integ != nil {
			perObs = d.gate(b, perObs, r.Start, r.End)
		}
		for o, recs := range perObs {
			bs.acc[o] = append(bs.acc[o], recs...)
		}
	}
	d.processed++
	return nil
}

// checkpoint returns the emission state the last refresh left: the
// counters and every block's candidates. It shares the candidates with
// the detector, so it must be encoded before the next refresh.
func (d *detector) checkpoint() *refreshCheckpoint {
	c := &refreshCheckpoint{
		Processed: d.processed,
		Refreshes: d.refreshes,
		BlockErrs: d.blockErrs,
		NextEvent: d.nextEvent,
		Cands:     make([][]*candidate, len(d.blocks)),
	}
	for b, bs := range d.blocks {
		c.Cands[b] = bs.cands
	}
	return c
}

// restore installs a checkpoint's emission state on a detector that has
// absorbed exactly the rounds it covers. Every block's front half is
// marked stale, so the next refresh rebuilds it over the whole history,
// which gives what the incremental front half would have. The candidates
// are copied, so c stays unchanged.
func (d *detector) restore(c *refreshCheckpoint) error {
	if c.Processed != d.processed || len(c.Cands) != len(d.blocks) || c.Refreshes < 1 || c.BlockErrs < 0 || c.NextEvent < 0 {
		return fmt.Errorf("stream: refresh checkpoint after round %d over %d blocks does not fit a detector at round %d over %d blocks",
			c.Processed, len(c.Cands), d.processed, len(d.blocks))
	}
	d.refreshes, d.blockErrs, d.nextEvent = c.Refreshes, c.BlockErrs, c.NextEvent
	for b, bs := range d.blocks {
		bs.cands = make([]*candidate, len(c.Cands[b]))
		for i, cand := range c.Cands[b] {
			if cand == nil {
				return fmt.Errorf("stream: refresh checkpoint block %d has a nil candidate", b)
			}
			cp := *cand
			bs.cands[i] = &cp
		}
		bs.last, bs.stale, bs.pending = nil, true, true
	}
	return nil
}

// refresh runs the shared analysis kernel over every block's accumulated
// streams and applies the candidate-tracking and emission rules, in two
// phases. The parallel phase (eachBlock) touches only per-block state.
// The serial phase then walks the blocks in world order and is the only
// one that touches shared state: the error count and the event sequence
// numbers. The events, their numbering and every counter are therefore
// the same whatever the lane count or the goroutine schedule.
func (d *detector) refresh(frontier, seq int64, final bool) ([]Event, error) {
	c := d.rc.Config()
	// Gate: classification needs the full baseline and STL needs two
	// weekly periods; refreshing earlier would classify on garbage. A
	// baseline that ends with the analysis window, as an unset one
	// resolves to, does not gate: the daemon would refresh only at the end.
	if !final {
		if c.BaselineEnd != c.AnalysisEnd && frontier < c.BaselineEnd {
			return nil, nil
		}
		if frontier-c.AnalysisStart < 2*7*netsim.SecondsPerDay {
			return nil, nil
		}
	}
	d.refreshes++ // before the fan-out: trackCandidates reads it
	d.eachBlock(func(ln, b int) {
		a, err := d.analyzeBlock(ln, b)
		if err == nil {
			d.trackCandidates(d.blocks[b], a, seq)
		}
		d.errs[b] = err
	})
	var events []Event
	for b, bs := range d.blocks {
		if d.errs[b] != nil {
			d.blockErrs++
			continue
		}
		events = append(events, d.emit(b, bs, frontier, seq, final)...)
	}
	return events, nil
}

// eachBlock runs step for every block on the detector's lanes, handing
// blocks out by an atomic index so a lane that draws cheap blocks takes
// more of them. The calling goroutine is the first lane, so one lane runs
// the blocks inline, with no goroutines. step may write only block b's
// own state and lane ln's scratch.
func (d *detector) eachBlock(step func(ln, b int)) {
	var next atomic.Int64
	work := func(ln int) {
		for b := int(next.Add(1) - 1); b < len(d.blocks); b = int(next.Add(1) - 1) {
			step(ln, b)
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(d.lanes) - 1)
	for i := 1; i < len(d.lanes); i++ {
		go func(ln int) {
			defer wg.Done()
			work(ln)
		}(i)
	}
	work(0)
	wg.Wait()
}

// analyzeBlock is block b's analysis in a refresh's parallel phase: the
// block's front half advanced over the records ingested since the last
// refresh, then the kernel's analysis of it. It writes only the block's
// own state and the lane's scratch. The new analysis replaces bs.last at
// once, so no more than one analysis per lane is alive beside the world's
// current ones. A failed analysis leaves the block without one, as the
// batch pipeline leaves a failed block, so a block's analysis is its last
// refresh's whether or not a restore came between.
//
// The front half is rebuilt — reset, then advanced over all of bs.acc in
// one call — when it refuses the new records (one lands where its
// committed walk has already passed; see core.FrontState), and at the
// refresh after a panic, which may have left it half-written.
//
// A panic is recovered into a core.PanicError, as the batch pipeline
// recovers a worker's: the block counts one BlockError and is skipped for
// this refresh, and replay meets the same panic at the same refresh
// instead of crash-looping the daemon. The lane gets a fresh scratch, so
// whatever the panic left half-written cannot reach another block.
func (d *detector) analyzeBlock(ln, b int) (a *core.BlockAnalysis, err error) {
	bs := d.blocks[b]
	bs.last, bs.pending = nil, false
	defer func() {
		if rec := recover(); rec != nil {
			err = &core.PanicError{Value: rec, Stack: debug.Stack()}
			d.lanes[ln] = core.NewScratch()
			bs.stale = true
		}
	}()
	if d.hookBlock != nil {
		d.hookBlock(b)
	}
	if bs.stale || !bs.front.Advance(bs.unfed()) {
		bs.front.Reset()
		bs.front.Advance(bs.acc)
		bs.stale = false
		bs.rebuilds++
	}
	for o := range bs.acc {
		bs.fed[o] = len(bs.acc[o])
	}
	if a, err = bs.front.Analyze(d.lanes[ln]); err != nil {
		return nil, err
	}
	bs.last = a
	return a, nil
}

// unfed returns, per observer, the records ingested since the front half
// last advanced.
func (bs *blockState) unfed() [][]probe.Record {
	out := make([][]probe.Record, len(bs.acc))
	for o, s := range bs.acc {
		out[o] = s[bs.fed[o]:]
	}
	return out
}

// trackCandidates matches this refresh's full-window detections against
// the tracked candidates: each change goes to the nearest candidate in its
// direction within the slop that no other change of this refresh has
// taken, and opens a new one when none is left — so two changes close
// together are two candidates, each keeping its own streak. A candidate
// absent from a refresh has its presence streak reset: the confirmation
// clock restarts, which is what makes the emission latency bound provable.
func (d *detector) trackCandidates(bs *blockState, a *core.BlockAnalysis, seq int64) {
	slop := int64(matchSlopDays) * netsim.SecondsPerDay
	for _, ch := range a.Changes {
		var found *candidate
		for _, cand := range bs.cands {
			dist := abs64(cand.Change.Point - ch.Point)
			if cand.Change.Dir == ch.Dir && dist <= slop && cand.LastRefresh != d.refreshes &&
				(found == nil || dist < abs64(found.Change.Point-ch.Point)) {
				found = cand
			}
		}
		if found == nil {
			found = &candidate{FirstSeenSeq: seq, EligibleSeq: -1}
			bs.cands = append(bs.cands, found)
		}
		if found.LastRefresh != d.refreshes-1 || found.SeenStreak == 0 {
			// Streak broken (or new): restart the confirmation clock.
			found.FirstSeenSeq = seq
			found.SeenStreak = 0
		}
		found.Change = ch
		found.SeenStreak++
		found.LastRefresh = d.refreshes
	}
}

// emit applies the emission rule to every tracked candidate of one block.
//
// A candidate is emitted at the first refresh where it (a) is present in
// the current full-window detection, (b) has been present for
// ConfirmRefreshes consecutive refreshes, and (c) is *stable*: the data
// frontier is past every horizon that could still retract it — the
// outage-pair window past its alarm (a later recovery would pair-filter
// it away) and the boundary guard past its end (it can no longer be an
// STL edge artifact). The final refresh flushes every candidate present
// in the final analysis, so the emitted set converges exactly to the
// batch verdict.
func (d *detector) emit(b int, bs *blockState, frontier, seq int64, final bool) []Event {
	day := int64(netsim.SecondsPerDay)
	c := d.rc.Config()
	var out []Event
	for _, cand := range bs.cands {
		if cand.Emitted {
			continue
		}
		present := cand.LastRefresh == d.refreshes
		if !present {
			continue
		}
		horizon := cand.Change.End
		if h := cand.Change.Alarm + int64(c.OutageGapDays)*day; h > horizon {
			horizon = h
		}
		horizon += int64(c.BoundaryGuardDays+1) * day
		if cand.EligibleSeq < 0 && frontier >= horizon {
			cand.EligibleSeq = seq
		}
		confirmed := cand.SeenStreak >= int64(d.cfg.ConfirmRefreshes)
		if !final && (!confirmed || cand.EligibleSeq < 0) {
			continue
		}
		if cand.EligibleSeq < 0 {
			cand.EligibleSeq = seq
		}
		cand.Emitted = true
		ev := Event{
			Seq:          d.nextEvent,
			Block:        b,
			ID:           bs.id,
			Change:       cand.Change,
			FirstSeenSeq: cand.FirstSeenSeq,
			EligibleSeq:  cand.EligibleSeq,
			EmitSeq:      seq,
		}
		d.nextEvent++
		out = append(out, ev)
	}
	return out
}

// result assembles a WorldResult from the final refresh's analyses,
// aggregated exactly as the batch pipeline aggregates. A block restored
// from the final refresh's checkpoint is analyzed here, without tracking
// or emitting: its front half advanced over the whole stream gives the
// final refresh's analysis.
func (d *detector) result() (*core.WorldResult, error) {
	if d.processed != d.cfg.rounds() {
		return nil, fmt.Errorf("stream: %d of %d rounds processed; the stream is not complete", d.processed, d.cfg.rounds())
	}
	d.eachBlock(func(ln, b int) {
		if d.blocks[b].pending {
			d.analyzeBlock(ln, b)
		}
	})
	wr := &core.WorldResult{Report: &core.RunReport{}}
	for _, bs := range d.blocks {
		wr.Blocks = append(wr.Blocks, core.BlockOutcome{ID: bs.id, Place: bs.place, Analysis: bs.last})
	}
	if d.integ != nil {
		d.integ.Report(wr.Report)
	}
	wr.Reaggregate()
	return wr, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
