package core

import (
	"context"
	"sync"
	"time"

	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// supervisedProber is the layer between the pipeline and the health
// tracker: after each collection it drops the streams of observers whose
// breaker is currently open (the dynamic analogue of excludeProber) and
// records a per-observer reply-rate sample for the block. The sample is
// only folded into the tracker when the block commits (see layer).
type supervisedProber struct {
	layerBase
	// tracker may be nil: then nothing is dropped or scored, but
	// contributing-observer counts are still recorded for the quorum
	// guard.
	tracker *health.Tracker

	mu  sync.Mutex
	obs map[netsim.BlockID]observation
}

// observation is one block's latest collection outcome, pending commit.
type observation struct {
	samples []health.Sample
	// contributing counts observers that produced at least one record
	// after breaker drops — the quorum guard's input.
	contributing int
}

func newSupervisedProber(inner Prober, tracker *health.Tracker) *supervisedProber {
	return &supervisedProber{layerBase: layerBase{inner}, tracker: tracker, obs: map[netsim.BlockID]observation{}}
}

func (s *supervisedProber) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error) {
	bufs, err := s.inner.CollectInto(ctx, b, start, end, bufs)
	if err != nil {
		return bufs, err
	}
	var drop []bool
	if s.tracker != nil {
		drop = s.tracker.ExcludedSet(nil)
	}
	o := observation{samples: make([]health.Sample, len(bufs))}
	for i := range bufs {
		if i < len(drop) && drop[i] {
			bufs[i] = bufs[i][:0]
			continue
		}
		up := 0
		for _, r := range bufs[i] {
			if r.Up {
				up++
			}
		}
		o.samples[i] = health.Sample{Up: up, Total: len(bufs[i])}
		if len(bufs[i]) > 0 {
			o.contributing++
		}
	}
	s.mu.Lock()
	s.obs[b.ID] = o // last attempt wins; commit consumes exactly one
	s.mu.Unlock()
	return bufs, nil
}

// commit consumes the block's pending observation, feeds it to the
// tracker, and returns the contributing-observer count (0 when no
// collection for the block was seen). Entries of inner with a positive
// Total replace the corresponding reply-rate samples — the integrity
// firewall substitutes agreement scores there, so a lying observer scores
// by how much its peers contradict it rather than by how often it answers.
func (s *supervisedProber) commit(_ int, id netsim.BlockID, inner []health.Sample) ([]health.Sample, int) {
	s.mu.Lock()
	o, ok := s.obs[id]
	delete(s.obs, id)
	s.mu.Unlock()
	if !ok {
		return inner, 0
	}
	if s.tracker != nil {
		for i := range o.samples {
			if i < len(inner) && inner[i].Total > 0 {
				o.samples[i] = inner[i]
			}
		}
		s.tracker.ObserveBlock(o.samples)
	}
	return o.samples, o.contributing
}

// discard drops a failed block's pending observation unscored: a block
// whose analysis never completed says nothing about observer health.
func (s *supervisedProber) discard(id netsim.BlockID) {
	s.mu.Lock()
	delete(s.obs, id)
	s.mu.Unlock()
}

// report fills the breaker fields from the tracker's final state.
func (s *supervisedProber) report(rep *RunReport) {
	if s.tracker == nil {
		return
	}
	rep.BreakerTransitions = s.tracker.Transitions()
	rep.BreakerOpen = s.tracker.Excluded()
	rep.HealthScores = s.tracker.Scores()
}

// flight is one block's in-flight analysis under the hedging watchdog:
// a primary attempt, at most one hedge attempt, and a single decided
// outcome. The primary worker owns delivery — it blocks on done and then
// journals/aggregates the decided result exactly once, no matter which
// attempt produced it.
type flight struct {
	index int
	wb    *dataset.WorldBlock
	start time.Time

	pctx    context.Context
	pcancel context.CancelFunc
	hctx    context.Context
	hcancel context.CancelFunc

	mu       sync.Mutex
	active   int // attempts currently running
	hedged   bool
	decided  bool
	analysis *BlockAnalysis
	attempts int
	err      error
	done     chan struct{}
}

// hedger runs the straggler watchdog: it tracks per-block latency
// quantiles, re-dispatches blocks that exceed the adaptive deadline to a
// fresh attempt, cancels the loser, and funnels exactly one outcome per
// block back to the primary worker.
type hedger struct {
	r     *run
	cfg   health.HedgeConfig
	clock health.Clock
	lat   *health.Latency
	sem   chan struct{} // hedge-attempt budget, separate from workers
	stop  chan struct{}

	mu      sync.Mutex
	flights map[int]*flight
	hedged  int
	wins    int
}

func newHedger(r *run, cfg health.HedgeConfig, clock health.Clock) *hedger {
	cfg = cfg.WithDefaults()
	return &hedger{
		r:       r,
		cfg:     cfg,
		clock:   clock,
		lat:     health.NewLatency(cfg),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		stop:    make(chan struct{}),
		flights: map[int]*flight{},
	}
}

// run executes one block under the watchdog and returns the decided
// outcome. It does not return until every attempt for the block has been
// settled, so the caller's scratch stays owned by exactly one live
// attempt and its worker takes no next block before then.
func (h *hedger) run(ctx context.Context, i int, wb *dataset.WorldBlock, sc *Scratch) (*BlockAnalysis, int, error) {
	fl := &flight{
		index:  i,
		wb:     wb,
		start:  h.clock.Now(),
		active: 1,
		done:   make(chan struct{}),
	}
	fl.pctx, fl.pcancel = context.WithCancel(ctx)
	defer fl.pcancel()
	h.mu.Lock()
	h.flights[i] = fl
	h.mu.Unlock()

	a, attempts, err := h.r.analyzeBlock(fl.pctx, wb, sc)
	h.finish(fl, true, a, attempts, err)
	<-fl.done

	h.mu.Lock()
	delete(h.flights, i)
	h.mu.Unlock()
	return fl.analysis, fl.attempts, fl.err
}

// finish settles one attempt. The first success decides the flight and
// cancels the other attempt; a failure decides it only once no other
// attempt is still running, so a hedge can still rescue a block whose
// primary died. done closes when the last attempt has settled, not at the
// decision: a cancelled loser may still be inside a collection, and the
// layers must see it park its state before the block commits, never after.
func (h *hedger) finish(fl *flight, primary bool, a *BlockAnalysis, attempts int, err error) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.active--
	// Once decided, a later result is the loser's: identical anyway
	// (analysis is deterministic), so it is dropped.
	if !fl.decided {
		if err == nil {
			fl.decided = true
			fl.analysis, fl.attempts, fl.err = a, attempts, nil
			if !primary {
				h.mu.Lock()
				h.wins++
				h.mu.Unlock()
			}
			h.lat.Observe(h.clock.Now().Sub(fl.start))
		} else {
			fl.err = err
			fl.attempts += attempts
			fl.decided = fl.active == 0 // else the other attempt may still win
		}
		if fl.decided {
			fl.pcancel()
			if fl.hcancel != nil {
				fl.hcancel()
			}
		}
	}
	if fl.active == 0 {
		close(fl.done)
	}
}

// watch polls in-flight blocks against the adaptive deadline and hedges
// stragglers. It exits when the run closes stop or ctx dies.
func (h *hedger) watch(ctx context.Context) {
	for {
		select {
		case <-h.stop:
			return
		case <-ctx.Done():
			return
		case <-h.clock.After(h.cfg.Poll):
		}
		deadline, ok := h.lat.Deadline()
		if !ok {
			continue // not enough completed blocks to know what "slow" means
		}
		now := h.clock.Now()
		h.mu.Lock()
		var stragglers []*flight
		for _, fl := range h.flights {
			if now.Sub(fl.start) > deadline {
				stragglers = append(stragglers, fl)
			}
		}
		h.mu.Unlock()
		for _, fl := range stragglers {
			h.maybeHedge(ctx, fl)
		}
	}
}

// maybeHedge spawns the block's single hedge attempt if it has not been
// hedged or decided yet.
func (h *hedger) maybeHedge(ctx context.Context, fl *flight) {
	fl.mu.Lock()
	if fl.decided || fl.hedged {
		fl.mu.Unlock()
		return
	}
	fl.hedged = true
	fl.active++
	fl.hctx, fl.hcancel = context.WithCancel(ctx)
	fl.mu.Unlock()
	h.mu.Lock()
	h.hedged++
	h.mu.Unlock()
	go func() {
		// The hedge budget is separate from the worker pool, so stalled
		// primaries can never starve the attempts meant to rescue them.
		select {
		case h.sem <- struct{}{}:
			defer func() { <-h.sem }()
		case <-fl.hctx.Done(): // the flight was decided, or the run cancelled
			h.finish(fl, false, nil, 0, fl.hctx.Err())
			return
		}
		a, attempts, err := h.r.analyzeBlock(fl.hctx, fl.wb, NewScratch())
		h.finish(fl, false, a, attempts, err)
	}()
}

// stats reports how many blocks were hedged and how many hedge attempts
// won their race.
func (h *hedger) stats() (hedged, wins int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hedged, h.wins
}
