package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// countingLayer tallies a layer's settle calls per block. It replaces the
// layer in run.layers only — collection still goes through the real chain.
type countingLayer struct {
	layer
	onCommit func()

	mu                sync.Mutex
	commits, discards map[netsim.BlockID]int
}

func (c *countingLayer) commit(index int, id netsim.BlockID, inner []health.Sample) ([]health.Sample, int) {
	c.mu.Lock()
	c.commits[id]++
	c.mu.Unlock()
	if c.onCommit != nil {
		c.onCommit()
	}
	return c.layer.commit(index, id, inner)
}

func (c *countingLayer) discard(id netsim.BlockID) {
	c.mu.Lock()
	c.discards[id]++
	c.mu.Unlock()
	c.layer.discard(id)
}

// parked reports how many blocks still have state pending in the layer.
func (c *countingLayer) parked(t *testing.T) int {
	t.Helper()
	switch l := c.layer.(type) {
	case *integrityProber:
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.pending)
	case *supervisedProber:
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.obs)
	}
	t.Fatalf("layer %T: unknown pending state", c.layer)
	return 0
}

// lateLoserProber turns the hedge attempt of every even-numbered block
// into the worst-case loser: the first collection to find another one in
// flight for its block (the hedge, finding the stalled primary) waits to
// be cancelled — so the primary has won — and only then collects, ignoring
// the cancellation: a collector that delivers after nobody wants the
// answer. Odd blocks pass through, so their hedges can win.
type lateLoserProber struct {
	inner Prober

	mu       sync.Mutex
	inflight map[netsim.BlockID]int
	loser    map[netsim.BlockID]bool // the block already has its late loser
	late     int
}

func (p *lateLoserProber) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error) {
	p.mu.Lock()
	p.inflight[b.ID]++
	lose := b.ID%2 == 0 && p.inflight[b.ID] > 1 && !p.loser[b.ID]
	if lose {
		p.loser[b.ID] = true
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.inflight[b.ID]--
		p.mu.Unlock()
	}()
	if lose {
		<-ctx.Done()
		p.mu.Lock()
		p.late++
		p.mu.Unlock()
		ctx = context.Background()
	}
	return p.inner.CollectInto(ctx, b, start, end, bufs)
}

// settleFixture is a run with every settle-sensitive feature armed: the
// integrity and supervision layers, retried transient collect errors,
// permanent failures, stalls long enough to be hedged, and late hedge
// losers.
func settleFixture(t *testing.T, ctx context.Context) (*run, []*countingLayer, *lateLoserProber) {
	t.Helper()
	world := smallWorld(t, 40, 95)
	eng := &lateLoserProber{
		inner: &flakyProber{
			inner: &faults.Engine{
				Inner: engine4(),
				Plan: &faults.Plan{
					Seed:     23,
					Spurious: &faults.SpuriousCollect{Prob: 0.3, Attempts: 1},
					// The first 8 calls run clean so the latency baseline arms.
					Stall: &faults.Stall{Prob: 0.4, Delay: time.Second, Attempts: 1, FromCall: 8},
				},
			},
			fail: map[netsim.BlockID]bool{world[9].ID: true, world[20].ID: true, world[31].ID: true},
		},
		inflight: map[netsim.BlockID]int{},
		loser:    map[netsim.BlockID]bool{},
	}
	cfg := q1Config()
	cfg.Integrity = true
	breaker := health.DefaultBreaker()
	p := &Pipeline{
		Config:       cfg,
		Engine:       eng,
		Workers:      4,
		retryBackoff: time.Millisecond,
		Breaker:      &breaker,
		Quorum:       2,
		// The deadline follows the median so the late losers' own full-stall
		// latencies do not talk the watchdog out of hedging the next one.
		Hedge: &health.HedgeConfig{
			Multiplier:    3,
			Quantile:      0.5,
			MinSamples:    4,
			MinDeadline:   10 * time.Millisecond,
			MaxConcurrent: 4,
			Poll:          2 * time.Millisecond,
		},
	}
	r, err := p.newRun(ctx, world)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.layers) != 2 {
		t.Fatalf("want the integrity and supervision layers, got %d layers", len(r.layers))
	}
	counters := make([]*countingLayer, len(r.layers))
	for i, l := range r.layers {
		counters[i] = &countingLayer{layer: l, commits: map[netsim.BlockID]int{}, discards: map[netsim.BlockID]int{}}
		r.layers[i] = counters[i]
	}
	return r, counters, eng
}

// requireSettled checks the layer protocol's contract over a finished
// run: every analyzed block committed exactly once per layer and never
// discarded, every other block never committed and discarded at most once
// (exactly once when failed says it failed), and nothing left parked.
func requireSettled(t *testing.T, r *run, counters []*countingLayer, failed map[netsim.BlockID]bool) {
	t.Helper()
	for li, c := range counters {
		for i, wb := range r.world {
			id := wb.ID
			if r.res.Blocks[i].Analysis != nil {
				if c.commits[id] != 1 || c.discards[id] != 0 {
					t.Errorf("layer %d (%T): analyzed block %d committed %d times, discarded %d times; want 1 and 0",
						li, c.layer, i, c.commits[id], c.discards[id])
				}
				continue
			}
			if c.commits[id] != 0 || c.discards[id] > 1 || (failed[id] && c.discards[id] != 1) {
				t.Errorf("layer %d (%T): unanalyzed block %d (failed=%v) committed %d times, discarded %d times",
					li, c.layer, i, failed[id], c.commits[id], c.discards[id])
			}
		}
		if n := c.parked(t); n != 0 {
			t.Errorf("layer %d (%T): %d blocks still parked after Run returned", li, c.layer, n)
		}
	}
}

// TestLayersSettleExactlyOnce pins the layer protocol under everything
// that multiplies collections per block — retries, hedges that win,
// hedges that lose late — and everything that ends a block without an
// analysis: permanent failure and run cancellation.
func TestLayersSettleExactlyOnce(t *testing.T) {
	t.Run("complete", func(t *testing.T) {
		r, counters, eng := settleFixture(t, context.Background())
		res, err := r.execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report
		if rep.RetriedBlocks == 0 || rep.HedgedBlocks == 0 || rep.HedgeWins == 0 || eng.late == 0 || len(rep.BlockErrors) == 0 {
			t.Fatalf("fixture too tame: %d retried, %d hedged, %d hedge wins, %d late losers, %d failed",
				rep.RetriedBlocks, rep.HedgedBlocks, rep.HedgeWins, eng.late, len(rep.BlockErrors))
		}
		failed := map[netsim.BlockID]bool{}
		for _, be := range rep.BlockErrors {
			failed[be.ID] = true
		}
		requireSettled(t, r, counters, failed)
	})
	t.Run("cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		r, counters, _ := settleFixture(t, ctx)
		var commits atomic.Int32
		counters[0].onCommit = func() {
			if commits.Add(1) == 12 {
				cancel()
			}
		}
		if _, err := r.execute(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("want a cancelled run, got %v", err)
		}
		requireSettled(t, r, counters, nil)
	})
}
