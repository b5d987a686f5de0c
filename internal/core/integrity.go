package core

import (
	"context"
	"sort"
	"sync"

	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/integrity"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// IntegrityVerdict attributes one gated observer stream: which block,
// which observer, and the first gate it tripped. RunReport collects
// these so a degraded run names its liars instead of just counting them.
type IntegrityVerdict struct {
	// Index is the block's position in the input world slice.
	Index int
	// Block is the gated stream's block.
	Block netsim.BlockID
	// Observer is the engine observer index whose stream was excluded.
	Observer int
	// Reason names the gate: out-of-window, non-member, duplicates,
	// reply-rate, or disagreement (see integrity.Verdict.Reason).
	Reason string
}

// IntegrityTally attributes the data-integrity firewall's verdicts over
// a run: per-observer matches and comparisons, which observers were ever
// gated, and one verdict per gated (block, observer) stream carrying the
// first reason it was gated for. The batch pipeline adds each block's
// verdicts once, when the block settles; the streaming daemon adds every
// round's. The zero value is empty and ready; it is not safe for
// concurrent use.
type IntegrityTally struct {
	matches, compares []int64
	gated             []bool
	verdicts          []IntegrityVerdict
	seen              map[[2]int]bool // (index, observer) pairs in verdicts
}

// Add tallies the verdicts integrity.Check gave block id, the index-th of
// the world, one per observer stream.
func (t *IntegrityTally) Add(index int, id netsim.BlockID, verdicts []integrity.Verdict) {
	for len(t.matches) < len(verdicts) {
		t.matches = append(t.matches, 0)
		t.compares = append(t.compares, 0)
		t.gated = append(t.gated, false)
	}
	for oi := range verdicts {
		v := &verdicts[oi]
		t.matches[oi] += int64(v.Matches)
		t.compares[oi] += int64(v.Comparisons)
		if !v.Gated {
			continue
		}
		t.gated[oi] = true
		if t.seen == nil {
			t.seen = map[[2]int]bool{}
		}
		if key := [2]int{index, oi}; !t.seen[key] {
			t.seen[key] = true
			t.verdicts = append(t.verdicts, IntegrityVerdict{
				Index: index, Block: id, Observer: oi, Reason: v.Reason,
			})
		}
	}
}

// Report fills the run report's firewall fields: the gated observers
// ascending, each observer's aggregate agreement (1 when it was never
// compared), and the verdicts ordered by (index, observer).
func (t *IntegrityTally) Report(rep *RunReport) {
	for oi, g := range t.gated {
		if g {
			rep.GatedStreams = append(rep.GatedStreams, oi)
		}
	}
	if len(t.compares) > 0 {
		rep.AgreementScores = make([]float64, len(t.compares))
		for oi := range t.compares {
			if t.compares[oi] == 0 {
				rep.AgreementScores[oi] = 1
			} else {
				rep.AgreementScores[oi] = float64(t.matches[oi]) / float64(t.compares[oi])
			}
		}
	}
	sort.Slice(t.verdicts, func(i, j int) bool {
		a, b := t.verdicts[i], t.verdicts[j]
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Observer < b.Observer
	})
	rep.IntegrityVerdicts = append([]IntegrityVerdict(nil), t.verdicts...)
}

// integrityProber is the data-integrity firewall's layer: the innermost
// one (directly around the raw prober, inside the exclusion and
// supervision layers), so the gates judge exactly what the observers
// reported before any policy touches it. After each collection it runs
// integrity.Check over the raw streams and empties the gated ones;
// verdicts stay pending until the block settles (see layer).
type integrityProber struct {
	layerBase

	mu      sync.Mutex
	pending map[netsim.BlockID][]integrity.Verdict
	tally   IntegrityTally // the committed blocks' verdicts
}

func newIntegrityProber(inner Prober) *integrityProber {
	return &integrityProber{layerBase: layerBase{inner}, pending: map[netsim.BlockID][]integrity.Verdict{}}
}

func (p *integrityProber) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error) {
	bufs, err := p.inner.CollectInto(ctx, b, start, end, bufs)
	if err != nil {
		return bufs, err
	}
	verdicts := integrity.Check(integrity.Config{}, bufs, b.EverActive(), start, end)
	for oi := range verdicts {
		if verdicts[oi].Gated {
			bufs[oi] = bufs[oi][:0]
		}
	}
	p.mu.Lock()
	p.pending[b.ID] = verdicts // last attempt wins; commit consumes one
	p.mu.Unlock()
	return bufs, nil
}

// commit consumes the block's pending verdicts, adds them to the tally,
// and returns per-observer health samples for the breaker tracker: a
// gated observer scores an explicit zero, an ungated observer its
// agreement score, and an observer with no peer overlap a zero-Total
// sample the supervisor ignores (its reply-rate sample stands). Returns
// no samples when no collection for the block was seen.
func (p *integrityProber) commit(index int, id netsim.BlockID, _ []health.Sample) ([]health.Sample, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	vs, ok := p.pending[id]
	if !ok {
		return nil, 0
	}
	delete(p.pending, id)
	p.tally.Add(index, id, vs)
	samples := make([]health.Sample, len(vs))
	for oi := range vs {
		switch v := &vs[oi]; {
		case v.Gated:
			samples[oi] = health.Sample{Up: 0, Total: 1}
		case v.Comparisons > 0:
			samples[oi] = health.Sample{Up: v.Matches, Total: v.Comparisons}
		}
	}
	return samples, 0
}

// discard drops a failed block's pending verdicts unjudged.
func (p *integrityProber) discard(id netsim.BlockID) {
	p.mu.Lock()
	delete(p.pending, id)
	p.mu.Unlock()
}

// report fills the run report's firewall fields from the tally.
func (p *integrityProber) report(rep *RunReport) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tally.Report(rep)
}
