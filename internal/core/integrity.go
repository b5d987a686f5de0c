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

// integrityProber is the data-integrity firewall's layer: the innermost
// one (directly around the raw prober, inside the exclusion and
// supervision layers), so the gates judge exactly what the observers
// reported before any policy touches it. After each collection it runs
// integrity.Check over the raw streams and empties the gated ones;
// verdicts stay pending until the block settles (see layer).
type integrityProber struct {
	layerBase
	cfg integrity.Config

	mu      sync.Mutex
	pending map[netsim.BlockID][]integrity.Verdict
	// Committed aggregates, indexed by observer (grown lazily).
	matches, compares []int64
	gatedBlocks       []int
	verdicts          []IntegrityVerdict
}

func newIntegrityProber(inner Prober) *integrityProber {
	return &integrityProber{layerBase: layerBase{inner}, pending: map[netsim.BlockID][]integrity.Verdict{}}
}

func (p *integrityProber) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error) {
	bufs, err := p.inner.CollectInto(ctx, b, start, end, bufs)
	if err != nil {
		return bufs, err
	}
	verdicts := integrity.Check(p.cfg, bufs, b.EverActive(), start, end)
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

// commit consumes the block's pending verdicts, folds them into the
// run-level aggregates, and returns per-observer health samples for the
// breaker tracker: a gated observer scores an explicit zero, an ungated
// observer its agreement score, and an observer with no peer overlap a
// zero-Total sample the supervisor ignores (its reply-rate sample
// stands). Returns no samples when no collection for the block was seen.
func (p *integrityProber) commit(index int, id netsim.BlockID, _ []health.Sample) ([]health.Sample, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	vs, ok := p.pending[id]
	if !ok {
		return nil, 0
	}
	delete(p.pending, id)
	for len(p.matches) < len(vs) {
		p.matches = append(p.matches, 0)
		p.compares = append(p.compares, 0)
		p.gatedBlocks = append(p.gatedBlocks, 0)
	}
	samples := make([]health.Sample, len(vs))
	for oi := range vs {
		v := &vs[oi]
		p.matches[oi] += int64(v.Matches)
		p.compares[oi] += int64(v.Comparisons)
		switch {
		case v.Gated:
			samples[oi] = health.Sample{Up: 0, Total: 1}
		case v.Comparisons > 0:
			samples[oi] = health.Sample{Up: v.Matches, Total: v.Comparisons}
		}
		if v.Gated {
			p.gatedBlocks[oi]++
			p.verdicts = append(p.verdicts, IntegrityVerdict{
				Index: index, Block: id, Observer: oi, Reason: v.Reason,
			})
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

// report fills the run report's firewall fields from the committed
// aggregates: gated observers (ascending), per-observer aggregate
// agreement scores, and the per-(block, observer) verdicts in world
// order.
func (p *integrityProber) report(rep *RunReport) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for oi, n := range p.gatedBlocks {
		if n > 0 {
			rep.GatedStreams = append(rep.GatedStreams, oi)
		}
	}
	if len(p.compares) > 0 {
		rep.AgreementScores = make([]float64, len(p.compares))
		for oi := range p.compares {
			if p.compares[oi] == 0 {
				rep.AgreementScores[oi] = 1
			} else {
				rep.AgreementScores[oi] = float64(p.matches[oi]) / float64(p.compares[oi])
			}
		}
	}
	sort.Slice(p.verdicts, func(i, j int) bool {
		a, b := p.verdicts[i], p.verdicts[j]
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		return a.Observer < b.Observer
	})
	rep.IntegrityVerdicts = p.verdicts
}
