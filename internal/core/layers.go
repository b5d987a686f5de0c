package core

import (
	"context"

	"github.com/diurnalnet/diurnal/internal/health"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// layer is the one protocol of the pipeline's engine wrappers: a Prober
// that edits each collection's streams (only ever emptying them) and may
// park per-block state until the block settles. Pipeline.Run stacks the
// layers it needs around the engine once, collects through the outermost,
// and settles every block through all of them innermost first — commit
// when the analysis succeeded, discard when it failed or was cancelled —
// so however many retried or hedged attempts collected a block, each
// layer accounts for it exactly once.
type layer interface {
	Prober
	// commit folds block id's parked state into the layer's run-level
	// aggregates. inner holds the per-observer health samples produced by
	// the layers inside this one (nil when none did) and the returned
	// samples replace them for the layers outside. observers is how many
	// observers contributed records to the block, or 0 when the layer does
	// not count them.
	commit(index int, id netsim.BlockID, inner []health.Sample) (samples []health.Sample, observers int)
	// discard drops block id's parked state unaccounted.
	discard(id netsim.BlockID)
	// report fills the layer's RunReport fields once the run is over.
	report(rep *RunReport)
}

// layerBase is embedded by every layer. It holds the wrapped prober and
// supplies the settle methods of a layer that parks nothing.
type layerBase struct{ inner Prober }

func (layerBase) commit(_ int, _ netsim.BlockID, inner []health.Sample) ([]health.Sample, int) {
	return inner, 0
}
func (layerBase) discard(netsim.BlockID) {}
func (layerBase) report(*RunReport)      {}

// excludeProber drops excluded observers' record streams after collection
// — the run proceeds as if the broken sites had never reported.
type excludeProber struct {
	layerBase
	drop map[int]bool
}

func newExcludeProber(inner Prober, excluded []int) *excludeProber {
	drop := make(map[int]bool, len(excluded))
	for _, oi := range excluded {
		drop[oi] = true
	}
	return &excludeProber{layerBase: layerBase{inner}, drop: drop}
}

func (p *excludeProber) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error) {
	bufs, err := p.inner.CollectInto(ctx, b, start, end, bufs)
	if err != nil {
		return bufs, err
	}
	for i := range bufs {
		if p.drop[i] {
			bufs[i] = bufs[i][:0]
		}
	}
	return bufs, nil
}
