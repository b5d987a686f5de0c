// Package dataset assembles complete simulated datasets: it maps the
// atlas placements of internal/geo onto concrete netsim blocks, attaches
// the ground-truth event calendar plus background noise (outages,
// renumbering), names the dataset windows after the paper's Table 6, and
// provides a compact binary codec for probe observation logs.
package dataset

import (
	"fmt"

	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/netsim"
)

const (
	saltSpec uint64 = 0xd501
	saltOut  uint64 = 0xd502
	saltRen  uint64 = 0xd503
)

// WorldBlock is one simulated /24 with its geographic placement.
type WorldBlock struct {
	*netsim.Block
	Place geo.Placement
}

// WorldOpts configures BuildWorld.
type WorldOpts struct {
	// Blocks is the number of /24s to build.
	Blocks int
	// Seed drives all randomness.
	Seed uint64
	// Calendar supplies region events; nil means no scheduled events.
	Calendar *events.Calendar
	// Start and End bound the simulation window; background noise events
	// are placed inside it.
	Start, End int64
	// OutageProb is the chance a block suffers one random outage in the
	// window (default 0.03); RenumberProb likewise for renumbering events
	// (default 0.02). Set negative to disable.
	OutageProb, RenumberProb float64
}

// SpecFor translates a geographic archetype into a concrete block
// population, with per-block variation drawn from the seed.
func SpecFor(arch geo.Archetype, seed uint64, tz int64) netsim.Spec {
	u := func(salt uint64, lo, hi int) int {
		return lo + int(netsim.HashUnit(seed, saltSpec, salt)*float64(hi-lo+1))
	}
	s := netsim.Spec{TZOffset: tz}
	switch arch {
	case geo.Workplace:
		s.Workers = u(1, 30, 120)
		s.AlwaysOn = u(2, 2, 10)
		s.Firewalled = u(3, 0, 30)
		s.DormantProb = 0.08
		// A quarter of workplaces are dense campuses where servers and
		// lab machines keep most addresses always-responsive; these are
		// the blocks whose full scans take many hours (Figure 4 bottom,
		// Figure 5) and that motivate additional probing (§2.8).
		if netsim.HashUnit(seed, saltSpec, 14) < 0.25 {
			s.AlwaysOn = u(15, 60, 160)
			s.Workers = u(16, 40, 90)
			s.Firewalled = 0
		}
	case geo.HomePublic:
		s.Homes = u(4, 30, 120)
		s.AlwaysOn = u(5, 0, 5)
		s.DormantProb = 0.06
	case geo.NATGateway:
		s.AlwaysOn = u(6, 1, 4)
		s.Intermittent = u(12, 0, 14) // visible churn behind some gateways
	case geo.ServerFarm:
		s.AlwaysOn = u(7, 50, 200)
		s.Intermittent = u(13, 10, 50) // hosting churn
	case geo.FirewalledNet:
		s.Firewalled = u(8, 100, 250)
	case geo.SparseMixed:
		s.Intermittent = u(9, 5, 40)
		s.Workers = u(10, 0, 5)
		s.Homes = u(11, 0, 5)
		s.DormantProb = 0.15
	}
	return s
}

// BuildWorld constructs the simulated world: placements from the atlas,
// block populations from archetypes, calendar events per region, and
// background outage/renumber noise.
func BuildWorld(opts WorldOpts) ([]*WorldBlock, error) {
	if opts.Blocks <= 0 {
		return nil, fmt.Errorf("dataset: Blocks must be positive")
	}
	if opts.End <= opts.Start {
		return nil, fmt.Errorf("dataset: empty window [%d,%d)", opts.Start, opts.End)
	}
	outageProb := opts.OutageProb
	if outageProb == 0 {
		outageProb = 0.03
	}
	renumberProb := opts.RenumberProb
	if renumberProb == 0 {
		renumberProb = 0.02
	}
	placements, err := geo.PlaceBlocks(geo.DefaultWorld(), opts.Blocks, opts.Seed)
	if err != nil {
		return nil, err
	}
	world := make([]*WorldBlock, 0, len(placements))
	span := opts.End - opts.Start
	for _, p := range placements {
		spec := SpecFor(p.Archetype, p.Seed, p.Region.TZOffset)
		id := netsim.BlockID(netsim.Hash64(opts.Seed, uint64(p.Index)) & 0xffffff)
		blk, err := netsim.NewBlock(id, p.Seed, spec)
		if err != nil {
			return nil, fmt.Errorf("dataset: block %d: %w", p.Index, err)
		}
		if opts.Calendar != nil {
			for _, e := range opts.Calendar.EventsFor(p.Region.Code) {
				blk.AddEvent(e)
			}
		}
		if outageProb > 0 && netsim.HashUnit(p.Seed, saltOut, 1) < outageProb {
			at := opts.Start + int64(netsim.HashUnit(p.Seed, saltOut, 2)*float64(span))
			dur := int64(1800 + netsim.HashUnit(p.Seed, saltOut, 3)*float64(10*3600))
			blk.AddEvent(netsim.Event{Kind: netsim.EventOutage, Start: at, End: at + dur})
		}
		if renumberProb > 0 && netsim.HashUnit(p.Seed, saltRen, 1) < renumberProb {
			at := opts.Start + int64(netsim.HashUnit(p.Seed, saltRen, 2)*float64(span))
			blk.AddEvent(netsim.Event{Kind: netsim.EventRenumber, Start: at})
		}
		world = append(world, &WorldBlock{Block: blk, Place: p})
	}
	return world, nil
}
