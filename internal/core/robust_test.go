package core

import (
	"context"
	"errors"
	"testing"

	"github.com/diurnalnet/diurnal/internal/changepoint"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/geo"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// flakyProber fails collection for a chosen set of blocks.
type flakyProber struct {
	inner Prober
	fail  map[netsim.BlockID]bool
}

func (p *flakyProber) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error) {
	if p.fail[b.ID] {
		return bufs, errors.New("collector crashed")
	}
	return p.inner.CollectInto(ctx, b, start, end, bufs)
}

func smallWorld(t testing.TB, blocks int, seed uint64) []*dataset.WorldBlock {
	t.Helper()
	world, err := dataset.BuildWorld(dataset.WorldOpts{
		Blocks:   blocks,
		Seed:     seed,
		Calendar: events.Year2020(),
		Start:    q1Start,
		End:      q1End,
	})
	if err != nil {
		t.Fatal(err)
	}
	return world
}

func TestPipelinePartialResultOnBlockErrors(t *testing.T) {
	world := smallWorld(t, 20, 41)
	// Pick two blocks that actually reach the prober: blocks with an empty
	// target list are dropped before collection and cannot fail.
	var idx []int
	for i, wb := range world {
		if len(wb.Block.EverActive()) > 0 {
			idx = append(idx, i)
		}
		if len(idx) == 2 {
			break
		}
	}
	if len(idx) < 2 {
		t.Fatal("world has too few responsive blocks")
	}
	fail := map[netsim.BlockID]bool{
		world[idx[0]].ID: true,
		world[idx[1]].ID: true,
	}
	p := &Pipeline{
		Config: q1Config(),
		Engine: &flakyProber{inner: engine4(), fail: fail},
	}
	res, err := p.Run(context.Background(), world)
	if err != nil {
		t.Fatalf("partial failure must not abort the run: %v", err)
	}
	if got := len(res.Report.BlockErrors); got != 2 {
		t.Fatalf("expected 2 block errors, got %d", got)
	}
	if res.Report.BlockErrors[0].Index != idx[0] || res.Report.BlockErrors[1].Index != idx[1] {
		t.Fatalf("block errors not in world order: %+v", res.Report.BlockErrors)
	}
	for i, b := range res.Blocks {
		if fail[world[i].ID] {
			if b.Analysis != nil {
				t.Fatalf("failed block %d has an analysis", i)
			}
			continue
		}
		if b.Analysis == nil {
			t.Fatalf("healthy block %d lost its analysis", i)
		}
	}
	if want := len(world) - 2; res.Report.AnalyzedBlocks != want {
		t.Fatalf("AnalyzedBlocks %d != %d", res.Report.AnalyzedBlocks, want)
	}
	var be BlockError
	if !errors.As(res.Report.BlockErrors[0], &be) || be.ID != world[idx[0]].ID {
		t.Fatal("BlockError lost its identity")
	}
}

func TestPipelineAllBlocksFailedReturnsError(t *testing.T) {
	// Keep only blocks that reach the prober so every one genuinely fails.
	var world []*dataset.WorldBlock
	for _, wb := range smallWorld(t, 12, 43) {
		if len(wb.Block.EverActive()) > 0 {
			world = append(world, wb)
		}
	}
	if len(world) == 0 {
		t.Fatal("world has no responsive blocks")
	}
	fail := map[netsim.BlockID]bool{}
	for _, wb := range world {
		fail[wb.ID] = true
	}
	p := &Pipeline{Config: q1Config(), Engine: &flakyProber{inner: engine4(), fail: fail}}
	res, err := p.Run(context.Background(), world)
	if err == nil {
		t.Fatal("a run where every block failed must return an error")
	}
	if res == nil || len(res.Report.BlockErrors) != len(world) {
		t.Fatal("the error report must still cover every block")
	}
}

func emptyResult() *WorldResult {
	return &WorldResult{
		Cells:       map[geo.CellKey]*geo.CellStats{},
		DownDaily:   map[geo.CellKey]map[int64]int{},
		UpDaily:     map[geo.CellKey]map[int64]int{},
		CellCS:      map[geo.CellKey]int{},
		ContinentCS: map[geo.Continent]int{},
		Report:      &RunReport{},
	}
}

func TestCellFractionSeriesZeroChangeSensitive(t *testing.T) {
	res := emptyResult()
	cell := geo.CellKey{Lat: 40, Lon: -120}
	got := res.CellFractionSeries(cell, changepoint.Down, 100, 105)
	if len(got) != 5 {
		t.Fatalf("series length %d != 5", len(got))
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("day %d: expected 0 for a cell with no CS blocks, got %v", i, v)
		}
	}
}

func TestContinentFractionSeriesZeroChangeSensitive(t *testing.T) {
	res := emptyResult()
	got := res.ContinentFractionSeries(geoContinent(1), 100, 104)
	if len(got) != 4 {
		t.Fatalf("series length %d != 4", len(got))
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("day %d: expected 0 for a continent with no CS blocks, got %v", i, v)
		}
	}
}

// TestPipelineFaultInjectedWorld is the headline robustness scenario: one
// observer broken (heavy erratic loss plus a multi-week downtime) and
// bursty loss everywhere. The run must still cover every block, and the
// health pre-pass must identify and exclude the broken observer.
func TestPipelineFaultInjectedWorld(t *testing.T) {
	world := smallWorld(t, 24, 47)
	eng := engine4()
	plan := faults.DefaultPlan(len(eng.Observers), 1, q1Start, 99)
	p := &Pipeline{
		Config:          q1Config(),
		Engine:          &faults.Engine{Inner: eng, Plan: plan},
		ExcludeSuspects: true,
		HealthSample:    8,
	}
	res, err := p.Run(context.Background(), world)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.AnalyzedBlocks != len(world) {
		t.Fatalf("faulty observers must not sink blocks: analyzed %d of %d (errors: %v)",
			res.Report.AnalyzedBlocks, len(world), res.Report.BlockErrors)
	}
	broken := len(eng.Observers) - 1
	found := false
	for _, oi := range res.Report.ExcludedObservers {
		if oi == broken {
			found = true
		}
	}
	if !found {
		t.Fatalf("broken observer %d not excluded (rates %v, excluded %v)",
			broken, res.Report.ObserverRates, res.Report.ExcludedObservers)
	}
	if len(res.Report.ExcludedObservers) == len(eng.Observers) {
		t.Fatal("health check must never exclude every observer")
	}
}

// TestPipelineHealthCheckKeepsHealthyObservers guards the other side: with
// no faults the pre-pass must find nothing to exclude, and results must
// match a run without the check.
func TestPipelineHealthCheckKeepsHealthyObservers(t *testing.T) {
	world := smallWorld(t, 12, 53)
	run := func(exclude bool) *WorldResult {
		p := &Pipeline{Config: q1Config(), Engine: engine4(), ExcludeSuspects: exclude, HealthSample: 6}
		res, err := p.Run(context.Background(), world)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with, without := run(true), run(false)
	if n := len(with.Report.ExcludedObservers); n != 0 {
		t.Fatalf("healthy observers excluded: %v", with.Report.ExcludedObservers)
	}
	if with.ChangeSensitiveCount() != without.ChangeSensitiveCount() {
		t.Fatal("health check changed results on a healthy world")
	}
}
