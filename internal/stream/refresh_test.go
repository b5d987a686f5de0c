package stream

// A refresh advances each block's front half by the records ingested since
// the last one (core.FrontState). These tests hold every refresh of every
// block to the kernel run from scratch over the block's whole history,
// which is what each refresh ran before the front half was incremental.

import (
	"reflect"
	"slices"
	"testing"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// feederRounds returns every round of f.
func feederRounds(t *testing.T, f *Feeder) []*Round {
	t.Helper()
	rounds := make([]*Round, f.Rounds())
	for i := range rounds {
		r, err := f.Round(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		rounds[i] = r
	}
	return rounds
}

// refreshIdentity ingests rounds into a one-lane detector and, after every
// refresh, requires each block's analysis to equal
// AnalyzeCollectedScratch over a copy of the block's accumulated streams.
// It returns how many analyses it compared and how many times a block's
// front half was rebuilt.
func refreshIdentity(t *testing.T, world []*dataset.WorldBlock, obs int, rounds []*Round, cfg Config) (compared, rebuilds int) {
	t.Helper()
	det := testDetector(t, cfg, world, obs, 1)
	sc := core.NewScratch()
	for _, r := range rounds {
		before := det.refreshes
		if _, err := det.ingest(r); err != nil {
			t.Fatalf("round %d: %v", r.Seq, err)
		}
		if det.refreshes == before {
			continue
		}
		for b, bs := range det.blocks {
			perObs := make([][]probe.Record, len(bs.acc))
			for o, s := range bs.acc {
				perObs[o] = slices.Clone(s)
			}
			want, err := det.cfg.Core.AnalyzeCollectedScratch(perObs, bs.eb, sc)
			if err != nil {
				t.Fatalf("round %d block %d: kernel: %v", r.Seq, b, err)
			}
			if !reflect.DeepEqual(bs.last, want) {
				t.Fatalf("round %d block %d: the refresh differs from the kernel over the whole history in %v",
					r.Seq, b, differingFields(*bs.last, *want))
			}
			compared++
		}
	}
	for _, bs := range det.blocks {
		rebuilds += bs.rebuilds
	}
	return compared, rebuilds
}

// differingFields names the BlockAnalysis fields that differ.
func differingFields(got, want core.BlockAnalysis) []string {
	var out []string
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			out = append(out, g.Type().Field(i).Name)
		}
	}
	return out
}

// TestRefreshMatchesKernel: a clean world, a faulty one (loss bursts, an
// observer down for days, clock skew, duplicated and reordered batches)
// and a Byzantine one with the integrity firewall armed, each refreshed
// every round and every week.
func TestRefreshMatchesKernel(t *testing.T) {
	start, _ := testWindow()
	worlds := []struct {
		name string
		eng  func() core.Prober
		cfg  Config
		obs  int
	}{
		{"clean", func() core.Prober { return testEngine(99) }, testConfig(), 3},
		{"faults", func() core.Prober {
			return &faults.Engine{Inner: testEngine(11), Plan: faults.DefaultPlan(3, 0.3, start, 23)}
		}, testConfig(), 3},
		{"byzantine", func() core.Prober { return byzEngine(t, "replay", 5) }, byzConfig(), byzObservers},
	}
	for _, w := range worlds {
		world := testWorld(t, 4, 4242)
		f := testFeeder(t, w.eng(), world, w.cfg)
		rounds := feederRounds(t, f)
		for _, every := range []int{1, 7} {
			cfg := w.cfg
			cfg.RefreshEvery = every
			compared, rebuilds := refreshIdentity(t, world, f.Observers(), rounds, cfg)
			if compared == 0 {
				t.Fatalf("%s, refresh every %d: no refresh ran", w.name, every)
			}
			t.Logf("%s, refresh every %d: %d analyses equal the kernel's, %d rebuilds", w.name, every, compared, rebuilds)
		}
	}
}

// TestRefreshRebuildsOnEarlierRecord: a record re-sent days after its round
// lands where the front half has already committed; the refresh rebuilds
// it over the whole history and still equals the kernel.
func TestRefreshRebuildsOnEarlierRecord(t *testing.T) {
	world := testWorld(t, 2, 4242)
	cfg := testConfig()
	f := testFeeder(t, testEngine(99), world, cfg)
	rounds := feederRounds(t, f)
	// Round k carries, first for block b's observer 0, a copy of a record
	// that observer sent in round from.
	const k, from = 50, 44
	b := slices.IndexFunc(rounds[from].Blocks, func(perObs [][]probe.Record) bool { return len(perObs[0]) > 0 })
	if b < 0 {
		t.Fatalf("no block has records from observer 0 in round %d", from)
	}
	sent := rounds[from].Blocks[b][0]
	late := *rounds[k]
	late.Blocks = slices.Clone(late.Blocks)
	late.Blocks[b] = slices.Clone(late.Blocks[b])
	late.Blocks[b][0] = append([]probe.Record{sent[len(sent)/2]}, late.Blocks[b][0]...)
	rounds[k] = &late
	for _, every := range []int{1, 7} {
		cfg.RefreshEvery = every
		_, rebuilds := refreshIdentity(t, world, f.Observers(), rounds, cfg)
		if rebuilds != 1 {
			t.Errorf("refresh every %d: %d rebuilds, want the one the re-sent record forces", every, rebuilds)
		}
	}
}
