package stream

// A refresh re-runs a block's outage belief only over the stretches of its
// committed trace that a certificate cannot vouch for (outage.Trace). These
// tests drive a world whose reply rate moves past the certificate's width
// mid-quarter and hold every refresh to the kernel from scratch.

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

// darkEngine is a prober under which every other block stops answering for
// a few days: their records in [from, to) arrive unanswered.
type darkEngine struct {
	inner    core.Prober
	from, to int64
}

func (e *darkEngine) CollectInto(ctx context.Context, b *netsim.Block, start, end int64, bufs [][]probe.Record) ([][]probe.Record, error) {
	bufs, err := e.inner.CollectInto(ctx, b, start, end, bufs)
	if err != nil || b.ID%2 != 0 {
		return bufs, err
	}
	for _, s := range bufs {
		for i := range s {
			if s[i].T >= e.from && s[i].T < e.to {
				s[i].Up = false
			}
		}
	}
	return bufs, nil
}

// TestCertifiedBeliefMatchesKernel: half the blocks go dark for six days in
// the middle of the quarter, which drops their reply rate by more than the
// certificate's width, so their belief must be recertified. Every refresh,
// daily and weekly, still equals the kernel over the block's whole
// history; the certified replays skip records; and a daemon run reports
// the certifications and no rebuilds in its Stats.
func TestCertifiedBeliefMatchesKernel(t *testing.T) {
	start, _ := testWindow()
	day := int64(netsim.SecondsPerDay)
	eng := &darkEngine{inner: testEngine(99), from: start + 40*day, to: start + 46*day}
	world := testWorld(t, 4, 4242)
	f := testFeeder(t, eng, world, testConfig())
	rounds := feederRounds(t, f)
	for _, every := range []int{1, 7} {
		cfg := testConfig()
		cfg.RefreshEvery = every
		det := testDetector(t, cfg, world, f.Observers(), 1)
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
					t.Fatalf("refresh every %d, round %d block %d: the refresh differs from the kernel over the whole history in %v",
						every, r.Seq, b, differingFields(*bs.last, *want))
				}
			}
		}
		skipped, recertified := 0, 0
		for b, bs := range det.blocks {
			certs, n := bs.front.Certified()
			records := 0
			for _, s := range bs.acc {
				records += len(s)
			}
			t.Logf("refresh every %d, block %d: %d certifications, %d rebuilds, %d records skipped over %d refreshes of %d records",
				every, b, certs, bs.rebuilds, n, det.refreshes, records)
			skipped += n
			if certs > bs.rebuilds+1 {
				recertified++
			}
		}
		if skipped == 0 {
			t.Errorf("refresh every %d: no refresh skipped a record", every)
		}
		if recertified == 0 {
			t.Errorf("refresh every %d: no block recertified after its first refresh", every)
		}
	}

	d, err := Open(t.TempDir(), world, f.Observers(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	ctx := context.Background()
	if err := f.Feed(ctx, d); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if st.BeliefCertifications <= int64(len(world)) || st.FrontRebuilds != 0 {
		t.Errorf("Stats: %d belief certifications, %d front rebuilds; want more than one per block, and none",
			st.BeliefCertifications, st.FrontRebuilds)
	}
}
