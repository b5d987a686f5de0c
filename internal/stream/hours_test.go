package stream

import (
	"math"
	"math/rand"
	"testing"

	"github.com/diurnalnet/diurnal/internal/dsp"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/probe"
)

func hoursBlock() *blockState {
	bins := dsp.DiurnalBins(slidingWindowHours, 3600, float64(netsim.SecondsPerDay), 3)
	return &blockState{sliding: dsp.NewSlidingDiurnal(slidingWindowHours, bins, 0)}
}

func sameSliding(t *testing.T, got, want *dsp.SlidingDiurnal, what string) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: %d hourly samples pushed, want %d", what, got.Count(), want.Count())
	}
	bins := dsp.DiurnalBins(slidingWindowHours, 3600, float64(netsim.SecondsPerDay), 3)
	for i := range bins {
		if math.Float64bits(got.BinPower(i)) != math.Float64bits(want.BinPower(i)) {
			t.Fatalf("%s: bin %d power %v, want %v", what, i, got.BinPower(i), want.BinPower(i))
		}
	}
}

// TestPushHoursPartialTrailingHour is the regression for a window that does
// not end on the hour: roundWindow clips the last round to AnalysisEnd, and
// a responsive record in the trailing partial hour used to index past the
// hour buffers (sized by the window's whole hours) inside the analysis
// goroutine. The partial hour gets a sample of its own.
func TestPushHoursPartialTrailingHour(t *testing.T) {
	bs := hoursBlock()
	perObs := [][]probe.Record{{{T: 1800, Addr: 7, Up: true}, {T: 4500, Addr: 7, Up: true}, {T: 4500, Addr: 9, Up: true}, {T: 5400, Addr: 1, Up: true}}}
	new(detector).pushHours(bs, 0, 5400, perObs)
	want := hoursBlock()
	want.sliding.Push(1) // [0, 3600): address 7
	want.sliding.Push(2) // [3600, 5400): addresses 7 and 9; T = 5400 is outside the round
	sameSliding(t, bs.sliding, want.sliding, "90-minute round")

	// The daemon's own clipped last round.
	cfg := testConfig()
	cfg.Core.AnalysisEnd -= 1800
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	start, end := cfg.roundWindow(cfg.rounds() - 1)
	if (end-start)%3600 == 0 {
		t.Fatalf("last round [%d,%d) ends on the hour; the test needs a clipped one", start, end)
	}
	last := hoursBlock()
	new(detector).pushHours(last, start, end, [][]probe.Record{{{T: end - 1, Addr: 3, Up: true}}})
	if got, want := last.sliding.Count(), (end-start+3599)/3600; got != want {
		t.Fatalf("clipped last round pushed %d hourly samples, want %d", got, want)
	}
}

// referencePushHours is the parent commit's pushHours, verbatim apart from
// its name: the oracle for rounds that end on the hour.
func (bs *blockState) referencePushHours(start, end int64, perObs [][]probe.Record) {
	hours := int((end - start) / 3600)
	if hours <= 0 {
		return
	}
	counts := make([]int16, hours)
	seen := make([]map[uint8]bool, hours)
	for _, recs := range perObs {
		for _, rec := range recs {
			if !rec.Up || rec.T < start || rec.T >= end {
				continue
			}
			h := int((rec.T - start) / 3600)
			if seen[h] == nil {
				seen[h] = make(map[uint8]bool, 8)
			}
			if !seen[h][rec.Addr] {
				seen[h][rec.Addr] = true
				counts[h]++
			}
		}
	}
	for _, c := range counts {
		bs.sliding.Push(float64(c))
	}
}

// TestPushHoursMatchesReference: on whole-hour rounds the bitset count
// feeds the sliding DFT exactly what the per-hour maps did, and once the
// detector's scratch has grown to the longest round, ingest allocates
// nothing for it.
func TestPushHoursMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	got, want := hoursBlock(), hoursBlock()
	var d detector // its hour sets are reused from round to round
	var round [][]probe.Record
	var start, end int64
	for r := 0; r < 60; r++ {
		start, end = end, end+int64(1+rng.Intn(30))*3600
		round = make([][]probe.Record, 3)
		for o := range round {
			for n := rng.Intn(400); n > 0; n-- {
				round[o] = append(round[o], probe.Record{
					T:    start - 3600 + rng.Int63n(end-start+7200), // some outside the round
					Addr: uint8(rng.Intn(256)),
					Up:   rng.Intn(3) > 0,
				})
			}
		}
		d.pushHours(got, start, end, round)
		want.referencePushHours(start, end, round)
		sameSliding(t, got.sliding, want.sliding, "random rounds")
	}
	if allocs := testing.AllocsPerRun(20, func() { d.pushHours(got, start, start+3600, round) }); allocs != 0 {
		t.Errorf("pushHours on a warm scratch allocates %.0f times per block and round, want 0", allocs)
	}
}
