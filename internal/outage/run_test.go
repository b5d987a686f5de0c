package outage

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// randomResponses draws a stream the belief both saturates on and crosses
// its thresholds on: long replied and silent stretches between coin flips.
func randomResponses(rng *rand.Rand, n int) []probe.Record {
	recs := make([]probe.Record, 0, n)
	for len(recs) < n {
		stretch, up := 1, rng.Intn(2) == 0
		if rng.Intn(4) == 0 {
			stretch = 1 + rng.Intn(60)
		}
		for ; stretch > 0 && len(recs) < n; stretch-- {
			recs = append(recs, probe.Record{T: int64(len(recs)) * 660, Addr: uint8(rng.Intn(256)), Up: up})
		}
	}
	return recs
}

func sameDetector(a, b *Detector) bool {
	return math.Float64bits(a.belief) == math.Float64bits(b.belief) && a.state == b.state && slices.Equal(a.outages, b.outages)
}

// TestObserveAllStepsAndRuns feeds one random stream to the update loop
// three ways — whole, record by record through Observe, and in runs of
// random length as the analysis kernel's walk delivers it — and to the
// parent's loop (reference_test.go): belief, state and intervals agree
// bit for bit after every piece.
func TestObserveAllStepsAndRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	intervals := 0
	tuned := Params{UpThreshold: 0.95, DownThreshold: 0.2, LieProbability: 0.05, BeliefFloor: 0.001, BeliefCeiling: 0.999}
	for _, avail := range []float64{0.001, 0.05, 0.3, 0.8, 0.99, 1} {
		for _, params := range []Params{{}, tuned, {LieProbability: 0.9}} { // the last: availability below the lie rate, no fast path
			recs := randomResponses(rng, 6000)
			build := func() *Detector {
				d, err := NewDetector(avail, params)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			whole, ref := build(), build()
			whole.ObserveAll(recs)
			observeAllReference(ref, recs)
			if !sameDetector(whole, ref) {
				t.Fatalf("avail %v: ObserveAll (belief %v, %v, %d intervals) differs from the reference (belief %v, %v, %d intervals)",
					avail, whole.belief, whole.state, len(whole.outages), ref.belief, ref.state, len(ref.outages))
			}
			intervals += len(ref.outages)
			steps, runs, ref := build(), build(), build()
			for rest := recs; len(rest) > 0; {
				n := 1 + rng.Intn(min(len(rest), 9))
				runs.ObserveAll(rest[:n])
				for _, r := range rest[:n] {
					steps.Observe(r.T, r.Up)
				}
				observeAllReference(ref, rest[:n])
				if !sameDetector(runs, ref) || !sameDetector(steps, ref) {
					t.Fatalf("avail %v, %d records in: runs (belief %v, %v), steps (belief %v, %v), reference (belief %v, %v)",
						avail, len(recs)-len(rest)+n, runs.belief, runs.state, steps.belief, steps.state, ref.belief, ref.state)
				}
				rest = rest[n:]
			}
			if !sameDetector(runs, whole) {
				t.Fatalf("avail %v: the stream in runs ends elsewhere than the stream whole", avail)
			}
		}
	}
	if intervals < 100 {
		t.Errorf("the streams took the belief down %d times in all; too few intervals compared", intervals)
	}
}

// TestFromRecordsAllocatesOnlyIntervals: the detector FromRecords builds
// stays on its stack (NewDetector inlines), so what it allocates is the
// interval list it returns.
func TestFromRecordsAllocatesOnlyIntervals(t *testing.T) {
	recs := make([]probe.Record, 2000)
	for i := range recs {
		recs[i] = probe.Record{T: int64(i) * 660, Up: i%7 != 0}
	}
	allocs := testing.AllocsPerRun(20, func() {
		ivs, err := FromRecords(recs, 0, Params{})
		if err != nil || len(ivs) != 0 {
			t.Fatalf("FromRecords = %v, %v on a stream with no outage", ivs, err)
		}
	})
	if allocs != 0 {
		t.Errorf("FromRecords allocates %.0f times on a stream with no outage, want 0", allocs)
	}
}
