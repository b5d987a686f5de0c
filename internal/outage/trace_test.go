package outage

import (
	"math"
	"math/rand"
	"testing"

	"github.com/diurnalnet/diurnal/internal/probe"
)

// TestTraceReplay: a detector replaying a trace ends exactly where one fed
// the records does, whatever pieces the trace was appended in — with runs
// of equal timestamps, steps back in time and the ends of the int64 range
// among them, and traces longer than Replay's chunk.
func TestTraceReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		recs := randomResponses(rng, rng.Intn(5000))
		for i := range recs {
			switch rng.Intn(40) {
			case 0:
				recs[i].T = math.MaxInt64
			case 1:
				recs[i].T = math.MinInt64
			case 2, 3, 4:
				if i > 0 {
					recs[i].T = recs[i-1].T
				}
			case 5:
				recs[i].T -= 100000
			}
		}
		var tr Trace
		for rest := recs; len(rest) > 0; {
			n := min(len(rest), 1+rng.Intn(200))
			tr.Append(rest[:n])
			rest = rest[n:]
		}
		if n, up := tr.Len(); n != len(recs) || up != responsive(recs) {
			t.Fatalf("trial %d: Len = %d, %d; want %d, %d", trial, n, up, len(recs), responsive(recs))
		}
		availability := 0.05 + 0.9*rng.Float64()
		want, err := NewDetector(availability, Params{})
		if err != nil {
			t.Fatal(err)
		}
		want.ObserveAll(recs)
		got, _ := NewDetector(availability, Params{})
		tr.Replay(got, nil)
		if !sameDetector(got, want) {
			t.Fatalf("trial %d (%d records, availability %v): replayed belief %v, state %v, outages %v; fed %v, %v, %v",
				trial, len(recs), availability, got.belief, got.state, got.outages, want.belief, want.state, want.outages)
		}
		tr.Reset()
		if n, _ := tr.Len(); n != 0 {
			t.Fatalf("trial %d: %d records after Reset", trial, n)
		}
	}
}

func responsive(recs []probe.Record) int {
	n := 0
	for _, r := range recs {
		if r.Up {
			n++
		}
	}
	return n
}
