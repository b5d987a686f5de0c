package stream

// BenchmarkStreamingStep measures the steady-state per-round cost of the
// streaming detector — accumulation, sliding-DFT updates, and the
// amortized share of weekly refreshes — on a small faulty world. This is
// the number that bounds how far behind real time a daemon can fall. The
// lanes=1 and lanes=GOMAXPROCS sub-benchmarks show what the refresh's
// parallel phase buys on this machine.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/diurnalnet/diurnal/internal/faults"
)

func BenchmarkStreamingStep(b *testing.B) {
	world := testWorld(b, 4, 4242)
	cfg := testConfig().withDefaults()
	start, _ := testWindow()
	eng := &faults.Engine{
		Inner: testEngine(11),
		Plan:  faults.DefaultPlan(3, 0.3, start, 23),
	}
	f, err := NewFeeder(context.Background(), eng, world, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rounds := make([]*Round, f.Rounds())
	for i := range rounds {
		r, err := f.Round(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		rounds[i] = r
	}
	for _, lanes := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			b.ReportAllocs()
			det := newDetector(cfg, world, f.Observers(), lanes)
			seq := int64(0)
			for i := 0; i < b.N; i++ {
				if seq == f.Rounds() {
					b.StopTimer()
					det = newDetector(cfg, world, f.Observers(), lanes)
					seq = 0
					b.StartTimer()
				}
				if _, err := det.ingest(rounds[seq]); err != nil {
					b.Fatal(err)
				}
				seq++
			}
		})
	}
}
