package outage_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/events"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/netsim"
	"github.com/diurnalnet/diurnal/internal/outage"
	"github.com/diurnalnet/diurnal/internal/probe"
	"github.com/diurnalnet/diurnal/internal/stream"
)

// BenchmarkTraceReplay times the outage belief's re-run over every block's
// trace of the stream package's 8-block faulty test world (the world of
// BenchmarkRefreshAtRound), built from each block's streams merged in
// time order up to days 14, 42 and 84 of the 84:
//
//	go test -run '^$' -bench TraceReplay ./internal/outage
//
// Two sub-benchmarks per day:
//
//   - full replays a trace with no certificate: every record, with the
//     certification walked alongside — what a refresh pays when the
//     block's availability has left its certificate's interval;
//   - certified replays the trace certified at the same availability, the
//     refresh of every other day.
func BenchmarkTraceReplay(b *testing.B) {
	start := netsim.Date(2020, time.January, 1)
	end := start + 12*7*netsim.SecondsPerDay
	world, err := dataset.BuildWorld(dataset.WorldOpts{Blocks: 8, Seed: 4242, Calendar: events.Year2020(), Start: start, End: end})
	if err != nil {
		b.Fatal(err)
	}
	cc := core.DefaultConfig(start, end)
	cc.BaselineStart, cc.BaselineEnd = start, netsim.Date(2020, time.January, 29)
	eng := &faults.Engine{
		Inner: &probe.Engine{Observers: probe.StandardObservers(3), QuarterSeed: 11},
		Plan:  faults.DefaultPlan(3, 0.3, start, 23),
	}
	f, err := stream.NewFeeder(context.Background(), eng, world, stream.Config{Core: cc})
	if err != nil {
		b.Fatal(err)
	}
	rounds := make([]*stream.Round, f.Rounds())
	for i := range rounds {
		if rounds[i], err = f.Round(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	for _, day := range []int{14, 42, 84} {
		// Each block's records of the first day rounds, merged in time
		// order (observer order within a timestamp), and its reply rate.
		merged := make([][]probe.Record, len(world))
		avail := make([]float64, len(world))
		for blk := range world {
			var recs []probe.Record
			for _, r := range rounds[:day] {
				for _, s := range r.Blocks[blk] {
					recs = append(recs, s...)
				}
			}
			sort.SliceStable(recs, func(i, j int) bool { return recs[i].T < recs[j].T })
			up := 0
			for _, r := range recs {
				if r.Up {
					up++
				}
			}
			merged[blk] = recs
			if len(recs) > 0 {
				avail[blk] = float64(up) / float64(len(recs))
			}
		}
		traces := make([]outage.Trace, len(world))
		var buf []probe.Record
		replayAll := func(b *testing.B) {
			for blk := range traces {
				if avail[blk] == 0 {
					continue
				}
				d, err := outage.NewDetector(avail[blk], outage.Params{})
				if err != nil {
					b.Fatal(err)
				}
				buf = traces[blk].Replay(d, buf)
			}
		}
		b.Run(fmt.Sprintf("day=%d/full", day), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for blk := range traces {
					traces[blk].Reset()
					traces[blk].Append(merged[blk])
				}
				b.StartTimer()
				replayAll(b)
			}
		})
		b.Run(fmt.Sprintf("day=%d/certified", day), func(b *testing.B) {
			for blk := range traces {
				traces[blk].Reset()
				traces[blk].Append(merged[blk])
			}
			replayAll(b) // certifies
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replayAll(b)
			}
		})
	}
}
