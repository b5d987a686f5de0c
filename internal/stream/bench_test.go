package stream

// BenchmarkStreamingStep measures the steady-state per-round cost of the
// streaming detector — accumulation and the amortized share of weekly
// refreshes — on a small faulty world. This is the number that bounds how
// far behind real time a daemon can fall. The lanes=1 and
// lanes=GOMAXPROCS sub-benchmarks show what the refresh's parallel phase
// buys on this machine.

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/core"
	"github.com/diurnalnet/diurnal/internal/faults"
	"github.com/diurnalnet/diurnal/internal/probe"
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
			det := testDetector(b, cfg, world, f.Observers(), lanes)
			seq := int64(0)
			for i := 0; i < b.N; i++ {
				if seq == f.Rounds() {
					b.StopTimer()
					det = testDetector(b, cfg, world, f.Observers(), lanes)
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

// BenchmarkRefreshAtRound reads one daily refresh of the 8-block faulty
// world, on one lane, at rounds 14, 42 and 84 of its 84. Three
// sub-benchmarks per round:
//
//   - batch is the kernel over a copy of every block's whole history, the
//     way each refresh ran before the front half was incremental;
//   - advance is every block's core.FrontState advanced by the round's
//     records, rebuilt over the whole history when it refuses them, as the
//     detector does;
//   - refresh is advance plus the analysis of each block's state.
//
// advance and refresh run the week of rounds ending at the round, and
// rebuild the states outside the timer before each week:
//
//	go test -run '^$' -bench RefreshAtRound -benchtime 70x ./internal/stream
func BenchmarkRefreshAtRound(b *testing.B) {
	world := testWorld(b, 8, 4242)
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
	// Every block's streams as the detector accumulates them, and where
	// each round ends in them.
	acc := make([][][]probe.Record, len(world))
	ends := make([][][]int, len(world))
	for blk := range world {
		acc[blk] = make([][]probe.Record, f.Observers())
		ends[blk] = make([][]int, f.Rounds())
	}
	rounds := make([]*Round, f.Rounds())
	for i := range rounds {
		if rounds[i], err = f.Round(int64(i)); err != nil {
			b.Fatal(err)
		}
		for blk, perObs := range rounds[i].Blocks {
			for o, recs := range perObs {
				acc[blk][o] = append(acc[blk][o], recs...)
				ends[blk][i] = append(ends[blk][i], len(acc[blk][o]))
			}
		}
	}
	// history returns block blk's records of rounds [0, n).
	history := func(blk, n int) [][]probe.Record {
		out := make([][]probe.Record, f.Observers())
		for o := range out {
			if n > 0 {
				out[o] = acc[blk][o][:ends[blk][n-1][o]]
			}
		}
		return out
	}
	const week = 7
	sc := core.NewScratch()
	for _, at := range []int{14, 42, 84} {
		b.Run(fmt.Sprintf("round=%d/batch", at), func(b *testing.B) {
			var bufs [][]probe.Record
			for i := 0; i < b.N; i++ {
				for blk, wb := range world {
					bufs = bufs[:0]
					for _, s := range history(blk, at) {
						bufs = append(bufs, append([]probe.Record(nil), s...))
					}
					if _, err := cfg.Core.AnalyzeCollectedScratch(bufs, wb.EverActive(), sc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		fronts := make([]*core.FrontState, len(world))
		for blk, wb := range world {
			fronts[blk] = resolveCore(b, cfg.Core).NewFrontState(wb.EverActive())
		}
		for _, analyze := range []bool{false, true} {
			name := "advance"
			if analyze {
				name = "refresh"
			}
			b.Run(fmt.Sprintf("round=%d/%s", at, name), func(b *testing.B) {
				next, rebuilds := at, 0
				for i := 0; i < b.N; i++ {
					if next == at {
						b.StopTimer()
						for blk, fs := range fronts {
							fs.Reset()
							fs.Advance(history(blk, at-week))
						}
						next = at - week
						b.StartTimer()
					}
					for blk, fs := range fronts {
						if !fs.Advance(rounds[next].Blocks[blk]) {
							rebuilds++
							fs.Reset()
							fs.Advance(history(blk, next+1))
						}
						if analyze {
							if _, err := fs.Analyze(sc); err != nil {
								b.Fatal(err)
							}
						}
					}
					next++
				}
				b.ReportMetric(float64(rebuilds)/float64(b.N), "rebuilds/op")
			})
		}
	}
}

// BenchmarkReopen reopens a daemon killed right after a round's refresh,
// half way through the stream and at its end, on an 8-block world
// refreshed every round:
//
//	go test -run '^$' -bench Reopen -benchtime 10x ./internal/stream
//
// A reopen restores the last refresh checkpoint and analyzes nothing;
// what it saves moves to the first live operation, whose refresh
// advances every block's fresh front half over the whole history — the
// next round's Ingest and Drain half way, Result at the end. Per op it
// reports reopen-ms, the Open on GOMAXPROCS lanes; kernel-calls, the
// blocks the reopen and the first live operation analyze together;
// first-live-ms, the first live operation; and, half way, steady-ms, the
// round after it, whose refresh advances the front halves by one round.
func BenchmarkReopen(b *testing.B) {
	world := testWorld(b, 8, 4242)
	cfg := testConfig()
	cfg.RefreshEvery = 1
	f := testFeeder(b, testEngine(11), world, cfg)
	ctx := context.Background()
	for _, at := range []struct {
		name   string
		rounds int64
	}{{"half", f.Rounds() / 2}, {"full", f.Rounds()}} {
		b.Run(at.name, func(b *testing.B) {
			// The directory a kill right after round at.rounds-1 leaves.
			dir := b.TempDir()
			d, err := Open(dir, world, f.Observers(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			d.Start()
			for seq := int64(0); seq < at.rounds; seq++ {
				r, err := f.Round(seq)
				if err != nil {
					b.Fatal(err)
				}
				if err := d.Ingest(ctx, r); err != nil {
					b.Fatal(err)
				}
				if err := d.Drain(ctx); err != nil {
					b.Fatal(err)
				}
			}
			d.Abort()
			files := readTree(b, dir)
			var next, after *Round
			if at.rounds+1 < f.Rounds() {
				if next, err = f.Round(at.rounds); err != nil {
					b.Fatal(err)
				}
				if after, err = f.Round(at.rounds + 1); err != nil {
					b.Fatal(err)
				}
			}
			var calls atomic.Int64
			var kernel int64
			var reopen, first, steady time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := writeTree(b, files)
				b.StartTimer()
				t0 := time.Now()
				d, err := open(dir, world, f.Observers(), cfg, runtime.GOMAXPROCS(0), func(int) { calls.Add(1) })
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				d.Start()
				if next != nil {
					if err := d.Ingest(ctx, next); err != nil {
						b.Fatal(err)
					}
					err = d.Drain(ctx)
				} else {
					_, err = d.Result()
				}
				if err != nil {
					b.Fatal(err)
				}
				reopen += t1.Sub(t0)
				first += time.Since(t1)
				kernel += calls.Swap(0)
				if after != nil {
					t2 := time.Now()
					if err := d.Ingest(ctx, after); err != nil {
						b.Fatal(err)
					}
					if err := d.Drain(ctx); err != nil {
						b.Fatal(err)
					}
					steady += time.Since(t2)
					calls.Store(0)
				}
				b.StopTimer()
				d.Abort()
				b.StartTimer()
			}
			n := float64(b.N)
			b.ReportMetric(float64(reopen.Microseconds())/1e3/n, "reopen-ms")
			b.ReportMetric(float64(kernel)/n, "kernel-calls")
			b.ReportMetric(float64(first.Microseconds())/1e3/n, "first-live-ms")
			if after != nil {
				b.ReportMetric(float64(steady.Microseconds())/1e3/n, "steady-ms")
			}
		})
	}
}

// frameSink keeps BenchmarkRoundFrame's encodings live.
var frameSink []byte

// BenchmarkRoundFrame encodes and decodes every round of a faulty feed
// over 8 blocks and 3 observers as a round-journal frame payload: packed,
// as the daemon journals rounds, and gob, as earlier versions did and
// the read-only decoder still reads:
//
//	go test -run '^$' -bench RoundFrame ./internal/stream
//
// Per op it reports us/round and B/round, the payload's size.
func BenchmarkRoundFrame(b *testing.B) {
	world := testWorld(b, 8, 4242)
	start, _ := testWindow()
	eng := &faults.Engine{Inner: testEngine(11), Plan: faults.DefaultPlan(3, 0.3, start, 23)}
	f := testFeeder(b, eng, world, testConfig().withDefaults())
	rounds := make([]*Round, f.Rounds())
	for i := range rounds {
		r, err := f.Round(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		rounds[i] = r
	}
	codecs := []struct {
		name   string
		encode func(r *Round) []byte
	}{
		{"packed", func(r *Round) []byte { return encodeRoundFrame(nil, r) }},
		{"gob", func(r *Round) []byte {
			var buf bytes.Buffer
			buf.WriteByte(frameGobRound)
			if err := gob.NewEncoder(&buf).Encode(r); err != nil {
				b.Fatal(err)
			}
			return buf.Bytes()
		}},
	}
	for _, c := range codecs {
		payloads := make([][]byte, len(rounds))
		var size int
		for i, r := range rounds {
			payloads[i] = c.encode(r)
			size += len(payloads[i])
		}
		report := func(b *testing.B, elapsed time.Duration) {
			n := float64(b.N) * float64(len(rounds))
			b.ReportMetric(float64(elapsed.Nanoseconds())/1e3/n, "us/round")
			b.ReportMetric(float64(size)/float64(len(rounds)), "B/round")
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				for _, r := range rounds {
					frameSink = c.encode(r)
				}
			}
			report(b, time.Since(t0))
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				for _, p := range payloads {
					if _, err := decodeStreamFrame(p); err != nil {
						b.Fatal(err)
					}
				}
			}
			report(b, time.Since(t0))
		})
	}
}
