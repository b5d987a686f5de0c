package core

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
)

// The two phases a guarded restart runs before its first block: the
// checkpoint decode and the suspect pre-scan.

// BenchmarkOpenCheckpoint reopens a finished 32-block journal: read,
// check, decode and index every frame. The Close behind each open (a
// sync) is left out of the timing.
func BenchmarkOpenCheckpoint(b *testing.B) {
	world := smallWorld(b, 32, 101)
	path := filepath.Join(b.TempDir(), "run.ckpt")
	cp, err := OpenCheckpoint(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := (&Pipeline{Config: q1Config(), Engine: engine4(), Checkpoint: cp}).Run(context.Background(), world); err != nil {
		b.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := OpenCheckpoint(path)
		if err != nil {
			b.Fatal(err)
		}
		if cp.Entries() != len(world) {
			b.Fatalf("reopened %d of %d entries", cp.Entries(), len(world))
		}
		b.StopTimer()
		if err := cp.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkSuspectPrescan sets up a run whose only set-up work is the
// pre-scan: 32 of 64 blocks sampled through the live prober, on one
// worker and on GOMAXPROCS.
func BenchmarkSuspectPrescan(b *testing.B) {
	world := smallWorld(b, 64, 101)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := &Pipeline{Config: q1Config(), Engine: engine4(), Workers: workers, ExcludeSuspects: true, HealthSample: 32}
			for i := 0; i < b.N; i++ {
				r, err := p.newRun(context.Background(), world)
				if err != nil {
					b.Fatal(err)
				}
				if len(r.res.Report.ObserverRates) == 0 {
					b.Fatal("the pre-scan sampled nothing")
				}
			}
		})
	}
}
