package diurnal

import (
	"context"
	"testing"
	"time"
)

// scalingRun times one end-to-end world run at the given worker count and
// returns its wall clock plus the change-sensitive count (a cheap
// determinism fingerprint).
func scalingRun(t *testing.T, workers int) (time.Duration, int) {
	t.Helper()
	start, end := Date(2020, 1, 1), Date(2020, 2, 26)
	w, err := NewWorld(WorldOptions{
		Blocks: 24, Seed: 1, Calendar: Calendar2020(), Start: start, End: end,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	rep, err := w.RunContext(context.Background(), DefaultConfig(start, end),
		RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return time.Since(t0), rep.ChangeSensitiveCount()
}

// TestScalingSmoke is the CI guard on the pipeline's worker scheduling: a
// 4-worker run must not regress more than 10% against a 1-worker run
// (min of 3 to shave scheduler noise), and both must agree on the
// result. On a single-core runner the two widths cost the same, so the
// bound catches scheduler overhead, admission deadlocks, and lock
// contention rather than demanding speedup; BenchmarkScalingWorkers
// measures the actual curve on real cores.
func TestScalingSmoke(t *testing.T) {
	minOver := func(workers, reps int) (time.Duration, int) {
		best, cs := scalingRun(t, workers)
		for i := 1; i < reps; i++ {
			d, c := scalingRun(t, workers)
			if c != cs {
				t.Fatalf("workers=%d: nondeterministic result (%d vs %d change-sensitive)", workers, c, cs)
			}
			if d < best {
				best = d
			}
		}
		return best, cs
	}
	serial, cs1 := minOver(1, 3)
	parallel, cs4 := minOver(4, 3)
	if cs1 != cs4 {
		t.Fatalf("1-worker and 4-worker runs disagree: %d vs %d change-sensitive blocks", cs1, cs4)
	}
	if limit := serial + serial/10; parallel > limit {
		t.Errorf("4-worker run regressed past 10%%: %v vs %v (1 worker)", parallel, serial)
	}
}
