package diurnal

import (
	"context"
	"fmt"
	"testing"
)

// scalingRun runs the world end to end at the given worker count and
// returns a fingerprint of its result: the per-cell change-sensitive
// counts and the per-cell daily down/up alarm counts (fmt prints maps in
// key order, so equal results print equal).
func scalingRun(t *testing.T, workers int) string {
	t.Helper()
	start, end := Date(2020, 1, 1), Date(2020, 2, 26)
	w, err := NewWorld(WorldOptions{
		Blocks: 24, Seed: 1, Calendar: Calendar2020(), Start: start, End: end,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.RunContext(context.Background(), DefaultConfig(start, end),
		RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(rep.ChangeSensitiveCount(), rep.CellCS, rep.DownDaily, rep.UpDaily)
}

// TestScalingSmoke is the CI guard on the pipeline's worker scheduling: a
// repeated run reproduces its result, and a 4-worker run agrees with a
// 1-worker run. It checks determinism only. Wall-clock comparisons
// between the two widths flaked under full-suite load. BenchmarkScalingWorkers
// measures the scaling curve on real cores.
func TestScalingSmoke(t *testing.T) {
	serial := scalingRun(t, 1)
	if again := scalingRun(t, 1); again != serial {
		t.Fatalf("1-worker reruns disagree:\n%s\nvs\n%s", serial, again)
	}
	for rep := 0; rep < 2; rep++ {
		if parallel := scalingRun(t, 4); parallel != serial {
			t.Fatalf("4-worker run %d disagrees with 1 worker:\n%s\nvs\n%s", rep, parallel, serial)
		}
	}
}
