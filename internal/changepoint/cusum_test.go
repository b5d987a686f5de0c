package changepoint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// step builds a series of n samples with a level shift at cut, transitioning
// linearly over ramp samples from level a to b.
func step(n, cut, ramp int, a, b float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch {
		case i < cut:
			x[i] = a
		case i >= cut+ramp:
			x[i] = b
		default:
			frac := float64(i-cut) / float64(ramp)
			x[i] = a + (b-a)*frac
		}
	}
	return x
}

func TestDetectDownwardStep(t *testing.T) {
	x := Normalize(step(500, 250, 20, 20, 5))
	changes, err := Detect(x, DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 {
		t.Fatalf("got %d changes, want 1: %+v", len(changes), changes)
	}
	c := changes[0]
	if c.Dir != Down {
		t.Errorf("direction = %v, want down", c.Dir)
	}
	if c.Start < 240 || c.Start > 260 {
		t.Errorf("start = %d, want ~250", c.Start)
	}
	if c.Alarm < c.Start || c.Alarm > 280 {
		t.Errorf("alarm = %d out of expected range", c.Alarm)
	}
	if c.End < c.Alarm || c.End > 285 {
		t.Errorf("end = %d, want within the ramp (alarm=%d)", c.End, c.Alarm)
	}
	if c.Amplitude >= 0 {
		t.Errorf("amplitude = %g, want negative", c.Amplitude)
	}
}

func TestDetectUpwardStep(t *testing.T) {
	x := Normalize(step(500, 250, 20, 5, 20))
	changes, err := Detect(x, DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || changes[0].Dir != Up {
		t.Fatalf("got %+v, want one upward change", changes)
	}
	if changes[0].Amplitude <= 0 {
		t.Errorf("amplitude = %g, want positive", changes[0].Amplitude)
	}
}

func TestDetectNoChangeOnFlat(t *testing.T) {
	x := make([]float64, 400)
	for i := range x {
		x[i] = 7
	}
	changes, err := Detect(Normalize(x), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("flat series produced changes: %+v", changes)
	}
}

func TestDetectNoChangeOnSmallNoise(t *testing.T) {
	// Mild noise around a constant should not trip the threshold after
	// normalization... it can, because z-scoring amplifies pure noise.
	// Instead verify drift suppresses slow linear ramps.
	n := 1000
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i) * 0.0005 // total rise 0.5 over the series
	}
	// With drift larger than the per-sample slope, no alarm.
	changes, err := Detect(x, Opts{Threshold: 1, Drift: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("slow ramp below drift produced changes: %+v", changes)
	}
}

func TestDetectOutagePair(t *testing.T) {
	// Down then up shortly after: an outage signature.
	n := 600
	x := make([]float64, n)
	for i := range x {
		x[i] = 20.0
		if i >= 290 && i < 310 {
			x[i] = 2 // 20-sample outage
		}
	}
	changes, err := Detect(Normalize(x), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) < 2 {
		t.Fatalf("expected >= 2 changes for an outage, got %+v", changes)
	}
}

func TestDetectErrors(t *testing.T) {
	if _, err := Detect([]float64{1, 2}, Opts{Threshold: 0}); err == nil {
		t.Error("expected error for zero threshold")
	}
	if _, err := Detect([]float64{1, 2}, Opts{Threshold: 1, Drift: -1}); err == nil {
		t.Error("expected error for negative drift")
	}
}

func TestDetectShortSeries(t *testing.T) {
	for _, x := range [][]float64{nil, {1}, {1, 1}} {
		changes, err := Detect(x, DefaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(changes) != 0 {
			t.Fatalf("short series %v produced changes", x)
		}
	}
}

func TestDetectWithSumsTraces(t *testing.T) {
	x := Normalize(step(300, 150, 10, 10, 0))
	changes, sums, err := DetectWithSums(x, DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(sums.Pos) != len(x) || len(sums.Neg) != len(x) {
		t.Fatal("sums length mismatch")
	}
	if len(changes) == 0 {
		t.Fatal("expected a change")
	}
	// The negative sum must have grown before the alarm.
	a := changes[0].Alarm
	if sums.Neg[a-1] <= 0 {
		t.Fatalf("negative cumulative sum at alarm-1 = %g, want > 0", sums.Neg[a-1])
	}
	// All sums are non-negative by construction.
	for i := range sums.Pos {
		if sums.Pos[i] < 0 || sums.Neg[i] < 0 {
			t.Fatalf("negative cumulative sum at %d", i)
		}
	}
}

func TestDetectOrderedProperty(t *testing.T) {
	// Property: changes come out in time order with Start <= Alarm <= End,
	// for random piecewise-constant series.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 400
		x := make([]float64, n)
		level := rng.Float64() * 10
		for i := range x {
			if rng.Float64() < 0.01 {
				level += (rng.Float64() - 0.5) * 20
			}
			x[i] = level + rng.NormFloat64()*0.05
		}
		changes, err := Detect(Normalize(x), DefaultOpts())
		if err != nil {
			return false
		}
		prev := -1
		for _, c := range changes {
			if c.Start > c.Alarm || c.Alarm > c.End {
				return false
			}
			if c.Alarm <= prev {
				return false
			}
			prev = c.Alarm
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDetectPointOfLargestChange(t *testing.T) {
	// The paper reports the point of change for its example block as the
	// midpoint of a WFH transition; verify start and end bracket the true
	// transition for a realistic trend shape.
	n := 1000
	cut := 600
	x := make([]float64, n)
	for i := range x {
		x[i] = 15 - 10/(1+math.Exp(-float64(i-cut)/15))
	}
	changes, err := Detect(Normalize(x), DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 {
		t.Fatalf("want 1 change, got %+v", changes)
	}
	c := changes[0]
	if c.Start > cut || c.End < cut {
		t.Fatalf("change [%d,%d] does not bracket true cut %d", c.Start, c.End, cut)
	}
}

func TestNormalizeDelegates(t *testing.T) {
	z := Normalize([]float64{1, 2, 3})
	if len(z) != 3 || math.Abs(z[0]+z[2]) > 1e-12 {
		t.Fatalf("Normalize = %v", z)
	}
}

// TestDetectEmptyTrend: an empty series (a block with no trend at all,
// e.g. never-responsive) must detect nothing, return usable empty sums,
// and not error — callers feed STL output straight in without length
// checks.
func TestDetectEmptyTrend(t *testing.T) {
	for _, x := range [][]float64{nil, {}} {
		changes, sums, err := DetectWithSums(x, DefaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(changes) != 0 {
			t.Fatalf("empty series detected %+v", changes)
		}
		if sums == nil || len(sums.Pos) != len(x) || len(sums.Neg) != len(x) {
			t.Fatalf("sums not usable for empty input: %+v", sums)
		}
	}
}

// TestDetectSingleSample: one sample has no differences to accumulate;
// the detector must return cleanly with sums of length 1.
func TestDetectSingleSample(t *testing.T) {
	changes, sums, err := DetectWithSums([]float64{3.14}, DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("single sample detected %+v", changes)
	}
	if len(sums.Pos) != 1 || len(sums.Neg) != 1 || sums.Pos[0] != 0 || sums.Neg[0] != 0 {
		t.Fatalf("single-sample sums = %+v", sums)
	}
}

// TestDetectAllNaN: a trend of NaNs (every z-score undefined — a block
// whose activity series is all gaps) must not alarm and must not panic.
// NaN comparisons are false, so the cumulative sums poison to NaN and the
// threshold test never fires; the contract is zero changes, not garbage
// ones.
func TestDetectAllNaN(t *testing.T) {
	x := make([]float64, 64)
	for i := range x {
		x[i] = math.NaN()
	}
	changes, err := Detect(x, DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("all-NaN series detected %+v", changes)
	}
	// The constant-series cousin: ZScore of a flat trend is all zeros
	// (zero variance), which likewise must stay silent.
	flat := Normalize([]float64{7, 7, 7, 7, 7, 7})
	changes, err = Detect(flat, DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("flat series detected %+v", changes)
	}
}

// TestDetectDriftSwampsExcursions: with drift larger than every
// first-difference, the cumulative sums are pinned at zero and even a
// real level shift must not alarm — the classical CUSUM dead zone. This
// nails the parameter semantics the paper relies on (drift 0.001 being
// far below real excursions).
func TestDetectDriftSwampsExcursions(t *testing.T) {
	// A slow ramp: every per-sample difference is 0.1, well under drift 1.
	x := step(200, 50, 100, 0, 10)
	changes, sums, err := DetectWithSums(x, Opts{Threshold: 1, Drift: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("drift-swamped series detected %+v", changes)
	}
	for i := range sums.Pos {
		if sums.Pos[i] != 0 || sums.Neg[i] != 0 {
			t.Fatalf("sums escaped the dead zone at %d: pos=%v neg=%v", i, sums.Pos[i], sums.Neg[i])
		}
	}
	// Sanity: the same shift with the paper's drift does alarm, so the
	// dead zone above is the drift's doing, not a broken detector.
	changes, err = Detect(x, DefaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) == 0 {
		t.Fatal("control detection found nothing; test series too weak")
	}
}

func BenchmarkDetectQuarter(b *testing.B) {
	// A quarter of hourly samples (~2200 points).
	x := Normalize(step(2200, 1500, 48, 20, 6))
	opts := DefaultOpts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(x, opts); err != nil {
			b.Fatal(err)
		}
	}
}
