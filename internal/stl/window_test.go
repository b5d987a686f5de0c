package stl

import (
	"math"
	"math/rand"
	"testing"
)

// diurnalSeries builds n hourly samples of a noisy daily rhythm with a
// mid-series level drop.
func diurnalSeries(rng *rand.Rand, n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		level := 50.0
		if i > n/2 {
			level = 35
		}
		y[i] = level + 10*math.Sin(2*math.Pi*float64(i)/24) + rng.NormFloat64()
	}
	return y
}

// TestWindowSettling grows the series refresh by refresh and checks that
// (a) the settled prefix is monotone nondecreasing, (b) it eventually
// advances past zero, and (c) every settled sample's trend stays within
// Eps of the final full-series trend — the property the streaming daemon
// relies on for early emission.
func TestWindowSettling(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const total = 24 * 7 * 8 // 8 weeks hourly
	y := diurnalSeries(rng, total)
	opts := DefaultOpts(168)
	opts.Periodic = true
	opts.Trend = 168 + 25

	// One refresh, as the daemon runs it: decompose in a workspace of the
	// caller's, show the trend to the Window.
	var ws Workspace
	var res Result
	refresh := func(w *Window, n int) {
		t.Helper()
		if err := ws.DecomposeInto(&res, y[:n], opts); err != nil {
			t.Fatal(err)
		}
		w.Observe(res.Trend)
	}

	w := Window{Eps: 0.05}
	var finalTrend []float64
	prevSettled := 0
	for n := 24 * 7 * 3; n <= total; n += 24 {
		refresh(&w, n)
		if s := w.Settled(); s < prevSettled {
			t.Fatalf("settled went backward: %d -> %d", prevSettled, s)
		} else {
			prevSettled = s
		}
		if n == total {
			finalTrend = append(finalTrend, res.Trend...)
		}
	}
	if prevSettled == 0 {
		t.Fatal("settled prefix never advanced")
	}
	// Rewind: replay the refreshes and verify the settled prefix never
	// drifts far from the final trend. With a Periodic seasonal, growing
	// the series redistributes level between trend and seasonal globally,
	// so settled samples do creep — but the creep must stay far below the
	// 15-address level drop the detector is looking for, or early
	// emission from the settled prefix would be unsound.
	w2 := Window{Eps: 0.05}
	for n := 24 * 7 * 3; n <= total; n += 24 {
		refresh(&w2, n)
		for i := 0; i < w2.Settled(); i++ {
			if d := math.Abs(w2.prev[i] - finalTrend[i]); d > 2.0 {
				t.Fatalf("settled sample %d (frontier %d at n=%d) drifted %g vs final trend", i, w2.Settled(), n, d)
			}
		}
	}
}

// TestWindowReset clears history so a restarted tracker re-settles from
// scratch.
func TestWindowReset(t *testing.T) {
	var w Window
	w.Observe([]float64{1, 2, 3})
	w.Observe([]float64{1, 2, 3, 4})
	w.Reset()
	if w.Settled() != 0 || len(w.prev) != 0 {
		t.Fatalf("Reset left state: %v", w.String())
	}
}

// TestWindowLagGuard: with the default lag the frontier trails the quiet
// prefix by DefaultSettleLag; with Lag < 0 it does not.
func TestWindowLagGuard(t *testing.T) {
	trend := make([]float64, 300)
	guarded := Window{}
	guarded.Observe(trend)
	guarded.Observe(trend) // fully quiet
	if got, want := guarded.Settled(), 300-DefaultSettleLag; got != want {
		t.Errorf("guarded settled = %d, want %d", got, want)
	}
	eager := Window{Lag: -1}
	eager.Observe(trend)
	eager.Observe(trend)
	if got := eager.Settled(); got != 300 {
		t.Errorf("unguarded settled = %d, want 300", got)
	}
}

// Reset clears all refresh history.
func (w *Window) Reset() {
	w.prev = w.prev[:0]
	w.settled = 0
}

// Settled returns the settled prefix length: trend samples [0, Settled)
// are considered final. It never decreases.
func (w *Window) Settled() int { return w.settled }
