package health

import (
	"testing"
	"time"
)

func observeUniform(t *Tracker, rates []float64, total int) {
	samples := make([]Sample, len(rates))
	for i, r := range rates {
		samples[i] = Sample{Up: int(r * float64(total)), Total: total}
	}
	t.ObserveBlock(samples)
}

func TestBreakerTripAndReadmit(t *testing.T) {
	tr := NewTracker(BreakerConfig{Alpha: 0.5, Tol: 0.2, MinSamples: 2, Cooldown: 3, Probation: 2})

	healthy := []float64{0.9, 0.9, 0.9, 0.9}
	for i := 0; i < 4; i++ {
		observeUniform(tr, healthy, 100)
	}
	if ex := tr.Excluded(); len(ex) != 0 {
		t.Fatalf("no breaker should be open on healthy input, got %v", ex)
	}

	// Observer 3 collapses; with Alpha 0.5 its score halves each block and
	// crosses median-0.2 within a few blocks.
	degraded := []float64{0.9, 0.9, 0.9, 0.0}
	opened := false
	for i := 0; i < 6 && !opened; i++ {
		observeUniform(tr, degraded, 100)
		for _, ex := range tr.Excluded() {
			if ex == 3 {
				opened = true
			}
		}
	}
	if !opened {
		t.Fatalf("observer 3 breaker never opened; scores %v states %v", tr.Scores(), tr.States())
	}

	// Breaker open: cooldown, then probation with recovered signal.
	for i := 0; i < 3; i++ {
		observeUniform(tr, healthy, 100)
	}
	if st := tr.States()[3]; st != HalfOpen {
		t.Fatalf("after cooldown want half-open, got %v", st)
	}
	for i := 0; i < 8; i++ {
		observeUniform(tr, healthy, 100)
		if tr.States()[3] == Closed {
			break
		}
	}
	if st := tr.States()[3]; st != Closed {
		t.Fatalf("recovered observer should be readmitted, got %v (score %.3f)", st, tr.Scores()[3])
	}

	var seen []string
	for _, tx := range tr.Transitions() {
		if tx.Observer == 3 {
			seen = append(seen, tx.From.String()+"->"+tx.To.String())
		}
	}
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(seen) != len(want) {
		t.Fatalf("transition log %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition log %v, want %v", seen, want)
		}
	}
}

func TestBreakerMinHealthyFloor(t *testing.T) {
	tr := NewTracker(BreakerConfig{Alpha: 1, Tol: 0.1, MinSamples: 1, minHealthy: 2})
	// Two observers, both would be "below median - tol" of each other in
	// turn; minHealthy 2 must suppress every trip.
	for i := 0; i < 5; i++ {
		tr.ObserveBlock([]Sample{{Up: 90, Total: 100}, {Up: 0, Total: 100}})
	}
	if ex := tr.Excluded(); len(ex) != 0 {
		t.Fatalf("minHealthy=2 with 2 observers must never trip, got %v", ex)
	}
}

func TestSeedAgreesWithPreScan(t *testing.T) {
	tr := NewTracker(BreakerConfig{MinSamples: 8})
	tr.Seed([]float64{0.9, 0.88, 0.2, 0.91}, []int{2})

	if ex := tr.Excluded(); len(ex) != 1 || ex[0] != 2 {
		t.Fatalf("pre-scan excluded observer must start open, got %v", ex)
	}
	txs := tr.Transitions()
	if len(txs) != 1 || txs[0].Observer != 2 || txs[0].To != Open || txs[0].Seq != 0 {
		t.Fatalf("seeding must log the pre-scan exclusion at seq 0, got %+v", txs)
	}
	// Seeded scores count as fully sampled: a healthy observer collapsing
	// right away can trip without waiting out MinSamples fresh blocks.
	scores := tr.Scores()
	if scores[0] != 0.9 || scores[2] != 0.2 {
		t.Fatalf("seed scores not installed: %v", scores)
	}
}

func TestSeedExcludedReadmission(t *testing.T) {
	tr := NewTracker(BreakerConfig{Alpha: 0.5, Tol: 0.2, MinSamples: 2, Cooldown: 2, Probation: 2})
	tr.Seed([]float64{0.9, 0.9, 0.1}, []int{2})
	healthy := []float64{0.9, 0.9, 0.9}
	for i := 0; i < 12; i++ {
		observeUniform(tr, healthy, 100)
		if tr.States()[2] == Closed {
			return
		}
	}
	t.Fatalf("pre-scan-excluded observer that recovered was never readmitted: states %v scores %v",
		tr.States(), tr.Scores())
}

func TestZeroTotalScoresAsDead(t *testing.T) {
	tr := NewTracker(BreakerConfig{Alpha: 1, Tol: 0.2, MinSamples: 1})
	tr.ObserveBlock([]Sample{{Up: 90, Total: 100}, {Up: 80, Total: 100}, {Up: 0, Total: 0}})
	if s := tr.Scores()[2]; s != 0 {
		t.Fatalf("empty stream must score 0, got %v", s)
	}
}

func TestLatencyDeadline(t *testing.T) {
	l := NewLatency(HedgeConfig{Multiplier: 2, Quantile: 0.95, MinSamples: 4, MinDeadline: time.Millisecond})
	if _, ok := l.Deadline(); ok {
		t.Fatal("deadline must stay disarmed before MinSamples")
	}
	for i := 1; i <= 20; i++ {
		l.Observe(time.Duration(i) * 10 * time.Millisecond)
	}
	d, ok := l.Deadline()
	if !ok {
		t.Fatal("deadline should be armed after 20 samples")
	}
	// p95 of 10..200ms is 190ms; ×2 = 380ms.
	if want := 380 * time.Millisecond; d != want {
		t.Fatalf("deadline = %v, want %v", d, want)
	}
}

func TestLatencyMinDeadlineFloor(t *testing.T) {
	l := NewLatency(HedgeConfig{Multiplier: 3, MinSamples: 2, MinDeadline: 25 * time.Millisecond})
	for i := 0; i < 4; i++ {
		l.Observe(time.Microsecond)
	}
	d, ok := l.Deadline()
	if !ok || d != 25*time.Millisecond {
		t.Fatalf("tiny latencies must floor at MinDeadline, got %v ok=%v", d, ok)
	}
}

func TestLatencyWindowAgesOut(t *testing.T) {
	l := NewLatency(HedgeConfig{Multiplier: 1, Quantile: 1, MinSamples: 1, MinDeadline: time.Nanosecond})
	l.Observe(time.Hour)
	for i := 0; i < latencyWindow; i++ {
		l.Observe(time.Millisecond)
	}
	d, ok := l.Deadline()
	if !ok || d != time.Millisecond {
		t.Fatalf("hour-long outlier should have aged out of the ring, got %v", d)
	}
}

func TestFakeClock(t *testing.T) {
	f := NewFake()
	ch := f.After(10 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("fake After fired before Advance")
	default:
	}
	f.Advance(5 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("fake After fired early")
	default:
	}
	f.Advance(5 * time.Millisecond)
	select {
	case at := <-ch:
		if want := time.Unix(0, 0).Add(10 * time.Millisecond); !at.Equal(want) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("fake After did not fire at its deadline")
	}
	if got := f.Now(); !got.Equal(time.Unix(0, 0).Add(10 * time.Millisecond)) {
		t.Fatalf("Now = %v", got)
	}
	// Immediate fire for non-positive d.
	select {
	case <-f.After(0):
	default:
		t.Fatal("After(0) must fire immediately")
	}
}

// States returns the current breaker states by observer index.
func (t *Tracker) States() []State {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]State, len(t.obs))
	for i := range t.obs {
		out[i] = t.obs[i].state
	}
	return out
}
